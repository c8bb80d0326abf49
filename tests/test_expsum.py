"""Exponential-sum machinery against literal big-integer oracles."""

import cmath
import csv
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsdim.expsum import (
    a_m,
    a_m_naive,
    certificate_gamma,
    certificate_t_range,
    check_sin_lower_bound,
    e_of,
    eta_constant,
    sin_ratio,
    sin_ratio_product,
    weyl_average,
    weyl_entropy_certificate,
    weyl_report,
)
from fsdim.schedule import ScaledGrowth, Schedule, TableGrowth


# --- oracles -----------------------------------------------------------------


def _oracle_weyl(x, b, t, n):
    # literal sum with exact big-integer powers, no incremental reduction
    f = Fraction(x) % 1
    total = 0j
    for j in range(1, n + 1):
        arg = (Fraction(t) * b ** (j - 1) * f) % 1
        total += cmath.exp(2j * cmath.pi * float(arg))
    return total / n


# --- e_of and weyl_average ---------------------------------------------------


def test_e_of_examples():
    assert e_of(0) == 1
    assert cmath.isclose(e_of(Fraction(1, 2)), -1, abs_tol=1e-15)
    assert cmath.isclose(e_of(Fraction(1, 4)), 1j, abs_tol=1e-15)
    assert abs(abs(e_of(0.1234)) - 1.0) < 1e-15


def test_weyl_average_period_two_orbit():
    # 1/3 doubles to 2/3 and back; pairs sum to e(1/3)+e(2/3) = -1
    for n in (2, 10, 40):
        assert cmath.isclose(weyl_average(Fraction(1, 3), 2, 1, n), -0.5, abs_tol=1e-12)


def test_weyl_average_absorbing_orbit():
    # orbit of 1/4 under doubling: 1/4, 1/2, 0, 0, ...
    n = 10
    avg = weyl_average(Fraction(1, 4), 2, 1, n)
    assert cmath.isclose(avg, (1j - 1 + (n - 2)) / n, abs_tol=1e-12)


def test_weyl_average_at_zero_and_validation():
    for t in (1, -3, 7):
        assert weyl_average(0, 2, t, 5) == 1
    with pytest.raises(ValueError):
        weyl_average(Fraction(1, 3), 2, 0, 5)
    with pytest.raises(ValueError):
        weyl_average(Fraction(1, 3), 1, 1, 5)
    with pytest.raises(ValueError):
        weyl_average(Fraction(1, 3), 2, 1, 0)


def test_weyl_average_matches_oracle():
    cases = [
        (Fraction(5, 97), 3, 2, 60),
        (Fraction(13, 64), 2, -1, 50),
        (Fraction(1, 7), 10, 5, 30),
        (0.3, 2, 3, 25),
        # past 2**64 the float phases still round once per term; the large
        # |t| stresses the 2*pi*|t|*2**-52 bound
        (Fraction(7**320, 4**300 * 3**200), 3, 7, 60),
        (Fraction(7**320, 4**300 * 3**200), 5, 10**5, 40),
        (Fraction(1, 7), 10, -(10**5), 30),
    ]
    for x, b, t, n in cases:
        assert cmath.isclose(weyl_average(x, b, t, n), _oracle_weyl(x, b, t, n), abs_tol=1e-9)


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=500),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=-6, max_value=6).filter(lambda t: t != 0),
    st.integers(min_value=1, max_value=60),
)
def test_weyl_average_modulus_at_most_one(x, b, t, n):
    assert abs(weyl_average(x, b, t, n)) <= 1 + 1e-12


# --- reports and the certificate ----------------------------------------------


def test_weyl_report_matches_per_t_averages():
    x, b, n = Fraction(5, 97), 3, 500
    report = weyl_report(x, b, 20, n)
    assert report.t_range == 20 and set(report.averages) == set(range(1, 21))
    for t in range(1, 21):
        assert cmath.isclose(report.averages[t], weyl_average(x, b, t, n), abs_tol=1e-9)
    assert report.max_modulus <= 1 + 1e-12
    # float x has a 2**54 denominator and takes the phase path; same contract
    small = weyl_report(0.3, 2, 4, 40)
    for t in range(1, 5):
        assert cmath.isclose(small.averages[t], weyl_average(0.3, 2, t, 40), abs_tol=1e-9)


def test_weyl_report_csv(tmp_path):
    report = weyl_report(Fraction(5, 97), 3, 6, 100)
    path = tmp_path / "weyl.csv"
    report.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "re", "im", "modulus"]
    assert len(rows) == 7
    for row in rows[1:]:
        t = int(row[0])
        val = complex(float(row[1]), float(row[2]))
        assert cmath.isclose(val, report.averages[t], abs_tol=1e-9)
        assert math.isclose(float(row[3]), abs(report.averages[t]), abs_tol=1e-9)


def test_certificate_constants():
    assert certificate_t_range(0.5) == 256
    assert certificate_gamma(0.5) == pytest.approx(3.0517578125e-5, rel=1e-12)
    assert certificate_t_range(0.2) == 1600
    assert certificate_gamma(0.2) == pytest.approx(7.8125e-7, rel=1e-9)
    with pytest.raises(ValueError):
        certificate_t_range(0.0)
    with pytest.raises(ValueError):
        certificate_t_range(1.0)


def test_certificate_rejects_integer_x():
    passes, report = weyl_entropy_certificate(0, 2, 0.5, 100)
    assert not passes
    assert report.max_modulus == pytest.approx(1.0)


def test_certificate_passes_on_full_period_rational():
    # 2 is a primitive root mod 6547, so the orbit of 1/6547 over a full
    # period hits every nonzero residue once and each average is -1/(D-1)
    D = 6547
    passes, report = weyl_entropy_certificate(Fraction(1, D), 2, 0.75, D - 1)
    assert passes
    expected = 1.0 / (D - 1)
    assert report.max_modulus == pytest.approx(expected, rel=1e-6)
    gamma = certificate_gamma(0.75)
    assert report.max_modulus < gamma


def test_certificate_block_heuristic():
    D = 6547
    passes, report = weyl_entropy_certificate(Fraction(1, D), 2, 0.75, D - 1, l=2)
    assert report.base == 4
    assert report.n == (D - 1) // 2
    with pytest.raises(ValueError):
        weyl_entropy_certificate(Fraction(1, D), 2, 0.75, D - 1, l=0)
    with pytest.raises(ValueError):
        weyl_entropy_certificate(Fraction(1, D), 2, 0.75, D - 1, l=2, safety=0.5)
    with pytest.raises(ValueError):
        weyl_entropy_certificate(Fraction(1, D), 2, 0.75, 1, l=2)


# --- the step objective A_m ---------------------------------------------------


def test_a_m_single_class_is_zero():
    sched = Schedule((2, 4, 2), ScaledGrowth())
    assert a_m(Fraction(3, 7), 3, sched) == 0.0
    assert a_m_naive(Fraction(3, 7), 3, sched) == 0.0


def test_a_m_at_zero_counts_window_lengths():
    sched = Schedule((2, 3, 2), TableGrowth((3, 5, 8, 12)))
    # only h=2 (base 3) is inequivalent to u(3)=2; window is
    # angle_base(3,3)+1 .. angle_base(4,3) = 9..11, three terms
    lo = sched.angle_base(3, 3)
    hi = sched.angle_base(4, 3)
    width = hi - lo
    expected = 6 * width ** 2  # six nonzero t in [-3,3]
    assert a_m(0, 3, sched) == pytest.approx(expected, rel=1e-12)
    assert a_m_naive(0, 3, sched) == pytest.approx(expected, rel=1e-12)


def test_a_m_matches_naive_oracle():
    import random

    rng = random.Random(11)
    scheds = [
        Schedule((2, 3, 2), ScaledGrowth(4, 2)),
        Schedule((2, 3, 5, 2), ScaledGrowth(4, 2)),
        Schedule((3, 2, 3, 4), TableGrowth((2, 4, 7, 11, 16))),
    ]
    big_den = 4**300 * 3**200  # past 2**64
    big_rng = random.Random(12)
    for sched in scheds:
        for m in range(1, len(sched) + 1):
            xs = [Fraction(rng.randrange(1, 5000), 5003) for _ in range(3)]
            xs.append(Fraction(big_rng.randrange(1, big_den), big_den))
            for x in xs:
                fast = a_m(x, m, sched)
                slow = a_m_naive(x, m, sched)
                assert fast == pytest.approx(slow, abs=1e-9, rel=1e-9)
                assert fast >= 0.0


def test_a_m_t_cap():
    sched = Schedule((2, 3, 2), ScaledGrowth(4, 2))
    x = Fraction(17, 5003)
    assert a_m(x, 3, sched, t_cap=1) == pytest.approx(a_m_naive(x, 3, sched, t_cap=1), abs=1e-9)
    assert a_m(x, 3, sched, t_cap=1) <= a_m(x, 3, sched) + 1e-12
    with pytest.raises(ValueError):
        a_m(x, 4, sched)


# --- sine ratios and eta -------------------------------------------------------


def test_sin_ratio_examples():
    assert sin_ratio(2, 0) == 1.0
    assert sin_ratio(3, Fraction(5)) == 1.0
    assert sin_ratio(2, Fraction(1, 4)) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    with pytest.raises(ValueError):
        sin_ratio(1, 0.3)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False), st.integers(min_value=2, max_value=12))
def test_sin_ratio_bounded(x, p):
    v = sin_ratio(p, x)
    assert 0.0 <= v <= 1.0 + 1e-12


def test_sin_ratio_product_viete():
    # p=s=2 turns each factor into cos(pi/2**i); offsetting the range by
    # one reproduces the all-cosines constant
    prod = sin_ratio_product(2, 2, 1, 2, 41)
    assert prod == pytest.approx(eta_constant(40), abs=1e-12)
    assert prod == pytest.approx(2 / math.pi, abs=1e-8)


def test_sin_ratio_product_edges():
    assert sin_ratio_product(2, 2, 1, 5, 4) == 1.0  # empty range
    vals = [sin_ratio_product(3, 2, 7, 2, hi) for hi in range(2, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    # arguments reduce mod 1: L = s**i gives factor 1
    assert sin_ratio_product(2, 2, 8, 3, 3) == 1.0
    with pytest.raises(ValueError):
        sin_ratio_product(2, 1, 1, 1, 2)


def test_eta_constant():
    assert eta_constant(1) == pytest.approx(math.cos(math.pi / 4), rel=1e-15)
    assert eta_constant(40) == pytest.approx(2 / math.pi, abs=1e-8)
    vals = [eta_constant(t) for t in range(1, 30)]
    # strictly decreasing until the factors hit float resolution
    assert all(a > b for a, b in zip(vals[:10], vals[1:11]))
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(v >= 2 / math.pi - 1e-12 for v in vals)
    with pytest.raises(ValueError):
        eta_constant(0)


def test_check_sin_lower_bound():
    assert check_sin_lower_bound(2, 0.5)  # cos(0.5) >= 0.875
    assert check_sin_lower_bound(2, 0.0)
    assert check_sin_lower_bound(7, -0.9)
    with pytest.raises(ValueError):
        check_sin_lower_bound(1, 0.5)
    with pytest.raises(ValueError):
        check_sin_lower_bound(2, 1.0)


def test_sin_lower_bound_random_sweep():
    import random

    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randrange(2, 51)
        x = rng.uniform(-0.999, 0.999)
        assert check_sin_lower_bound(n, x)
