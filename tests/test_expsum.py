"""Exponential-sum machinery against literal big-integer oracles."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsdim.expsum import (
    _FFT_DENOMINATOR_LIMIT,
    _PHASE_BLOCK,
    _averages_fft,
    _orbit_phases,
    _orbit_spectrum,
    a_m,
    a_m_naive,
    certificate_gamma,
    certificate_t_range,
    e_of,
    weyl_average,
    weyl_entropy_certificate,
    weyl_report,
)
from fsdim.schedule import (
    ScaledGrowth,
    Schedule,
    TableGrowth,
    check_sin_lower_bound,
    eta_constant,
    sin_ratio,
)


# --- oracles -----------------------------------------------------------------


def _oracle_weyl(x, b, t, n):
    # literal sum with exact big-integer powers, no incremental reduction
    f = Fraction(x) % 1
    total = 0j
    for j in range(1, n + 1):
        arg = (Fraction(t) * b ** (j - 1) * f) % 1
        total += cmath.exp(2j * cmath.pi * float(arg))
    return total / n


def _chain_phases(num, den, b, j0, n):
    # one big-integer mulmod per phase, each phase rounded once
    phases = np.empty(n)
    r = num * pow(b, j0 - 1, den) % den
    for i in range(n):
        phases[i] = r / den
        r = r * b % den
    return phases


# --- orbit phases --------------------------------------------------------------


def test_orbit_phases_match_the_chain():
    import random

    rng = random.Random(16)
    for b in range(2, 7):
        for bits in (10, 100, 1000, 10_000, 100_000):
            den = rng.getrandbits(bits) | 1 << (bits - 1)
            num = rng.randrange(den)
            j0 = rng.randrange(2, 3 * bits)
            n = 300 if bits == 100_000 else 1000
            got = _orbit_phases(num, den, b, j0, n)
            assert np.array_equal(got, _chain_phases(num, den, b, j0, n))
    # blocks of _PHASE_BLOCK phases hand their residue on exactly
    den = rng.getrandbits(500)
    num = rng.randrange(den)
    n = 2 * _PHASE_BLOCK + 7
    assert np.array_equal(_orbit_phases(num, den, 3, 5, n), _chain_phases(num, den, 3, 5, n))
    # x = 0
    assert np.array_equal(_orbit_phases(0, 1, 3, 1, 50), np.zeros(50))
    # a long zero run: phases far below 2**-27 are formed exactly one by one
    den = 4**300 * 3**400
    assert np.array_equal(_orbit_phases(5, den, 3, 1, 600), _chain_phases(5, den, 3, 1, 600))


def test_orbit_phases_of_terminating_expansions():
    # den divides a power of b: the expansion ends and the rest of the orbit is 0
    cases = [(1, 4, 2, 1, 10), (1, 4, 2, 1, _PHASE_BLOCK + 10), (3, 16, 6, 1, 40),
             (7, 4**50, 6, 1, 200), (7, 4**50, 6, 60, 60),
             (2**99 + 1, 4**50 * 3**40, 6, 3, 200)]
    for num, den, b, j0, n in cases:
        phases = _orbit_phases(num, den, b, j0, n)
        assert np.array_equal(phases, _chain_phases(num, den, b, j0, n))
        assert phases[-1] == 0.0


def test_orbit_phases_at_near_ties():
    # the 80-bit window of x = 1/2 + 2**-54 + 1/(3 * 2**100) is the tie
    # 1/2 + 2**-54, which rounds to even (0.5); x itself rounds up
    x = Fraction(1, 2) + Fraction(1, 2**54) + Fraction(1, 3 * 2**100)
    assert float(Fraction(x.numerator * 2**80 // x.denominator, 2**80)) == 0.5
    phases = _orbit_phases(x.numerator, x.denominator, 2, 1, 120)
    assert phases[0] == float.fromhex("0x1.0000000000001p-1")
    assert np.array_equal(phases, _chain_phases(x.numerator, x.denominator, 2, 1, 120))
    # phase i of (c + m + delta) / b**i is m + delta, for m the midpoint
    # above a float: exact ties, and offsets the windows cannot see
    import random

    rng = random.Random(7)
    for b in (2, 3, 5, 6):
        for delta in (0, Fraction(1, 3 * 2**120), -Fraction(1, 3 * 2**120)):
            f = rng.random()
            mid = Fraction(f) + Fraction(1, 2 ** (54 - math.frexp(f)[1]))
            i = rng.randrange(1, 20)
            x = (rng.randrange(b**i) + mid + delta) / b**i
            num, den = x.numerator, x.denominator
            phases = _orbit_phases(num, den, b, 1, 40)
            assert phases[i] == float(mid + delta)
            assert np.array_equal(phases, _chain_phases(num, den, b, 1, 40))


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


def test_weyl_report_fft_path_matches_weyl_average():
    # every average of the DFT path is S_1(t*num mod D) / n read from the
    # spectrum of the orbit of 1; weyl_average sums the orbit of num itself
    cases = [
        (Fraction(5, 12), 2, 40, 30),  # 12 shares 2 with the base: preperiodic orbit
        (Fraction(7, 18), 3, 25, 40),
        (Fraction(1, 2), 2, 5, 6),  # D = 2
        (Fraction(1, 2), 3, 9, 4),
        (Fraction(3, 8), 3, 20, 17),  # even D coprime to the base
        (Fraction(3, 97), 2, 300, 120),  # two numerators of one denominator
        (Fraction(5, 97), 2, 300, 120),  # back to back: the second one hits the cache
    ]
    mirrored = zero = 0
    for x, b, n, t_max in cases:
        num, den = x.numerator, x.denominator
        assert 1 < den <= _FFT_DENOMINATOR_LIMIT
        report = weyl_report(x, b, t_max, n)
        for t in range(1, t_max + 1):
            s = t * num % den
            zero += s == 0
            mirrored += 2 * s > den
            assert cmath.isclose(report.averages[t], weyl_average(x, b, t, n), abs_tol=1e-9)
    assert zero and mirrored  # t*num = 0 (mod D) and reads above D/2 both occurred
    # the identity needs no gcd(num, D) = 1: 6/12, 4/12 and 10/15 as given
    for num, den, b, n in [(6, 12, 2, 20), (4, 12, 5, 33), (10, 15, 2, 50)]:
        averages = _averages_fft(num, den, b, n, 2 * den)
        for t in range(1, 2 * den + 1):
            expected = weyl_average(Fraction(num, den), b, t, n)
            assert cmath.isclose(averages[t], expected, abs_tol=1e-9)


def test_orbit_spectrum_cache(monkeypatch):
    calls = []
    real_rfft = np.fft.rfft

    def counting_rfft(a, *args, **kwargs):
        calls.append(len(a))
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    _orbit_spectrum.cache_clear()
    den = 1019
    weyl_report(Fraction(3, den), 2, 50, 700)
    weyl_report(Fraction(500, den), 2, 50, 700)
    assert calls == [den]  # two numerators sharing (D, b, n): one DFT
    assert _orbit_spectrum.cache_info().currsize == 1
    weyl_report(Fraction(3, den), 2, 50, 701)  # new n
    assert len(calls) == 2 and _orbit_spectrum.cache_info().currsize == 1
    weyl_report(Fraction(3, den), 3, 50, 701)  # new b
    assert len(calls) == 3 and _orbit_spectrum.cache_info().currsize == 1
    weyl_report(Fraction(3, den), 2, 50, 700)  # the first key was evicted
    assert len(calls) == 4 and _orbit_spectrum.cache_info().currsize == 1
    half = _orbit_spectrum(den, 2, 700)
    assert len(calls) == 4 and half.shape == (den // 2 + 1,)
    assert not half.flags.writeable
    with pytest.raises(ValueError):
        half[0] = 0


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


# --- sine ratios and eta (fsdim.schedule, the lemma of condition 1) ------------


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


def test_sin_ratio_viete():
    # at p = 2 each factor is cos(pi/2**i); starting the product at i = 2
    # reproduces the all-cosines constant
    prod = 1.0
    for i in range(2, 42):
        prod *= sin_ratio(2, Fraction(1, 2**i))
    assert prod == pytest.approx(eta_constant(40), abs=1e-12)
    assert prod == pytest.approx(2 / math.pi, abs=1e-8)


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
