"""Acceptance gate: the desk-scale quantitative criteria, one test each.

Every test prints a single PASS/FAIL line (visible with -s or -rA) and
asserts the same condition, so `pytest -v` shows one verdict per
criterion.  Tolerances are part of the contract; do not loosen them.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fsdim.base_arith import DigitWord, digits_prefix, frac_of_scaled, value_of_word
from fsdim.blockstats import BlockCounter, block_entropy
from fsdim.cli import _suite_am_oracle, _suite_discrepancy_oracle, _suite_sin_bound, _suite_viete
from fsdim.constructor import (
    ConstructionParams,
    run_construction,
)
from fsdim.discrepancy import DEFAULT_N, DiscrepancyParams, calibrate, low_discrepancy_test
from fsdim.expsum import certificate_gamma, certificate_t_range, weyl_entropy_certificate
from fsdim.schedule import ScaledGrowth, StagePlan
from trace_replay import replay_trace


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _suite_verdict(number: int, checks) -> None:
    # the lemma checks shared with `fsdim verify`; each suite holds one check
    # whose bound is the criterion's
    (label, ok, detail), = checks
    _verdict(number, ok, f"{label}: {detail}")


def test_criterion_01_entropy_dilution():
    rng = random.Random(1)
    start = time.perf_counter()
    word = DigitWord(4, tuple(rng.randrange(2) for _ in range(10**6)))
    h1, h2 = block_entropy(word, 1), block_entropy(word, 2)
    elapsed = time.perf_counter() - start
    ok = abs(h1 - 0.5) <= 0.01 and abs(h2 - 0.5) <= 0.01 and elapsed < 10.0
    _verdict(1, ok, f"H_1={h1:.4f} H_2={h2:.4f} (target 0.5 +- 0.01), {elapsed:.1f}s")


def test_criterion_02_full_entropy_baseline():
    rng = random.Random(2)
    word = DigitWord(4, tuple(rng.randrange(4) for _ in range(10**6)))
    values = {l: block_entropy(word, l) for l in (1, 2, 3)}
    ok = all(v >= 0.99 for v in values.values())
    _verdict(2, ok, "uniform base-4 entropies " +
             " ".join(f"H_{l}={v:.4f}" for l, v in values.items()) + " (floor 0.99)")


def test_criterion_03_viete_product():
    # |prod_40 cos(pi/2^(i+1)) - 2/pi| < 1e-8
    _suite_verdict(3, _suite_viete())


def test_criterion_04_sine_lower_bound_sweep():
    # no violation of sin(nx)/(n sin x) >= 1 - (n^2-1)x^2/6 in 10^4 draws
    _suite_verdict(4, _suite_sin_bound(4))


def test_criterion_05_exact_fractional_reduction():
    rng = random.Random(5)
    mismatches = 0
    for _ in range(10**3):
        den = rng.randint(2, 10**9)
        num = rng.randrange(den)
        x = Fraction(num, den)
        t = rng.randint(1, 10**6)
        u = rng.randint(2, 16)
        j = rng.randint(0, 1000)
        got = frac_of_scaled(x, t, u, j)
        # independent oracle: build the full power, reduce, then round once
        want = float(Fraction((t * u**j * x.numerator) % x.denominator,
                              x.denominator))
        if got != want:
            mismatches += 1
    ok = mismatches == 0
    _verdict(5, ok, f"{mismatches} mismatches vs big-integer oracle"
                    " on 10^3 random (x, t, u, j), j <= 1000")


def test_criterion_06_streaming_count_oracle():
    rng = random.Random(6)
    bad = 0
    for trial in range(10**3):
        base = rng.choice((2, 3, 4))
        n = 10**4 if trial < 10 else rng.randint(10, 3000)
        l = rng.randint(1, min(6, n))
        digits = tuple(rng.randrange(base) for _ in range(n))
        counter = BlockCounter(base, l)
        counter.extend(digits)
        streamed = dict(counter.distribution(l).counts)
        recount = {}
        for i in range(n - l + 1):
            z = digits[i:i + l]
            recount[z] = recount.get(z, 0) + 1
        if streamed != recount:
            bad += 1
    ok = bad == 0
    _verdict(6, ok, f"{bad} of 10^3 words disagree with the slicing recount")


def test_criterion_07_star_discrepancy_oracle():
    # max |sorted-formula - brute| <= 1e-12 over 100 point sets
    _suite_verdict(7, _suite_discrepancy_oracle(7))


def test_criterion_08_objective_oracle():
    # max |a_m - a_m_naive| <= 1e-9 over 50 instances at x = k/2^40
    _suite_verdict(8, _suite_am_oracle(8))


def test_criterion_09_construction_mechanics():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    params = ConstructionParams(
        tolerance=0.1,
        weyl_gamma=0.8,
        min_digits=20_000,
        samples=64,
        seed=0,
    )
    start = time.perf_counter()
    trace = run_construction(plan, 1, params)
    elapsed = time.perf_counter() - start

    assert not trace.budget_exhausted
    bounds = trace.stage(1)
    assert (bounds.v, bounds.v_star) == (4, 2)
    f1 = trace.first_checkpoint(1)
    f2 = trace.second_checkpoint(1)
    assert f1 >= 20_000 and f2 - f1 >= 20_000

    # (a) every chosen block passes the filter (short blocks are below
    # its applicability threshold and were drawn uniformly instead)
    disc = params.disc
    for step in trace.steps:
        if step.filter_vacuous:
            assert len(step.digit_block) <= DEFAULT_N
        else:
            assert low_discrepancy_test(step.digit_block, disc)

    # (b) argmin never exceeds the sample mean
    assert all(s.objective <= s.objective_mean + 1e-12 for s in trace.steps)

    # (c) the point never moves backwards: replayed step by step, each point
    # is the final point truncated after the step's last written digit
    replay_trace(trace)

    # (d) every chosen block survives verbatim in the final expansion
    final = digits_prefix(trace.xi, 4, f2).digits
    assert all(final[s.a_m:s.b_m - 2] == s.digit_block.digits for s in trace.steps)

    # (e) diluted then restored single-digit entropy
    h_first = block_entropy(DigitWord(4, final[:f1]), 1)
    h_second = block_entropy(DigitWord(4, final), 1)
    ok = 0.4 <= h_first <= 0.6 and h_second >= 0.85 and elapsed < 300.0
    _verdict(9, ok, f"{len(trace.steps)} steps, F1={f1} F2={f2},"
                    f" H_1(F1)={h_first:.4f} in [0.4,0.6],"
                    f" H_1(F2)={h_second:.4f} >= 0.85, {elapsed:.0f}s < 300s")


def _count_ones(k: int, prime: int, n: int) -> int:
    # base-2 digits of k/prime over positions 1..n, counted in chunks
    chunk = 1 << 14
    powers = np.empty(chunk, dtype=np.int64)
    acc = 1
    for i in range(chunk):
        powers[i] = acc
        acc = (acc * 2) % prime
    step = pow(2, chunk, prime)
    start = k % prime
    ones = 0
    done = 0
    while done < n:
        take = min(chunk, n - done)
        residues = (start * powers[:take]) % prime
        ones += int(((2 * residues) // prime).sum())
        start = (start * step) % prime
        done += take
    return ones


def test_criterion_10_weyl_certificate_soundness():
    eps = 0.2
    # the full multiplicative orbit of 2 modulo a prime D visits every
    # nonzero residue once, so each average is exactly -1/(D-1); the first
    # prime with primitive root 2 past 1/gamma'(eps) passes the certificate
    prime = 1280107
    assert 1.0 / (prime - 1) <= certificate_gamma(eps)
    n = prime - 1
    t_range = certificate_t_range(eps)
    rng = random.Random(10)
    ks = rng.sample(range(2, prime - 1), 100)
    passed = 0
    worst_dev = 0.0
    for k in ks:
        ok, report = weyl_entropy_certificate(Fraction(k, prime), 2, eps, n)
        if not ok:
            continue
        passed += 1
        ones = _count_ones(k, prime, n)
        worst_dev = max(worst_dev, abs(ones / n - 0.5), abs((n - ones) / n - 0.5))
    ok = passed == 100 and worst_dev <= eps
    _verdict(10, ok, f"{passed}/100 certificates passed (T'={t_range},"
                     f" gamma'={certificate_gamma(eps):.2e});"
                     f" max single-digit deviation {worst_dev:.2e} <= {eps}")


def test_criterion_11_filter_density():
    c2 = calibrate(2, length=2000, samples=200, target=0.6, seed=11)
    disc = DiscrepancyParams.default().with_base(2, c2)
    rng = random.Random(1100)
    passes = 0
    total = 200
    for _ in range(total):
        w = DigitWord(2, tuple(rng.randrange(2) for _ in range(2000)))
        if low_discrepancy_test(w, disc):
            passes += 1
    rate = passes / total
    ok = rate >= 0.5
    _verdict(11, ok, f"calibrated C_2={c2:.4f}; fresh-word pass rate"
                     f" {rate:.2f} >= 0.5 at length 2000")
