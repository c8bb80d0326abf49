"""Schedule arithmetic against factorization and high-precision oracles."""

import decimal
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdim.schedule import (
    AlphaTable,
    ConditionCheck,
    PaperGrowth,
    ScaledGrowth,
    Schedule,
    StagePlan,
    TableGrowth,
    angle_base,
    beta_m,
    equivalent,
    integer_root,
    parse_plan,
    primitive_root,
    r_seq,
    read_plan_file,
    representative,
    validate_good_sequence,
)


# --- oracles -----------------------------------------------------------------


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _class_signature(n: int):
    # powers of a common base share prime support and proportional exponents
    factors = _factorize(n)
    primes = sorted(factors)
    exps = [factors[p] for p in primes]
    g = math.gcd(*exps)
    return tuple(primes), tuple(e // g for e in exps)


def _primitive_root_oracle(n: int) -> tuple[int, int]:
    factors = _factorize(n)
    g = math.gcd(*factors.values())
    t = 1
    for p, e in factors.items():
        t *= p ** (e // g)
    return t, g


def _ceil_div_ln_oracle(a: int, r: int) -> int:
    if a == 0:
        return 0
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        return math.ceil(decimal.Decimal(a) / decimal.Decimal(r).ln())


def _paper_angle_oracle(u1: int, m: int) -> int:
    if m == 0:
        return 0
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        return math.ceil(decimal.Decimal(m).sqrt().exp() + 2 * u1 * m ** 3)


# --- roots and equivalence ---------------------------------------------------


def test_integer_root_examples():
    assert integer_root(8, 3) == 2
    assert integer_root(9, 3) == 2
    assert integer_root(10 ** 18, 2) == 10 ** 9
    assert integer_root(0, 5) == 0
    assert integer_root(7, 1) == 7
    with pytest.raises(ValueError):
        integer_root(-1, 2)
    with pytest.raises(ValueError):
        integer_root(5, 0)


@given(st.integers(min_value=0, max_value=10 ** 30), st.integers(min_value=1, max_value=12))
def test_integer_root_brackets(n, k):
    x = integer_root(n, k)
    assert x ** k <= n
    assert (x + 1) ** k > n


def test_primitive_root_examples():
    assert primitive_root(2) == (2, 1)
    assert primitive_root(8) == (2, 3)
    assert primitive_root(6) == (6, 1)
    assert primitive_root(36) == (6, 2)
    assert primitive_root(16) == (2, 4)
    assert primitive_root(729) == (3, 6)
    with pytest.raises(ValueError):
        primitive_root(1)


def test_primitive_root_matches_factorization_oracle():
    for b in range(2, 500):
        assert primitive_root(b) == _primitive_root_oracle(b)


def test_equivalent_matches_factorization_oracle():
    for r in range(2, 200):
        for s in range(2, 200):
            expected = _class_signature(r) == _class_signature(s)
            assert equivalent(r, s) == expected, (r, s)


def test_equivalent_examples():
    assert equivalent(2, 4)
    assert not equivalent(2, 3)
    assert not equivalent(6, 12)
    assert equivalent(4, 8)  # both powers of 2


@given(
    st.integers(min_value=2, max_value=1000),
    st.integers(min_value=2, max_value=1000),
    st.integers(min_value=2, max_value=1000),
)
def test_equivalent_is_an_equivalence_relation(r, s, t):
    assert equivalent(r, r)
    assert equivalent(r, s) == equivalent(s, r)
    if equivalent(r, s) and equivalent(s, t):
        assert equivalent(r, t)
    if equivalent(r, s):
        assert primitive_root(r)[0] == primitive_root(s)[0]


# --- representatives ---------------------------------------------------------


def test_representative_enumeration():
    expected = [2, 3, 5, 6, 7, 10, 11, 12, 13, 14, 15, 17, 18, 19]
    assert [representative(i) for i in range(1, 15)] == expected
    with pytest.raises(ValueError):
        representative(0)


def test_r_seq_prefix_and_constraints():
    prefix = [r_seq(k) for k in range(1, 17)]
    assert prefix == [2, 3, 2, 5, 2, 3, 2, 6, 2, 3, 2, 5, 2, 3, 2, 7]
    assert r_seq(1) == 2
    values = [r_seq(k) for k in range(1, 10 ** 4 + 1)]
    assert all(a != b for a, b in zip(values, values[1:]))
    # recurrence density: the second representative shows up every 4 steps
    assert values.count(3) >= 10 ** 4 // 16
    for rep in (2, 3, 5, 6):
        assert rep in values[-4096:]


# --- growth functions --------------------------------------------------------


def test_paper_growth_examples():
    g = PaperGrowth(2)
    assert g.angle(0) == 0
    assert g.angle(1) == 7  # ceil(e + 4)
    assert g.angle(4) == 264  # ceil(e**2 + 256)
    with pytest.raises(ValueError):
        PaperGrowth(1)
    with pytest.raises(ValueError):
        g.angle(-1)


def test_paper_growth_matches_decimal_oracle():
    for u1 in (2, 4):
        g = PaperGrowth(u1)
        values = [g.angle(m) for m in range(0, 61)]
        assert values == [_paper_angle_oracle(u1, m) for m in range(0, 61)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_scaled_growth():
    g = ScaledGrowth()
    assert (g.c0, g.c1) == (8, 4)
    assert [g.angle(m) for m in range(5)] == [0, 12, 24, 44, 72]
    with pytest.raises(ValueError):
        ScaledGrowth(-1, 4)
    with pytest.raises(ValueError):
        ScaledGrowth(8, 0)


def test_table_growth():
    g = TableGrowth((3, 5, 9))
    assert [g.angle(m) for m in range(4)] == [0, 3, 5, 9]
    with pytest.raises(ValueError):
        g.angle(4)
    with pytest.raises(ValueError):
        TableGrowth((3, 3))
    with pytest.raises(ValueError):
        TableGrowth(())


def test_angle_base_examples():
    assert angle_base(0, 2) == 0
    assert angle_base(7, 2) == 11  # ceil(7 / ln 2)
    with pytest.raises(ValueError):
        angle_base(7, 1)
    with pytest.raises(ValueError):
        angle_base(-1, 2)


def test_angle_base_matches_high_precision_oracle():
    for a in list(range(0, 200)) + [10 ** 6, 10 ** 9 + 7]:
        for r in (2, 3, 4, 5, 7, 10, 36):
            assert angle_base(a, r) == _ceil_div_ln_oracle(a, r), (a, r)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=50))
def test_angle_base_is_exact_ceiling(a, r):
    c = angle_base(a, r)
    # c is the least integer with r**c >= e**a, checked in high precision
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        ln_r = decimal.Decimal(r).ln()
        assert c * ln_r >= a
        if c > 0:
            assert (c - 1) * ln_r < a


# --- schedules ---------------------------------------------------------------


def test_schedule_positions():
    sched = Schedule((2, 2, 4), ScaledGrowth())
    assert len(sched) == 3
    assert sched.base(1) == 2
    assert sched.a(1) == angle_base(12, 2)
    assert sched.b(1) == angle_base(24, 2)
    assert sched.a(3) == angle_base(44, 4)
    assert sched.b(3) == angle_base(72, 4)
    with pytest.raises(ValueError):
        sched.base(4)
    with pytest.raises(ValueError):
        Schedule((2, 1), ScaledGrowth())


def test_schedule_tiling_within_a_base():
    # consecutive same-base steps tile: b(m) == a(m+1)
    for growth in (ScaledGrowth(), PaperGrowth(3), TableGrowth(tuple(range(2, 40, 3)))):
        sched = Schedule((3,) * 10, growth)
        for m in range(1, 10):
            assert sched.b(m) == sched.a(m + 1)


def test_schedule_extended():
    sched = Schedule((2,), ScaledGrowth())
    longer = sched.extended(3)
    assert longer.u == (2, 3)
    assert sched.u == (2,)


def test_angle_base_monotone_in_m():
    sched = Schedule((2,) * 30, ScaledGrowth())
    for r in (2, 3, 10):
        vals = [sched.angle_base(m, r) for m in range(0, 31)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


# --- alpha table and beta ----------------------------------------------------


def test_alpha_table():
    table = AlphaTable({(2, 3): 0.3})
    assert table.alpha(2, 3) == 0.3
    assert table.alpha(3, 2) == 0.3
    assert table.alpha(2, 5) == 0.5
    with pytest.raises(ValueError):
        AlphaTable({(2, 3): 0.7})
    with pytest.raises(ValueError):
        AlphaTable({(2, 3): 0.0})
    with pytest.raises(ValueError):
        AlphaTable({(2, 3): 0.3, (3, 2): 0.4})


def test_beta_m_examples():
    alpha = AlphaTable({(2, 3): 0.3})
    sched = Schedule((2, 3), ScaledGrowth())
    assert beta_m(sched, alpha, 1) == 0.5
    assert beta_m(sched, alpha, 2) == 0.3
    constant = Schedule((4, 2, 8), ScaledGrowth())
    for m in (1, 2, 3):
        assert beta_m(constant, alpha, m) == 0.5


@given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 9]), min_size=1, max_size=8))
def test_beta_m_non_increasing(u):
    alpha = AlphaTable({(2, 3): 0.2, (2, 5): 0.35, (3, 5): 0.4})
    sched = Schedule(tuple(u), ScaledGrowth())
    vals = [beta_m(sched, alpha, m) for m in range(1, len(u) + 1)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0 < v <= 0.5 for v in vals)


# --- stage plans -------------------------------------------------------------


def test_stage_plan_basics():
    plan = StagePlan({2: Fraction(1, 2)})
    assert plan.q_for(2) == Fraction(1, 2)
    assert plan.q_for(8) == Fraction(1, 2)  # same class
    assert plan.v_of(1) == 4
    assert plan.p_of(plan.v_of(1)) == 2
    assert plan.p_of(4) == 2
    with pytest.raises(ValueError):
        plan.q_for(3)


def test_p_of_examples():
    assert StagePlan({2: Fraction(1, 2)}).p_of(4) == 2
    assert StagePlan({2: 1}).p_of(2) == 2
    assert StagePlan({2: Fraction(2, 3)}).p_of(8) == 4
    # floor case: 8**(1/2) = 2.828...
    assert StagePlan({2: Fraction(1, 2)}).p_of(8) == 2


def test_stage_plan_rejects_conflicts():
    with pytest.raises(ValueError):
        StagePlan({2: Fraction(1, 2), 4: Fraction(1, 3)})
    # consistent duplicates are fine
    plan = StagePlan({2: Fraction(1, 2), 4: Fraction(1, 2)})
    assert plan.q_for(16) == Fraction(1, 2)
    with pytest.raises(ValueError):
        StagePlan({2: Fraction(3, 2)})
    with pytest.raises(ValueError):
        StagePlan({2: 0})
    with pytest.raises(ValueError):
        StagePlan({})


def test_stage_plan_consistency_over_many_stages():
    q = {
        2: Fraction(1, 2),
        3: Fraction(1, 3),
        5: Fraction(2, 3),
        6: 1,
        7: Fraction(3, 4),
        10: Fraction(2, 5),
        11: Fraction(5, 7),
    }
    plan = StagePlan(q)
    for k in range(1, 101):
        r = r_seq(k)
        # the restricted alphabet is r_k raised to q's numerator
        assert plan.p_of(plan.v_of(k)) == r ** plan.q_for(r).numerator
        assert plan.q_for(plan.v_of(k)) == plan.q_for(r)
        assert plan.p_of(plan.v_of(k)) <= plan.v_of(k)
        d = plan.q_for(r).denominator
        assert plan.v_of(k) == r ** d


# --- plan parsing ------------------------------------------------------------

PLAN_TEXT = """\
# two-class plan
q 2 1/2
q 3 2/3   # thirds
growth scaled 8 4
alpha 2 3 0.4
"""


def test_parse_plan_roundtrip():
    plan = parse_plan(PLAN_TEXT)
    assert plan.q_for(2) == Fraction(1, 2)
    assert plan.q_for(9) == Fraction(2, 3)
    assert plan.growth == ScaledGrowth(8, 4)
    assert plan.alpha.alpha(3, 2) == 0.4
    assert plan.v_of(1) == 4 and plan.p_of(plan.v_of(1)) == 2
    assert plan.v_of(2) == 27 and plan.p_of(plan.v_of(2)) == 9


def test_parse_plan_defaults_and_paper_growth():
    plan = parse_plan("q 2 1/2\n")
    assert plan.growth == ScaledGrowth(8, 4)
    plan = parse_plan("q 2 1/2\ngrowth paper\n")
    assert plan.growth == PaperGrowth(4)  # u1 = v(1) = 2**2
    plan = parse_plan("q 2 1\ngrowth paper\n")
    assert plan.growth == PaperGrowth(2)


def test_parse_plan_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        parse_plan("q 2 1/2\nfrobnicate 3\n")
    with pytest.raises(ValueError):
        parse_plan("q 2 1/2\nq 4 1/3\n")  # 4 ~ 2 with a different q
    with pytest.raises(ValueError):
        parse_plan("q 2 0/1\n")
    with pytest.raises(ValueError):
        parse_plan("q 2 5/4\n")
    with pytest.raises(ValueError):
        parse_plan("")
    with pytest.raises(ValueError):
        parse_plan("q 2 1/2\nalpha 2 3 0.9\n")
    with pytest.raises(ValueError):
        parse_plan("q 1 1/2\n")


@pytest.mark.parametrize("text, line", [
    ("q 2 1/2\ngrowth scaled 0 0\n", 2),
    ("q 2 1/2\nalpha 2 3 0.9\n", 2),
    ("q 2 1/2\nalpha 1 3 0.3\n", 2),
    ("growth paper\nq 3 1/2\n", 1),  # u1 = v(1) needs a target for the class of 2
    ("q 2 1/2\nq 4 1/3\n", 2),
    ("q 2 1/2\nq 2 1/3\n", 2),
    ("q 2 1/2\nalpha 2 3 0.3\nalpha 3 2 0.4\n", 3),
])
def test_plan_errors_name_their_line(text, line):
    with pytest.raises(ValueError, match=f"^plan line {line}: "):
        parse_plan(text)


def test_read_plan_file(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text(PLAN_TEXT, encoding="ascii")
    assert read_plan_file(path) == parse_plan(PLAN_TEXT)


# --- good-sequence validation ------------------------------------------------


def test_good_sequence_constant_base_passes():
    plan = StagePlan({2: 1}, PaperGrowth(2))
    sched = Schedule((2,) * 20, plan.growth)
    report = validate_good_sequence(sched, plan, 20)
    assert report.ok
    assert report.m_max == 20
    # condition 4 is vacuous without a base switch
    assert all(c.passed for c in report.checks if c.condition == 4)


def test_good_sequence_condition3_violation():
    plan = StagePlan({2: 1, 7: 1})
    sched = Schedule((2, 2, 7), plan.growth)
    report = validate_good_sequence(sched, plan, 3)
    failed = {(c.m, c.condition) for c in report.failures()}
    assert (3, 3) in failed  # u(3)=7 > u(1)*3 = 6


def test_good_sequence_condition4_violation_after_switch():
    # scaled growth keeps b_m - a_m far below the default threshold of 50
    plan = StagePlan({2: Fraction(1, 2), 3: 1})
    sched = Schedule((3, 4), plan.growth)
    report = validate_good_sequence(sched, plan, 2)
    failed = {(c.m, c.condition) for c in report.failures()}
    assert (2, 4) in failed
    # raising the block length via a coarser growth clears it
    big = Schedule((3, 4), ScaledGrowth(8, 2000))
    report2 = validate_good_sequence(big, plan, 2)
    assert (2, 4) not in {(c.m, c.condition) for c in report2.failures()}


def test_good_sequence_condition1_violation():
    # p = 7 from b_2 = 2 on: the sine product is about 0.0132, far below 2/pi
    plan = StagePlan({2: 1, 7: 1}, TableGrowth((1, 2, 3)))
    sched = Schedule((2, 7), plan.growth)
    report = validate_good_sequence(sched, plan, 2)
    [check] = [c for c in report.checks if (c.m, c.condition) == (2, 1)]
    assert not check.passed
    assert check.detail.startswith("tail sine product >= 0.0132")


def _golden_validator_cases():
    # two steps put condition 1 at m = 2, with b_2 = ceil(last / ln u)
    for u in range(2, 65):
        for last in range(3, 160, 3):
            yield Schedule((2, u), TableGrowth((1, 2, last))), 2
    # a long run whose base cycles through 2..64
    n = 126
    growth = TableGrowth(tuple(range(1, n + 2)))
    yield Schedule(tuple(2 + 5 * m % 63 for m in range(n)), growth), n


# sha256 of every (m, condition, passed, detail) the cases above report
VALIDATOR_GOLDEN = "a72caee929b66f5b688b97c86c6ead36d9f98a1f8e36b56d801023f29e876ec2"


def test_good_sequence_checks_match_golden_digest():
    plan = StagePlan({u: 1 for u in range(2, 65)})  # q = 1 makes p(u) = u
    digest = hashlib.sha256()
    b_seen, p_seen = set(), set()
    for sched, m_max in _golden_validator_cases():
        b_seen |= {sched.b(m) for m in range(2, m_max + 1)}
        p_seen |= {plan.p_of(sched.base(m)) for m in range(2, m_max + 1)}
        for c in validate_good_sequence(sched, plan, m_max).checks:
            digest.update(repr((c.m, c.condition, c.passed, c.detail)).encode())
    assert set(range(1, 41)) <= b_seen and set(range(2, 65)) <= p_seen
    assert digest.hexdigest() == VALIDATOR_GOLDEN


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 25]), min_size=1, max_size=12),
    st.dictionaries(
        st.tuples(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 25]),
                  st.sampled_from([2, 3, 4, 5, 6, 8, 9, 25])),
        st.floats(min_value=0.01, max_value=0.5),
        max_size=6,
    ),
)
def test_good_sequence_condition2_matches_beta_m(u, entries):
    # the validator keeps beta as a running minimum; beta_m is the reference
    alpha = AlphaTable({(min(r, s), max(r, s)): v for (r, s), v in entries.items()})
    plan = StagePlan({2: 1, 3: 1, 5: 1, 6: 1}, TableGrowth(tuple(range(1, 14))), alpha)
    sched = Schedule(tuple(u), plan.growth)
    beta_1 = beta_m(sched, alpha, 1)
    got = [c for c in validate_good_sequence(sched, plan, len(u)).checks if c.condition == 2]
    want = []
    for m in range(1, len(u) + 1):
        bm, floor = beta_m(sched, alpha, m), beta_1 / m ** 0.25
        want.append(ConditionCheck(m, 2, bm >= floor, f"beta_m={bm:.6g}, floor={floor:.6g}"))
    assert got == want


def test_good_sequence_condition2_violation():
    # a tiny alpha for an inequivalent pair drags beta below beta_1/m**(1/4)
    alpha = AlphaTable({(2, 3): 0.01})
    plan = StagePlan({2: 1, 3: 1}, ScaledGrowth(), alpha)
    sched = Schedule((2, 3), plan.growth)
    report = validate_good_sequence(sched, plan, 2)
    failed = {(c.m, c.condition) for c in report.failures()}
    assert (2, 2) in failed


def test_good_sequence_validation_errors():
    plan = StagePlan({2: 1})
    sched = Schedule((2, 2), plan.growth)
    with pytest.raises(ValueError):
        validate_good_sequence(sched, plan, 0)
    with pytest.raises(ValueError):
        validate_good_sequence(sched, plan, 3)
