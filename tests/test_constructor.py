"""Tests for the staged construction: selection, predicates, runs, monitors."""

import csv
import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from fsdim.base_arith import DigitWord, digits_prefix, value_of_word
from fsdim.constructor import (
    ConstructionParams,
    ConstructionTrace,
    StageBounds,
    StepChoice,
    _audit_stability,
    check_requirements,
    delta_k,
    eta_g_at,
    first_substage_done,
    monitor_summary,
    run_construction,
    second_substage_done,
    select_step,
    sigma_element_at,
    weyl_max_from_digits,
    write_trace_csv,
)
from fsdim.discrepancy import DiscrepancyParams, FilterGiveUp, calibrate, low_discrepancy_test
from fsdim.expsum import a_m_naive, weyl_average
from fsdim.schedule import ScaledGrowth, Schedule, StagePlan, TableGrowth, equivalent, parse_plan
from trace_replay import replay_trace


# ---------------------------------------------------------------------------
# delta_k


def test_delta_k_frozen_exact_value():
    # -d*ln(d) = ln(2)/4 is solved exactly by d = 1/16
    assert delta_k(0.5, 4, 1) == pytest.approx(0.0625, rel=1e-12)


def test_delta_k_is_maximal_solution():
    rng = random.Random(7)
    for _ in range(50):
        eps = rng.uniform(0.01, 2.0)
        base = rng.randint(2, 6)
        l = rng.randint(1, 4)
        d = delta_k(eps, base, l)
        budget = eps * l * math.log(base) / base**l
        cap = 1.0 / math.e
        assert 0.0 < d <= cap
        assert -d * math.log(d) <= budget * (1 + 1e-12)
        if d < cap:  # any larger delta would overshoot
            bigger = min(d * 1.01, cap)
            assert -bigger * math.log(bigger) > budget


def test_delta_k_monotonicity():
    assert delta_k(0.3, 2, 1) > delta_k(0.3, 2, 3)
    assert delta_k(0.1, 2, 2) < delta_k(0.4, 2, 2)
    assert delta_k(0.3, 2, 2) > delta_k(0.3, 5, 2)


def test_delta_k_caps_at_inverse_e():
    assert delta_k(50.0, 2, 1) == pytest.approx(1.0 / math.e)


def test_delta_k_entropy_shift_bound():
    # moving every coordinate of a distribution by at most delta moves the
    # normalized entropy by at most eps: checked on random mixtures, which
    # realize the worst-case per-coordinate displacement |q_i - p_i| <= delta
    rng = random.Random(11)
    for _ in range(300):
        eps = rng.uniform(0.02, 0.8)
        base = rng.randint(2, 4)
        l = rng.randint(1, 3)
        d = delta_k(eps, base, l)
        size = base**l
        raw = [rng.random() + 1e-9 for _ in range(size)]
        total = sum(raw)
        p = [x / total for x in raw]
        q = [(1 - d) * pi + d / size for pi in p]
        assert max(abs(a - b) for a, b in zip(p, q)) <= d + 1e-15
        h_p = -sum(x * math.log(x) for x in p if x)
        h_q = -sum(x * math.log(x) for x in q if x)
        assert abs(h_p - h_q) / (l * math.log(base)) <= eps + 1e-12


def test_delta_k_per_coordinate_lemma():
    rng = random.Random(3)
    for _ in range(500):
        d = rng.uniform(1e-6, 1.0 / math.e)
        p = rng.uniform(0.0, 1.0 - d)
        shift = rng.uniform(-min(d, p), d)
        h = lambda x: -x * math.log(x) if x > 0 else 0.0
        assert abs(h(p + shift) - h(p)) <= -d * math.log(d) + 1e-12


def test_delta_k_rejects_bad_arguments():
    with pytest.raises(ValueError):
        delta_k(0.0, 2, 1)
    with pytest.raises(ValueError):
        delta_k(0.5, 1, 1)
    with pytest.raises(ValueError):
        delta_k(0.5, 2, 0)


# ---------------------------------------------------------------------------
# eta rounding and candidate points


def test_eta_g_frozen_examples():
    assert eta_g_at(Fraction(0), 2, 1) == eta_g_at(0, 2, 1) == 0
    assert isinstance(eta_g_at(0, 2, 1), Fraction)
    assert eta_g_at(Fraction(1, 3), 2, 3) == Fraction(3, 8)
    assert eta_g_at(Fraction(1, 2), 2, 3) == Fraction(1, 2)  # exact grid point stays put


def test_eta_g_is_minimal_grid_point_above():
    rng = random.Random(5)
    for _ in range(300):
        base = rng.randint(2, 7)
        a_pos = rng.randint(1, 12)
        lam = Fraction(rng.randint(0, 10**6), 10**6 + rng.randint(1, 100))
        eta = eta_g_at(lam, base, a_pos)
        g = eta * base**a_pos  # the grid index: eta = g * base**-a_pos
        assert g.denominator == 1
        assert eta >= lam
        if g:
            assert Fraction(g - 1, base**a_pos) < lam


def test_eta_g_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eta_g_at(Fraction(3, 2), 2, 1)
    with pytest.raises(ValueError):
        eta_g_at(Fraction(1, 2), 1, 1)
    with pytest.raises(ValueError):
        eta_g_at(Fraction(1, 2), 2, 0)


def test_sigma_element_frozen_example():
    block = DigitWord(2, (1, 1))
    assert sigma_element_at(0, 2, 1, 5, block) == Fraction(3, 8)


def test_sigma_element_zero_block_is_eta():
    lam = Fraction(5, 17)
    assert sigma_element_at(lam, 3, 2, 8, DigitWord(3, (0,) * 4)) == eta_g_at(lam, 3, 2)


def test_sigma_element_stays_within_grid_cell():
    rng = random.Random(9)
    for _ in range(200):
        base = rng.randint(2, 6)
        a_pos = rng.randint(2, 6)
        width = rng.randint(1, 8)
        b_pos = a_pos + width + 2
        # lam < 1/2 with a_pos >= 2 keeps every candidate inside [0, 1)
        lam = Fraction(rng.randint(0, 499), 1000 + rng.randint(0, 50))
        alphabet = rng.randint(2, base)
        block = DigitWord(alphabet, tuple(rng.randrange(alphabet) for _ in range(width)))
        value = sigma_element_at(lam, base, a_pos, b_pos, block)
        eta = eta_g_at(lam, base, a_pos)
        assert eta <= value < eta + Fraction(1, base**a_pos)
        got = digits_prefix(value - eta, base, b_pos).digits
        assert got[a_pos:b_pos - 2] == block.digits
        assert got[b_pos - 2:b_pos] == (0, 0)


def test_sigma_element_rejects_bad_blocks():
    with pytest.raises(ValueError):
        sigma_element_at(0, 2, 1, 5, DigitWord(2, (1,)))  # wrong length
    with pytest.raises(ValueError):
        sigma_element_at(0, 2, 1, 5, DigitWord(4, (3, 1)))  # alphabet too big


def test_sigma_element_guards_unit_interval():
    # lam so close to 1 that the grid rounds up to 1 itself
    with pytest.raises(ValueError):
        sigma_element_at(Fraction(99, 100), 2, 1, 5, DigitWord(2, (0, 0)))


# ---------------------------------------------------------------------------
# step selection


def _tiny_two_base_schedule():
    # widths of 3 digits keep the candidate spaces small enough to cover
    return Schedule((2, 3), TableGrowth((2, 7, 12)))


def _grid(lam, m, sched):
    """select_step's start: lam rounded up to step m's grid, over u(m)**a_m."""
    u, a_pos = sched.base(m), sched.a(m)
    return int(eta_g_at(lam, u, a_pos) * u**a_pos)


def _select_drawing(monkeypatch, *args, **kwargs):
    """select_step's choice, plus the set of blocks it drew."""
    import fsdim.constructor

    drawn = set()
    draw = fsdim.constructor.sample_good_string

    def recording(*draw_args):
        word = draw(*draw_args)
        drawn.add(word.digits)
        return word

    monkeypatch.setattr(fsdim.constructor, "sample_good_string", recording)
    return select_step(*args, **kwargs), drawn


def _brute_force_choice(lam, m, sched, alphabet, t_cap=None):
    a_pos, b_pos = sched.a(m), sched.b(m)
    width = b_pos - a_pos - 2
    best = None
    for digits in iter_product(range(alphabet), repeat=width):
        word = DigitWord(alphabet, digits)
        xi = sigma_element_at(lam, sched.base(m), a_pos, b_pos, word)
        obj = a_m_naive(xi, m, sched, t_cap)
        if best is None or obj < best[0] - 1e-15:
            best = (obj, word)
    return best


def test_select_step_matches_brute_force_argmin(monkeypatch):
    sched = _tiny_two_base_schedule()
    lam = Fraction(1, 5)
    choice, drawn = _select_drawing(
        monkeypatch, _grid(lam, 2, sched), 2, sched, 2, 3, ConstructionParams(samples=200, seed=0))
    obj, word = _brute_force_choice(lam, 2, sched, 3)
    assert len(drawn) == 3 ** len(word)  # every block drawn: the argmin is global
    assert choice.digit_block == word
    assert choice.objective == pytest.approx(obj, abs=1e-9)
    assert choice.candidates_examined == 200
    assert choice.filter_vacuous  # far below the filter threshold
    assert choice.objective <= choice.objective_mean + 1e-12
    assert choice.substage == 2


def test_select_step_chosen_never_worse_than_mean():
    sched = _tiny_two_base_schedule()
    choice = select_step(_grid(Fraction(3, 11), 2, sched), 2, sched, 2, 3,
                         ConstructionParams(samples=32, seed=5))
    assert choice.objective <= choice.objective_mean + 1e-12


def test_select_step_objective_scale_invariance(monkeypatch):
    import fsdim.constructor
    from fsdim.expsum import a_m

    sched = _tiny_two_base_schedule()
    start = _grid(Fraction(1, 5), 2, sched)
    params = ConstructionParams(samples=200, seed=0)
    plain = select_step(start, 2, sched, 2, 3, params)
    monkeypatch.setattr(fsdim.constructor, "a_m", lambda *args: 3.7 * a_m(*args))
    scaled = select_step(start, 2, sched, 2, 3, params)
    assert scaled.objective == pytest.approx(3.7 * plain.objective)
    assert scaled.digit_block == plain.digit_block


def test_select_step_sampled_is_deterministic():
    sched = _tiny_two_base_schedule()
    start = _grid(Fraction(1, 5), 2, sched)
    one = select_step(start, 2, sched, 2, 3, ConstructionParams(samples=16, seed=42))
    two = select_step(start, 2, sched, 2, 3, ConstructionParams(samples=16, seed=42))
    assert one == two
    other = select_step(start, 2, sched, 2, 3, ConstructionParams(samples=16, seed=43))
    assert other.candidates_examined == 16  # same budget, possibly same pick


def test_select_step_single_class_takes_lexicographic_minimum(monkeypatch):
    sched = Schedule((4, 4), TableGrowth((3, 8, 13)))
    choice, drawn = _select_drawing(
        monkeypatch, _grid(Fraction(1, 9), 2, sched), 2, sched, 2, 4,
        ConstructionParams(samples=100, seed=0))
    assert len(drawn) == 4 ** len(choice.digit_block)  # the all-zero block was drawn
    assert choice.objective == 0.0
    assert choice.objective_mean == 0.0
    assert choice.digit_block.digits == (0,) * len(choice.digit_block)


def _count_calls(monkeypatch, *names):
    """Count the calls constructor makes through each of these names."""
    import fsdim.constructor as constructor

    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(constructor, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(constructor, name, counted)

    for name in names:
        counting(name)
    return calls


def test_select_step_trivial_step_computes_one_point(monkeypatch):
    # a single-class step scores every draw 0.0: no objective call and no
    # candidate point
    names = ("a_m", "eta_g_at", "_candidate", "sigma_element_at")
    sched = Schedule((4, 4), TableGrowth((3, 8, 13)))
    scored_sched = _tiny_two_base_schedule()
    trivial_start = _grid(Fraction(1, 9), 2, sched)
    scored_start = _grid(Fraction(1, 5), 2, scored_sched)
    calls = _count_calls(monkeypatch, *names)
    select_step(trivial_start, 2, sched, 2, 4, ConstructionParams(samples=16, seed=0))
    assert calls == dict.fromkeys(names, 0)

    # a scored step starts on its grid numerator, so it rounds nothing and
    # forms one point and one objective per draw
    select_step(scored_start, 2, scored_sched, 2, 3, ConstructionParams(samples=16, seed=0))
    assert calls == {"a_m": 16, "eta_g_at": 0, "_candidate": 16, "sigma_element_at": 0}


def test_select_step_draws_from_the_alphabet_it_is_handed(monkeypatch):
    sched = Schedule((4, 4), TableGrowth((3, 8, 13)))
    choice, drawn = _select_drawing(
        monkeypatch, _grid(Fraction(1, 9), 2, sched), 2, sched, 1, 2,
        ConstructionParams(samples=32, seed=0))
    assert all(d < 2 for block in drawn for d in block)
    assert choice.digit_block.base == 2
    assert len(drawn) == 2 ** len(choice.digit_block)  # every restricted block
    assert choice.substage == 1


def test_select_step_rejects_bad_arguments():
    sched = _tiny_two_base_schedule()  # base 3 at step 2
    for alphabet in (1, 4):  # one digit, or more digits than the base has
        with pytest.raises(ValueError, match=f"alphabet {alphabet} unusable in base 3"):
            select_step(0, 2, sched, 2, alphabet, ConstructionParams())


def test_select_step_no_candidate_error():
    # an absurdly tight filter rejects every block at this length
    sched = Schedule((2,), TableGrowth((2, 60)))
    disc = DiscrepancyParams(c={2: 1e-9})
    with pytest.raises(FilterGiveUp):
        select_step(0, 1, sched, 2, 2, ConstructionParams(samples=4, seed=0, disc=disc))


def test_select_step_filter_applies_beyond_threshold():
    sched = Schedule((2,), TableGrowth((2, 60)))  # width 56 > DEFAULT_N = 50
    params = ConstructionParams(samples=8, seed=3)
    choice = select_step(0, 1, sched, 2, 2, params)
    assert not choice.filter_vacuous
    assert low_discrepancy_test(choice.digit_block, params.disc)


# ---------------------------------------------------------------------------
# digit-buffer Weyl evaluation


def test_weyl_max_from_digits_matches_exact_averages():
    rng = random.Random(13)
    for base in (2, 3, 4):
        digits = tuple(rng.randrange(base) for _ in range(200))
        x = value_of_word(DigitWord(base, digits))
        exact = max(abs(weyl_average(x, base, t, 200)) for t in range(1, 6))
        fast = weyl_max_from_digits(digits, base, 5)
        assert fast == pytest.approx(exact, abs=1e-9)


def test_weyl_max_from_digits_constant_zero_is_one():
    assert weyl_max_from_digits([0] * 50, 2, 3) == pytest.approx(1.0)


def test_weyl_max_from_digits_rejects_bad_arguments():
    with pytest.raises(ValueError):
        weyl_max_from_digits([0, 1], 1, 2)
    with pytest.raises(ValueError):
        weyl_max_from_digits([0, 1], 2, 0)
    with pytest.raises(ValueError):
        weyl_max_from_digits([], 2, 1)


# ---------------------------------------------------------------------------
# substage predicates on fabricated state


def test_first_substage_done_on_ideal_digits():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    m = 33  # wide enough for the default transition inequality at k = 1
    sched = Schedule((4,) * m, plan.growth)
    rng = random.Random(1)
    digits = [rng.randrange(2) for _ in range(sched.b(m))]
    params = ConstructionParams()
    check = first_substage_done(1, m, sched, plan, params, digits, len(digits))
    assert check.done
    names = [v.name for v in check.verdicts]
    assert names == ["digit-floor", "block-length", "entropy-at-target"]


def test_first_substage_done_floor_short_circuits():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    sched = Schedule((4,), plan.growth)
    digits = [0, 1] * 6
    params = ConstructionParams(min_digits=10**6)
    check = first_substage_done(1, 1, sched, plan, params, digits, len(digits))
    assert not check.done
    assert [v.name for v in check.verdicts] == ["digit-floor"]


def test_first_substage_done_rejects_wrong_entropy():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    m = 33
    sched = Schedule((4,) * m, plan.growth)
    digits = [0] * sched.b(m)  # entropy 0, target 1/2
    check = first_substage_done(1, m, sched, plan, ConstructionParams(), digits, len(digits))
    assert not check.done
    assert check.verdicts[-1].name == "entropy-at-target"
    assert check.verdicts[-1].measured == pytest.approx(0.5, abs=1e-6)


def test_second_substage_done_on_ideal_digits():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    m = 40
    sched = Schedule((4,) * m, plan.growth)
    rng = random.Random(2)
    digits = [rng.randrange(4) for _ in range(sched.b(m))]
    params = ConstructionParams()
    check = second_substage_done(1, m, sched, plan, params, digits, len(digits))
    assert check.done
    names = [v.name for v in check.verdicts]
    assert names == [
        "digit-floor",
        "block-length",
        "entropy-at-one",
        "good-extension",
        "weyl-average",
        "next-base-entropy",
    ]
    lookahead = {v.name: v for v in check.verdicts}
    assert lookahead["good-extension"].vacuous  # plan stops at one class
    assert lookahead["next-base-entropy"].vacuous


def test_second_substage_done_fails_on_diluted_digits():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    m = 40
    sched = Schedule((4,) * m, plan.growth)
    rng = random.Random(2)
    digits = [rng.randrange(2) for _ in range(sched.b(m))]  # entropy 1/2, not 1
    check = second_substage_done(1, m, sched, plan, ConstructionParams(), digits, len(digits))
    assert not check.done
    assert check.verdicts[-1].name == "entropy-at-one"


# ---------------------------------------------------------------------------
# full runs


def _fast_params(**overrides):
    base = dict(
        min_digits=120,
        transition_l=0.5,
        tolerance=0.15,
        weyl_gamma=0.8,
        step_budget=200,
    )
    base.update(overrides)
    return ConstructionParams(**base)


def test_run_construction_single_stage_mechanics():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    trace = run_construction(plan, 1, _fast_params(samples=8, seed=0))
    assert not trace.budget_exhausted
    sb = trace.stage(1)
    assert (sb.v, sb.v_star) == (4, 2)
    assert 1 <= sb.p1 < sb.p2
    assert trace.stage_start(1) == 1
    f2 = trace.second_checkpoint(1)
    assert trace.first_checkpoint(1) < f2

    # substage 1 wrote restricted-alphabet blocks, substage 2 full ones
    for step in trace.steps:
        assert step.k == 1
        assert step.digit_block.base == (2 if step.substage == 1 else 4)
        assert step.objective == 0.0  # single class: objective short-circuits

    # the point only ever grows, and every step's digits survive in it
    replay_trace(trace)
    final = digits_prefix(trace.xi, 4, f2).digits
    for step in trace.steps:
        assert final[step.a_m:step.b_m - 2] == step.digit_block.digits

    word = trace.digits_for_stage(1)
    assert word.digits == final
    assert word.base == 4


def test_run_construction_requirements_pass():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    trace = run_construction(plan, 1, _fast_params(samples=8, seed=0))
    verdicts = check_requirements(trace, 1)
    by_name = {}
    for v in verdicts:
        by_name.setdefault(v.name, v)
    assert by_name["stage-target"].passed and not by_name["stage-target"].vacuous
    assert by_name["full-restore"].passed and not by_name["full-restore"].vacuous
    assert by_name["restore-floor"].passed
    assert by_name["other-base-hold"].vacuous
    assert by_name["next-base-restore"].vacuous
    assert by_name["next-stage-floor"].vacuous


def test_run_construction_is_reproducible():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    one = run_construction(plan, 1, _fast_params(samples=8, seed=0))
    two = run_construction(plan, 1, _fast_params(samples=8, seed=0))
    assert one.xi == two.xi
    assert one.steps == two.steps
    other = run_construction(plan, 1, _fast_params(samples=8, seed=1))
    assert other.xi != one.xi


def test_run_construction_budget_exhaustion_marks_trace():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    trace = run_construction(plan, 1, _fast_params(samples=4, step_budget=3))
    assert trace.budget_exhausted
    sb = trace.stage(1)
    assert sb.p1 == 3  # stopped mid-first-substage
    assert sb.p2 is None
    assert not sb.first_check.done
    with pytest.raises(ValueError):
        trace.second_checkpoint(1)
    with pytest.raises(ValueError):
        check_requirements(trace, 1)


def test_second_substage_out_of_budget_leaves_the_stage_incomplete():
    # weyl_gamma 0.01 keeps the second substage's Weyl check failing, so
    # the first substage closes and the second runs out of steps
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    trace = run_construction(plan, 1, _fast_params(samples=4, step_budget=16, weyl_gamma=0.01))
    assert trace.budget_exhausted
    sb = trace.stage(1)
    assert sb.first_check.done
    assert sb.second_check is not None and not sb.second_check.done
    assert sb.p2 is None
    with pytest.raises(ValueError, match="incomplete"):
        check_requirements(trace, 1)
    with pytest.raises(ValueError, match="incomplete"):
        trace.digits_for_stage(1)


@pytest.fixture(scope="module")
def three_stage_trace():
    # base pattern 4, 3, 4: stage 2 sees an inequivalent earlier base and
    # a repeated upcoming one, so every look-ahead and hold monitor fires
    plan = StagePlan({2: Fraction(1, 2), 3: Fraction(1)}, growth=ScaledGrowth(8, 4))
    params = _fast_params(transition_margin=0.05, t_cap=3, samples=8, seed=1)
    return run_construction(plan, 3, params)


def test_multi_stage_run_completes(three_stage_trace):
    trace = three_stage_trace
    assert not trace.budget_exhausted
    assert [sb.v for sb in trace.stages] == [4, 3, 4]
    assert [sb.v_star for sb in trace.stages] == [2, 3, 2]
    for sb in trace.stages:
        assert sb.v_star == trace.plan.p_of(sb.v)
        assert sb.p2 is not None and sb.p1 <= sb.p2
    starts = [trace.stage_start(k) for k in (1, 2, 3)]
    assert starts[0] == 1
    replay_trace(trace)


def test_run_rounds_once_per_stage_and_forms_one_point_per_scored_draw(monkeypatch):
    # stage 2 (base 3) is scored against base 4; stage 1 steps are trivial
    calls = _count_calls(monkeypatch, "a_m", "eta_g_at", "_candidate", "sigma_element_at")
    plan = StagePlan({2: Fraction(1, 2), 3: Fraction(1)}, growth=ScaledGrowth(8, 4))
    params = _fast_params(transition_margin=0.05, t_cap=3, samples=4, seed=1)
    steps = run_construction(plan, 2, params).steps
    scored_steps = [s for i, s in enumerate(steps)
                    if not all(equivalent(p.u, s.u) for p in steps[:i + 1])]
    scored = sum(s.candidates_examined for s in scored_steps)
    assert scored > 0
    # eta_g_at only rounds each stage's carried-over point; inside a stage
    # the point is its digits, so only a scored draw forms a Fraction
    stages = len({s.k for s in steps})
    assert calls == {"a_m": scored, "eta_g_at": stages, "_candidate": scored,
                     "sigma_element_at": 0}


def test_audit_stability_checks_each_stage_end(three_stage_trace):
    # each stage's end point, replayed from its blocks by sigma_element_at
    trace = three_stage_trace
    points = replay_trace(trace)
    ends = []
    for k in range(1, len(trace.stages) + 1):
        i = max(i for i, s in enumerate(trace.steps) if s.k == k)
        last = trace.steps[i]
        ends.append((last.u, int(points[i] * last.u**last.b_m), last.b_m))
    _audit_stability(trace.xi, ends)

    # a final point anywhere in [point, point + unit) keeps the stage's
    # written digits; just below it, or one unit of the last one above, not
    for v, num, n in ends:
        point, unit = Fraction(num, v**n), Fraction(1, v ** (n - 2))
        _audit_stability(point + unit - Fraction(1, v ** (n + 1)), [(v, num, n)])
        for moved in (point - Fraction(1, v ** (n + 1)), point + unit):
            with pytest.raises(AssertionError, match="stage 1 were not stable"):
                _audit_stability(moved, [(v, num, n)])


def test_multi_stage_alphabets_follow_plan(three_stage_trace):
    # q = 1/2 restricts substage 1 to two digits; q = 1 leaves it full
    for step in three_stage_trace.steps:
        v = step.u
        expect = {4: 2, 3: 3}[v] if step.substage == 1 else v
        assert step.digit_block.base == expect


def test_multi_stage_digit_readback_across_bases(three_stage_trace):
    # each step's block must survive in the final point, read in that
    # step's own base, even after later stages in other bases append
    trace = three_stage_trace
    by_base = {}
    for i, step in enumerate(trace.steps):
        if step.u not in by_base or len(by_base[step.u]) < step.b_m:
            by_base[step.u] = digits_prefix(trace.xi, step.u, step.b_m).digits
        got = by_base[step.u]
        assert got[step.a_m:step.b_m - 2] == step.digit_block.digits
        # the two guard digits absorb the next stage's mass, so they stay
        # zero only while the following step writes in the same base
        following = trace.steps[i + 1] if i + 1 < len(trace.steps) else None
        if following is None or following.u == step.u:
            assert got[step.b_m - 2:step.b_m] == (0, 0)


def test_multi_stage_requirements_all_pass(three_stage_trace):
    trace = three_stage_trace
    for k in (1, 2, 3):
        verdicts = check_requirements(trace, k)
        for v in verdicts:
            assert v.passed or v.vacuous, (k, v)
    # stage 2 is the interesting one: base 4 before it, base 4 after it
    named = {}
    for v in check_requirements(trace, 2):
        named.setdefault(v.name, v)
    assert not named["other-base-hold"].vacuous
    assert not named["next-base-restore"].vacuous
    assert not named["next-stage-floor"].vacuous
    assert named["other-base-hold"].passed
    # stage 1 has nothing before it, stage 3 nothing after
    first = {v.name: v for v in check_requirements(trace, 1)}
    assert first["other-base-hold"].vacuous
    last = {v.name: v for v in check_requirements(trace, 3)}
    assert not last["other-base-hold"].vacuous
    assert last["next-base-restore"].vacuous


def test_construction_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(tolerance=0.0)
    with pytest.raises(ValueError):
        ConstructionParams(transition_margin=-0.1)
    with pytest.raises(ValueError):
        ConstructionParams(transition_l=-1.0)
    for name in ("tolerance", "transition_l", "transition_margin", "weyl_gamma"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ConstructionParams(**{name: value})
    with pytest.raises(ValueError):
        ConstructionParams(step_budget=0)
    with pytest.raises(ValueError):
        ConstructionParams(t_cap=0)
    with pytest.raises(ValueError, match="samples must be positive"):
        ConstructionParams(samples=0)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        ConstructionParams(tolerance=None)


def test_run_construction_zero_stages():
    plan = StagePlan({2: Fraction(1, 2)})
    trace = run_construction(plan, 0)
    assert trace.steps == ()
    assert trace.stages == ()
    assert trace.xi == 0


def test_run_construction_rejects_negative_stages():
    with pytest.raises(ValueError):
        run_construction(StagePlan({2: Fraction(1, 2)}), -1)


# ---------------------------------------------------------------------------
# requirement monitors on fabricated traces


def _fabricated_trace(xi, p1, p2):
    plan = StagePlan({2: Fraction(1, 2)}, growth=TableGrowth((3, 8, 14, 20, 27, 35)))
    params = ConstructionParams()
    bounds = StageBounds(k=1, v=4, v_star=2, p1=p1, p2=p2)
    return ConstructionTrace(
        plan=plan,
        params=params,
        xi=xi,
        steps=(),
        stages=(bounds,),
    )


def test_check_requirements_flags_constant_digits():
    # a constant expansion has zero entropy: both endpoints must fail
    n = 40
    xi = value_of_word(DigitWord(4, (1,) * n))
    trace = _fabricated_trace(xi, p1=2, p2=4)
    verdicts = {v.name: v for v in check_requirements(trace, 1)}
    assert not verdicts["stage-target"].passed
    assert verdicts["stage-target"].deviation == pytest.approx(0.5, abs=1e-9)
    assert not verdicts["full-restore"].passed
    assert verdicts["full-restore"].deviation == pytest.approx(1.0, abs=1e-9)


def test_check_requirements_never_aborts_on_vacuous_cases():
    rng = random.Random(4)
    xi = value_of_word(DigitWord(4, tuple(rng.randrange(4) for _ in range(40))))
    trace = _fabricated_trace(xi, p1=2, p2=4)
    verdicts = check_requirements(trace, 1)
    names = [v.name for v in verdicts]
    assert names.count("other-base-hold") == 1
    assert all(v.vacuous for v in verdicts if v.name == "other-base-hold")


# ---------------------------------------------------------------------------
# serialization


def test_trace_csv_round_trip(tmp_path):
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    trace = run_construction(plan, 1, _fast_params(samples=4, seed=0))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, comment="test run")
    lines = path.read_text().splitlines()
    assert lines[0] == "# test run"
    rows = list(csv.reader(lines[1:]))
    assert rows[0][:8] == ["m", "k", "substage", "criterion", "u", "a_m", "b_m", "block"]
    assert len(rows) - 1 == len(trace.steps)
    first = rows[1]
    step = trace.steps[0]
    assert int(first[0]) == step.m
    assert tuple(int(d) for d in first[7].split()) == step.digit_block.digits


def test_monitor_summary_round_trip():
    plan = StagePlan({2: Fraction(1, 2)}, growth=ScaledGrowth(8, 4))
    trace = run_construction(plan, 1, _fast_params(samples=4, seed=0))
    data = json.loads(json.dumps(monitor_summary(trace, {1: check_requirements(trace, 1)})))
    assert data["stages"][0]["base"] == 4
    assert data["stages"][0]["second_check"]["done"] is True
    assert not data["budget_exhausted"]
    names = {r["name"] for r in data["requirements"]["1"]}
    assert {"stage-target", "full-restore", "restore-floor"} <= names
    assert monitor_summary(trace)["steps"] == len(trace.steps)


# ---------------------------------------------------------------------------
# golden runs: any change to a chosen block or a requirement value fails here


def _int_bytes(n):
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


def _xi_digest(trace):
    h = hashlib.sha256()
    h.update(_int_bytes(trace.xi.numerator))
    h.update(b"/")
    h.update(_int_bytes(trace.xi.denominator))
    return h


def _steps_digest(trace):
    # xi, then every (m, u, a_m, b_m, block) in step order
    h = _xi_digest(trace)
    for s in trace.steps:
        h.update(f"|{s.m},{s.u},{s.a_m},{s.b_m}:".encode())
        h.update(bytes(s.digit_block.digits))
    return h.hexdigest()


# (plan, stages, samples, min_digits, transition_margin), seed 0
GOLDEN_RUNS = {
    "1class": ("q 2 1/2\ngrowth scaled 8 4\n", 1, 8, 600, 0.0),
    "2class": ("q 2 1/2\nq 3 1\ngrowth scaled 8 4\n", 2, 4, 300, 0.05),
}
# xi digest, steps digest, step count, (k, requirement, deviation as float.hex)
GOLDEN_VALUES = {
    "1class": (
        "03f4524a654e19015b10017c75d1c9b4f2338134be15d48fbc3d141c2c19bf67",
        "b3b16d61427fae71f7fecf170858fe608bc9630b70b95f655a3feb4d8a049201",
        47,
        [
            (1, "stage-target", "0x1.9c2c0ee692e00p-11"),
            (1, "full-restore", "0x1.94dbd42e4c0c0p-4"),
            (1, "restore-floor", "0x1.a64e795684800p-11"),
            (1, "other-base-hold", "0x0.0p+0"),
            (1, "next-base-restore", "0x0.0p+0"),
            (1, "next-stage-floor", "0x0.0p+0"),
        ],
    ),
    "2class": (
        "c4b2d0ce1d2709b6c4c4b6a36883664830b2cdd78487a35a180760cf0075c5ff",
        "ef6bc007991ccac6798a032c0406c46d3fcd66ac4ef51a9fffe0950fa8eb73ad",
        35,
        [
            (1, "stage-target", "0x1.6592e55178600p-11"),
            (1, "full-restore", "0x1.609db1ff3e180p-4"),
            (1, "restore-floor", "0x1.6592e55178600p-11"),
            (1, "other-base-hold", "0x0.0p+0"),
            (1, "next-base-restore", "0x0.0p+0"),
            (1, "next-stage-floor", "0x0.0p+0"),
            (2, "stage-target", "0x1.2e4b2d8417000p-13"),
            (2, "full-restore", "0x1.ef0e9291da000p-14"),
            (2, "restore-floor", "0x1.7aa8c7c8f9000p-13"),
            (2, "other-base-hold", "0x1.611292d13cf80p-4"),
            (2, "next-base-restore", "0x1.09572268ea1f0p-4"),
            (2, "next-stage-floor", "0x0.0p+0"),
        ],
    ),
}


def _golden_trace(name):
    text, stages, samples, min_digits, margin = GOLDEN_RUNS[name]
    params = ConstructionParams(tolerance=0.1, weyl_gamma=0.8, min_digits=min_digits,
                                transition_margin=margin, samples=samples, seed=0)
    return run_construction(parse_plan(text), stages, params)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_seeded_runs_match_golden_values(name):
    stages = GOLDEN_RUNS[name][1]
    trace = _golden_trace(name)
    xi_hex, steps_hex, n_steps, requirements = GOLDEN_VALUES[name]
    assert _xi_digest(trace).hexdigest() == xi_hex
    assert len(trace.steps) == n_steps
    assert _steps_digest(trace) == steps_hex
    got = [(k, v.name, v.deviation.hex())
           for k in range(1, stages + 1) for v in check_requirements(trace, k)]
    assert got == requirements


def test_step_choices_hold_no_points():
    # a trace stores each digit once: a step keeps its block, never its point
    trace = _golden_trace("2class")
    assert trace.steps
    for step in trace.steps:
        for f in dataclasses.fields(step):
            value = getattr(step, f.name)
            assert isinstance(value, (int, float, bool, DigitWord)), (step.m, f.name, value)


def test_step_choices_keep_each_block_as_one_integer():
    # a step keeps its block as the base-u integer the run adds into its
    # point, and digit_block spells it out over the alphabet it was drawn from
    trace = _golden_trace("1class")
    assert {s.substage for s in trace.steps} == {1, 2}
    for step in trace.steps:
        block = step.digit_block
        assert step.block_value == DigitWord(step.u, block.digits).as_int()
        assert block.base == step.alphabet == (2 if step.substage == 1 else 4)
        assert len(block) == step.b_m - step.a_m - 2
    # no field can hold a per-digit copy of the block
    for f in dataclasses.fields(StepChoice):
        assert "DigitWord" not in str(f.type) and "tuple" not in str(f.type), f
        for step in trace.steps:
            assert not isinstance(getattr(step, f.name), (DigitWord, tuple)), (step.m, f.name)


def test_run_construction_rejects_unfiltered_bases_before_any_step(monkeypatch):
    import fsdim.constructor as constructor

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the plan was checked")

    monkeypatch.setattr(constructor, "select_step", no_step)
    # stage 1 works in base 8 = 2^3, which has no filter constants
    with pytest.raises(ValueError, match="base 8"):
        run_construction(StagePlan({2: Fraction(1, 3)}), 1)
    # stage 1 is fine, but its close-out looks ahead to stage 2's base 9
    with pytest.raises(ValueError, match="base 9"):
        run_construction(StagePlan({2: Fraction(1, 2), 3: Fraction(1, 2)}), 1)
    # covering base 9 makes the same plan acceptable up to the first step
    disc = DiscrepancyParams.default().with_base(9, 0.8)
    with pytest.raises(AssertionError, match="before the plan"):
        run_construction(StagePlan({2: Fraction(1, 2), 3: Fraction(1, 2)}), 1,
                         params=ConstructionParams(disc=disc))


def test_run_construction_takes_base_32_once_it_has_a_constant(monkeypatch):
    import fsdim.constructor as constructor

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the plan was checked")

    monkeypatch.setattr(constructor, "select_step", no_step)
    # q = 1/5 puts stage 1 in base 32: refused without C_32, run with it
    with pytest.raises(ValueError, match="base 32"):
        run_construction(StagePlan({2: Fraction(1, 5)}), 1)
    disc = DiscrepancyParams.default().with_base(32, 0.8)
    with pytest.raises(AssertionError, match="before the plan"):
        run_construction(StagePlan({2: Fraction(1, 5)}), 1,
                         params=ConstructionParams(disc=disc))
    # with a calibrated C_32 the stage completes and its requirements hold
    monkeypatch.undo()
    disc = DiscrepancyParams.default().with_base(32, calibrate(32, samples=40))
    params = ConstructionParams(tolerance=0.1, weyl_gamma=0.8, min_digits=1000, samples=16,
                                transition_margin=0.05, disc=disc)
    trace = run_construction(StagePlan({2: Fraction(1, 5)}), 1, params)
    assert trace.stage(1).v == 32 and not trace.budget_exhausted
    verdicts = [v for v in check_requirements(trace, 1) if not v.vacuous]
    assert {v.name for v in verdicts} == {"stage-target", "full-restore", "restore-floor"}
    assert all(v.passed for v in verdicts), verdicts
