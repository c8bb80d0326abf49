"""Staged digit selection driving block entropies to prescribed targets.

Each step m appends one block of digits at positions a_m+1 .. b_m-2 of
the current point (the final two positions are zeroed as carry guards,
so earlier digits never move again).  Candidate blocks are
ConstructionParams.samples rejection-sampled draws, seeded per step and
slot from ConstructionParams.seed, through
the low-discrepancy filter (blocks of at most DEFAULT_N digits pass it
vacuously), scored by the cross-base exponential-sum objective; the
chosen block is the objective argmin over the draws, ties broken
lexicographically.  Block widths grow with the schedule, so sampling
is the only search: enumerating every block stops being feasible
within a few steps.

Steps are grouped into stages.  Stage k works in base v(k): a first
substage draws blocks from the restricted alphabet p(v(k)) until the
block entropies sit near the target rate q, then a second substage
draws from the full alphabet until they return to 1 and the point
passes a Weyl-average spot check.  A stage opens by rounding the point
up onto its base-v(k) grid; from then on the point is the stage's digit
list, carried as one integer.  Substage close-out predicates and
after-the-fact requirement monitors both live here; the monitors are
evaluated on the final point, whose digit prefixes are exact.  A trace
keeps that point and each step's block, once: the point after step m
is the final point truncated after b_m - 2 base-u(m) digits.

Thresholds: the asymptotic analysis uses 2^-k style tolerances and
nonconstructive transition constants.  Runs replace the former with
ConstructionParams.tolerance, one threshold for every entropy
close-out and requirement, and the latter with
ConstructionParams.transition_l, one constant for both substage
close-outs.  Entropies are read for block lengths up to min(k, L_CAP)
and the in-run Weyl check covers frequencies 1..WEYL_T_RANGE.  ConstructionParams is the only
configuration a run takes: search, filter constants and thresholds.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .base_arith import (
    DigitWord,
    Rational,
    _expansion,
    as_unit,
    atomic_write_text,
    digits_prefix,
    value_of_word,
)
from .blockstats import prefix_entropies
from .discrepancy import (
    DEFAULT_N,
    DiscrepancyParams,
    low_discrepancy_test,  # unused here; perfbench's tracing.PATCHES wraps this name
    sample_good_string,
)
from .expsum import a_m, weyl_max_from_digits
from .schedule import (
    Schedule,
    StagePlan,
    angle_base,
    equivalent,
    validate_good_sequence,
)

__all__ = [
    "L_CAP",
    "WEYL_T_RANGE",
    "ConditionVerdict",
    "ConstructionParams",
    "ConstructionTrace",
    "RequirementVerdict",
    "StageBounds",
    "StepChoice",
    "SubstageCheck",
    "check_requirements",
    "delta_k",
    "eta_g_at",
    "first_substage_done",
    "monitor_summary",
    "run_construction",
    "second_substage_done",
    "select_step",
    "sigma_element_at",
    "weyl_max_from_digits",
    "write_trace_csv",
]


# ---------------------------------------------------------------------------
# entropy perturbation margin


@lru_cache(maxsize=None)
def delta_k(eps: float, base: int, l: int) -> float:
    """Largest per-block probability shift that moves H_l by at most eps.

    Concavity of h(p) = -p*ln(p) gives sup_p |h(p+d) - h(p)| <= -d*ln(d)
    for 0 < d <= 1/e, so moving all base**l coordinates of a block
    distribution by at most delta moves the normalized entropy by at
    most base**l * (-delta*ln delta) / (l*ln base).  Returns the largest
    delta <= 1/e keeping that bound at or below eps.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if l < 1:
        raise ValueError(f"block length must be positive, got {l}")
    budget = eps * l * math.log(base) / float(base**l)
    cap = 1.0 / math.e
    if budget >= cap:  # -d*ln(d) peaks at 1/e
        return cap
    lo, hi = 0.0, cap
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid > 0.0 and -mid * math.log(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# per-step point arithmetic


def eta_g_at(lam: Rational, base: int, a_pos: int) -> Fraction:
    """Round lam up to the coarse grid with spacing base**-a_pos.

    The result is g * base**-a_pos for the least integer g putting it at
    or above lam.
    """
    f = as_unit(lam)
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if a_pos < 1:
        raise ValueError(f"grid position must be positive, got {a_pos}")
    scale = base**a_pos
    return Fraction(-(-f.numerator * scale // f.denominator), scale)


def sigma_element_at(
    lam: Rational, base: int, a_pos: int, b_pos: int, block: DigitWord
) -> Fraction:
    """The candidate point reached from lam by writing the given block.

    Digits a_pos+1 .. b_pos-2 of the result (in the ambient base) are
    the block digits; positions b_pos-1 and b_pos are zero.  The block
    may use a smaller alphabet; its digit values carry over unchanged.
    """
    width = b_pos - a_pos - 2
    if width < 0:
        raise ValueError(f"positions {a_pos}..{b_pos} leave no digit room")
    if len(block) != width:
        raise ValueError(f"block length {len(block)} != {width} open positions")
    if block.base > base:
        raise ValueError(f"alphabet {block.base} exceeds ambient base {base}")
    eta, scale = eta_g_at(lam, base, a_pos), base ** (b_pos - 2)
    return _candidate(eta.numerator * (scale // eta.denominator), scale, block, base)


def _candidate(start: int, scale: int, block: DigitWord, base: int) -> Fraction:
    # (start plus the block read as a base-``base`` integer) over scale
    num = start + DigitWord(base, block.digits).as_int()
    if num >= scale:
        raise ValueError("candidate point left the unit interval")
    return Fraction(num, scale)


# ---------------------------------------------------------------------------
# per-step block selection


@dataclass(frozen=True)
class StepChoice:
    """Outcome of one selection step; substage 1 drew restricted blocks.

    The point after the step is the final xi truncated after b_m - 2 base-u digits.
    The chosen block is kept as one integer, block_value: its b_m - a_m - 2
    digits read in base u, each below alphabet.  digit_block spells it out
    on demand, so a run's trace holds no per-digit copy of its blocks.
    """

    m: int
    substage: int
    u: int
    a_m: int
    b_m: int
    alphabet: int
    block_value: int
    objective: float
    objective_mean: float
    candidates_examined: int
    k: int = 0

    @property
    def digit_block(self) -> DigitWord:
        """The chosen block as a word over the alphabet it was drawn from."""
        width = self.b_m - self.a_m - 2
        digits, _ = _expansion(self.block_value, self.u**width, self.u, width)
        return DigitWord(self.alphabet, tuple(digits))

    @property
    def filter_vacuous(self) -> bool:
        """True when the block is too short for the filter to apply."""
        return self.b_m - self.a_m - 2 <= DEFAULT_N


def select_step(
    start: int,
    m: int,
    sched: Schedule,
    substage: int,
    alphabet: int,
    params: ConstructionParams,
) -> StepChoice:
    """Pick the step-m block minimizing the cross-base objective.

    Blocks are drawn over digits 0 .. alphabet-1: the run passes the
    restricted alphabet v*(k) in substage 1 and the full base v(k) in
    substage 2, and the choice records substage.  Each of
    params.samples candidates is drawn by sample_good_string, so
    candidates no longer than the filter threshold DEFAULT_N pass
    vacuously; a slot none of whose draws passes raises FilterGiveUp.
    Ties in the objective go to the lexicographically smallest block,
    so reruns are reproducible.  The step starts from the grid point
    start * u(m)**-a_m; a draw h, read as a base-u(m) integer, scores
    the point (start * u(m)**width + h) * u(m)**-(b_m - 2).
    """
    u = sched.base(m)
    a_pos, b_pos = sched.a(m), sched.b(m)
    width = b_pos - a_pos - 2
    if width < 1:
        raise ValueError(f"step {m} opens no digit positions")
    if not 2 <= alphabet <= u:
        raise ValueError(f"alphabet {alphabet} unusable in base {u}")

    # the objective is identically zero while every scheduled base is
    # equivalent, so those draws score 0.0 without forming a point
    trivial = all(equivalent(sched.base(h), u) for h in range(1, m + 1))
    if not trivial:  # shared by every draw of the step
        start, scale = start * u**width, u ** (b_pos - 2)

    best = None  # ((objective, digits), word)
    total_obj = 0.0
    for i in range(params.samples):
        # one independent stream per candidate slot: reruns are identical
        # no matter how many rejection attempts each slot needs
        word = sample_good_string(alphabet, width, f"{params.seed}:{m}:{i}", params.disc)
        obj = 0.0 if trivial else a_m(_candidate(start, scale, word, u), m, sched, params.t_cap)
        total_obj += obj
        key = (obj, word.digits)
        if best is None or key < best[0]:
            best = (key, word)
    (best_obj, _), best_word = best
    return StepChoice(
        m=m, substage=substage, u=u, a_m=a_pos, b_m=b_pos, alphabet=alphabet,
        block_value=DigitWord(u, best_word.digits).as_int(),
        objective=best_obj, objective_mean=total_obj / params.samples,
        candidates_examined=params.samples,
    )


# ---------------------------------------------------------------------------
# run parameters and substage close-out predicates


# Longest block length whose entropy the close-outs and monitors read.
L_CAP = 4
# The in-run Weyl check covers frequencies 1 <= t <= WEYL_T_RANGE.
WEYL_T_RANGE = 8


@dataclass(frozen=True)
class ConstructionParams:
    """The one configuration of a construction run.

    Each step draws samples candidate blocks, seeded per step and slot
    from seed, so reruns are identical.  tolerance is the threshold of
    every entropy close-out and requirement; it stands in for the
    paper's 2^-k style values, which are vacuous for small k and
    unattainably tight for large k.  transition_l stands in for the
    nonconstructive block-length constants of both substage close-out
    inequalities.  min_digits forces each substage to keep going until
    it has fixed that many digits, which is how runs are sized;
    step_budget bounds each substage, and exhausting it marks the trace
    incomplete instead of raising.  t_cap truncates the objective's
    frequency range (exact runs use every |t| <= m, which gets expensive
    in long multi-base runs).  transition_margin floors the
    entropy-perturbation margin in the block-length inequality; the
    exact margins shrink exponentially in the stage index (the third
    stage already demands blocks of ~10^4 digits), so multi-stage runs
    at desk scale need a floor.  0 keeps the exact margins.  weyl_gamma
    is the Weyl-average threshold (checked against weyl_gamma/2), and
    disc holds the filter constants of every base the run reaches.
    """

    tolerance: float = 0.1
    transition_l: float = 4.0
    transition_margin: float = 0.0
    weyl_gamma: float = 0.05
    min_digits: int = 0
    step_budget: int = 4096
    t_cap: Optional[int] = None
    disc: DiscrepancyParams = field(default_factory=DiscrepancyParams.default)
    samples: int = 64
    seed: Union[int, str] = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        for name in ("tolerance", "transition_l", "transition_margin", "weyl_gamma"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.transition_l < 0:
            raise ValueError(f"transition_l must be nonnegative, got {self.transition_l}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not self.weyl_gamma > 0:
            raise ValueError(f"weyl_gamma must be positive, got {self.weyl_gamma}")
        if self.step_budget < 1:
            raise ValueError(f"step_budget must be positive, got {self.step_budget}")
        if self.t_cap is not None and self.t_cap < 1:
            raise ValueError(f"t_cap must be positive or None, got {self.t_cap}")
        if self.transition_margin < 0:
            raise ValueError(
                f"transition_margin must be nonnegative, got {self.transition_margin}")
        if self.min_digits < 0:
            raise ValueError(f"min_digits must be nonnegative, got {self.min_digits}")


@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    passed: bool
    measured: float
    threshold: float
    vacuous: bool = False
    detail: str = ""


@dataclass(frozen=True)
class SubstageCheck:
    """One evaluation of a substage close-out predicate.

    Conditions run cheapest first and stop at the first failure, so a
    failing check lists only the verdicts actually evaluated; the final
    passing check carries the complete set.
    """

    k: int
    m: int
    substage: int
    done: bool
    verdicts: tuple[ConditionVerdict, ...]


def _prefix_deviation(
    digits: Sequence[int],
    base: int,
    l_hi: int,
    target: float,
    n_from: int,
    shortfall: bool = False,
) -> float:
    """Extremal deviation of the entropies H_1..H_l_hi from target.

    Every prefix of digits of length n_from or more is read; the largest
    deviation over those wins.  shortfall=True measures only dips below
    the target (one-sided, so it can come out negative), otherwise the
    absolute deviation.  A prefix shorter than l_hi reads as infinite.
    """
    if not 1 <= n_from <= len(digits):
        raise ValueError(f"prefixes {n_from}..{len(digits)} hold no reading")
    if n_from < l_hi:
        return math.inf
    arr = np.asarray(digits, dtype=np.int64)
    ends = np.arange(n_from, arr.size + 1)
    dev = -math.inf
    for l in range(1, l_hi + 1):
        hs = prefix_entropies(arr, base, l, ends)
        dev = max(dev, float((target - hs if shortfall else np.abs(hs - target)).max()))
    return dev


def _point_deviation(
    xi: Fraction, base: int, l_hi: int, target: float, lo: int, hi: int,
    shortfall: bool = False,
) -> float:
    """_prefix_deviation of xi's base-`base` digits over prefixes lo..hi."""
    return _prefix_deviation(digits_prefix(xi, base, hi).digits, base, l_hi, target, lo,
                             shortfall)


def _next_stage_base(plan: StagePlan, k: int) -> Optional[int]:
    # None when the plan stops short of stage k+1's class; the checks
    # that look ahead then pass vacuously so short plans stay runnable
    try:
        return plan.v_of(k + 1)
    except ValueError:
        return None


def _close_out(
    k: int, m: int, substage: int, conditions: Iterator[ConditionVerdict]
) -> SubstageCheck:
    # conditions come cheapest first; the generator stops being advanced
    # at the first failure, so nothing after it is computed
    verdicts = []
    for verdict in conditions:
        verdicts.append(verdict)
        if not verdict.passed:
            break
    return SubstageCheck(
        k=k, m=m, substage=substage, done=all(v.passed for v in verdicts),
        verdicts=tuple(verdicts),
    )


def _transition_gates(
    k: int,
    m: int,
    sched: Schedule,
    params: ConstructionParams,
    digits_fixed: int,
    margins: Sequence[float],
    detail: str = "",
) -> Iterator[ConditionVerdict]:
    # the two cheap gates both close-outs open with
    yield ConditionVerdict(
        name="digit-floor",
        passed=digits_fixed >= params.min_digits,
        measured=float(digits_fixed),
        threshold=float(params.min_digits),
    )
    margin = max(min(margins) / 2.0, params.transition_margin)
    need = (params.transition_l + 2.0 * k) / margin + k
    width = sched.b(m) - sched.a(m)
    yield ConditionVerdict(
        name="block-length", passed=width >= need, measured=float(width),
        threshold=need, detail=detail,
    )


def first_substage_done(
    k: int,
    m: int,
    sched: Schedule,
    plan: StagePlan,
    params: ConstructionParams,
    digits: Sequence[int],
    digits_fixed: int,
) -> SubstageCheck:
    """Close the restricted substage once entropies sit at the target rate.

    digits must hold exactly the stage-k digits written so far, so their
    count is the checkpoint the entropies are read at.
    """
    v = sched.base(m)
    l_hi = min(k, L_CAP)
    eps = 2.0**-k

    def conditions() -> Iterator[ConditionVerdict]:
        yield from _transition_gates(
            k, m, sched, params, digits_fixed, (delta_k(eps, v, l_hi), eps))
        tol = params.tolerance
        target = float(plan.q_for(v))
        dev = _prefix_deviation(digits, v, l_hi, target, len(digits))
        yield ConditionVerdict(
            name="entropy-at-target", passed=dev <= tol, measured=dev, threshold=tol,
            detail=f"target {target:.6g} at prefix {len(digits)}",
        )

    return _close_out(k, m, 1, conditions())


def second_substage_done(
    k: int,
    m: int,
    sched: Schedule,
    plan: StagePlan,
    params: ConstructionParams,
    digits: Sequence[int],
    digits_fixed: int,
) -> SubstageCheck:
    """Close the full-alphabet substage once the point looks fully random.

    ``digits`` must hold the base-v(k) digits stage k has written so
    far, which are the whole point; the entropies and the Weyl averages
    are read off them at their full length.  Beyond near-1 entropies
    this demands small Weyl averages, a healthy margin for the next
    stage's block lengths, a good base sequence after appending the next
    stage's base, and (when that base already appeared) near-1 entropies
    in it as well, read off the point these digits spell.  Look-ahead
    conditions pass vacuously when the plan does not cover stage k+1.
    """
    v = sched.base(m)
    l_hi = min(k, L_CAP)
    eps = 2.0**-k
    w = _next_stage_base(plan, k)

    def conditions() -> Iterator[ConditionVerdict]:
        margins = [delta_k(eps, v, l_hi), eps]
        if w is not None:
            margins.append(delta_k(eps, w, min(k + 1, L_CAP)))
        yield from _transition_gates(
            k, m, sched, params, digits_fixed, margins,
            "" if w is not None else "next stage base unknown")

        tol = params.tolerance
        dev = _prefix_deviation(digits, v, l_hi, 1.0, len(digits))
        yield ConditionVerdict(
            name="entropy-at-one", passed=dev <= tol, measured=dev, threshold=tol,
            detail=f"prefix {len(digits)}",
        )

        if w is None:
            yield ConditionVerdict(
                name="good-extension", passed=True, measured=0.0, threshold=0.0,
                vacuous=True, detail="plan stops before stage k+1",
            )
        else:
            report = validate_good_sequence(sched.extended(w), plan, m_max=m + 1)
            failed = report.failures()
            yield ConditionVerdict(
                name="good-extension", passed=report.ok, measured=float(len(failed)),
                threshold=0.0, detail="" if report.ok else f"first failure {failed[0]}",
            )

        worst = weyl_max_from_digits(digits, v, WEYL_T_RANGE)
        yield ConditionVerdict(
            name="weyl-average", passed=worst < params.weyl_gamma / 2.0, measured=worst,
            threshold=params.weyl_gamma / 2.0,
            detail=f"|t| <= {WEYL_T_RANGE} at prefix {len(digits)}",
        )

        if w is None or not any(plan.v_of(kp) == w for kp in range(1, k)):
            yield ConditionVerdict(
                name="next-base-entropy", passed=True, measured=0.0, threshold=0.0,
                vacuous=True, detail="next stage base has not appeared before",
            )
        else:
            n_w = angle_base(plan.growth.angle(m + 1), w)
            xi = value_of_word(DigitWord(v, tuple(digits)))
            dev_w = _point_deviation(xi, w, l_hi, 1.0, n_w, n_w)
            yield ConditionVerdict(
                name="next-base-entropy", passed=dev_w <= tol, measured=dev_w,
                threshold=tol, detail=f"base {w} prefix {n_w}",
            )

    return _close_out(k, m, 2, conditions())


# ---------------------------------------------------------------------------
# the run loop


@dataclass(frozen=True)
class StageBounds:
    """Step-index bookends of one stage; p2 is None if the run stopped early."""

    k: int
    v: int
    v_star: int
    p1: int
    p2: Optional[int]
    first_check: Optional[SubstageCheck] = None
    second_check: Optional[SubstageCheck] = None


@dataclass(frozen=True)
class ConstructionTrace:
    """Complete record of a construction run.

    xi is the final point; every digit a step fixed is a digit of xi
    (the two zeroed guard positions per step absorb all later carries).
    Checkpoint helpers give the digit-prefix lengths at which the
    requirement monitors read entropies.
    """

    plan: StagePlan
    params: ConstructionParams
    xi: Fraction
    steps: tuple[StepChoice, ...]
    stages: tuple[StageBounds, ...]
    budget_exhausted: bool = False

    def stage(self, k: int) -> StageBounds:
        if not 1 <= k <= len(self.stages):
            raise ValueError(f"trace has {len(self.stages)} stages, not {k}")
        return self.stages[k - 1]

    def stage_start(self, k: int) -> int:
        """First digit position stage k writes (in its own base)."""
        if k == 1:
            return 1
        prev = self.stage(k - 1)
        if prev.p2 is None:
            raise ValueError(f"stage {k - 1} is incomplete")
        return angle_base(self.plan.growth.angle(prev.p2 + 1), self.stage(k).v) + 1

    def first_checkpoint(self, k: int) -> int:
        """Prefix length at which the restricted substage was judged."""
        sb = self.stage(k)
        return angle_base(self.plan.growth.angle(sb.p1 + 1), sb.v)

    def second_checkpoint(self, k: int) -> int:
        """Prefix length at which the full-alphabet substage was judged."""
        sb = self.stage(k)
        if sb.p2 is None:
            raise ValueError(f"stage {k} is incomplete")
        return angle_base(self.plan.growth.angle(sb.p2 + 1), sb.v)

    def digits_for_stage(self, k: int) -> DigitWord:
        """Stage-k digit prefix of the final point, recomputed exactly."""
        return digits_prefix(self.xi, self.stage(k).v, self.second_checkpoint(k))


def run_construction(
    plan: StagePlan,
    stages: int,
    params: Optional[ConstructionParams] = None,
) -> ConstructionTrace:
    """Run the staged construction for the given number of stages.

    The plan must fix q for the classes of stages 1..stages; covering
    stage stages+1 as well makes the look-ahead close-out conditions
    bite instead of passing vacuously.  A plan that reaches a base or
    alphabet without filter constants in params.disc is rejected with
    ValueError before the first step.  Exhausting a substage's step
    budget stops the run and marks the trace rather than raising.
    """
    if stages < 0:
        raise ValueError(f"stage count must be nonnegative, got {stages}")
    params = ConstructionParams() if params is None else params
    # every base and alphabet the steps and the look-ahead draw from
    reached = {plan.v_of(k) for k in range(1, stages + 1)}
    w = _next_stage_base(plan, stages)
    if w is not None:
        reached.add(w)
    for b in sorted(reached | {plan.p_of(v) for v in reached}):
        params.disc.c_for(b)

    xi = Fraction(0)  # the point as the last finished stage left it
    u: list[int] = []
    steps: list[StepChoice] = []
    bounds: list[StageBounds] = []
    ends: list[tuple[int, int, int]] = []  # (v, num, n) per stage, for the audit only
    m = 0
    exhausted = False
    for k in range(1, stages + 1):
        v = plan.v_of(k)
        v_star = plan.p_of(v)
        # the stage opens on the point rounded up to its a0 digits before the
        # first open position; from then on the point is num / v**len(stage_digits)
        a0 = Schedule((*u, v), plan.growth).a(m + 1)
        eta0 = eta_g_at(xi, v, a0)
        stage_digits = list(digits_prefix(eta0, v, a0).digits)
        num = eta0.numerator * (v**a0 // eta0.denominator)
        substage_start = len(stage_digits)  # stage-local digit count when the substage opened
        p1 = None
        first_check = second_check = None
        for substage, alphabet in ((1, v_star), (2, v)):
            taken = 0
            while True:
                m += 1
                u.append(v)
                sched = Schedule(tuple(u), plan.growth)
                choice = select_step(num, m, sched, substage, alphabet, params)
                block = choice.digit_block.digits
                num = num * v ** (len(block) + 2) + choice.block_value * v**2
                stage_digits.extend(block)
                stage_digits.append(0)
                stage_digits.append(0)
                if len(stage_digits) != sched.b(m):
                    raise AssertionError(
                        f"step {m}: {len(stage_digits)} digits written, expected {sched.b(m)}"
                    )
                steps.append(replace(choice, k=k))
                taken += 1
                fixed = len(stage_digits) - substage_start
                if substage == 1:
                    check = first_substage_done(k, m, sched, plan, params, stage_digits, fixed)
                else:
                    check = second_substage_done(k, m, sched, plan, params, stage_digits, fixed)
                if check.done or taken >= params.step_budget:
                    exhausted = exhausted or not check.done
                    break
            if substage == 1:
                p1, first_check = m, check
            else:
                second_check = check
            substage_start = len(stage_digits)
            if exhausted:
                break
        xi = Fraction(num, v ** len(stage_digits))
        ends.append((v, num, len(stage_digits)))
        bounds.append(
            StageBounds(
                k=k,
                v=v,
                v_star=v_star,
                p1=p1,
                p2=None if exhausted else m,
                first_check=first_check,
                second_check=second_check,
            )
        )
        if exhausted:
            break
    _audit_stability(xi, ends)
    return ConstructionTrace(
        plan=plan,
        params=params,
        xi=xi,
        steps=tuple(steps),
        stages=tuple(bounds),
        budget_exhausted=exhausted,
    )


def _audit_stability(xi: Fraction, ends: Sequence[tuple[int, int, int]]) -> None:
    # each stage ended on num / v**n, n base-v digits closing on two guard
    # zeros, and every step's point is a prefix of it: so no fixed digit
    # moved iff 0 <= xi - num / v**n < v**-(n - 2), tested in integers
    for k, (v, num, n) in enumerate(ends, 1):
        gap = xi.numerator * v**n - num * xi.denominator
        if not 0 <= gap < xi.denominator * v**2:
            raise AssertionError(f"digits written in stage {k} were not stable")


# ---------------------------------------------------------------------------
# requirement monitors


@dataclass(frozen=True)
class RequirementVerdict:
    """One after-the-fact entropy requirement, judged on the final point."""

    name: str
    k: int
    l_hi: int
    deviation: float
    threshold: float
    passed: bool
    vacuous: bool = False
    detail: str = ""


def check_requirements(trace: ConstructionTrace, k: int) -> tuple[RequirementVerdict, ...]:
    """Judge stage k's entropy requirements against the final point.

    Returns one verdict per requirement; requirements whose trigger
    condition is absent (no inequivalent earlier base, no repeat of the
    next base, plan or trace stopping short) come back vacuous rather
    than silently passing.  Needs stage k complete in the trace.
    """
    plan, params = trace.plan, trace.params
    sb = trace.stage(k)
    v = sb.v
    q = float(plan.q_for(v))
    l_hi = min(k, L_CAP)
    tol = params.tolerance
    f1, f2 = trace.first_checkpoint(k), trace.second_checkpoint(k)
    word = trace.digits_for_stage(k)

    def verdict(name, detail, dev=None, l=l_hi) -> RequirementVerdict:
        # dev None marks a requirement whose trigger condition is absent
        if dev is None:
            return RequirementVerdict(name, k, l, 0.0, 0.0, True, vacuous=True, detail=detail)
        return RequirementVerdict(name, k, l, dev, tol, dev <= tol, detail=detail)

    out = [
        verdict("stage-target", f"|H_l - {q:.6g}| at prefix {f1}",
                _prefix_deviation(word.digits[:f1], v, l_hi, q, f1)),
        verdict("full-restore", f"|H_l - 1| at prefix {f2}",
                _prefix_deviation(word.digits, v, l_hi, 1.0, f2)),
        verdict("restore-floor", f"worst dip below {q:.6g} over prefixes {f1}..{f2}",
                _prefix_deviation(word.digits, v, l_hi, q, f1, shortfall=True)),
    ]

    held = False
    for kp in range(1, k):
        vp = trace.stage(kp).v
        if equivalent(vp, v):
            continue
        held = True
        prev = trace.stage(k - 1)
        lo = angle_base(plan.growth.angle(prev.p2 + 1), vp) + 1
        hi = angle_base(plan.growth.angle(sb.p2 + 1), vp)
        l_p = min(kp, L_CAP)
        dev = _point_deviation(trace.xi, vp, l_p, 1.0, lo, hi)
        out.append(verdict("other-base-hold", f"stage-{kp} base {vp}, prefixes {lo}..{hi}",
                           dev, l_p))
    if not held:
        out.append(verdict("other-base-hold", "no inequivalent earlier base"))

    w = _next_stage_base(plan, k)
    repeated = w is not None and any(plan.v_of(kp) == w for kp in range(1, k))
    if not repeated:
        out.append(verdict("next-base-restore", "next stage base is new or unplanned"))
    else:
        n_w = angle_base(plan.growth.angle(sb.p2 + 1), w)
        dev = _point_deviation(trace.xi, w, l_hi, 1.0, n_w, n_w)
        out.append(verdict("next-base-restore", f"base {w} prefix {n_w}", dev))

    if not (repeated and len(trace.stages) > k and trace.stage(k + 1).p1 is not None):
        out.append(verdict("next-stage-floor", "stage k+1 absent or next base is new"))
    else:
        q_next = float(plan.q_for(w))
        lo = trace.stage_start(k + 1)
        hi = trace.first_checkpoint(k + 1)
        dev = _point_deviation(trace.xi, w, l_hi, q_next, lo, hi, shortfall=True)
        out.append(verdict("next-stage-floor",
                           f"worst dip below {q_next:.6g}, base {w}, prefixes {lo}..{hi}",
                           dev))
    return tuple(out)


# ---------------------------------------------------------------------------
# trace serialization


def write_trace_csv(trace: ConstructionTrace, path, comment: str) -> None:
    """A ``# comment`` line, then one row per step; block digits are
    space-separated in one cell."""
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(["m", "k", "substage", "criterion", "u", "a_m", "b_m", "block",
                     "objective", "objective_mean", "candidates", "filter_vacuous"])
    for s in trace.steps:
        # criterion c draws the blocks of substage c, so one field fills both columns
        writer.writerow([
            s.m, s.k, s.substage, s.substage, s.u, s.a_m, s.b_m,
            " ".join(map(str, s.digit_block.digits)),
            f"{s.objective:.12g}", f"{s.objective_mean:.12g}",
            s.candidates_examined, int(s.filter_vacuous),
        ])
    atomic_write_text(path, buf.getvalue())


def monitor_summary(
    trace: ConstructionTrace,
    requirements: Optional[Mapping[int, Sequence[RequirementVerdict]]] = None,
) -> dict:
    """JSON-ready digest of a run: stage bounds, checks, requirements."""
    stages = []
    for sb in trace.stages:
        entry = {
            "k": sb.k,
            "base": sb.v,
            "restricted_alphabet": sb.v_star,
            "p1": sb.p1,
            "p2": sb.p2,
            "first_checkpoint": trace.first_checkpoint(sb.k),
            "second_checkpoint": None if sb.p2 is None else trace.second_checkpoint(sb.k),
            "first_check": None if sb.first_check is None else asdict(sb.first_check),
            "second_check": None if sb.second_check is None else asdict(sb.second_check),
        }
        stages.append(entry)
    summary = {
        "stages": stages,
        "steps": len(trace.steps),
        "budget_exhausted": trace.budget_exhausted,
        "xi_float": float(trace.xi),
        "xi_denominator_bits": trace.xi.denominator.bit_length(),
    }
    if requirements is not None:
        summary["requirements"] = {
            str(k): [asdict(r) for r in verdicts] for k, verdicts in requirements.items()
        }
    return summary
