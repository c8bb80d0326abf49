"""Staged digit selection driving block entropies to prescribed targets.

Each step m rounds the current point up to a grid value eta and then
appends one block of digits at positions a_m+1 .. b_m-2 (the final two
positions are zeroed as carry guards, so earlier digits never move
again).  Candidate blocks are screened by the low-discrepancy filter
and scored by the cross-base exponential-sum objective; the chosen
block is the objective argmin, ties broken lexicographically.

Steps are grouped into stages.  Stage k works in base v(k): a first
substage draws blocks from the restricted alphabet p(v(k)) until the
block entropies sit near the target rate q, then a second substage
draws from the full alphabet until they return to 1 and the point
passes a Weyl-average spot check.  Substage close-out predicates and
after-the-fact requirement monitors both live here; the monitors are
evaluated on the final point, whose digit prefixes are exact.

Thresholds: the asymptotic analysis uses 2^-k style tolerances and
nonconstructive transition constants.  Desk runs replace the former
with ConstructionParams.tolerance (set it to None for the literal
2^-k values) and the latter with ConstructionParams.transition_l, one
constant for both substage close-outs.  Entropies are read for block
lengths up to min(k, L_CAP) and the in-run Weyl check covers
frequencies 1..WEYL_T_RANGE.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .base_arith import DigitWord, Rational, as_unit, atomic_write_text, digits_prefix
from .blockstats import BlockCounter
from .discrepancy import (
    DiscrepancyParams,
    FilterGiveUp,
    low_discrepancy_test,
    sample_good_string,
)
from .expsum import a_m, weyl_max_from_digits
from .schedule import (
    GoodSequenceParams,
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
    "EtaStep",
    "ExhaustiveSearch",
    "NoCandidateError",
    "RequirementVerdict",
    "SampledSearch",
    "StageBounds",
    "StepChoice",
    "SubstageCheck",
    "check_requirements",
    "delta_k",
    "eta_g",
    "eta_g_at",
    "first_substage_done",
    "monitor_summary",
    "run_construction",
    "second_substage_done",
    "select_step",
    "sigma_element",
    "sigma_element_at",
    "weyl_max_from_digits",
    "write_monitor_summary",
    "write_trace_csv",
]


class NoCandidateError(RuntimeError):
    """No digit block passed the low-discrepancy filter."""


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


@dataclass(frozen=True)
class EtaStep:
    """Grid rounding of a point: eta = g * base**-a is the least such >= it."""

    g: int
    eta: Fraction


def eta_g_at(lam: Rational, base: int, a_pos: int) -> EtaStep:
    """Round lam up to the coarse grid with spacing base**-a_pos."""
    f = as_unit(lam)
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if a_pos < 1:
        raise ValueError(f"grid position must be positive, got {a_pos}")
    scale = base**a_pos
    g = -(-f.numerator * scale // f.denominator)
    return EtaStep(g, Fraction(g, scale))


def eta_g(lam: Rational, m: int, sched: Schedule) -> EtaStep:
    """Step-m rounding: grid position a_m in base u(m)."""
    return eta_g_at(lam, sched.base(m), sched.a(m))


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
    step = eta_g_at(lam, base, a_pos)
    h = 0
    for d in block.digits:
        h = h * base + d
    value = step.eta + Fraction(h, base ** (b_pos - 2))
    if value >= 1:
        raise ValueError("candidate point left the unit interval")
    return value


def sigma_element(lam: Rational, m: int, sched: Schedule, block: DigitWord) -> Fraction:
    """Candidate point of step m determined by the given digit block."""
    return sigma_element_at(lam, sched.base(m), sched.a(m), sched.b(m), block)


# ---------------------------------------------------------------------------
# per-step block selection


@dataclass(frozen=True)
class ExhaustiveSearch:
    """Enumerate every block over the step alphabet, in lexicographic order."""

    limit: int = 200_000

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"limit must be positive, got {self.limit}")


@dataclass(frozen=True)
class SampledSearch:
    """Draw a fixed number of filter-passing blocks, seeded per step."""

    samples: int = 64
    seed: Union[int, str] = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")


SearchMode = Union[ExhaustiveSearch, SampledSearch]


@dataclass(frozen=True)
class StepChoice:
    """Outcome of one selection step."""

    m: int
    criterion: int
    u: int
    a_m: int
    b_m: int
    digit_block: DigitWord
    xi: Fraction
    objective: float
    objective_mean: float
    candidates_examined: int
    filter_vacuous: bool
    k: int = 0
    substage: int = 0


def _candidate_words(
    mode: SearchMode,
    alphabet: int,
    width: int,
    m: int,
    vacuous: bool,
    disc: DiscrepancyParams,
):
    if isinstance(mode, ExhaustiveSearch):
        total = alphabet**width
        if total > mode.limit:
            raise ValueError(
                f"{alphabet}**{width} candidates exceed the exhaustive "
                f"limit {mode.limit}; use SampledSearch"
            )
        for digits in iter_product(range(alphabet), repeat=width):
            word = DigitWord(alphabet, digits)
            if vacuous or low_discrepancy_test(word, disc):
                yield word
        return
    if not isinstance(mode, SampledSearch):
        raise TypeError(f"unknown search mode {mode!r}")
    for i in range(mode.samples):
        # one independent stream per candidate slot: reruns are identical
        # no matter how many rejection attempts each slot needs
        slot_seed = f"{mode.seed}:{m}:{i}"
        if vacuous:
            rng = random.Random(slot_seed)
            yield DigitWord(
                alphabet, tuple(rng.randrange(alphabet) for _ in range(width))
            )
        else:
            try:
                yield sample_good_string(alphabet, width, slot_seed, disc)
            except FilterGiveUp as exc:
                raise NoCandidateError(str(exc)) from exc


def select_step(
    lam: Rational,
    m: int,
    sched: Schedule,
    criterion: int,
    mode: SearchMode,
    disc: DiscrepancyParams,
    plan: Optional[StagePlan] = None,
    alphabet: Optional[int] = None,
    objective_fn: Optional[Callable[[Fraction], float]] = None,
    t_cap: Optional[int] = None,
) -> StepChoice:
    """Pick the step-m block minimizing the cross-base objective.

    criterion 1 draws blocks over the restricted alphabet p(u(m))
    (``plan`` supplies it unless ``alphabet`` overrides), criterion 2
    over the full alphabet u(m).  Candidates shorter than the filter
    threshold pass vacuously.  Ties in the objective go to the
    lexicographically smallest block, so reruns are reproducible.
    ``objective_fn`` replaces the default objective (used by tests).
    """
    if criterion not in (1, 2):
        raise ValueError(f"criterion must be 1 or 2, got {criterion}")
    u = sched.base(m)
    a_pos, b_pos = sched.a(m), sched.b(m)
    width = b_pos - a_pos - 2
    if width < 1:
        raise ValueError(f"step {m} opens no digit positions")
    if alphabet is None:
        if criterion == 2:
            alphabet = u
        else:
            if plan is None:
                raise ValueError("criterion 1 needs a plan for the restricted alphabet")
            alphabet = plan.p_of(u)
    if not 2 <= alphabet <= u:
        raise ValueError(f"alphabet {alphabet} unusable in base {u}")

    vacuous = width <= disc.n_for(alphabet)
    # the objective is identically zero while every scheduled base is
    # equivalent, so scoring reduces to taking the lexicographic minimum
    trivial = objective_fn is None and all(
        equivalent(sched.base(h), u) for h in range(1, m + 1)
    )

    best_word: Optional[DigitWord] = None
    best_xi: Optional[Fraction] = None
    best_obj = math.inf
    total_obj = 0.0
    examined = 0
    for word in _candidate_words(mode, alphabet, width, m, vacuous, disc):
        examined += 1
        if trivial:
            if best_word is None or word.digits < best_word.digits:
                best_word = word
            continue
        xi_c = sigma_element_at(lam, u, a_pos, b_pos, word)
        obj = objective_fn(xi_c) if objective_fn is not None else a_m(xi_c, m, sched, t_cap)
        total_obj += obj
        if (
            best_word is None
            or obj < best_obj
            or (obj == best_obj and word.digits < best_word.digits)
        ):
            best_word, best_xi, best_obj = word, xi_c, obj
    if best_word is None:
        raise NoCandidateError(
            f"no length-{width} block over alphabet {alphabet} passed the filter"
        )
    if trivial:
        best_xi = sigma_element_at(lam, u, a_pos, b_pos, best_word)
        best_obj = 0.0
        mean = 0.0
    else:
        mean = total_obj / examined
    return StepChoice(
        m=m,
        criterion=criterion,
        u=u,
        a_m=a_pos,
        b_m=b_pos,
        digit_block=best_word,
        xi=best_xi,
        objective=best_obj,
        objective_mean=mean,
        candidates_examined=examined,
        filter_vacuous=vacuous,
    )


# ---------------------------------------------------------------------------
# run parameters and substage close-out predicates


# Longest block length whose entropy the close-outs and monitors read.
L_CAP = 4
# The in-run Weyl check covers frequencies 1 <= t <= WEYL_T_RANGE.
WEYL_T_RANGE = 8


@dataclass(frozen=True)
class ConstructionParams:
    """Desk-scale knobs for a construction run.

    tolerance replaces every 2^-k style entropy threshold when set;
    None keeps the literal values (they are vacuous for small k and
    unattainably tight for large k, hence the override).  transition_l
    stands in for the nonconstructive block-length constants of both
    substage close-out inequalities.  min_digits forces each substage
    to keep going until it has fixed that many digits, which is how
    runs are sized; step_budget bounds each substage, and exhausting it
    marks the trace incomplete instead of raising.  t_cap truncates the
    objective's frequency range (exact runs use every |t| <= m, which
    gets expensive in long multi-base runs).  transition_margin floors
    the entropy-perturbation margin in the block-length inequality; the
    exact margins shrink exponentially in the stage index (the third
    stage already demands blocks of ~10^4 digits), so multi-stage runs
    at desk scale need a floor.  0 keeps the exact margins.  weyl_gamma
    is the Weyl-average threshold (checked against weyl_gamma/2), and
    disc holds the filter constants of every base the run reaches.
    """

    tolerance: Optional[float] = 0.1
    transition_l: float = 4.0
    transition_margin: float = 0.0
    weyl_gamma: float = 0.05
    min_digits: int = 0
    step_budget: int = 4096
    t_cap: Optional[int] = None
    disc: DiscrepancyParams = field(default_factory=DiscrepancyParams.default)

    def __post_init__(self) -> None:
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive or None, got {self.tolerance}")
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

    def entropy_tolerance(self, fallback: float) -> float:
        return self.tolerance if self.tolerance is not None else fallback


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
    counter: BlockCounter,
    l_hi: int,
    target: float,
    digits: Optional[Sequence[int]] = None,
    n_from: int = 0,
    shortfall: bool = False,
) -> float:
    """Extremal deviation of the entropies H_1..H_l_hi from target.

    Without digits the counter is read at its current prefix.  With
    digits, they are pushed one at a time and every prefix of length
    n_from or more is read; the largest deviation over those wins.
    shortfall=True measures only dips below the target (one-sided, so
    it can come out negative), otherwise the absolute deviation.  A
    prefix shorter than l_hi reads as infinite.
    """

    def read() -> float:
        if counter.n < l_hi:
            return math.inf
        hs = [counter.entropy(l) for l in range(1, l_hi + 1)]
        return max(target - h if shortfall else abs(h - target) for h in hs)

    if digits is None:
        return read()
    dev = -math.inf
    for d in digits:
        counter.push(d)
        if counter.n >= n_from:
            dev = max(dev, read())
    if dev == -math.inf:
        raise ValueError(f"prefixes {n_from}..{counter.n} hold no reading")
    return dev


def _next_stage_base(plan: StagePlan, k: int) -> Optional[int]:
    # None when the plan stops short of stage k+1's class; the checks
    # that look ahead then pass vacuously so short plans stay runnable
    try:
        return plan.v_of(k + 1)
    except (KeyError, ValueError):
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
    counter: BlockCounter,
    digits_fixed: int,
) -> SubstageCheck:
    """Close the restricted substage once entropies sit at the target rate.

    counter must hold exactly the stage-k digits written so far, so its
    prefix length is the checkpoint the entropies are read at.
    """
    v = sched.base(m)
    l_hi = min(k, L_CAP)
    eps = 2.0**-k

    def conditions() -> Iterator[ConditionVerdict]:
        yield from _transition_gates(
            k, m, sched, params, digits_fixed, (delta_k(eps, v, l_hi), eps))
        tol = params.entropy_tolerance(eps)
        target = float(plan.q_for(v))
        dev = _prefix_deviation(counter, l_hi, target)
        yield ConditionVerdict(
            name="entropy-at-target", passed=dev <= tol, measured=dev, threshold=tol,
            detail=f"target {target:.6g} at prefix {counter.n}",
        )

    return _close_out(k, m, 1, conditions())


def second_substage_done(
    k: int,
    m: int,
    sched: Schedule,
    plan: StagePlan,
    params: ConstructionParams,
    counter: BlockCounter,
    digits_fixed: int,
    xi: Fraction,
    digits: Sequence[int],
) -> SubstageCheck:
    """Close the full-alphabet substage once the point looks fully random.

    Beyond near-1 entropies this demands small Weyl averages (read off
    the stage digit buffer ``digits``, which must hold the base-v(k)
    expansion of xi so far), a healthy margin for the next stage's
    block lengths, a good base sequence after appending the next
    stage's base, and (when that base already appeared) near-1
    entropies in it as well.  Look-ahead conditions pass vacuously when
    the plan does not cover stage k+1.
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

        tol = params.entropy_tolerance(2.0 ** -(k + 1))
        dev = _prefix_deviation(counter, l_hi, 1.0)
        yield ConditionVerdict(
            name="entropy-at-one", passed=dev <= tol, measured=dev, threshold=tol,
            detail=f"prefix {counter.n}",
        )

        if w is None:
            yield ConditionVerdict(
                name="good-extension", passed=True, measured=0.0, threshold=0.0,
                vacuous=True, detail="plan stops before stage k+1",
            )
        else:
            ext = sched.extended(w)
            bases = set(ext.u)
            thresholds = {b: params.disc.n_for(b) for b in bases}
            thresholds.update({plan.p_of(b): params.disc.n_for(plan.p_of(b)) for b in bases})
            report = validate_good_sequence(
                ext,
                plan.alpha,
                GoodSequenceParams(plan=plan, n_thresholds=thresholds),
                m_max=m + 1,
            )
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
            tol_w = params.entropy_tolerance(eps)
            dev_w = _prefix_deviation(
                BlockCounter(w, l_hi), l_hi, 1.0, digits_prefix(xi, w, n_w).digits, n_w)
            yield ConditionVerdict(
                name="next-base-entropy", passed=dev_w <= tol_w, measured=dev_w,
                threshold=tol_w, detail=f"base {w} prefix {n_w}",
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
    mode: SearchMode
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
    mode: Optional[SearchMode] = None,
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
    mode = SampledSearch() if mode is None else mode
    params = ConstructionParams() if params is None else params
    # every base and alphabet the steps and the look-ahead draw from
    reached = set()
    for k in range(1, stages + 1):
        reached |= {plan.v_of(k), plan.v_star(k)}
    w = _next_stage_base(plan, stages)
    if w is not None:
        reached |= {w, plan.p_of(w)}
    for b in sorted(reached):
        params.disc.c_for(b)
        params.disc.n_for(b)

    xi = Fraction(0)
    u: list[int] = []
    steps: list[StepChoice] = []
    bounds: list[StageBounds] = []
    m = 0
    exhausted = False
    for k in range(1, stages + 1):
        v = plan.v_of(k)
        v_star = plan.v_star(k)
        counter = BlockCounter(v, min(k, L_CAP))
        stage_digits: list[int] = []  # base-v expansion of xi built so far
        substage_start = 0  # stage-local digit count when the substage opened
        p1 = None
        first_check = second_check = None
        for substage, criterion in ((1, 1), (2, 2)):
            taken = 0
            while True:
                m += 1
                u.append(v)
                sched = Schedule(tuple(u), plan.growth)
                if not stage_digits:
                    # digits before this stage's first open position are the
                    # rounded carry-over of everything built so far
                    eta0 = eta_g_at(xi, v, sched.a(m))
                    stage_digits.extend(digits_prefix(eta0.eta, v, sched.a(m)).digits)
                    counter.extend(stage_digits)
                    substage_start = counter.n
                choice = select_step(
                    xi, m, sched, criterion, mode, params.disc, plan, t_cap=params.t_cap
                )
                if choice.xi < xi:
                    raise AssertionError(f"step {m} moved the point backwards")
                xi = choice.xi
                stage_digits.extend(choice.digit_block.digits)
                stage_digits.append(0)
                stage_digits.append(0)
                counter.extend(choice.digit_block.digits)
                counter.push(0)
                counter.push(0)
                if counter.n != sched.b(m):
                    raise AssertionError(
                        f"step {m}: {counter.n} digits written, expected {sched.b(m)}"
                    )
                steps.append(replace(choice, k=k, substage=substage))
                taken += 1
                fixed = counter.n - substage_start
                if substage == 1:
                    check = first_substage_done(k, m, sched, plan, params, counter, fixed)
                else:
                    check = second_substage_done(
                        k, m, sched, plan, params, counter, fixed, xi, stage_digits
                    )
                if check.done or taken >= params.step_budget:
                    exhausted = exhausted or not check.done
                    break
            if substage == 1:
                p1, first_check = m, check
            else:
                second_check = check
            substage_start = counter.n
            if exhausted:
                break
        bounds.append(
            StageBounds(
                k=k,
                v=v,
                v_star=v_star,
                p1=p1,
                p2=None if exhausted and second_check is None else m,
                first_check=first_check,
                second_check=second_check,
            )
        )
        if exhausted:
            break
    trace = ConstructionTrace(
        plan=plan,
        params=params,
        mode=mode,
        xi=xi,
        steps=tuple(steps),
        stages=tuple(bounds),
        budget_exhausted=exhausted,
    )
    _audit_stability(trace)
    return trace


def _audit_stability(trace: ConstructionTrace) -> None:
    # every step's point is a lower approximation of the final one, and
    # the guard zeros keep the gap under one unit of the step's last
    # written position (so no digit a step fixed ever moved)
    for step in trace.steps:
        gap = trace.xi - step.xi
        if gap < 0 or gap >= Fraction(1, step.u ** (step.b_m - 2)):
            raise AssertionError(f"digits written at step {step.m} were not stable")


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
    if sb.p2 is None:
        raise ValueError(f"stage {k} is incomplete; requirements undefined")
    v = sb.v
    q = float(plan.q_for(v))
    l_hi = min(k, L_CAP)
    tol = params.entropy_tolerance
    f1, f2 = trace.first_checkpoint(k), trace.second_checkpoint(k)
    word = digits_prefix(trace.xi, v, f2)

    def deviation(base, digits, l, target, n_from, shortfall=False) -> float:
        return _prefix_deviation(BlockCounter(base, l), l, target, digits, n_from, shortfall)

    def verdict(name, detail, dev=None, threshold=0.0, l=l_hi) -> RequirementVerdict:
        # dev None marks a requirement whose trigger condition is absent
        if dev is None:
            return RequirementVerdict(name, k, l, 0.0, 0.0, True, vacuous=True, detail=detail)
        return RequirementVerdict(name, k, l, dev, threshold, dev <= threshold, detail=detail)

    out = [
        verdict("stage-target", f"|H_l - {q:.6g}| at prefix {f1}",
                deviation(v, word.digits[:f1], l_hi, q, f1), tol(2.0**-k)),
        verdict("full-restore", f"|H_l - 1| at prefix {f2}",
                deviation(v, word.digits, l_hi, 1.0, f2), tol(2.0 ** -(k + 1))),
        verdict("restore-floor", f"worst dip below {q:.6g} over prefixes {f1}..{f2}",
                deviation(v, word.digits, l_hi, q, f1, shortfall=True), tol(2.0 ** -(k - 1))),
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
        dev = deviation(vp, digits_prefix(trace.xi, vp, hi).digits, l_p, 1.0, lo)
        out.append(verdict("other-base-hold", f"stage-{kp} base {vp}, prefixes {lo}..{hi}",
                           dev, tol(2.0 ** -(kp + 1)), l_p))
    if not held:
        out.append(verdict("other-base-hold", "no inequivalent earlier base"))

    w = _next_stage_base(plan, k)
    repeated = w is not None and any(plan.v_of(kp) == w for kp in range(1, k))
    if not repeated:
        out.append(verdict("next-base-restore", "next stage base is new or unplanned"))
    else:
        n_w = angle_base(plan.growth.angle(sb.p2 + 1), w)
        dev = deviation(w, digits_prefix(trace.xi, w, n_w).digits, l_hi, 1.0, n_w)
        out.append(verdict("next-base-restore", f"base {w} prefix {n_w}", dev, tol(2.0**-k)))

    if not (repeated and len(trace.stages) > k and trace.stage(k + 1).p1 is not None):
        out.append(verdict("next-stage-floor", "stage k+1 absent or next base is new"))
    else:
        q_next = float(plan.q_for(w))
        lo = trace.stage_start(k + 1)
        hi = trace.first_checkpoint(k + 1)
        dev = deviation(w, digits_prefix(trace.xi, w, hi).digits, l_hi, q_next, lo,
                        shortfall=True)
        out.append(verdict("next-stage-floor",
                           f"worst dip below {q_next:.6g}, base {w}, prefixes {lo}..{hi}",
                           dev, tol(2.0 ** -(k - 1))))
    return tuple(out)


# ---------------------------------------------------------------------------
# trace serialization


def write_trace_csv(trace: ConstructionTrace, path, comment: Optional[str] = None) -> None:
    """One row per step; block digits are space-separated in one cell."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(["m", "k", "substage", "criterion", "u", "a_m", "b_m", "block",
                     "objective", "objective_mean", "candidates", "filter_vacuous"])
    for s in trace.steps:
        writer.writerow([
            s.m, s.k, s.substage, s.criterion, s.u, s.a_m, s.b_m,
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


def write_monitor_summary(
    trace: ConstructionTrace,
    path,
    requirements: Optional[Mapping[int, Sequence[RequirementVerdict]]] = None,
) -> None:
    atomic_write_text(path, json.dumps(monitor_summary(trace, requirements), indent=2))
