"""Step schedules, base equivalence, and stage plans.

The staged construction walks through steps m = 1, 2, ... where step m
works in base u(m) and touches digit positions a_m+1 .. b_m of the
base-u(m) expansion.  The positions derive from a growth function
``angle(m)`` (written ⟨m⟩ below) through

    a_m = ⟨m; u(m)⟩,   b_m = ⟨m+1; u(m)⟩,   ⟨m; r⟩ = ceil(⟨m⟩ / ln r).

This module owns that arithmetic, the equivalence relation "r and s
are powers of a common base", the fixed enumeration of class
representatives, per-class target entropies (the stage plan), and the
good-sequence validator.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .discrepancy import DEFAULT_N

__all__ = [
    "integer_root",
    "primitive_root",
    "equivalent",
    "representative",
    "r_seq",
    "PaperGrowth",
    "ScaledGrowth",
    "TableGrowth",
    "angle_base",
    "Schedule",
    "AlphaTable",
    "beta_m",
    "beta_prime_m",
    "StagePlan",
    "parse_plan",
    "read_plan_file",
    "GoodSequenceParams",
    "ConditionCheck",
    "GoodSequenceReport",
    "validate_good_sequence",
]


# ---------------------------------------------------------------------------
# integer roots and base equivalence


def integer_root(n: int, k: int) -> int:
    """Largest x >= 0 with x**k <= n, in pure integer arithmetic."""
    if k < 1:
        raise ValueError(f"root order must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0 or k == 1:
        return n
    # Newton iteration from an over-estimate; monotone decreasing until fixed.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


@lru_cache(maxsize=None)
def primitive_root(b: int) -> tuple[int, int]:
    """Decompose b as t**a with t smallest (equivalently a largest).

    Returns (t, a).  t is the canonical representative of b's
    equivalence class; a == 1 exactly when b is not a perfect power.
    """
    if b < 2:
        raise ValueError(f"need a base >= 2, got {b}")
    for a in range(b.bit_length(), 0, -1):
        t = integer_root(b, a)
        if t >= 2 and t ** a == b:
            return t, a
    raise AssertionError("unreachable: a=1 always matches")


def equivalent(r: int, s: int) -> bool:
    """True iff r and s are integer powers of a common base."""
    return primitive_root(r)[0] == primitive_root(s)[0]


@lru_cache(maxsize=None)
def representative(i: int) -> int:
    """The i-th (1-indexed) equivalence-class representative.

    Representatives are the integers >= 2 that are not perfect powers:
    2, 3, 5, 6, 7, 10, 11, ...
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    seen = 0
    for b in itertools.count(2):
        if primitive_root(b)[1] == 1:
            seen += 1
            if seen == i:
                return b
    raise AssertionError("unreachable")


def r_seq(k: int) -> int:
    """k-th element of the fixed representative sequence.

    Ruler scheme: element k is representative(v+1) where v is the
    2-adic valuation of k.  This starts at 2, never repeats an element
    twice in a row (one of k, k+1 is odd), and visits the j-th
    representative with density 2**-j, so every class recurs
    infinitely often.
    """
    if k < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    v = (k & -k).bit_length() - 1
    return representative(v + 1)


# ---------------------------------------------------------------------------
# growth functions


def _stable_ceil(value: Callable[[], decimal.Decimal], what: str) -> int:
    # ceil of an irrational value, evaluated at two decimal precisions;
    # the ceilings agree once precision wins
    results = []
    for prec in (50, 80):
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            results.append(math.ceil(value()))
    if results[0] != results[1]:
        raise ArithmeticError(f"{what} unstable at 80 digits")
    return results[1]


@lru_cache(maxsize=None)
def _paper_angle(u1: int, m: int) -> int:
    # ceil(e**sqrt(m) + 2*u1*m**3); e**sqrt(m) is irrational
    return _stable_ceil(lambda: decimal.Decimal(m).sqrt().exp() + 2 * u1 * m ** 3,
                        f"ceil(e**sqrt({m}) + ...)")


@dataclass(frozen=True)
class PaperGrowth:
    """angle(m) = ceil(e**sqrt(m) + 2*u1*m**3), angle(0) = 0."""

    u1: int

    def __post_init__(self) -> None:
        if self.u1 < 2:
            raise ValueError(f"u1 must be a base >= 2, got {self.u1}")

    def angle(self, m: int) -> int:
        if m < 0:
            raise ValueError(f"step index must be >= 0, got {m}")
        if m == 0:
            return 0
        return _paper_angle(self.u1, m)


@dataclass(frozen=True)
class ScaledGrowth:
    """Desk-scale override: angle(m) = c0 + c1*m**2, angle(0) = 0.

    Strictly increasing for c0 >= 0, c1 >= 1.  Every downstream formula
    consumes angle(m) abstractly, so shrinking it only shrinks block
    lengths, not the shape of the construction.
    """

    c0: int = 8
    c1: int = 4

    def __post_init__(self) -> None:
        if self.c0 < 0 or self.c1 < 1:
            raise ValueError(f"need c0 >= 0 and c1 >= 1, got ({self.c0}, {self.c1})")

    def angle(self, m: int) -> int:
        if m < 0:
            raise ValueError(f"step index must be >= 0, got {m}")
        if m == 0:
            return 0
        return self.c0 + self.c1 * m * m


@dataclass(frozen=True)
class TableGrowth:
    """Explicit angle table, mostly for tests: values[m-1] = angle(m)."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("angle table must be nonempty")
        if vals[0] < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("angle table must be strictly increasing and positive")

    def angle(self, m: int) -> int:
        if m < 0:
            raise ValueError(f"step index must be >= 0, got {m}")
        if m == 0:
            return 0
        if m > len(self.values):
            raise ValueError(f"angle table has {len(self.values)} entries, asked for m={m}")
        return self.values[m - 1]


Growth = Union[PaperGrowth, ScaledGrowth, TableGrowth]


@lru_cache(maxsize=None)
def _ceil_div_ln(a: int, r: int) -> int:
    # Smallest integer c with c*ln(r) >= a; a/ln(r) is irrational for a >= 1.
    if a == 0:
        return 0
    return _stable_ceil(lambda: decimal.Decimal(a) / decimal.Decimal(r).ln(),
                        f"ceil({a}/ln {r})")


def angle_base(angle_value: int, r: int) -> int:
    """⟨m; r⟩ given ⟨m⟩: the number of base-r digits carrying weight e**⟨m⟩."""
    if r < 2:
        raise ValueError(f"need a base >= 2, got {r}")
    if angle_value < 0:
        raise ValueError(f"angle value must be >= 0, got {angle_value}")
    return _ceil_div_ln(angle_value, r)


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class Schedule:
    """A finite prefix u(1..M) of the step-base sequence plus its growth rule.

    Digit positions for step m (all 1-indexed, in base u(m)):
    a(m) = ⟨m; u(m)⟩ is the last position already fixed before the step,
    b(m) = ⟨m+1; u(m)⟩ is the last position fixed by the step.
    When u(m) == u(m+1) these tile: b(m) == a(m+1).
    """

    u: tuple[int, ...]
    growth: Growth

    def __post_init__(self) -> None:
        u = tuple(int(x) for x in self.u)
        object.__setattr__(self, "u", u)
        if any(x < 2 for x in u):
            raise ValueError("every step base must be >= 2")

    def __len__(self) -> int:
        return len(self.u)

    def base(self, m: int) -> int:
        """u(m), 1-indexed."""
        if not 1 <= m <= len(self.u):
            raise ValueError(f"step {m} outside schedule of length {len(self.u)}")
        return self.u[m - 1]

    def angle(self, m: int) -> int:
        return self.growth.angle(m)

    def angle_base(self, m: int, r: int) -> int:
        return angle_base(self.growth.angle(m), r)

    def a(self, m: int) -> int:
        return self.angle_base(m, self.base(m))

    def b(self, m: int) -> int:
        return self.angle_base(m + 1, self.base(m))

    def extended(self, next_base: int) -> "Schedule":
        """New schedule with one more step appended."""
        return Schedule(self.u + (int(next_base),), self.growth)


# ---------------------------------------------------------------------------
# alpha table and beta

_ALPHA_CAP = 0.5


class AlphaTable:
    """Symmetric table of exponents alpha(r, s) in (0, 1/2].

    The true values are nonconstructive; lookups for missing pairs
    return the 1/2 cap.  Only validators and bound reports consume
    these numbers.
    """

    def __init__(self, entries: Optional[Mapping[tuple[int, int], float]] = None):
        table: dict[tuple[int, int], float] = {}
        for (r, s), val in (entries or {}).items():
            if r < 2 or s < 2:
                raise ValueError(f"alpha bases must be >= 2, got ({r}, {s})")
            if not 0.0 < val <= _ALPHA_CAP:
                raise ValueError(f"alpha({r},{s}) must lie in (0, 1/2], got {val}")
            key = (min(r, s), max(r, s))
            if key in table and table[key] != val:
                raise ValueError(f"conflicting alpha values for pair {key}")
            table[key] = float(val)
        self._table = table

    def alpha(self, r: int, s: int) -> float:
        return self._table.get((min(r, s), max(r, s)), _ALPHA_CAP)

    def items(self) -> tuple[tuple[tuple[int, int], float], ...]:
        return tuple(sorted(self._table.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlphaTable):
            return NotImplemented
        return self._table == other._table

    def __repr__(self) -> str:
        return f"AlphaTable({self._table!r})"


def beta_m(sched: Schedule, alpha: AlphaTable, m: int) -> float:
    """min of alpha(u(i), u(j)) over inequivalent pairs i <= j <= m, capped at 1/2."""
    if not 1 <= m <= len(sched):
        raise ValueError(f"step {m} outside schedule of length {len(sched)}")
    best = _ALPHA_CAP
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            if not equivalent(sched.base(i), sched.base(j)):
                best = min(best, alpha.alpha(sched.base(i), sched.base(j)))
    return best


def beta_prime_m(sched: Schedule, alpha: AlphaTable, m: int) -> float:
    return beta_m(sched, alpha, m) / 2.0


# ---------------------------------------------------------------------------
# stage plans


def _as_q(value: Union[Fraction, int, str]) -> Fraction:
    q = Fraction(value)
    if not 0 < q <= 1:
        raise ValueError(f"target entropy must lie in (0, 1], got {q}")
    return q


class StagePlan:
    """Per-class target entropies q plus the growth rule and alpha table.

    q is stored per class representative; q values supplied for
    equivalent bases must agree (finite-state dimension is a class
    invariant).  Stage k runs in base v(k) = r_k**d where q_{r_k} = e/d
    in lowest terms, and the first-substage alphabet is
    v*(k) = p(v(k)) = r_k**e.
    """

    def __init__(
        self,
        q: Mapping[int, Union[Fraction, int, str]],
        growth: Optional[Growth] = None,
        alpha: Optional[AlphaTable] = None,
    ):
        if not q:
            raise ValueError("a stage plan needs at least one q entry")
        table: dict[int, Fraction] = {}
        for b, raw in q.items():
            if b < 2:
                raise ValueError(f"base must be >= 2, got {b}")
            rep = primitive_root(b)[0]
            val = _as_q(raw)
            if rep in table and table[rep] != val:
                raise ValueError(
                    f"conflicting q for equivalent bases: class of {rep} "
                    f"given both {table[rep]} and {val}"
                )
            table[rep] = val
        self._q = table
        if growth is None:
            growth = ScaledGrowth()
        self.growth = growth
        self.alpha = alpha if alpha is not None else AlphaTable()

    def q_for(self, b: int) -> Fraction:
        """Target entropy for b's equivalence class."""
        rep = primitive_root(b)[0]
        try:
            return self._q[rep]
        except KeyError:
            raise ValueError(f"no target entropy configured for the class of {rep}") from None

    def q_items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._q.items()))

    def p_of(self, b: int) -> int:
        """floor(b**q_b), exact: the d-th integer root of b**e."""
        q = self.q_for(b)
        return integer_root(b ** q.numerator, q.denominator)

    def r_k(self, k: int) -> int:
        return r_seq(k)

    def v_of(self, k: int) -> int:
        """Working base of stage k: r_k raised to q's denominator."""
        r = r_seq(k)
        return r ** self.q_for(r).denominator

    def v_star(self, k: int) -> int:
        """First-substage alphabet of stage k: r_k raised to q's numerator."""
        r = r_seq(k)
        return r ** self.q_for(r).numerator

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StagePlan):
            return NotImplemented
        return (
            self._q == other._q
            and self.growth == other.growth
            and self.alpha == other.alpha
        )

    def __repr__(self) -> str:
        return f"StagePlan(q={self._q!r}, growth={self.growth!r})"


def parse_plan(text: str) -> StagePlan:
    """Parse a plan from its plain-text form.

    Directives, one per line ('#' starts a comment):
        q <base> <num>/<den>     target entropy for the base's class
        growth paper             paper growth, u1 = v(1)
        growth scaled <c0> <c1>  quadratic growth override
        alpha <r> <s> <value>    pairwise exponent for the validator

    Growth defaults to ``scaled 8 4`` when absent.  Conflicting q
    values for equivalent bases are rejected.
    """
    q: dict[int, Fraction] = {}
    alpha_entries: dict[tuple[int, int], float] = {}
    growth_spec: Optional[tuple] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "q" and len(parts) == 3:
                b = int(parts[1])
                val = _as_q(parts[2])
                rep = primitive_root(b)[0]
                if rep in q and q[rep] != val:
                    raise ValueError(
                        f"conflicting q for equivalent bases in class of {rep}"
                    )
                q[rep] = val
            elif parts[0] == "growth" and parts[1] == "paper" and len(parts) == 2:
                growth_spec = ("paper",)
            elif parts[0] == "growth" and parts[1] == "scaled" and len(parts) == 4:
                growth_spec = ("scaled", int(parts[2]), int(parts[3]))
            elif parts[0] == "alpha" and len(parts) == 4:
                r, s, val = int(parts[1]), int(parts[2]), float(parts[3])
                key = (min(r, s), max(r, s))
                if key in alpha_entries and alpha_entries[key] != val:
                    raise ValueError(f"conflicting alpha values for pair {key}")
                alpha_entries[key] = val
            else:
                raise ValueError(f"unrecognized directive {parts[0]!r}")
        except (ValueError, ZeroDivisionError, IndexError) as exc:
            raise ValueError(f"plan line {lineno}: {raw.strip()!r}: {exc}") from None
    if not q:
        raise ValueError("plan defines no q entries")

    alpha = AlphaTable(alpha_entries)
    if growth_spec is None or growth_spec[0] == "scaled":
        c0, c1 = growth_spec[1:] if growth_spec else (8, 4)
        growth: Growth = ScaledGrowth(c0, c1)
    else:
        # u(1) = v(1) = 2**d where q for the class of 2 is e/d
        plan_probe = StagePlan(q, ScaledGrowth())
        growth = PaperGrowth(plan_probe.v_of(1))
    return StagePlan(q, growth, alpha)


def read_plan_file(path) -> StagePlan:
    with open(path, "r", encoding="ascii") as fh:
        return parse_plan(fh.read())


# ---------------------------------------------------------------------------
# good-sequence validation


TAIL_TERMS = 200  # factors kept of condition 1's sine products; see _tail_lower_bound


@dataclass(frozen=True)
class GoodSequenceParams:
    """Knobs for validate_good_sequence.

    plan supplies p(b) and, through its alpha table, the beta values.
    n_thresholds maps base -> N_b(1/2), the word length beyond which
    the low-discrepancy bound of that base is considered active;
    condition 4 compares block lengths against these.  Bases missing
    from n_thresholds use the filter's DEFAULT_N.
    """

    plan: StagePlan
    n_thresholds: Mapping[int, int] = field(default_factory=dict)

    def n_for(self, base: int) -> int:
        return int(self.n_thresholds.get(base, DEFAULT_N))


@dataclass(frozen=True)
class ConditionCheck:
    m: int
    condition: int
    passed: bool
    detail: str


@dataclass(frozen=True)
class GoodSequenceReport:
    m_max: int
    checks: tuple[ConditionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _tail_lower_bound(p: int, i_start: int) -> float:
    # Product over i >= i_start of |sin(p*pi/2**(i+1)) / (p*sin(pi/2**(i+1)))|.
    # Each factor is >= 1 - (p**2-1)*x**2/6 at x = pi/2**(i+1), and the
    # Weierstrass bound turns the product into 1 - sum of the deficits:
    # sum_{i>=I} (pi/2**(i+1))**2 = pi**2 / (3*4**I).
    # exp/log form underflows to 0 gracefully where 4.0**i_start would overflow
    deficit = math.exp(math.log((p * p - 1) * math.pi ** 2 / 18.0) - i_start * math.log(4.0))
    return max(0.0, 1.0 - deficit)


def validate_good_sequence(
    sched: Schedule,
    alpha: AlphaTable,
    params: GoodSequenceParams,
    m_max: int,
) -> GoodSequenceReport:
    """Check the four good-sequence conditions for m = 1 .. m_max.

    Condition 1 (m > 1): the tail product of sine ratios at argument
    1/2**(i+1), i >= b_m - 1, with multiplier p(u(m)) stays above the
    all-cosines constant 2/pi.  Products are truncated after
    TAIL_TERMS factors and the dropped tail replaced by a
    rigorous lower bound, so a reported pass is sound.
    Condition 2: beta_m >= beta_1 / m**(1/4) using the alpha table.
    Condition 3: u(m) <= u(1)*m, exact.
    Condition 4: after any earlier step with a different base,
    b_m - a_m >= max(N_{u(m)}(1/2), N_{p(u(m))}(1/2)).
    """
    from .expsum import eta_constant, sin_ratio_product

    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if m_max > len(sched):
        raise ValueError(f"m_max={m_max} exceeds schedule length {len(sched)}")
    eta = eta_constant(TAIL_TERMS)
    checks: list[ConditionCheck] = []
    beta_1 = beta_m(sched, alpha, 1)
    for m in range(1, m_max + 1):
        u_m = sched.base(m)
        p = params.plan.p_of(u_m)
        if m > 1:
            b = sched.b(m)
            # factors i = b_m-1 .. b_m-2+TAIL_TERMS, then the bounded tail
            head = sin_ratio_product(p, 2, 1, b, b - 1 + TAIL_TERMS)
            lower = head * _tail_lower_bound(p, b - 1 + TAIL_TERMS)
            checks.append(
                ConditionCheck(
                    m,
                    1,
                    lower >= eta,
                    f"tail sine product >= {lower:.9g} vs eta {eta:.9g}",
                )
            )
        bm = beta_m(sched, alpha, m)
        cond2 = bm >= beta_1 / m ** 0.25
        checks.append(
            ConditionCheck(m, 2, cond2, f"beta_m={bm:.6g}, floor={beta_1 / m ** 0.25:.6g}")
        )
        cond3 = u_m <= sched.base(1) * m
        checks.append(ConditionCheck(m, 3, cond3, f"u(m)={u_m}, cap={sched.base(1) * m}"))
        switched = any(sched.base(i) != u_m for i in range(1, m))
        if switched:
            need = max(params.n_for(u_m), params.n_for(p))
            got = sched.b(m) - sched.a(m)
            checks.append(
                ConditionCheck(m, 4, got >= need, f"b_m-a_m={got}, threshold={need}")
            )
        else:
            checks.append(ConditionCheck(m, 4, True, "no earlier base switch"))
    return GoodSequenceReport(m_max, tuple(checks))
