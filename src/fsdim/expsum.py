"""Exponential sums over digit orbits.

Everything here feeds on the orbit t * b**(j-1) * x mod 1, through one
engine: _orbit_phases reduces the orbit exactly (one big-integer mulmod
per j) and rounds each phase once, and _phase_sum forms
sum_j e(t * phase_j) in one numpy pass per t.  Each term is within
2*pi*|t|*2**-52 of exact, plus the rounding of exp.  The module
provides Weyl prefix averages, the step objective A_m that the
construction minimizes with its exact oracle a_m_naive, sine-ratio
products, the all-cosines constant eta = 2/pi, and a certificate
turning small Weyl averages into a digit-uniformity guarantee.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .base_arith import atomic_write_text, frac_of_scaled, orbit_residues
from .schedule import Schedule, equivalent

__all__ = [
    "e_of",
    "weyl_average",
    "WeylReport",
    "weyl_report",
    "weyl_entropy_certificate",
    "weyl_max_from_digits",
    "certificate_t_range",
    "certificate_gamma",
    "a_m",
    "a_m_naive",
    "sin_ratio",
    "sin_ratio_product",
    "eta_constant",
    "check_sin_lower_bound",
]

Real = Union[float, Fraction, int]

# bincount table for the DFT fast path must fit in memory
_FFT_DENOMINATOR_LIMIT = 1 << 24


TWO_PI_I = 2j * math.pi


def e_of(x: Real) -> complex:
    """e(x) = exp(2*pi*i*x)."""
    return cmath.exp(TWO_PI_I * float(x))


def _reduced(x: Real) -> Fraction:
    # exact value of x mod 1 (floats convert exactly)
    f = Fraction(x)
    return f - (f.numerator // f.denominator)


def _orbit_phases(num: int, den: int, b: int, j0: int, n: int) -> np.ndarray:
    """frac(num * b**(j-1) / den) for j = j0 .. j0+n-1, correctly rounded."""
    phases = np.empty(n)
    r = num * pow(b, j0 - 1, den) % den
    for i in range(n):
        phases[i] = r / den
        r = r * b % den
    return phases


def _phase_sum(phases: np.ndarray, t: int) -> complex:
    """Sum of e(t * phase) over the phases, with t * phase reduced mod 1."""
    return complex(np.exp(TWO_PI_I * ((t * phases) % 1.0)).sum())


def weyl_average(x: Real, b: int, t: int, n: int) -> complex:
    """(1/n) * sum of e(t * b**(j-1) * x) over j = 1..n.

    Each phase is correctly rounded (within 2**-54), so after scaling by
    t each term is within 2*pi*|t|*2**-52 of exact, plus the rounding of
    exp.
    """
    if b < 2:
        raise ValueError(f"need a base >= 2, got {b}")
    if t == 0:
        raise ValueError("t must be nonzero")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    f = _reduced(x)
    return _phase_sum(_orbit_phases(f.numerator, f.denominator, b, 1, n), t) / n


@dataclass(frozen=True)
class WeylReport:
    """Prefix averages for t = 1..t_range; negative t mirror by conjugation."""

    base: int
    n: int
    t_range: int
    averages: Mapping[int, complex]

    @property
    def max_modulus(self) -> float:
        return max(abs(v) for v in self.averages.values())

    def write_csv(self, path) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "re", "im", "modulus"])
        for t in sorted(self.averages):
            v = self.averages[t]
            writer.writerow([t, f"{v.real:.12g}", f"{v.imag:.12g}", f"{abs(v):.12g}"])
        atomic_write_text(path, buf.getvalue())


def _averages_fft(num: int, den: int, b: int, n: int, t_max: int) -> dict[int, complex]:
    # counts[v] = #{1 <= j <= n : num * b**(j-1) mod den == v}
    counts = np.zeros(den, dtype=np.int64)
    for residues in orbit_residues(num, den, b, n):
        counts += np.bincount(residues, minlength=den)
    # sum_j e(t*r_j/den) = sum_v counts[v] * e(t*v/den) = conj(FFT(counts))[t mod den]
    spectrum = np.conj(np.fft.fft(counts))
    return {t: complex(spectrum[t % den]) / n for t in range(1, t_max + 1)}


def weyl_report(x: Real, b: int, t_max: int, n: int) -> WeylReport:
    """Averages for every t in 1..t_max over the length-n prefix orbit.

    Moduli for negative t equal those for |t|, so only positive t are
    stored.  A DFT over residue counts handles rational x with small
    denominator; otherwise the orbit phases are summed once per t.
    """
    if t_max < 1:
        raise ValueError(f"need t_max >= 1, got {t_max}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if b < 2:
        raise ValueError(f"need a base >= 2, got {b}")
    f = _reduced(x)
    num, den = f.numerator, f.denominator
    if 1 < den <= _FFT_DENOMINATOR_LIMIT:
        averages = _averages_fft(num, den, b, n, t_max)
    else:
        phases = _orbit_phases(num, den, b, 1, n)
        averages = {t: _phase_sum(phases, t) / n for t in range(1, t_max + 1)}
    return WeylReport(base=b, n=n, t_range=t_max, averages=averages)


def weyl_max_from_digits(digits: Sequence[int], base: int, t_range: int) -> float:
    """Largest |prefix average of e(t * base**(j-1) * x)| for 1 <= t <= t_range.

    x is the point whose expansion starts with the given digits and is
    zero afterwards; the shifted orbit values are then windowed sums of
    the digits themselves, so no exact arithmetic is needed.  Accurate
    to float noise (the window keeps more digits than a float holds).
    """
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if t_range < 1:
        raise ValueError(f"t_range must be positive, got {t_range}")
    taps = int(math.ceil(53.0 / math.log2(base))) + 4
    d = np.asarray(digits, dtype=np.float64)
    if d.size == 0:
        raise ValueError("need at least one digit")
    weights = float(base) ** -(np.arange(taps, dtype=np.float64) + 1.0)
    padded = np.concatenate([d, np.zeros(taps - 1)])
    tails = np.correlate(padded, weights, mode="valid")
    return max(abs(_phase_sum(tails, t)) for t in range(1, t_range + 1)) / d.size


def certificate_t_range(eps: float) -> int:
    """T'(eps) = ceil(64 / eps**2)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.ceil(64.0 / (eps * eps))


def certificate_gamma(eps: float) -> float:
    """gamma'(eps) = eps**2 / (32 * T'(eps)) = eps**4 / 2048 for exact T'."""
    return eps * eps / (32.0 * certificate_t_range(eps))


def weyl_entropy_certificate(
    x: Real,
    b: int,
    eps: float,
    n: int,
    l: int = 1,
    safety: float = 1.0,
) -> tuple[bool, WeylReport]:
    """Digit-uniformity certificate from small Weyl averages.

    Passes iff |average(t)| < gamma'(eps) for every 0 < |t| <= T'(eps)
    over the length-n prefix orbit (conjugation covers negative t).  A
    pass guarantees every single-digit frequency in the first n
    base-b digits of x is within eps of 1/b.

    l > 1 is a heuristic extension: the same test runs on the base
    b**l orbit (aligned l-blocks, n // l of them) with eps shrunk by
    the safety factor.  Nothing in the l > 1 verdict is backed by the
    single-digit argument; treat it as a screening tool.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if safety < 1.0:
        raise ValueError(f"safety factor must be >= 1, got {safety}")
    base_eff = b ** l
    eps_eff = eps / safety if l > 1 else eps
    n_eff = n // l if l > 1 else n
    if n_eff < 1:
        raise ValueError(f"prefix length {n} too short for block length {l}")
    t_max = certificate_t_range(eps_eff)
    gamma = certificate_gamma(eps_eff)
    report = weyl_report(x, base_eff, t_max, n_eff)
    return report.max_modulus < gamma, report


def a_m(
    x: Real,
    m: int,
    sched: Schedule,
    t_cap: Optional[int] = None,
) -> float:
    """Step objective: energy of x against all earlier inequivalent bases.

    Sum over t in [-m, m] minus 0 and steps h <= m with u(h) not
    equivalent to u(m) of |sum_{j=a+1}^{b} e(u(h)**(j-1) * t * x)|**2
    where a = angle_base(m, u(h)) and b = angle_base(m+1, u(h)).
    Returns 0.0 immediately when no h qualifies (single-class
    schedules), without touching x.
    """
    if not 1 <= m <= len(sched):
        raise ValueError(f"step {m} outside schedule of length {len(sched)}")
    u_m = sched.base(m)
    bases = sorted({sched.base(h) for h in range(1, m + 1) if not equivalent(sched.base(h), u_m)})
    if not bases:
        return 0.0
    t_max = m if t_cap is None else min(m, t_cap)
    if t_max < 1:
        return 0.0
    f = _reduced(x)
    num, den = f.numerator, f.denominator
    total = 0.0
    for u in bases:
        multiplicity = sum(1 for h in range(1, m + 1) if sched.base(h) == u)
        j_lo = sched.angle_base(m, u) + 1
        phases = _orbit_phases(num, den, u, j_lo, sched.angle_base(m + 1, u) - j_lo + 1)
        # negative t contribute conjugate sums with equal modulus
        total += 2.0 * multiplicity * sum(
            abs(_phase_sum(phases, t)) ** 2 for t in range(1, t_max + 1))
    return total


def a_m_naive(
    x: Real,
    m: int,
    sched: Schedule,
    t_cap: Optional[int] = None,
) -> float:
    """Literal triple-loop evaluation of the step objective, for cross-checks."""
    if not 1 <= m <= len(sched):
        raise ValueError(f"step {m} outside schedule of length {len(sched)}")
    f = _reduced(x)
    u_m = sched.base(m)
    t_max = m if t_cap is None else min(m, t_cap)
    total = 0.0
    for t in range(-t_max, t_max + 1):
        if t == 0:
            continue
        for h in range(1, m + 1):
            u = sched.base(h)
            if equivalent(u, u_m):
                continue
            inner = 0j
            for j in range(sched.angle_base(m, u) + 1, sched.angle_base(m + 1, u) + 1):
                inner += e_of(frac_of_scaled(f, t, u, j - 1))
            total += abs(inner) ** 2
    return total


# ---------------------------------------------------------------------------
# sine ratios


def sin_ratio(p: int, x: Real) -> float:
    """|sin(p*pi*x) / (p*sin(pi*x))|, with the removable singularity at
    integer x set to its limit 1."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    f = _reduced(x)
    # the ratio is invariant under x -> x+1 and x -> -x, so fold the
    # argument into [0, 1/2] exactly before any float rounding
    if 2 * f > 1:
        f = 1 - f
    xf = float(f)
    # xf == 0 covers exact integers and arguments below float resolution;
    # the ratio is within 1 ulp of the limit 1 there
    if xf == 0.0:
        return 1.0
    # |ratio - 1| <= (p*pi*x)^2 / 6, so below this cutoff the limit value
    # is the correctly rounded answer; dividing the two sines instead
    # loses precision once the arguments go subnormal
    if (p * math.pi * xf) ** 2 < 6.0 * 2.0 ** -53:
        return 1.0
    return abs(math.sin(p * math.pi * xf) / (p * math.sin(math.pi * xf)))


def sin_ratio_product(p: int, s: int, L: int, i_from: int, i_to: int) -> float:
    """Product of sin_ratio(p, L / s**i) for i = i_from .. i_to.

    Each argument is reduced exactly as (L mod s**i) / s**i before the
    float conversion.  An empty range gives 1.  The tail beyond i_to
    is a product of factors in (0, 1], so the finite value is an upper
    bound for the infinite product.
    """
    if s < 2:
        raise ValueError(f"need a base s >= 2, got {s}")
    product = 1.0
    power = s ** i_from if i_from <= i_to else 1
    for _ in range(i_from, i_to + 1):
        product *= sin_ratio(p, Fraction(L % power, power))
        power *= s
    return product


def eta_constant(terms: int) -> float:
    """Partial product of |cos(pi / 2**(i+1))| for i = 1..terms; limit 2/pi."""
    if terms < 1:
        raise ValueError(f"need terms >= 1, got {terms}")
    product = 1.0
    for i in range(1, terms + 1):
        product *= abs(math.cos(math.pi / 2.0 ** (i + 1)))
    return product


def check_sin_lower_bound(n: int, x: float) -> bool:
    """sin(n*x) / (n*sin(x)) >= 1 - (n**2 - 1) * x**2 / 6, up to 1e-12 slack.

    x is in radians with |x| < 1; x = 0 is the limit case and holds.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not abs(x) < 1.0:
        raise ValueError(f"need |x| < 1, got {x}")
    if x == 0.0:
        return True
    lhs = math.sin(n * x) / (n * math.sin(x))
    rhs = 1.0 - (n * n - 1) * x * x / 6.0
    return lhs >= rhs - 1e-12
