"""Exponential sums over digit orbits.

Everything here feeds on the orbit t * b**(j-1) * x mod 1.  For an
exact point x = num/den, _orbit_phases gives every phase correctly
rounded, so each term is within 2*pi*|t|*2**-52 of exact, plus the
rounding of exp.  It reads the phases off windows of digits that one
long division per orbit gives, and reduces a phase's residue exactly
(a big-integer mulmod) only where its window cannot decide the
rounding.  weyl_max_from_digits sums
float windows of a digit word instead, to float accuracy.  Either way
_phase_sum forms sum_j e(t * phase_j) in one numpy pass per t.  The
module provides Weyl prefix averages, the step objective A_m that the
construction minimizes with its exact oracle a_m_naive, and a
certificate turning small Weyl averages into a digit-uniformity
guarantee.

For x = k/D with small D, weyl_report reads its averages off one DFT
instead: the orbit of k is k times the orbit of 1 mod D, so
S_k(t) = S_1(t*k mod D), and the spectrum of the orbit of 1 serves every
numerator of D.  The last (D, b, n) spectrum is kept in a one-entry
cache of 16*(D//2+1) bytes.  _half_spectrum builds it from a chirp-z
convolution of about 1.5*D points that computes only the D//2 + 1
needed frequencies, and briefly holds about 121 bytes per residue of D:
1.92 GB at D = 16,777,213, where numpy's rfft (Bluestein's algorithm
for a prime length) took 2.82 GB.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .base_arith import Real, _expansion, _reduced, frac_of_scaled, orbit_residues
from .blockstats import _digit_array
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
]

# Building the spectrum of a D near this limit peaks at about 2 GB
# (121 bytes per residue); the cached half keeps 16*(D//2+1) bytes.
_FFT_DENOMINATOR_LIMIT = 1 << 24


TWO_PI_I = 2j * math.pi


def e_of(x: Real) -> complex:
    """e(x) = exp(2*pi*i*x)."""
    return cmath.exp(TWO_PI_I * float(x))


# a phase is read off a window of the least K digits with base**K >= 2**_WINDOW_BITS
_WINDOW_BITS = 80
# phases per long division: the radix conversion of a block costs about
# its length**1.6, so long orbits go block by block
_PHASE_BLOCK = 4096


def _orbit_phases(num: int, den: int, b: int, j0: int, n: int) -> np.ndarray:
    """frac(num * b**(j-1) / den) for j = j0 .. j0+n-1, correctly rounded.

    With r = num * b**(j0-1) mod den, phase i (from 0) is r * b**i / den
    mod 1, whose base-b digits are those of r/den from position i+1 on.
    One long division gives the first n+K-1 of those digits, and the
    K-digit window W starting at position i+1 puts the phase in
    [W/b**K, (W+1)/b**K).  Rounding is monotone, so where both ends round
    to the same float that float is the phase.  Only where they round
    apart (a near-tie, or a phase below about 2**-27) is the phase formed
    exactly, as (r * b**i mod den) / den from the last exact residue.  A
    zero remainder means the expansion terminates, and every phase past
    its last nonzero digit is 0.  Orbits longer than _PHASE_BLOCK go one
    block of phases at a time.
    """
    phases = np.zeros(n)
    k = 1
    while b**k < 1 << _WINDOW_BITS:
        k += 1
    scale = b**k
    r = num * pow(b, j0 - 1, den) % den
    for start in range(0, n, _PHASE_BLOCK):
        if r == 0:
            break  # so is every later phase
        size = min(_PHASE_BLOCK, n - start)
        digits, remainder = _expansion(r, den, b, size + k - 1)
        stop = size
        if remainder == 0:
            stop = min(size, next((i + 1 for i in range(len(digits) - 1, -1, -1) if digits[i]), 0))
        w = 0
        for d in digits[: k - 1]:
            w = w * b + d
        block = []
        at, residue = 0, r  # residue = r * b**at mod den
        for i in range(stop):
            w = (w * b + digits[i + k - 1]) % scale
            phase = w / scale
            if (w + 1) / scale != phase:
                residue = residue * pow(b, i - at, den) % den
                at = i
                phase = residue / den
            block.append(phase)
        phases[start : start + stop] = block
        # r * b**size = q * den + (the last k-1 digits * den + remainder) / b**(k-1)
        tail = 0
        for d in digits[size:]:
            tail = tail * b + d
        r = (tail * den + remainder) // (scale // b)
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


def _smooth_length(n: int) -> int:
    """Least 2**i * 3**j * 5**k >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << ((n - 1) // p).bit_length())
            p *= 3
        p5 *= 5
    return best


def _chirp(den: int, lo: int, hi: int) -> np.ndarray:
    """e(k*k / (2*den)) for lo <= k < hi, each k*k reduced exactly mod 2*den first."""
    k = np.arange(lo, hi, dtype=np.int64)
    np.multiply(k, k, out=k)
    np.remainder(k, 2 * den, out=k)
    w = np.empty(hi - lo, dtype=np.complex128)
    np.multiply(k, math.pi / den, out=w.real)
    np.sin(w.real, out=w.imag)
    np.cos(w.real, out=w.real)
    return w


def _half_spectrum(den: int, b: int, n: int) -> np.ndarray:
    """S_1(s) = sum of e(s * b**(j-1) / den) over j = 1..n, for 0 <= s <= den/2.

    With counts[v] = #{j : b**(j-1) = v (mod den)}, S_1(s) is
    sum_v counts[v] * e(s*v/den), the conjugate DFT of counts at s.  The
    chirp-z transform computes only these den//2 + 1 frequencies: with
    w(k) = e(k*k / (2*den)) and s*v = (s*s + v*v - (s-v)**2) / 2,
    S_1(s) = w(s) * sum_v counts[v] * w(v) * conj(w(s - v)), one linear
    convolution of den + den//2 points, padded to a 2*3*5-smooth length.
    Each chirp phase comes from the exact integer k*k mod 2*den.  Every
    entry is within 1e-9 * max(1, n) of the exact sum (the bound the
    oracle test holds it to against numpy's rfft).  The call peaks at
    about 121 bytes per residue of den above its caller.  When den has
    only small prime factors, rfft itself would hold about 40 bytes per
    residue and run about 5 times faster (0.07 s against 0.37 s at
    den = 10**6); when a prime p with p*p > den divides den, rfft holds
    about 177 bytes per residue.
    """
    # counts[v] = #{1 <= j <= n : b**(j-1) mod den == v}; each bincount
    # takes a block of at least den residues, so its pass over the den
    # slots costs no more than the residues it counts
    counts = np.zeros(den, dtype=np.int64)
    block: list[np.ndarray] = []
    size = 0
    for residues in orbit_residues(1, den, b, n):
        block.append(residues)
        size += len(residues)
        if size >= den:
            counts += np.bincount(np.concatenate(block), minlength=den)
            block, size = [], 0
    if block:
        counts += np.bincount(np.concatenate(block), minlength=den)
    del block
    m = den // 2 + 1
    # kernel[j] = w(j - den + 1) for j < den + m - 1; w is even, so read
    # backwards it gives w(v) for 0 <= v < den, before it is conjugated
    kernel = _chirp(den, 1 - den, m)
    chirped = counts * kernel[den - 1 :: -1]
    del counts
    np.conjugate(kernel, out=kernel)
    # the linear convolution of chirped with kernel holds the sum for s at
    # index den - 1 + s, and any length >= den + m - 1 keeps it from wrapping
    length = _smooth_length(den + m - 1)
    product = np.fft.fft(kernel, length)
    del kernel
    product *= np.fft.fft(chirped, length)
    del chirped
    return np.fft.ifft(product)[den - 1 : den - 1 + m] * _chirp(den, 0, m)


@functools.lru_cache(maxsize=1)
def _orbit_spectrum(den: int, b: int, n: int) -> np.ndarray:
    """Half spectrum of the orbit of 1/den: entry s is S_1(s) for 0 <= s <= den/2.

    Values above den/2 read as conj(half[den - s]).  The array is
    read-only because the cache hands the same one to every caller.
    """
    half = _half_spectrum(den, b, n)
    half.setflags(write=False)
    return half


def _averages_fft(num: int, den: int, b: int, n: int, t_max: int) -> dict[int, complex]:
    # the orbit of num is num times the orbit of 1, so S_num(t) = S_1(t*num mod den)
    half = _orbit_spectrum(den, b, n)
    averages = {}
    for t in range(1, t_max + 1):
        s = t * num % den
        value = complex(half[s]) if 2 * s <= den else complex(half[den - s]).conjugate()
        averages[t] = value / n
    return averages


def weyl_report(x: Real, b: int, t_max: int, n: int) -> WeylReport:
    """Averages for every t in 1..t_max over the length-n prefix orbit.

    Moduli for negative t equal those for |t|, so only positive t are
    stored.  For rational x = k/D with 1 < D <= _FFT_DENOMINATOR_LIMIT
    every average is S_1(t*k mod D)/n, read from the spectrum of the
    orbit of 1: one DFT per (D, b, n) serves every numerator, and a
    one-entry cache keeps its 16*(D//2+1) bytes until another (D, b, n)
    replaces it.  Building it briefly holds about 121 bytes per residue
    of D (see _half_spectrum).  Otherwise the orbit phases are summed
    once per t.
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
    d = _digit_array(digits, base, np.float64)
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


def weyl_entropy_certificate(x: Real, b: int, eps: float, n: int) -> tuple[bool, WeylReport]:
    """Digit-uniformity certificate from small Weyl averages.

    Passes iff |average(t)| < gamma'(eps) for every 0 < |t| <= T'(eps)
    over the length-n prefix orbit (conjugation covers negative t).  A
    pass guarantees every single-digit frequency in the first n
    base-b digits of x is within eps of 1/b.
    """
    report = weyl_report(x, b, certificate_t_range(eps), n)
    return report.max_modulus < certificate_gamma(eps), report


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
