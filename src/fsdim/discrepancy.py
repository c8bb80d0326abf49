"""Star discrepancy and the low-discrepancy goodness filter.

A word w over base b is "good" when every short block's occurrence count in
every long-enough prefix stays within C_b * sqrt(log log n) / sqrt(n) of the
uniform frequency b^-|z|. The constants C_b are not derivable in closed form;
they are produced by the Monte-Carlo calibration routine below and persisted
in a plain-text config. At the calibrated values, at least about half of all
uniform random words pass, so rejection sampling of good words stays cheap.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from fsdim.base_arith import DigitWord, atomic_write_text
from fsdim.blockstats import BlockCounter

__all__ = [
    "DEFAULT_C",
    "DEFAULT_N",
    "DiscrepancyParams",
    "FilterGiveUp",
    "WordTooShortError",
    "calibrate",
    "discrepancy_statistic",
    "low_discrepancy_test",
    "sample_good_string",
    "star_discrepancy",
    "star_discrepancy_brute",
]


class WordTooShortError(ValueError):
    """Word no longer than N_b: the filter's quantifier range is empty."""


class FilterGiveUp(RuntimeError):
    """No sampled word passed the filter; the constants look miscalibrated."""


# Calibrated by `calibrate(base, seed=0)` at word length 2000, N_b = 50,
# target pass rate 0.6 (see that function); regenerate via the CLI.
DEFAULT_C: dict[int, float] = {
    2: 0.978628625153,
    3: 0.906004327706,
    4: 0.874794722834,
    5: 0.843014920463,
    6: 0.802733884088,
}
DEFAULT_N = 50


def _lookup(table: Mapping[int, float], base: int, what: str):
    if base not in table:
        covered = ", ".join(str(b) for b in sorted(table))
        raise ValueError(f"no {what} for base {base} (constants exist for bases {covered})")
    return table[base]


@dataclass(frozen=True)
class DiscrepancyParams:
    """Per-base filter constants plus the block-length cap."""

    c: Mapping[int, float]
    n_min: Mapping[int, int]
    z_len_cap: int = 6

    @classmethod
    def default(cls) -> "DiscrepancyParams":
        return cls(dict(DEFAULT_C), {b: DEFAULT_N for b in DEFAULT_C})

    def c_for(self, base: int) -> float:
        return _lookup(self.c, base, "filter constant C")

    def n_for(self, base: int) -> int:
        return _lookup(self.n_min, base, "N threshold")

    def with_base(self, base: int, c: float, n_min: int) -> "DiscrepancyParams":
        cs = dict(self.c)
        ns = dict(self.n_min)
        cs[base] = c
        ns[base] = n_min
        return DiscrepancyParams(cs, ns, self.z_len_cap)

    def write_config(self, path: Union[str, os.PathLike]) -> None:
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keep C_2 / N_2 capitalization
        cp.add_section("discrepancy")
        for base in sorted(self.c):
            cp.set("discrepancy", f"C_{base}", f"{self.c[base]:.12g}")
        for base in sorted(self.n_min):
            cp.set("discrepancy", f"N_{base}", str(self.n_min[base]))
        cp.set("discrepancy", "z_len_cap", str(self.z_len_cap))
        buf = io.StringIO()
        cp.write(buf)
        atomic_write_text(path, buf.getvalue())

    @classmethod
    def read_config(cls, path: Union[str, os.PathLike]) -> "DiscrepancyParams":
        cp = configparser.ConfigParser()
        cp.optionxform = str
        if not cp.read(os.fspath(path)):
            raise ValueError(f"cannot read config {path}")
        if not cp.has_section("discrepancy"):
            raise ValueError(f"{path}: missing [discrepancy] section")
        c: dict[int, float] = {}
        n_min: dict[int, int] = {}
        cap = 6
        for key, value in cp.items("discrepancy"):
            if key.startswith("C_"):
                c[int(key[2:])] = float(value)
            elif key.startswith("N_"):
                n_min[int(key[2:])] = int(value)
            elif key == "z_len_cap":
                cap = int(value)
            else:
                raise ValueError(f"{path}: unknown key {key!r}")
        return cls(c, n_min, cap)


def star_discrepancy(points: Iterable[Union[float, Fraction]]) -> float:
    """Star discrepancy of a finite point multiset in [0, 1].

    Sorted-points closed form: max over the i-th smallest point x_i of
    max(i/n - x_i, x_i - (i-1)/n).
    """
    xs = sorted(float(p) for p in points)
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one point")
    if xs[0] < 0.0 or xs[-1] > 1.0:
        raise ValueError("points must lie in [0, 1]")
    best = 0.0
    for i, x in enumerate(xs, start=1):
        best = max(best, i / n - x, x - (i - 1) / n)
    return best


def star_discrepancy_brute(points: Iterable[Union[float, Fraction]]) -> float:
    """O(n^2) reference: scan |#{x < a}/n - a| at every jump of the e.c.d.f."""
    xs = [float(p) for p in points]
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one point")
    best = 0.0
    for a in set(xs) | {1.0}:
        less = sum(1 for x in xs if x < a)
        leq = sum(1 for x in xs if x <= a)
        best = max(best, abs(less / n - a), abs(leq / n - a))
    return best


def _deviation_threshold(c: float, n: int) -> float:
    return c * math.sqrt(math.log(math.log(n))) / math.sqrt(n)


def _extremal_deviations(
    word: DigitWord, n_min: int, z_len_cap: int
) -> Iterator[tuple[int, float]]:
    """Yield (n, dev) for every prefix length n >= n_min that a block still fits.

    dev is the largest of max_count/n - b^-l and b^-l - min_count/n over
    the block lengths 1 <= l <= min(|w| - n_min, z_len_cap) with
    n <= |w| - l.  Only the extremal counts can break the two-sided
    frequency bound, so one streaming pass serves every prefix.
    """
    base, total = word.base, len(word)
    if total <= n_min:
        raise WordTooShortError(f"word length {total} does not exceed N_{base} = {n_min}")
    l_max = min(total - n_min, z_len_cap)
    counter = BlockCounter(base, l_max)
    max_count, min_count = counter.max_count, counter.min_count
    inv = [0.0] + [base**-l for l in range(1, l_max + 1)]
    # the full word (n = total) leaves no room for any block, so it is not read
    for n, d in enumerate(word.digits[:-1], start=1):
        counter.push(d)
        if n < n_min:
            continue
        dev = -math.inf
        for l in range(1, min(l_max, total - n) + 1):
            hi = max_count(l) / n - inv[l]
            lo = inv[l] - min_count(l) / n
            if hi > dev:
                dev = hi
            if lo > dev:
                dev = lo
        yield n, dev


def low_discrepancy_test(word: DigitWord, params: DiscrepancyParams) -> bool:
    """Whether every block length and every prefix meet the frequency bound.

    Checks |N(z, w_1^n)/n - b^-|z|| < C_b sqrt(log log n)/sqrt(n) for all
    blocks z with 1 <= |z| <= min(|w| - N_b, z_len_cap) and all prefixes
    n with N_b <= n <= |w| - |z|, stopping at the first prefix that fails.
    """
    c = params.c_for(word.base)
    n_min = params.n_for(word.base)
    for n, dev in _extremal_deviations(word, n_min, params.z_len_cap):
        if dev >= _deviation_threshold(c, n):
            return False
    return True


def discrepancy_statistic(
    word: DigitWord, n_min: int, z_len_cap: int = 6
) -> float:
    """Smallest C that this word passes (sup of deviation / threshold shape)."""
    stat = 0.0
    for n, dev in _extremal_deviations(word, n_min, z_len_cap):
        scale = math.sqrt(n) / math.sqrt(math.log(math.log(n)))
        if dev * scale > stat:
            stat = dev * scale
    return stat


def sample_good_string(
    base: int,
    length: int,
    rng_seed,
    params: DiscrepancyParams,
    max_attempts: int = 64,
) -> DigitWord:
    """Rejection-sample a uniform word until it passes the filter."""
    rng = random.Random(rng_seed)
    for _ in range(max_attempts):
        word = DigitWord(base, tuple(rng.randrange(base) for _ in range(length)))
        if low_discrepancy_test(word, params):
            return word
    raise FilterGiveUp(
        f"no base-{base} word of length {length} passed after {max_attempts} draws"
    )


def calibrate(
    base: int,
    *,
    length: int = 2000,
    n_min: int = DEFAULT_N,
    samples: int = 200,
    target: float = 0.6,
    z_len_cap: int = 6,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the smallest C_base with pass rate >= target.

    Draws uniform words, computes each word's minimal passing C, and returns
    the empirical target-quantile. With target 0.6 roughly 60% of fresh
    uniform words pass at the returned constant.
    """
    if not 0 < target < 1:
        raise ValueError(f"target rate must be in (0, 1), got {target}")
    if samples < 10:
        raise ValueError(f"need at least 10 samples, got {samples}")
    rng = random.Random(seed)
    stats = []
    for _ in range(samples):
        word = DigitWord(base, tuple(rng.randrange(base) for _ in range(length)))
        stats.append(discrepancy_statistic(word, n_min, z_len_cap))
    stats.sort()
    return stats[min(samples - 1, int(round(target * samples)))]
