"""Star discrepancy and the low-discrepancy goodness filter.

A word w over base b is "good" when every short block's occurrence count in
every long-enough prefix stays within C_b * sqrt(log log n) / sqrt(n) of the
uniform frequency b^-|z|. "Long enough" means n >= DEFAULT_N and "short"
means |z| <= Z_LEN_CAP, both module constants shared by every base, so the
per-base constants C_b are the filter's whole configuration. They are not
derivable in closed form; they are produced by the Monte-Carlo calibration
routine below and persisted in a plain-text config. At the calibrated values,
at least about half of all uniform random words pass, so rejection sampling
of good words stays cheap. A word no longer than DEFAULT_N passes vacuously,
so sample_good_string returns its first draw at such lengths untested.

A tested word's deviations at every prefix come from one numpy pass over
its block-count ranks (blockstats._extremal_counts), and the filter compares
all of them at once with a threshold table that grows on demand per C.
"""

from __future__ import annotations

import configparser
import io
import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from fsdim.base_arith import DigitWord, atomic_write_text
from fsdim.blockstats import _extremal_counts

__all__ = [
    "DEFAULT_C",
    "DEFAULT_N",
    "MAX_ATTEMPTS",
    "Z_LEN_CAP",
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
    """Word no longer than DEFAULT_N: the filter's quantifier range is empty."""


class FilterGiveUp(RuntimeError):
    """No sampled word passed the filter; the constants look miscalibrated."""


# Calibrated by `calibrate(base, seed=0)` at word length 2000, target pass
# rate 0.6 (see that function); regenerate via the CLI.
DEFAULT_C: dict[int, float] = {
    2: 0.978628625153,
    3: 0.906004327706,
    4: 0.874794722834,
    5: 0.843014920463,
    6: 0.802733884088,
}
# Shortest prefix the frequency bound applies to (N_b, the same for every base).
DEFAULT_N = 50
# Longest block whose frequencies the filter checks.
Z_LEN_CAP = 6
# Draws sample_good_string makes before giving up.
MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class DiscrepancyParams:
    """Per-base filter constants C_b: one finite, positive C for each base b >= 2."""

    c: Mapping[int, float]

    def __post_init__(self) -> None:
        # a NaN or infinite C would pass every word, and C <= 0 would fail every one
        for base, c in self.c.items():
            if base < 2 or not (math.isfinite(c) and c > 0):
                raise ValueError(f"filter constant C_{base} = {c}: need base >= 2, finite C > 0")

    @classmethod
    def default(cls) -> "DiscrepancyParams":
        return cls(dict(DEFAULT_C))

    def c_for(self, base: int) -> float:
        if base not in self.c:
            covered = ", ".join(str(b) for b in sorted(self.c))
            raise ValueError(
                f"no filter constant C for base {base} (constants exist for bases {covered})")
        return self.c[base]

    def with_base(self, base: int, c: float) -> "DiscrepancyParams":
        return DiscrepancyParams({**self.c, base: c})

    def write_config(self, path: Union[str, os.PathLike]) -> None:
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keep C_2 capitalization
        cp.add_section("discrepancy")
        for base in sorted(self.c):
            cp.set("discrepancy", f"C_{base}", f"{self.c[base]:.12g}")
        buf = io.StringIO()
        cp.write(buf)
        atomic_write_text(path, buf.getvalue())

    @classmethod
    def read_config(cls, path: Union[str, os.PathLike]) -> "DiscrepancyParams":
        cp = configparser.ConfigParser()
        cp.optionxform = str
        c: dict[int, float] = {}
        # configparser's own errors and undecodable bytes are named by the path too
        try:
            if not cp.read(os.fspath(path), encoding="utf-8"):
                raise ValueError("cannot read config")
            if not cp.has_section("discrepancy"):
                raise ValueError("missing [discrepancy] section")
            for key, value in cp.items("discrepancy"):
                if not key.startswith("C_"):
                    raise ValueError(f"unknown key {key!r}")
                c[int(key[2:])] = float(value)
            return cls(c)
        except (ValueError, configparser.Error) as exc:
            raise ValueError(f"{path}: {exc}") from None


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


# C -> _deviation_threshold(C, n) for n = DEFAULT_N, DEFAULT_N + 1, ...
_THRESHOLDS: dict[float, np.ndarray] = {}


def _thresholds(c: float, count: int) -> np.ndarray:
    """The first count entries of C's threshold table, grown on demand."""
    table = _THRESHOLDS.get(c, np.empty(0))
    if table.size < count:
        ns = range(DEFAULT_N + table.size, DEFAULT_N + max(count, 2 * table.size))
        grown = np.fromiter((_deviation_threshold(c, n) for n in ns), np.float64, len(ns))
        table = _THRESHOLDS[c] = np.concatenate((table, grown))
        table.flags.writeable = False  # callers get views of the shared table
    return table[:count]


def _deviation_array(word: DigitWord) -> np.ndarray:
    """dev at every prefix length n = DEFAULT_N .. |w| - 1, in one numpy pass.

    dev is the largest of max_count/n - b^-l and b^-l - min_count/n over
    the block lengths 1 <= l <= min(|w| - DEFAULT_N, Z_LEN_CAP) with
    n <= |w| - l, where max_count and min_count are the extremal
    occurrence counts over all b^l blocks of length l in w_1^n.  Only the
    extremal counts can break the two-sided frequency bound.  Each cell
    takes the float operations of a per-prefix scalar loop, so every
    value is bit-identical to one.
    """
    base, total = word.base, len(word)
    if total <= DEFAULT_N:
        raise WordTooShortError(f"word length {total} does not exceed N_{base} = {DEFAULT_N}")
    l_max = min(total - DEFAULT_N, Z_LEN_CAP)
    # the full word (n = total) leaves no room for any block, so it is not read
    max_counts, min_counts = _extremal_counts(word.digits[:-1], base, l_max)
    n = np.arange(DEFAULT_N, total)
    inv = np.array([base**-l for l in range(1, l_max + 1)])[:, None]
    dev = np.maximum(max_counts[:, DEFAULT_N - 1:] / n - inv,
                     inv - min_counts[:, DEFAULT_N - 1:] / n)
    for l in range(2, l_max + 1):
        dev[l - 1, total - l - DEFAULT_N + 1:] = -math.inf  # n > |w| - l has no room for l
    return dev.max(axis=0)


def _extremal_deviations(word: DigitWord) -> Iterator[tuple[int, float]]:
    """(n, dev) for every prefix length n >= DEFAULT_N, as _deviation_array gives them."""
    return zip(range(DEFAULT_N, len(word)), _deviation_array(word).tolist())


def low_discrepancy_test(word: DigitWord, params: DiscrepancyParams) -> bool:
    """Whether every block length and every prefix meet the frequency bound.

    Checks |N(z, w_1^n)/n - b^-|z|| < C_b sqrt(log log n)/sqrt(n) for all
    blocks z with 1 <= |z| <= min(|w| - DEFAULT_N, Z_LEN_CAP) and all
    prefixes n with DEFAULT_N <= n <= |w| - |z|, comparing every prefix's
    deviation with its threshold at once.
    """
    c = params.c_for(word.base)
    dev = _deviation_array(word)
    return not (dev >= _thresholds(c, dev.size)).any()


def discrepancy_statistic(word: DigitWord) -> float:
    """Smallest C that this word passes (sup of deviation / threshold shape)."""
    # max_count >= min_count makes every dev >= 0, so the sup needs no floor at 0
    return max(dev * (math.sqrt(n) / math.sqrt(math.log(math.log(n))))
               for n, dev in _extremal_deviations(word))


def _uniform_words(base: int, length: int, seed) -> Iterator[DigitWord]:
    """Uniform random words of one length, drawn one after another from one seeded stream."""
    DigitWord(base, ())  # names a bad base before randrange meets it
    rng = random.Random(seed)
    while True:
        yield DigitWord(base, tuple(rng.randrange(base) for _ in range(length)))


def sample_good_string(
    base: int,
    length: int,
    rng_seed,
    params: DiscrepancyParams,
) -> DigitWord:
    """Rejection-sample a uniform word until it passes the filter.

    A word no longer than DEFAULT_N passes vacuously (the filter's prefix
    range is empty), so the first draw is returned untested.
    """
    for word in itertools.islice(_uniform_words(base, length, rng_seed), MAX_ATTEMPTS):
        if length <= DEFAULT_N or low_discrepancy_test(word, params):
            return word
    raise FilterGiveUp(
        f"no base-{base} word of length {length} passed after {MAX_ATTEMPTS} draws"
    )


def calibrate(
    base: int,
    *,
    length: int = 2000,
    samples: int = 200,
    target: float = 0.6,
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
    words = itertools.islice(_uniform_words(base, length, seed), samples)
    stats = sorted(discrepancy_statistic(word) for word in words)
    return stats[min(samples - 1, int(round(target * samples)))]
