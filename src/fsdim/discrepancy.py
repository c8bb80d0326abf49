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
its block-count ranks (blockstats._extremal_counts).  Each deviation times
sqrt(n)/sqrt(log log n) gives the word's statistic, and the filter passes
a word exactly when that statistic is below C_b.  What depends only on a
word's base and length (prefix grid, b^-l column, no-room mask, that
scale, and the group ids and full sizes of the count pass) is built once
per width and kept in a bounded cache, which fills on first use, not at
import.
Candidate words are drawn in bulk, with the digits successive
rng.randrange(base) calls would give (see _uniform_words).
"""

from __future__ import annotations

import configparser
import functools
import io
import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

import numpy as np

from fsdim.base_arith import DigitWord, atomic_write_text
from fsdim.blockstats import _digit_array, _extremal_counts, _extremal_layout

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
                base = int(key[2:])
                if base in c:  # configparser refuses a repeated key, not C_02 after C_2
                    raise ValueError(f"key {key!r} repeats base {base}")
                c[base] = float(value)
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


class _WidthLayout(NamedTuple):
    """What the filter reads of a word's base and length alone."""

    l_max: int
    grid: np.ndarray  # prefix lengths n = DEFAULT_N .. |w| - 1
    inv: np.ndarray  # (l_max, 1): b^-l
    no_room: np.ndarray  # (l_max, |grid|): n > |w| - l leaves no room for l
    scale: np.ndarray  # sqrt(n) / sqrt(log log n) at every n of grid
    counts: tuple[np.ndarray, np.ndarray, np.ndarray]  # blockstats._extremal_layout


# A step's slots and their redraws share one width, and a run's widths come
# one after another, so a few entries serve every step.
@functools.lru_cache(maxsize=8)
def _width_layout(base: int, total: int) -> _WidthLayout:
    l_max = min(total - DEFAULT_N, Z_LEN_CAP)
    grid = np.arange(DEFAULT_N, total)
    inv = np.array([base**-l for l in range(1, l_max + 1)])[:, None]
    no_room = grid > total - np.arange(1, l_max + 1)[:, None]
    # math, not np.log, so that each entry has the bits of the scalar formula
    scale = np.fromiter((math.sqrt(n) / math.sqrt(math.log(math.log(n)))
                         for n in range(DEFAULT_N, total)), np.float64, total - DEFAULT_N)
    for a in (grid, inv, no_room, scale):
        a.flags.writeable = False  # every word of this width reads them
    return _WidthLayout(l_max, grid, inv, no_room, scale,
                        _extremal_layout(base, total - 1, l_max))


def _deviation_array(word: DigitWord) -> np.ndarray:
    """dev at every prefix length n = DEFAULT_N .. |w| - 1, in one numpy pass.

    dev is the largest of max_count/n - b^-l and b^-l - min_count/n over
    the block lengths 1 <= l <= min(|w| - DEFAULT_N, Z_LEN_CAP) with
    n <= |w| - l, where max_count and min_count are the extremal
    occurrence counts over all b^l blocks of length l in w_1^n.  Only the
    extremal counts can break the two-sided frequency bound.  Each cell
    takes the float operations of a per-prefix scalar loop, so every
    value is bit-identical to one.  The arrays that depend on the base
    and the length alone come from _width_layout.
    """
    base, total = word.base, len(word)
    if total <= DEFAULT_N:
        raise WordTooShortError(f"word length {total} does not exceed N_{base} = {DEFAULT_N}")
    layout = _width_layout(base, total)
    # the full word (n = total) leaves no room for any block, so it is not read
    digits = _digit_array(word.digits, base)[:-1]
    max_counts, min_counts = _extremal_counts(digits, base, layout.l_max, layout.counts)
    n, inv = layout.grid, layout.inv
    dev = np.maximum(max_counts[:, DEFAULT_N - 1:] / n - inv,
                     inv - min_counts[:, DEFAULT_N - 1:] / n)
    dev[layout.no_room] = -math.inf
    return dev.max(axis=0)


def low_discrepancy_test(word: DigitWord, params: DiscrepancyParams) -> bool:
    """Whether the word's discrepancy statistic is below C_b.

    That is |N(z, w_1^n)/n - b^-|z|| < C_b sqrt(log log n)/sqrt(n) for all
    blocks z with 1 <= |z| <= min(|w| - DEFAULT_N, Z_LEN_CAP) and all
    prefixes n with DEFAULT_N <= n <= |w| - |z|, each side scaled by
    sqrt(n)/sqrt(log log n) so that one float rule decides.
    """
    c = params.c_for(word.base)  # a missing constant is named before a short word
    return discrepancy_statistic(word) < c


def discrepancy_statistic(word: DigitWord) -> float:
    """The largest dev * sqrt(n)/sqrt(log log n) over the word's prefixes.

    The filter fails the word at every C up to its statistic and passes it
    at every larger C.
    """
    # max_count >= min_count makes every dev >= 0, so the sup needs no floor at 0
    dev = _deviation_array(word)
    return float((dev * _width_layout(word.base, len(word)).scale).max())


def _uniform_words(base: int, length: int, seed) -> Iterator[DigitWord]:
    """Uniform random words of one length, drawn one after another from one seeded stream.

    The digits are those of successive rng.randrange(base) calls, which
    on CPython take one 32-bit output per getrandbits(k) call, k =
    base.bit_length(), read as its top k bits and retried until below
    base.  For k <= 32 one getrandbits(32 * words) call yields such
    outputs in order, least significant word first, and numpy keeps the
    accepted ones in a pool that each word is sliced from.  The stream's
    Random is private to the generator, so outputs drawn ahead are never
    drawn again.  Bases of 2^32 and up draw digit by digit.
    """
    DigitWord(base, ())  # names a bad base before the stream meets it
    rng = random.Random(seed)
    k = base.bit_length()
    if k > 32:
        while True:
            yield DigitWord(base, tuple(rng.randrange(base) for _ in range(length)))
    pool = np.empty(0, dtype=np.uint32)
    while True:
        while pool.size < length:
            need = length - pool.size
            # about need accepted digits, and a margin that a second refill rarely follows
            words = (need << k) // base + need // 4 + 16
            raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            drawn = np.frombuffer(raw, dtype="<u4") >> (32 - k)
            pool = np.concatenate((pool, drawn[drawn < base]))
        yield DigitWord(base, tuple(pool[:length].tolist()))
        pool = pool[length:]


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

    Draws uniform words and returns the empirical target-quantile of their
    discrepancy statistics.  The filter passes exactly the sample words
    whose statistic is below the returned C, about target * samples of
    them (fewer where statistics tie).  With target 0.6 roughly 60% of
    fresh uniform words pass at the returned constant.
    """
    if not 0 < target < 1:
        raise ValueError(f"target rate must be in (0, 1), got {target}")
    if samples < 10:
        raise ValueError(f"need at least 10 samples, got {samples}")
    words = itertools.islice(_uniform_words(base, length, seed), samples)
    stats = sorted(discrepancy_statistic(word) for word in words)
    return stats[min(samples - 1, int(round(target * samples)))]
