"""Sliding-window block counts, entropies, and entropy profiles.

Counts are over overlapping windows: a length-l block starting at every
position 1..n-l+1 of a length-n word. Counts are exact integers; only
the final log-sum is evaluated in floating point, with natural logs
normalized by l*ln(base) so values land in [0, 1].  Entropies H_1..H_l
are read in batch at one prefix or at many in one call
(:func:`prefix_entropies`).  The low-discrepancy filter reads every
prefix's extremal counts of every block length in two rank passes
(:func:`_extremal_counts`).  Both key their windows through
:func:`_window_keys`.  The streaming :class:`BlockCounter` counts digits
pushed one at a time.  No table of base^l slots is built: the counter
keeps its counts in dicts and the batch readers rank window keys that
never overflow, so any base and any length work.  Only
:func:`block_entropy`, the independent reference, packs each window into
one int64 key and refuses base^l > 2^63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from fsdim.base_arith import DigitWord

__all__ = [
    "BlockCounter",
    "BlockDistribution",
    "EntropyProfile",
    "block_entropy",
    "dimension_estimate",
    "entropy_profile",
    "occurrence_count",
    "prefix_entropies",
]

def _check_block_args(base: int, l: int) -> None:
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if l < 1:
        raise ValueError(f"block length must be positive, got {l}")


def occurrence_count(z: DigitWord, w: DigitWord) -> int:
    """Number of (overlapping) occurrences of z inside w."""
    if z.base != w.base:
        raise ValueError(f"base mismatch: block base {z.base}, word base {w.base}")
    l, n = len(z), len(w)
    if l == 0:
        raise ValueError("block must be nonempty")
    if l > n:
        raise ValueError(f"block length {l} exceeds word length {n}")
    target = z.digits
    digits = w.digits
    return sum(1 for i in range(n - l + 1) if digits[i : i + l] == target)


@dataclass(frozen=True)
class BlockDistribution:
    """Counts of every observed block of one fixed length."""

    base: int
    block_len: int
    counts: Mapping[tuple[int, ...], int]
    window_total: int


def _entropy_from_sums(
    sum_c_ln_c: np.ndarray, totals: np.ndarray, block_len: int, base: int
) -> np.ndarray:
    # H = (ln T - (sum c ln c)/T) / (l ln base); exact zero counts never enter.
    # math.log rather than np.log: numpy's SIMD log may differ from libm's in
    # the last bit, and seeded profiles and monitors must not move.
    if totals.min() <= 0:
        raise ValueError("entropy needs at least one window")
    log_t = np.fromiter(map(math.log, totals), np.float64, totals.size)
    h = (log_t - sum_c_ln_c / totals) / (block_len * math.log(base))
    if not (h.min() >= -1e-9 and h.max() <= 1 + 1e-9):
        raise AssertionError(f"normalized entropy {h.min()}..{h.max()} escaped [0, 1]")
    return np.minimum(1.0, np.maximum(0.0, h))


class BlockCounter:
    """A one-pass sliding counter of every block length up to l_max.

    Digits arrive one at a time through :meth:`push`/:meth:`extend`, and
    :meth:`distribution` reads the counts of one length.  The counts live
    in dicts of Python ints, so any base works.
    """

    def __init__(self, base: int, l_max: int):
        _check_block_args(base, l_max)
        self.base = base
        self.l_max = l_max
        self.n = 0
        self._counts: list[dict[int, int]] = [dict() for _ in range(l_max + 1)]
        self._keys = [0] * (l_max + 1)  # packed key of the last l digits

    def push(self, d: int) -> None:
        if not 0 <= d < self.base:
            raise ValueError(f"digit {d} out of range for base {self.base}")
        base = self.base
        self.n += 1
        keys = self._keys
        # Descending l: keys[l-1] still holds the previous push's value when
        # keys[l] is formed, so the update needs no scratch copy.
        for l in range(min(self.l_max, self.n), 0, -1):
            k = keys[l - 1] * base + d
            keys[l] = k
            counts = self._counts[l]
            counts[k] = counts.get(k, 0) + 1

    def extend(self, digits: Iterable[int]) -> None:
        for d in digits:
            self.push(d)

    def distribution(self, l: int) -> BlockDistribution:
        if not 1 <= l <= self.l_max:
            raise ValueError(f"block length {l} outside tracked range 1..{self.l_max}")
        counts = {_unpack_key(k, self.base, l): c for k, c in self._counts[l].items()}
        return BlockDistribution(self.base, l, counts, max(0, self.n - l + 1))


def _unpack_key(packed: int, base: int, l: int) -> tuple[int, ...]:
    # inverse of the base-``base`` packing: the most significant digit comes first
    digits = [0] * l
    for i in range(l - 1, -1, -1):
        packed, digits[i] = divmod(packed, base)
    return tuple(digits)


def _packed_key_array(digits: np.ndarray, base: int, l: int) -> np.ndarray:
    n = digits.size
    keys = np.zeros(n - l + 1, dtype=np.int64)
    for i in range(l):
        keys *= base
        keys += digits[i : n - l + 1 + i]
    return keys


def block_entropy(w: DigitWord, l: int) -> float:
    """Normalized block entropy H_l of the whole word, counted with np.unique.

    This is the independent reference the tests check prefix_entropies
    against.  It packs each window into one int64 key below base^l, so it
    refuses base^l > 2^63.
    """
    _check_block_args(w.base, l)
    if w.base**l > 1 << 63:
        raise ValueError(f"{w.base}^{l} blocks overflow the int64 block keys")
    if l > len(w):
        raise ValueError(f"block length {l} exceeds word length {len(w)}")
    arr = np.asarray(w.digits, dtype=np.int64)
    c = np.unique(_packed_key_array(arr, w.base, l), return_counts=True)[1].astype(np.float64)
    total = np.array([len(w) - l + 1])
    return float(_entropy_from_sums(np.array([(c * np.log(c)).sum()]), total, l, w.base)[0])


def prefix_entropies(
    digits: Sequence[int], base: int, l_max: int, ends: Sequence[int]
) -> np.ndarray:
    """H_1..H_l_max of every prefix digits[:n], n in ends, in one call.

    Row l-1, column j of the result is H_l of digits[:ends[j]], or NaN
    where that prefix is shorter than l.  Rows stop at l_max or at the
    longest prefix, whichever is shorter, since no longer block fits.  Each
    window's occurrence rank (how many earlier windows hold the same
    block) picks the increment (c+1)ln(c+1) - c ln c that its arrival adds
    to sum c ln c, and a cumulative sum in window order gives that sum at
    every prefix.  The additions are those of a running sum updated once
    per window, in the same order, so each value is bit-identical to it.
    One length is ranked at a time, so memory stays O(len(digits)).
    """
    _check_block_args(base, l_max)
    ends = np.asarray(ends, dtype=np.int64)
    lo, hi = int(ends.min()), int(ends.max())
    if lo < 1 or hi > len(digits):
        raise ValueError(f"prefix lengths {lo}..{hi} outside 1..{len(digits)}")
    arr = np.asarray(digits[:hi], dtype=np.int64 if base <= 1 << 63 else object)
    if arr.min() < 0 or arr.max() >= base:
        raise ValueError(f"digits out of range for base {base}")
    l_max = min(l_max, hi)
    rows = _window_keys(arr, base, l_max)
    del arr  # the rows keep their own padded copy
    out = np.full((l_max, ends.size), np.nan)
    for l, keys in enumerate(rows, 1):
        ranks = _occurrence_ranks(keys)
        if l == 1:  # occurrence ranks only fall as l grows, so this table serves every l
            inc = _increments(int(ranks.max()))
        sums = inc[ranks]
        del ranks  # summed in place: one window-sized array at a time
        np.cumsum(sums, out=sums)
        reached = ends >= l
        out[l - 1, reached] = _entropy_from_sums(
            sums[ends[reached] - 1], ends[reached] - l + 1, l, base)
        del sums  # before the next row is ranked
    return out


def _increments(top: int) -> np.ndarray:
    """inc[c] = (c+1)ln(c+1) - c ln c for c = 0..top: what sum c ln c gains
    when one count steps from c to c + 1."""
    # math.log, not np.log, for the reason given in _entropy_from_sums
    ln = np.fromiter(map(math.log, range(1, top + 2)), np.float64, top + 1)  # ln c at c-1
    c = np.arange(1, top + 1, dtype=np.float64)
    return np.concatenate(([0.0], (c + 1) * ln[1:] - c * ln[:-1]))


def _occurrence_ranks(keys: np.ndarray) -> np.ndarray:
    """For each window, how many earlier windows hold the same block."""
    # a stable sort keeps each block's windows in position order, so a
    # window's offset inside its run of equal keys is its occurrence rank.
    # Keys below 2**16 are sorted as uint16, which numpy radix-sorts.  A
    # run starts where the sorted key changes, and the running maximum of
    # the run starts gives each window its own.  Rebinding and del keep at
    # most three int64 window-sized arrays alive besides the caller's keys.
    if keys.max() < 1 << 16:
        keys = keys.astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = np.flatnonzero(keys[1:] != keys[:-1]) + 1  # one entry per run
    del keys
    starts = np.zeros_like(order)
    starts[head] = head
    np.maximum.accumulate(starts, out=starts)
    offsets = np.arange(order.size)
    offsets -= starts
    del starts
    ranks = np.empty_like(offsets)
    ranks[order] = offsets
    return ranks


def _window_keys(digits: Sequence[int], base: int, l_max: int) -> Iterator[np.ndarray]:
    """The int64 keys of every window, one row of len(digits) per length 1..l_max.

    Column n-1 of row l-1 keys the window digits[n-l:n], so each window
    is keyed by where it ends.  Equal windows of one length share a key,
    and rows share none.  The l-1 head cells of row l read out-of-alphabet
    pad digits before digits[0], so each has a key of its own.  Windows are
    packed in base (base + 1) below a leading 1 while 2 (base+1)^l_max fits
    in an int64.  Past that, each row pairs the dense run id of a window's
    length-(l-1) head with its last digit's index in the sorted alphabet,
    so no key passes l_max (len + l_max)^2 in any base.  Row l is built
    from row l-1, so a caller that drops each row before asking for the
    next holds two rows at a time.
    """
    n = len(digits)
    paired = 2 * (base + 1) ** l_max > 1 << 63
    if paired:
        alphabet, digits = np.unique(digits, return_inverse=True)
        base = alphabet.size
    # the smallest dtype holding the pad digit: the rows are int64
    padded = np.full(l_max - 1 + n, base, dtype=np.min_scalar_type(base))
    padded[l_max - 1:] = digits
    del digits  # the caller may drop its copy: the rows read padded alone
    radix = base + 1
    row = padded.astype(np.int64) + radix
    for i in range(l_max):
        if i:
            row = row[:-1] * radix + padded[i:]
        if paired:
            row = np.unique(row, return_inverse=True)[1] + i * (n + l_max)
        yield row[-n:]


def _extremal_counts(digits: Sequence[int], base: int, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The largest and smallest count over all base^l blocks in every prefix.

    Row l-1, column n-1 of each (l_max, len(digits)) array holds the counts
    of length l in digits[:n], read at n >= l; the smallest is 0 while any
    block is unseen.  The largest is the running maximum of occurrence rank
    + 1.  Ranking the (length, rank) pairs finds the windows that are the
    base^l-th block to reach their rank, and the smallest is their running
    number.  Head cells rank 0, which lifts no maximum past a real window's,
    and pair with rank len(digits): a group of fewer than base^l cells of
    its own, so they fill no level.
    """
    n = len(digits)
    keys = np.empty((l_max, n), dtype=np.int64)
    for i, row in enumerate(_window_keys(digits, base, l_max)):
        keys[i] = row
    ranks = _occurrence_ranks(keys.ravel()).reshape(l_max, n)
    max_counts = np.maximum.accumulate(ranks, axis=1) + 1
    rows = np.arange(l_max)[:, None]
    ranks[np.arange(n) < rows] = n
    ranks += rows * (n + 1)
    pair_ranks = _occurrence_ranks(ranks.ravel()).reshape(l_max, n)
    # no pair ranks n or more, so a length with base^l > n fills no level
    last = np.array([min(base**l, n + 1) - 1 for l in range(1, l_max + 1)])
    return max_counts, np.cumsum(pair_ranks == last[:, None], axis=1)


@dataclass(frozen=True)
class EntropyProfile:
    """Entropies H_l at a grid of prefix checkpoints of one word."""

    base: int
    l_max: int
    checkpoints: tuple[int, ...]
    table: Mapping[tuple[int, int], float]  # (l, n) -> H

    def entropy(self, l: int, n: int) -> float:
        return self.table[(l, n)]

    def write_csv(self, fh: TextIO) -> None:
        fh.write("n,l,H\n")
        for n in self.checkpoints:
            for l in range(1, self.l_max + 1):
                if (l, n) in self.table:
                    fh.write(f"{n},{l},{self.table[(l, n)]:.12g}\n")


def entropy_profile(w: DigitWord, l_max: int, checkpoints: Sequence[int]) -> EntropyProfile:
    """H_l at every checkpoint prefix n >= l, read by one prefix_entropies call."""
    cps = sorted(set(int(n) for n in checkpoints))
    if not cps:
        raise ValueError("need at least one checkpoint")
    if cps[0] < 1:
        raise ValueError(f"checkpoints must be positive, got {cps[0]}")
    if cps[-1] > len(w):
        raise ValueError(f"checkpoint {cps[-1]} beyond word length {len(w)}")
    rows = prefix_entropies(w.digits, w.base, l_max, cps).tolist()
    table = {(l, n): h for l, row in enumerate(rows, 1) for n, h in zip(cps, row) if n >= l}
    return EntropyProfile(w.base, l_max, tuple(cps), table)


def dimension_estimate(profile: EntropyProfile) -> float:
    """Finite-data estimate of inf_l liminf_n H_l: min over l of the minimum
    entropy over the last half of the checkpoints (the middle one too when
    their count is odd), read only where n - l + 1 windows can hold all
    base^l blocks (elsewhere H_l < 1 by counting)."""
    cps = profile.checkpoints
    tail = cps[len(cps) // 2:]
    values = [
        profile.table[(l, n)]
        for l in range(1, profile.l_max + 1)
        for n in tail
        if (l, n) in profile.table and profile.base**l <= n - l + 1
    ]
    if not values:
        raise ValueError(f"too few digits: no tail checkpoint n has the n - l + 1 >="
                         f" {profile.base}^l windows any H_l needs to reach 1")
    return min(values)
