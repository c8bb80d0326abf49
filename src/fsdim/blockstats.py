"""Sliding-window block counts, entropies, and entropy profiles.

Counts are over overlapping windows: a length-l block starting at every
position 1..n-l+1 of a length-n word. Probabilities are exact rationals;
only the final log-sum is evaluated in floating point, with natural logs
normalized by l*ln(base) so values land in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from fsdim.base_arith import DigitWord

__all__ = [
    "BLOCK_SPACE_LIMIT",
    "BlockCounter",
    "BlockDistribution",
    "EntropyProfile",
    "block_counts",
    "block_entropy",
    "dimension_estimate",
    "entropy_profile",
    "occurrence_count",
    "occurrence_prob",
]

# Refuse alphabets with more than this many distinct blocks per length.
BLOCK_SPACE_LIMIT = 1 << 24


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


def occurrence_prob(z: DigitWord, w: DigitWord) -> Fraction:
    """Exact occurrence probability N(z, w) / (|w| - |z| + 1)."""
    return Fraction(occurrence_count(z, w), len(w) - len(z) + 1)


@dataclass(frozen=True)
class BlockDistribution:
    """Counts of every observed block of one fixed length."""

    base: int
    block_len: int
    counts: Mapping[tuple[int, ...], int]
    window_total: int

    def prob(self, z: DigitWord) -> Fraction:
        if z.base != self.base or len(z) != self.block_len:
            raise ValueError("block shape does not match distribution")
        return Fraction(self.counts.get(z.digits, 0), self.window_total)


def _entropy_from_sums(sum_c_ln_c: float, total: int, block_len: int, base: int) -> float:
    # H = (ln T - (sum c ln c)/T) / (l ln base); exact zero counts never enter.
    if total <= 0:
        raise ValueError("entropy needs at least one window")
    h = (math.log(total) - sum_c_ln_c / total) / (block_len * math.log(base))
    if not -1e-9 <= h <= 1 + 1e-9:
        raise AssertionError(f"normalized entropy {h} escaped [0, 1]")
    return min(1.0, max(0.0, h))


class BlockCounter:
    """One-pass sliding counter for all block lengths up to l_max.

    Feed digits with :meth:`push`/:meth:`extend`; counts, entropies, and
    extremal counts for every length are available at any prefix. Entropy
    queries are O(1) thanks to a running sum of c*ln(c) per length.
    """

    def __init__(self, base: int, l_max: int):
        if base < 2:
            raise ValueError(f"base must be at least 2, got {base}")
        if l_max < 1:
            raise ValueError(f"l_max must be positive, got {l_max}")
        if base**l_max > BLOCK_SPACE_LIMIT:
            raise ValueError(
                f"{base}^{l_max} blocks exceed the tracking limit {BLOCK_SPACE_LIMIT}"
            )
        self.base = base
        self.l_max = l_max
        self.n = 0
        self._counts: list[dict[int, int]] = [dict() for _ in range(l_max + 1)]
        self._keys = [0] * (l_max + 1)  # packed key of the last l digits
        self._sum_c_ln_c = [0.0] * (l_max + 1)
        self._max_count = [0] * (l_max + 1)
        self._count_of_counts: list[dict[int, int]] = [dict() for _ in range(l_max + 1)]
        self._min_ptr = [1] * (l_max + 1)

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
            c = counts.get(k, 0)
            counts[k] = c + 1
            if c:
                self._sum_c_ln_c[l] += (c + 1) * math.log(c + 1) - c * math.log(c)
            if c + 1 > self._max_count[l]:
                self._max_count[l] = c + 1
            cc = self._count_of_counts[l]
            if c:
                left = cc[c] - 1
                if left:
                    cc[c] = left
                else:
                    del cc[c]
            cc[c + 1] = cc.get(c + 1, 0) + 1

    def extend(self, digits: Iterable[int]) -> None:
        for d in digits:
            self.push(d)

    def window_total(self, l: int) -> int:
        self._check_len(l)
        return max(0, self.n - l + 1)

    def distinct(self, l: int) -> int:
        self._check_len(l)
        return len(self._counts[l])

    def max_count(self, l: int) -> int:
        self._check_len(l)
        return self._max_count[l]

    def min_count(self, l: int) -> int:
        """Minimum count over all base^l blocks (0 if any block is unseen)."""
        self._check_len(l)
        if len(self._counts[l]) < self.base**l:
            return 0
        cc = self._count_of_counts[l]
        ptr = self._min_ptr[l]
        while not cc.get(ptr):
            ptr += 1
        self._min_ptr[l] = ptr
        return ptr

    def entropy(self, l: int) -> float:
        """Normalized block entropy of the prefix consumed so far."""
        self._check_len(l)
        return _entropy_from_sums(
            self._sum_c_ln_c[l], self.window_total(l), l, self.base
        )

    def distribution(self, l: int) -> BlockDistribution:
        self._check_len(l)
        counts = {_unpack_key(k, self.base, l): c for k, c in self._counts[l].items()}
        return BlockDistribution(self.base, l, counts, self.window_total(l))

    def _check_len(self, l: int) -> None:
        if not 1 <= l <= self.l_max:
            raise ValueError(f"block length {l} outside tracked range 1..{self.l_max}")


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


def block_counts(w: DigitWord, l: int) -> BlockDistribution:
    """Distribution of length-l blocks of w (vectorized batch count)."""
    _validate_block_args(w, l)
    base = w.base
    arr = np.asarray(w.digits, dtype=np.int64)
    keys, counts = np.unique(_packed_key_array(arr, base, l), return_counts=True)
    mapping = {_unpack_key(k, base, l): c for k, c in zip(keys.tolist(), counts.tolist())}
    return BlockDistribution(base, l, mapping, len(w) - l + 1)


def block_entropy(w: DigitWord, l: int) -> float:
    """Normalized block entropy H_l of the whole word (batch evaluation)."""
    _validate_block_args(w, l)
    arr = np.asarray(w.digits, dtype=np.int64)
    counts = np.bincount(_packed_key_array(arr, w.base, l))
    c = counts[counts > 0].astype(np.float64)
    total = len(w) - l + 1
    return _entropy_from_sums(float((c * np.log(c)).sum()), total, l, w.base)


def _validate_block_args(w: DigitWord, l: int) -> None:
    if l < 1:
        raise ValueError(f"block length must be positive, got {l}")
    if l > len(w):
        raise ValueError(f"block length {l} exceeds word length {len(w)}")
    if w.base**l > BLOCK_SPACE_LIMIT:
        raise ValueError(f"{w.base}^{l} blocks exceed the tracking limit {BLOCK_SPACE_LIMIT}")


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
    """H_l at every checkpoint prefix, in one streaming pass."""
    cps = sorted(set(int(n) for n in checkpoints))
    if not cps:
        raise ValueError("need at least one checkpoint")
    if cps[0] < 1:
        raise ValueError(f"checkpoints must be positive, got {cps[0]}")
    if cps[-1] > len(w):
        raise ValueError(f"checkpoint {cps[-1]} beyond word length {len(w)}")
    counter = BlockCounter(w.base, l_max)
    table: dict[tuple[int, int], float] = {}
    pending = iter(cps)
    target = next(pending)
    for d in w:
        counter.push(d)
        if counter.n == target:
            for l in range(1, min(l_max, counter.n) + 1):
                table[(l, target)] = counter.entropy(l)
            target = next(pending, None)
            if target is None:
                break
    return EntropyProfile(w.base, l_max, tuple(cps), table)


def dimension_estimate(profile: EntropyProfile, tail_fraction: float = 0.5) -> float:
    """Finite-data estimate of inf_l liminf_n H_l: min over l of the minimum
    entropy over the trailing ``tail_fraction`` of checkpoints."""
    if not 0 < tail_fraction <= 1:
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    cps = profile.checkpoints
    start = min(len(cps) - 1, math.floor((1 - tail_fraction) * len(cps)))
    tail = cps[start:]
    values = [
        profile.table[(l, n)]
        for l in range(1, profile.l_max + 1)
        for n in tail
        if (l, n) in profile.table
    ]
    if not values:
        raise ValueError("profile has no entries in the tail window")
    return min(values)
