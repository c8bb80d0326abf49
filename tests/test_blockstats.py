"""Block statistics: oracle comparisons and frozen entropy values."""

import hashlib
import io
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsdim import blockstats
from fsdim.base_arith import DigitWord
from fsdim.blockstats import (
    BlockCounter,
    _extremal_counts,
    _occurrence_ranks,
    _packed_key_array,
    block_entropy,
    dimension_estimate,
    entropy_profile,
    occurrence_count,
    prefix_entropies,
)
from fsdim.constructor import _prefix_deviation
from fsdim.discrepancy import DEFAULT_N, _extremal_deviations
from test_discrepancy import _naive_extremal_deviations


# ---------------------------------------------------------------------------
# Oracles


def naive_counts(word: DigitWord, l: int) -> dict:
    """Slice-by-slice O(n*l) recount."""
    out = {}
    d = word.digits
    for i in range(len(word) - l + 1):
        out[d[i : i + l]] = out.get(d[i : i + l], 0) + 1
    return out


def naive_entropy(word: DigitWord, l: int) -> float:
    counts = naive_counts(word, l)
    total = len(word) - l + 1
    s = 0.0
    for c in counts.values():
        p = c / total
        s -= p * math.log(p)
    return s / (l * math.log(word.base))


def rand_word(rng, base, n) -> DigitWord:
    return DigitWord(base, tuple(rng.randrange(base) for _ in range(n)))


# ---------------------------------------------------------------------------
# Occurrence counts


def test_occurrence_count_frozen_examples():
    w = DigitWord.from_string
    assert occurrence_count(w("00", 2), w("0000", 2)) == 3
    assert occurrence_count(w("01", 2), w("0101", 2)) == 2
    assert occurrence_count(w("1", 2), w("0000", 2)) == 0
    assert occurrence_count(w("0101", 2), w("0101", 2)) == 1


def test_occurrence_count_validation():
    w = DigitWord.from_string
    with pytest.raises(ValueError):
        occurrence_count(w("0", 2), w("012", 3))
    with pytest.raises(ValueError):
        occurrence_count(w("000", 2), w("00", 2))
    with pytest.raises(ValueError):
        occurrence_count(DigitWord(2, ()), w("00", 2))


@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_occurrence_count_sums_to_window_total(base, l, data):
    digits = data.draw(st.lists(st.integers(0, base - 1), min_size=l, max_size=40))
    word = DigitWord.from_digits(base, digits)
    total = sum(
        occurrence_count(z, word)
        for z in _all_words(base, l)
    )
    assert total == len(word) - l + 1


def _all_words(base, l):
    words = [()]
    for _ in range(l):
        words = [w + (d,) for w in words for d in range(base)]
    return [DigitWord(base, w) for w in words]


# ---------------------------------------------------------------------------
# Entropies


def test_block_entropy_frozen_examples():
    zeros = DigitWord(2, (0,) * 100)
    assert block_entropy(zeros, 1) == 0.0
    alt = DigitWord.from_string("01" * 50, 2)
    assert block_entropy(alt, 1) == 1.0
    # 99 windows of length 2: 50 "01", 49 "10".
    assert abs(block_entropy(alt, 2) - 0.4999632) < 1e-6
    assert block_entropy(alt, 2) == pytest.approx(naive_entropy(alt, 2), abs=1e-12)


def test_block_entropy_range_and_validation():
    w = DigitWord.from_string("0123012301230123", 4)
    for l in (1, 2, 3):
        assert 0.0 <= block_entropy(w, l) <= 1.0
    with pytest.raises(ValueError):
        block_entropy(w, 0)
    with pytest.raises(ValueError):
        block_entropy(w, 17)
    # block keys are int64: 2^63 blocks fit, 2^64 do not
    zeros = DigitWord(2, (0,) * 70)
    assert block_entropy(zeros, 63) == 0.0
    with pytest.raises(ValueError, match="int64"):
        block_entropy(zeros, 64)


def test_block_entropy_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(60):
        base = rng.randrange(2, 6)
        n = rng.randrange(5, 400)
        word = rand_word(rng, base, n)
        l = rng.randrange(1, min(6, n) + 1)
        assert block_entropy(word, l) == pytest.approx(naive_entropy(word, l), abs=1e-12)


@given(st.integers(2, 5), st.data())
def test_entropy_relabeling_symmetry(base, data):
    # Permuting the alphabet leaves every H_l unchanged.
    digits = data.draw(st.lists(st.integers(0, base - 1), min_size=4, max_size=60))
    perm = data.draw(st.permutations(range(base)))
    w1 = DigitWord.from_digits(base, digits)
    w2 = DigitWord.from_digits(base, [perm[d] for d in digits])
    for l in (1, 2):
        assert block_entropy(w1, l) == pytest.approx(block_entropy(w2, l), abs=1e-12)


# ---------------------------------------------------------------------------
# Streaming counter and batch extremal counts


def test_streaming_counts_equal_naive_recount():
    rng = random.Random(4242)
    for _ in range(40):
        base = rng.randrange(2, 5)
        n = rng.randrange(6, 500)
        word = rand_word(rng, base, n)
        l_max = min(6, n)
        counter = BlockCounter(base, l_max)
        counter.extend(word)
        for l in range(1, l_max + 1):
            dist = counter.distribution(l)
            assert dict(dist.counts) == naive_counts(word, l)
            assert dist.window_total == n - l + 1


def test_batch_extremal_counts():
    # the batch pass gives every prefix's extremal counts, not only the whole word's
    rng = random.Random(7)
    climbed = set()
    for i in range(30):
        base, l_max = 2 + i % 5, 1 + i % 6  # every pair of base 2-6 and l_max 1-6
        n = rng.randrange(base * 8, 320)
        word = rand_word(rng, base, n)
        max_counts, min_counts = _extremal_counts(word.digits, base, l_max)
        for m in range(1, n + 1):
            prefix = word.prefix(m)
            for l in range(1, min(l_max, m) + 1):
                counts = naive_counts(prefix, l)
                expected_min = min(counts.values()) if len(counts) == base**l else 0
                assert max_counts[l - 1, m - 1] == max(counts.values())
                assert min_counts[l - 1, m - 1] == expected_min
                if expected_min > 1:
                    climbed.add((base, l))
        if n > DEFAULT_N:
            # the filter's deviations, read from these counts, match a recount
            assert list(_extremal_deviations(word)) == _naive_extremal_deviations(word)
    # the minimum leaves 0 and climbs in every base, and past l = 1 somewhere
    assert {b for b, _ in climbed} == {2, 3, 4, 5, 6}
    assert any(l > 1 for _, l in climbed)


def test_counter_validation():
    for base, l_max in ((1, 2), (2, 0)):
        with pytest.raises(ValueError):
            BlockCounter(base, l_max)
    # counts live in dicts of Python ints: no table of base^l slots, no int64 key
    wide = DigitWord(32, tuple(range(32)) * 3)
    counter = BlockCounter(32, 6)
    counter.extend(wide.digits)
    assert dict(counter.distribution(6).counts) == naive_counts(wide, 6)
    counter = BlockCounter(2, 64)
    counter.extend((0,) * 70)
    assert counter.distribution(64).counts == {(0,) * 64: 7}
    counter = BlockCounter(2, 2)
    with pytest.raises(ValueError):
        counter.push(2)
    counter.push(0)
    with pytest.raises(ValueError):
        counter.distribution(0)
    with pytest.raises(ValueError):
        counter.distribution(3)


# ---------------------------------------------------------------------------
# Entropies of every prefix


def test_prefix_entropies_match_naive_oracle_at_every_prefix():
    rng = random.Random(17)
    for _ in range(40):
        base = rng.randrange(2, 6)
        n = rng.randrange(1, 120)
        word = rand_word(rng, base, n)
        l_max = rng.randrange(1, 8)
        got = prefix_entropies(word.digits, base, l_max, range(1, n + 1))
        assert got.shape == (min(l_max, n), n)  # no block longer than the word
        for l in range(1, min(l_max, n) + 1):
            want = [naive_entropy(word.prefix(k), l) for k in range(l, n + 1)]
            assert got[l - 1, l - 1:].tolist() == pytest.approx(want, abs=1e-12)
            assert np.isnan(got[l - 1, :l - 1]).all()  # no length-l window fits


def running_count_ranks(keys) -> list[int]:
    """How many earlier windows hold the same key, by a running count."""
    seen: dict[int, int] = {}
    ranks = []
    for k in keys:
        ranks.append(seen.get(k, 0))
        seen[k] = ranks[-1] + 1
    return ranks


def searchsorted_ranks(keys: np.ndarray) -> np.ndarray:
    """Occurrence ranks by an int64 stable argsort and searchsorted."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    ranks = np.empty_like(order)
    ranks[order] = np.arange(keys.size) - np.searchsorted(ordered, ordered)
    return ranks


def de_bruijn(base: int, l: int) -> list[int]:
    """A word of length base**l + l - 1 whose length-l windows are all distinct."""
    a = [0] * (base * l)
    seq: list[int] = []

    def db(t: int, p: int) -> None:
        if t > l:
            if l % p == 0:
                seq.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        db(t + 1, p)
        for j in range(a[t - p] + 1, base):
            a[t] = j
            db(t + 1, t)

    db(1, 1)
    return seq + seq[: l - 1]


@pytest.mark.parametrize("base, l, top", [
    (4, 8, 65535), (2, 16, 65535),  # keys fit uint16
    (2, 17, 2**17 - 1), (3, 11, 3**11 - 1),  # keys need int64
])
def test_occurrence_ranks_match_running_count(monkeypatch, base, l, top):
    rng = np.random.default_rng([base, l])
    # random digits ending in the largest block, on either side of 2**16
    digits = np.concatenate((rng.integers(0, base, 50_000), np.full(l, base - 1)))
    for word in (digits, np.zeros(2_000, dtype=np.int64), np.array(de_bruijn(base, l))):
        keys = _packed_key_array(word, base, l)
        assert _occurrence_ranks(keys).tolist() == running_count_ranks(keys.tolist())
    assert int(keys.max()) == top  # the de Bruijn word holds every block once
    assert not _occurrence_ranks(keys).any()

    ends = sorted(set(rng.integers(l, digits.size + 1, 20).tolist()) | {digits.size})
    got = prefix_entropies(digits, base, l, ends)
    monkeypatch.setattr(blockstats, "_occurrence_ranks", searchsorted_ranks)
    want = prefix_entropies(digits, base, l, ends)
    assert [h.hex() for h in got.ravel().tolist()] == [h.hex() for h in want.ravel().tolist()]


def test_prefix_entropies_validation():
    digits = (0, 1, 1, 0, 1)
    with pytest.raises(ValueError):
        prefix_entropies(digits, 2, 0, [3])
    # 2^64 blocks: the window keys never overflow int64
    assert prefix_entropies((0,) * 70, 2, 64, [70])[63].tolist() == [0.0]
    with pytest.raises(ValueError):
        prefix_entropies(digits, 2, 3, [0, 5])  # the empty prefix holds no window
    # a prefix shorter than the block holds no window of it
    assert np.isnan(prefix_entropies(digits, 2, 3, [2, 5])[2, 0])
    with pytest.raises(ValueError):
        prefix_entropies(digits, 2, 1, [6])  # prefix longer than the word
    with pytest.raises(ValueError):
        prefix_entropies(digits, 1, 1, [5])
    with pytest.raises(ValueError):
        prefix_entropies((0, 2), 2, 1, [2])  # digit out of range


@pytest.mark.parametrize("base, l_max", [(2, 64), (4, 32), (2000, 6), (2**61, 2), (2**70, 2)])
def test_entropy_reads_past_int64_block_keys_match_naive(base, l_max):
    # base^l_max > 2^63: every reader keys windows by dense run ids instead
    assert base**l_max > 1 << 63
    rng = random.Random(base)
    if base == 2:
        word = DigitWord(2, (0,) * 70)
    else:
        # a few digits, the largest among them, so windows repeat at every length
        alphabet = [0, 1, base - 1]
        periodic = tuple(alphabet[i % 3] for i in range(30))
        word = DigitWord(base, periodic + tuple(rng.choice(alphabet) for _ in range(l_max + 40)))
    n = len(word)
    got = prefix_entropies(word.digits, base, l_max, range(1, n + 1))
    profile = entropy_profile(word, l_max, range(1, n + 1))
    for l in range(1, l_max + 1):
        for k in range(l, n + 1):
            want = naive_entropy(word.prefix(k), l)
            assert got[l - 1, k - 1] == pytest.approx(want, abs=1e-12), (l, k)
            assert profile.entropy(l, k) == got[l - 1, k - 1]
    dev = _prefix_deviation(word.digits, base, l_max, 1.0, l_max)
    assert dev == float(np.abs(got[:, l_max - 1:] - 1.0).max())


def test_entropy_reads_keep_their_bits():
    # float.hex of a profile and of prefix deviations, recorded before the
    # readers moved onto the shared window keys
    rng = random.Random(20_000)
    word = DigitWord(4, tuple(rng.randrange(4) for _ in range(20_000)))
    cps = list(range(1, 8)) + list(range(97, 20_000, 97)) + [20_000]
    profile = entropy_profile(word, 6, cps)
    rows = "".join(f"{l},{n},{h.hex()}\n" for (l, n), h in sorted(profile.table.items()))
    assert len(profile.table) == 1269
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "673fac875e7b1f314210afa56f48a8d115bcd295b1766d60c79373a0a5095960")
    devs = [_prefix_deviation(word.digits, 4, l_hi, target, n_from, shortfall).hex()
            for l_hi in range(1, 5) for n_from in (l_hi, 200, 5000, 20_000)
            for target in (0.5, 0.999) for shortfall in (False, True)]
    assert hashlib.sha256(" ".join(devs).encode()).hexdigest() == (
        "0b125ef53702e41be84f3704f86ebe228906826abb330e670a4c1b828f6b2ef1")


# ---------------------------------------------------------------------------
# Profiles and the dimension estimate


def test_entropy_profile_equals_batch_recomputation():
    rng = random.Random(11)
    word = rand_word(rng, 3, 600)
    cps = [10, 100, 350, 600]
    profile = entropy_profile(word, 4, cps)
    for n in cps:
        for l in range(1, 5):
            if l <= n:
                assert profile.entropy(l, n) == pytest.approx(
                    block_entropy(word.prefix(n), l), abs=1e-12
                )


def test_entropy_profile_validation():
    word = DigitWord(2, (0, 1) * 10)
    with pytest.raises(ValueError):
        entropy_profile(word, 2, [])
    with pytest.raises(ValueError):
        entropy_profile(word, 2, [0, 5])
    with pytest.raises(ValueError):
        entropy_profile(word, 2, [5, 100])
    with pytest.raises(ValueError):
        entropy_profile(word, 0, [5])
    # only the lengths a checkpoint reaches are read, at any base^l
    assert entropy_profile(word, 64, [5]).entropy(5, 5) == 0.0
    assert entropy_profile(DigitWord(2, (0,) * 70), 64, [70]).entropy(64, 70) == 0.0


def test_profile_csv_format():
    word = DigitWord.from_string("01010101", 2)
    profile = entropy_profile(word, 2, [4, 8])
    buf = io.StringIO()
    profile.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,l,H"
    assert lines[1].startswith("4,1,")
    assert len(lines) == 1 + 4


def test_dimension_estimate_boundary_cases():
    zeros = DigitWord(2, (0,) * 500)
    profile = entropy_profile(zeros, 2, [100, 300, 500])
    assert dimension_estimate(profile) == 0.0

    rng = random.Random(13)
    word = rand_word(rng, 2, 5000)
    profile = entropy_profile(word, 2, [1000, 3000, 5000])
    est = dimension_estimate(profile)
    assert 0.9 < est <= 1.0


def test_dimension_estimate_tail_selection():
    # the early zero run sits in the first half of the checkpoints, so it
    # drops out; the middle one of an odd count is read
    rng = random.Random(3)
    word = DigitWord(2, (0,) * 2000 + tuple(rng.randrange(2) for _ in range(20000)))
    profile = entropy_profile(word, 1, [1000, 2000, 11000, 16000, 22000])
    assert profile.entropy(1, 1000) == profile.entropy(1, 2000) == 0.0
    read = [profile.entropy(1, n) for n in (11000, 16000, 22000)]
    assert dimension_estimate(profile) == min(read) == read[0] > 0.9
