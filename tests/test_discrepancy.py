"""Discrepancy: closed form vs brute force, filter behavior, calibration."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdim import discrepancy
from fsdim.base_arith import DigitWord
from fsdim.blockstats import occurrence_count
from fsdim.discrepancy import (
    DEFAULT_C,
    DEFAULT_N,
    Z_LEN_CAP,
    DiscrepancyParams,
    FilterGiveUp,
    WordTooShortError,
    _deviation_array,
    _deviation_threshold,
    _extremal_deviations,
    _uniform_words,
    _width_layout,
    calibrate,
    discrepancy_statistic,
    low_discrepancy_test,
    sample_good_string,
    star_discrepancy,
    star_discrepancy_brute,
)


def params_for_tests() -> DiscrepancyParams:
    return DiscrepancyParams.default()


# ---------------------------------------------------------------------------
# Star discrepancy


def test_star_discrepancy_frozen_examples():
    assert star_discrepancy([Fraction(0)]) == 1.0
    assert star_discrepancy([Fraction(0), Fraction(1, 2)]) == 0.5
    # Perfectly centered grid {1/2n, 3/2n, ...} attains the lower bound 1/2n.
    n = 10
    grid = [Fraction(2 * i + 1, 2 * n) for i in range(n)]
    assert star_discrepancy(grid) == pytest.approx(1 / (2 * n), abs=1e-15)


def test_star_discrepancy_validation():
    with pytest.raises(ValueError):
        star_discrepancy([])
    with pytest.raises(ValueError):
        star_discrepancy([1.5])
    with pytest.raises(ValueError):
        star_discrepancy([-0.1])


def test_star_discrepancy_equals_brute_force():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randrange(1, 60)
        pts = [rng.random() for _ in range(n)]
        assert star_discrepancy(pts) == pytest.approx(
            star_discrepancy_brute(pts), abs=1e-12
        )
    # Ties and endpoint values
    for pts in ([0.0, 0.0, 1.0], [0.25] * 5, [0.0], [1.0], [0.5, 0.5, 0.25]):
        assert star_discrepancy(pts) == pytest.approx(
            star_discrepancy_brute(pts), abs=1e-12
        )


# ---------------------------------------------------------------------------
# Low-discrepancy filter


def test_constant_word_fails():
    word = DigitWord(2, (0,) * 400)
    assert not low_discrepancy_test(word, params_for_tests())


def test_word_too_short_raises():
    with pytest.raises(WordTooShortError):
        low_discrepancy_test(DigitWord(2, (0, 1) * 25), params_for_tests())


def test_filter_deviations_match_occurrence_count():
    # The filter sees exactly the counts occurrence_count reports.
    rng = random.Random(5)
    word = DigitWord(2, tuple(rng.randrange(2) for _ in range(120)))
    params = params_for_tests()
    c = params.c_for(2)

    violated = False
    for l in (1, 2, 3):
        blocks = [
            DigitWord(2, tuple((k >> i) & 1 for i in reversed(range(l))))
            for k in range(2**l)
        ]
        for n in range(50, len(word) - l + 1):
            threshold = c * math.sqrt(math.log(math.log(n))) / math.sqrt(n)
            for z in blocks:
                dev = abs(occurrence_count(z, word.prefix(n)) / n - 2**-l)
                if dev >= threshold:
                    violated = True
    assert low_discrepancy_test(word, params) == (not violated)


# sha256 of every (n, dev) the scan yields and of each word's statistic, in
# hex floats, over the words below; any change to a filter decision moves it
FILTER_DIGEST = "6408ee4ea81a3b3c7e54551401aa56e08317cdd4c334d072bfc106822bb6d727"


def test_filter_deviations_match_golden_digest():
    rng = random.Random(2208)
    words = []
    for i in range(40):
        base = 2 + i % 5
        length = rng.choice((51, 52, 56, 57)) if i < 5 else rng.randrange(51, 3001)
        words.append(DigitWord(base, tuple(rng.randrange(base) for _ in range(length))))
    words += [DigitWord(3, (0,) * 300), DigitWord(4, (0, 1, 2, 3) * 200)]
    h = hashlib.sha256()
    for w in words:
        for n, dev in _extremal_deviations(w):
            h.update(f"{n},{dev.hex()}\n".encode())
        h.update(f"stat {discrepancy_statistic(w).hex()}\n".encode())
    assert h.hexdigest() == FILTER_DIGEST


def _naive_extremal_deviations(word: DigitWord, ns=None) -> list[tuple[int, float]]:
    # recount every prefix's blocks as digit tuples, so no key is packed in any
    # base; ns picks the prefix lengths to recount (default: all of them)
    base, total = word.base, len(word)
    l_max = min(total - DEFAULT_N, Z_LEN_CAP)
    out = []
    for n in ns or range(DEFAULT_N, total):
        dev = -math.inf
        for l in range(1, min(l_max, total - n) + 1):
            counts: dict[tuple[int, ...], int] = {}
            for i in range(n - l + 1):
                block = word.digits[i : i + l]
                counts[block] = counts.get(block, 0) + 1
            low = min(counts.values()) if len(counts) == base**l else 0
            dev = max(dev, max(counts.values()) / n - base**-l, base**-l - low / n)
        out.append((n, dev))
    return out


@pytest.mark.parametrize("base", [2, 5, 2000, 2**61])
def test_filter_deviations_match_a_naive_recount_in_any_base(base):
    # 2000^6 overflows an int64 packed key, and 2^61 times the word length an
    # id-times-base key: the scan's counts must not depend on either fitting
    rng = random.Random(base)
    words = [DigitWord(base, tuple(rng.randrange(base) for _ in range(length)))
             for length in (51, 57, 140)]
    words.append(DigitWord(base, (0, 1, 1) * 40))
    for word in words:
        assert list(_extremal_deviations(word)) == _naive_extremal_deviations(word)


@st.composite
def _words(draw):
    base = draw(st.sampled_from([2, 3, 4, 5, 6, 2000]))
    length = draw(st.integers(51, 160))
    # a skewed word draws most digits from a sub-alphabet, so some blocks
    # arrive late and the min counts leave 0 partway through the word
    common = draw(st.integers(1, base))
    stray = draw(st.sampled_from([0.0, 0.03, 0.2, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return DigitWord(base, tuple(
        rng.randrange(base) if rng.random() < stray else rng.randrange(common)
        for _ in range(length)))


@settings(max_examples=80, deadline=None)
@given(_words())
def test_batch_deviations_equal_a_naive_recount(word):
    got = list(_extremal_deviations(word))
    assert [(n, dev.hex()) for n, dev in got] == [
        (n, dev.hex()) for n, dev in _naive_extremal_deviations(word)]


# every width from the shortest tested word to the first with all Z_LEN_CAP
# lengths, around the 64 slots of a step and the 256 of a byte, and two long ones
_WIDTHS = [DEFAULT_N + i for i in range(1, 9)] + [69, 70, 259, 260, 261, 262, 1000, 3000]


@pytest.mark.parametrize("base", [2, 3, 4, 5, 6, 9, 255, 256, 2000])
def test_width_layout_keeps_every_deviation_bit(base):
    rng = random.Random(f"layout:{base}")
    for width in _WIDTHS:
        word = DigitWord(base, tuple(rng.randrange(base) for _ in range(width)))
        ns = None
        if width >= 1000:  # a full recount is quadratic: read its ends and a sample
            ns = sorted({*range(DEFAULT_N, DEFAULT_N + 8), *range(width - 8, width),
                         *rng.sample(range(DEFAULT_N, width), 12)})
        want = _naive_extremal_deviations(word, ns)
        got = _deviation_array(word).tolist()
        assert [(n, got[n - DEFAULT_N].hex()) for n, _ in want] == [
            (n, dev.hex()) for n, dev in want]


def test_width_layout_is_a_small_read_only_cache():
    assert _width_layout.cache_info().maxsize <= 16
    layout = _width_layout(4, 300)
    assert layout is _width_layout(4, 300)
    for a in (layout.grid, layout.inv, layout.no_room, *layout.counts):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0


def test_interleaved_widths_get_the_verdicts_they_get_alone():
    # more widths than the cache holds, so entries are dropped and rebuilt
    rng = random.Random(31)
    widths = [51, 57, 140, 300, 57, 51, 900, 140] * 3
    words = [DigitWord(b, tuple(rng.randrange(b) for _ in range(width)))
             for width in widths for b in (2, 4)]
    params = params_for_tests()
    alone = []
    for word in words:
        _width_layout.cache_clear()
        alone.append((low_discrepancy_test(word, params), _deviation_array(word).tobytes()))
    _width_layout.cache_clear()
    interleaved = [(low_discrepancy_test(w, params), _deviation_array(w).tobytes())
                   for w in words]
    assert interleaved == alone
    assert any(v for v, _ in alone) and not all(v for v, _ in alone)


_DRAW_BASES = [*range(2, 41), 255, 256, 257, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**40]


@pytest.mark.parametrize("length", [1, 7, 53, 342, 2000])
def test_uniform_words_are_randrange_digit_for_digit(length):
    # bulk draws for bit lengths up to 32 (2^32 - 1 reads every bit of an
    # output), one randrange per digit past that
    for base in _DRAW_BASES:
        seed = f"draws:{base}:{length}"
        rng = random.Random(seed)
        want = [tuple(rng.randrange(base) for _ in range(length)) for _ in range(5)]
        got = [w.digits for w in itertools.islice(_uniform_words(base, length, seed), 5)]
        assert got == want, base


def test_importing_fsdim_fills_no_filter_cache():
    # the threshold table and the width layouts fill on first use, so that
    # importing the package does no filter work
    src = os.path.dirname(os.path.dirname(discrepancy.__file__))
    probe = ("import fsdim\n"
             "from fsdim import discrepancy as d\n"
             "print(len(d._THRESHOLDS), d._width_layout.cache_info().currsize)\n")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


def test_threshold_table_is_the_scalar_threshold(monkeypatch):
    monkeypatch.setattr(discrepancy, "_THRESHOLDS", {})
    ns = range(DEFAULT_N, 5001)
    for c in DEFAULT_C.values():
        first = discrepancy._thresholds(c, 10)
        before = first.tolist()
        table = discrepancy._thresholds(c, len(ns))
        # growing the table leaves the entries already handed out as they were
        assert first.tolist() == before == table[:10].tolist()
        assert [t.hex() for t in table.tolist()] == [
            _deviation_threshold(c, n).hex() for n in ns]


def test_statistic_is_exact_pass_boundary():
    rng = random.Random(21)
    word = DigitWord(2, tuple(rng.randrange(2) for _ in range(300)))
    stat = discrepancy_statistic(word)
    below = DiscrepancyParams({2: stat * 0.999})
    above = DiscrepancyParams({2: stat * 1.001})
    assert not low_discrepancy_test(word, below)
    assert low_discrepancy_test(word, above)


def test_sample_good_string_deterministic_and_passing():
    params = params_for_tests()
    w1 = sample_good_string(2, 200, 123, params)
    w2 = sample_good_string(2, 200, 123, params)
    assert w1 == w2
    assert low_discrepancy_test(w1, params)


def test_sample_good_string_gives_up():
    # An absurdly small C admits no word at all.
    params = DiscrepancyParams({2: 1e-9})
    with pytest.raises(FilterGiveUp, match="after 64 draws"):
        sample_good_string(2, 100, 0, params)


def test_sample_good_string_short_words_pass_untested(monkeypatch):
    import fsdim.discrepancy

    def no_test(*args):
        raise AssertionError("the filter ran on a vacuous word")

    monkeypatch.setattr(fsdim.discrepancy, "low_discrepancy_test", no_test)
    tight = DiscrepancyParams({3: 1e-9})  # would reject every testable word
    for length in (1, 7, DEFAULT_N):
        rng = random.Random(f"seed:{length}")
        first = tuple(rng.randrange(3) for _ in range(length))
        assert sample_good_string(3, length, f"seed:{length}", tight).digits == first


# ---------------------------------------------------------------------------
# Calibration and config persistence


def test_calibration_density_band():
    # Small but honest recalibration: pass rate on fresh words in [0.5, 0.95].
    c = calibrate(2, length=500, samples=60, seed=1)
    params = DiscrepancyParams({2: c})
    rng = random.Random(999)
    passed = sum(
        low_discrepancy_test(
            DigitWord(2, tuple(rng.randrange(2) for _ in range(500))), params
        )
        for _ in range(100)
    )
    assert 0.5 <= passed / 100 <= 0.95


@pytest.mark.parametrize("base", [2, 6])
def test_default_constants_are_what_calibrate_gives(base):
    # DEFAULT_C is calibrate's seed-0 output at its defaults, to its 12 written digits
    assert float(f"{calibrate(base, seed=0):.12g}") == DEFAULT_C[base]


def test_config_roundtrip(tmp_path):
    params = DiscrepancyParams({2: 0.97, 4: 0.87})
    path = tmp_path / "filter.cfg"
    params.write_config(path)
    text = path.read_text()
    assert "[discrepancy]" in text and "C_2" in text and "C_4" in text
    assert "N_" not in text and "z_len_cap" not in text
    back = DiscrepancyParams.read_config(path)
    assert back == params


def test_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[discrepancy]\nQ_2 = 1\n")
    with pytest.raises(ValueError):
        DiscrepancyParams.read_config(path)
    path.write_text("[other]\nC_2 = 1\n")
    with pytest.raises(ValueError):
        DiscrepancyParams.read_config(path)
    # N_b and the block cap are module constants, not config keys
    for key in ("N_2", "z_len_cap"):
        path.write_text(f"[discrepancy]\nC_2 = 1\n{key} = 50\n")
        with pytest.raises(ValueError, match="unknown key"):
            DiscrepancyParams.read_config(path)


def test_missing_base_is_an_error():
    params = DiscrepancyParams({2: 1.0})
    with pytest.raises(ValueError):
        params.c_for(7)
    # a base of any size is only told which constants exist
    for base in (8, 17, 32):
        with pytest.raises(ValueError) as info:
            params.c_for(base)
        assert str(info.value) == (
            f"no filter constant C for base {base} (constants exist for bases 2)")


@pytest.mark.parametrize("base, c", [
    (2, math.nan), (2, math.inf), (2, -math.inf), (2, 0.0), (2, -1.0),
    (1, 1.0), (0, 1.0), (-3, 1.0),
])
def test_constant_outside_the_filter_range_is_refused(base, c, tmp_path):
    path = tmp_path / "filter.cfg"
    path.write_text(f"[discrepancy]\nC_{base} = {c}\n")
    for make in (lambda: DiscrepancyParams({base: c}),
                 lambda: DiscrepancyParams.default().with_base(base, c),
                 lambda: DiscrepancyParams.read_config(path)):
        with pytest.raises(ValueError, match=f"C_{base} = "):
            make()


@pytest.mark.parametrize("body, message", [
    ("C_2 = nan", "C_2 = nan"),
    ("C_2 = high", "could not convert"),
])
def test_read_config_errors_name_the_file(body, message, tmp_path):
    path = tmp_path / "filter.cfg"
    path.write_text(f"[discrepancy]\n{body}\n")
    with pytest.raises(ValueError) as info:
        DiscrepancyParams.read_config(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


@pytest.mark.parametrize("base", [17, 25, 32, 2000, 2**61])
def test_bases_of_17_and_up_are_accepted(base, tmp_path):
    # the filter's counter keeps its counts in dicts, so no alphabet is too large
    path = tmp_path / "filter.cfg"
    path.write_text(f"[discrepancy]\nC_{base} = 0.8\n")
    for make in (lambda: DiscrepancyParams({base: 0.8}),
                 lambda: DiscrepancyParams.default().with_base(base, 0.8),
                 lambda: DiscrepancyParams.read_config(path)):
        assert make().c_for(base) == 0.8
    # a word long enough for every 6-block check has its statistic as pass boundary
    rng = random.Random(base)
    word = DigitWord(base, tuple(rng.randrange(base) for _ in range(400)))
    stat = discrepancy_statistic(word)
    assert not low_discrepancy_test(word, DiscrepancyParams({base: stat * 0.999}))
    assert low_discrepancy_test(word, DiscrepancyParams({base: stat * 1.001}))


@pytest.mark.parametrize("body, message", [
    (b"C_2 = 1\n", "no section headers"),
    (b"[discrepancy]\nC_2 = 1\nC_2 = 2\n", "option 'C_2' in section 'discrepancy' already exists"),
    (b"[discrepancy]\nC_2 = 1\n[discrepancy]\nC_3 = 1\n", "section 'discrepancy' already exists"),
    (b"[discrepancy]\nC_2 = 1\xff\n", "can't decode byte 0xff"),
], ids=["no-header", "repeated-key", "repeated-section", "not-utf8"])
def test_read_config_parse_errors_name_the_file(body, message, tmp_path):
    # configparser's own errors and undecodable bytes are ValueErrors under the path
    path = tmp_path / "filter.cfg"
    path.write_bytes(body)
    with pytest.raises(ValueError) as info:
        DiscrepancyParams.read_config(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)
