"""Exact radix arithmetic: oracle checks and frozen examples."""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdim.base_arith import (
    RESIDUE_CHUNK,
    CylinderInterval,
    DigitWord,
    as_unit,
    atomic_write_text,
    digit_at,
    digits_prefix,
    frac_of_scaled,
    in_cylinder,
    orbit_residues,
    read_digit_file,
    value_of_word,
    write_digit_file,
)


# ---------------------------------------------------------------------------
# Independent oracles. These reimplement the definitions directly and are the
# reference for every derived value below.


def oracle_digits(num: int, den: int, base: int, n: int) -> list[int]:
    """Plain long division, one digit at a time."""
    out = []
    r = num
    for _ in range(n):
        r *= base
        d, r = divmod(r, den)
        out.append(d)
    return out


def oracle_value(digits, base) -> Fraction:
    """Term-by-term exact sum of d_i * base^-i."""
    total = Fraction(0)
    for i, d in enumerate(digits, start=1):
        total += Fraction(d, base**i)
    return total


def oracle_frac_of_scaled(x: Fraction, t: int, u: int, j: int) -> float:
    """Full big-integer product, reduced once at the end."""
    big = t * u**j * x.numerator
    return (big % x.denominator) / x.denominator


# ---------------------------------------------------------------------------
# DigitWord and unit-interval validation


def test_digit_word_validation():
    with pytest.raises(ValueError):
        DigitWord(1, (0,))
    with pytest.raises(ValueError):
        DigitWord(2, (2,))
    with pytest.raises(ValueError):
        DigitWord(3, (-1,))
    # the message names the first bad digit, wherever the extremes sit
    with pytest.raises(ValueError, match="digit 5 out of range for base 4"):
        DigitWord(4, (0, 3) * 500 + (5, 1, -2, 9))
    with pytest.raises(ValueError, match="digit -2 out of range for base 4"):
        DigitWord(4, (3, 0) * 500 + (-2, 9))
    assert len(DigitWord(4, ())) == 0
    assert len(DigitWord(4, (0, 1, 2, 3) * 500)) == 2000
    w = DigitWord.from_string("0211", 3)
    assert len(w) == 4 and w[1] == 2
    assert list(w[1:3]) == [2, 1]


def test_as_unit_rejects_outside():
    assert as_unit(Fraction(3, 4)) == Fraction(3, 4)
    assert as_unit(0) == 0
    for bad in (Fraction(1), Fraction(-1, 7), 2):
        with pytest.raises(ValueError):
            as_unit(bad)


# ---------------------------------------------------------------------------
# value_of_word


def test_value_of_word_frozen_examples():
    assert value_of_word(DigitWord.from_string("1", 2)) == Fraction(1, 2)
    assert value_of_word(DigitWord(2, ())) == 0
    # 2*3^-1 + 1*3^-2 = 7/9
    assert value_of_word(DigitWord.from_string("21", 3)) == Fraction(7, 9)


@given(st.integers(2, 12), st.lists(st.integers(0, 11), max_size=20))
def test_value_of_word_matches_sum_oracle(base, raw):
    digits = [d % base for d in raw]
    w = DigitWord.from_digits(base, digits)
    assert value_of_word(w) == oracle_value(digits, base)
    assert 0 <= value_of_word(w) < 1


# ---------------------------------------------------------------------------
# digit_at / digits_prefix


def test_digit_at_frozen_examples():
    # 1/3 in base 2 is 0.010101...
    assert [digit_at(Fraction(1, 3), 2, i) for i in range(1, 7)] == [0, 1, 0, 1, 0, 1]
    # Terminating convention: 1/2 in base 2 is 1 0 0 ..., never 0 1 1 ...
    assert [digit_at(Fraction(1, 2), 2, i) for i in range(1, 5)] == [1, 0, 0, 0]
    assert digit_at(Fraction(7, 9), 3, 1) == 2
    assert digit_at(Fraction(7, 9), 3, 2) == 1


def test_digits_prefix_matches_long_division_oracle():
    rng = random.Random(20817)
    for _ in range(200):
        den = rng.randrange(1, 10**6)
        num = rng.randrange(0, den)
        base = rng.randrange(2, 17)
        n = rng.randrange(0, 60)
        x = Fraction(num, den)
        got = digits_prefix(x, base, n)
        assert got.base == base
        assert list(got) == oracle_digits(x.numerator, x.denominator, base, n)
    # the divide-and-conquer conversion splits by base**(2**k) above leaves
    # of 64 digits; these lengths sit on and next to the split points
    rng = random.Random(71)
    lengths = [0, 1, 63, 64, 65, 128, 129, 4097] + [rng.randrange(0, 301) for _ in range(40)]
    for i, n in enumerate(lengths):
        base = 2 + i % 35  # bases 2..36
        den = rng.randrange(1, 2 ** rng.randrange(1, 2000))
        for num in (0, rng.randrange(0, den)):
            x = Fraction(num, den)
            got = digits_prefix(x, base, n)
            assert got.base == base and len(got) == n
            assert list(got) == oracle_digits(x.numerator, x.denominator, base, n)
    # the measure-sized point: a 6x10^4-bit denominator, 4x10^4 digits
    den = 4**15000 * 3**18929
    x = Fraction(rng.randrange(1, den), den)
    for base in (3, 4):
        word = digits_prefix(x, base, 40_000)
        assert len(word) == 40_000
        for i in sorted(rng.sample(range(1, 40_001), 16)) + [1, 40_000]:
            assert word[i - 1] == digit_at(x, base, i)


def test_digits_prefix_fast_path_agrees_with_scalar_path():
    # The vectorized digit path of the orbit sums reads digit j as
    # floor(base * r_j / den) over orbit_residues; it must agree with the
    # scalar long division of digits_prefix. The lengths span several
    # residue chunks, and the denominators just below 2^31 bring the int64
    # products closest to overflowing.
    for x, base, n in [
        (Fraction(1234567, 9876543), 3, 3 * RESIDUE_CHUNK + 5),
        (Fraction(987654321, 2**31 - 1), 7, 2 * RESIDUE_CHUNK),
        (Fraction(2**31 - 3, 2**31 - 2), 10, RESIDUE_CHUNK + 1),
    ]:
        assert x.denominator < 2**31
        got = list(digits_prefix(x, base, n))
        assert got == oracle_digits(x.numerator, x.denominator, base, n)
        fast = [
            int(d)
            for r in orbit_residues(x.numerator, x.denominator, base, n)
            for d in r * base // x.denominator
        ]
        assert fast == got


def test_orbit_residues_chunks():
    num, den, base, n = 123456789, 2**31 - 1, 5, 2 * RESIDUE_CHUNK + 3
    chunks = list(orbit_residues(num, den, base, n))
    assert [len(c) for c in chunks] == [RESIDUE_CHUNK, RESIDUE_CHUNK, 3]
    flat = [int(r) for c in chunks for r in c]
    for i in range(0, n, 997):  # flat[i] is r_(i+1) = num * base^i mod den
        assert flat[i] == num * pow(base, i, den) % den
    assert list(orbit_residues(num, den, base, 0)) == []
    with pytest.raises(ValueError):
        next(orbit_residues(1, 2**31, 2, 10))


@given(
    st.integers(2, 10),
    st.integers(0, 10**9),
    st.integers(1, 10**9),
    st.integers(0, 40),
)
def test_digits_prefix_roundtrip(base, num, den, n):
    x = Fraction(num % den, den)
    w = digits_prefix(x, base, n)
    low = value_of_word(w)
    # x always lies in the cylinder of its own prefix.
    assert low <= x < low + Fraction(1, base**n)
    assert in_cylinder(x, w)
    for i in range(1, n + 1):
        assert w[i - 1] == digit_at(x, base, i)


# ---------------------------------------------------------------------------
# Cylinders


def test_cylinder_of_word():
    w = DigitWord.from_string("10", 2)
    cyl = CylinderInterval.of(w)
    assert cyl.low == Fraction(1, 2)
    assert cyl.width == Fraction(1, 4)


def test_in_cylinder_endpoints():
    w = DigitWord.from_string("10", 2)
    assert in_cylinder(Fraction(1, 2), w)           # closed left endpoint
    assert not in_cylinder(Fraction(3, 4), w)       # open right endpoint
    assert in_cylinder(Fraction(5, 8), w)           # interior point
    assert in_cylinder(Fraction(1, 3), DigitWord(2, ()))  # empty word covers all


@given(st.integers(2, 8), st.integers(0, 10**6), st.integers(1, 10**6), st.integers(0, 12))
def test_cylinder_refinement_is_monotone(base, num, den, n):
    x = Fraction(num % den, den)
    outer = CylinderInterval.of(digits_prefix(x, base, n))
    inner = CylinderInterval.of(digits_prefix(x, base, n + 1))
    assert outer.low <= inner.low
    assert inner.low + inner.width <= outer.low + outer.width


# ---------------------------------------------------------------------------
# frac_of_scaled


def test_frac_of_scaled_frozen_examples():
    assert frac_of_scaled(Fraction(1, 4), 1, 2, 1) == 0.5
    assert frac_of_scaled(Fraction(1, 3), 3, 2, 2) == 0.0
    assert frac_of_scaled(Fraction(1, 3), 1, 10, 100) == 1 / 3
    # Negative multiplier reduces into [0, 1).
    assert frac_of_scaled(Fraction(1, 4), -1, 2, 0) == 0.75


def test_frac_of_scaled_matches_bigint_oracle():
    rng = random.Random(509)
    for _ in range(300):
        den = rng.randrange(2, 10**12)
        num = rng.randrange(0, den)
        t = rng.randrange(-50, 51) or 1
        u = rng.randrange(2, 12)
        j = rng.randrange(0, 1000)
        x = Fraction(num, den)
        assert frac_of_scaled(x, t, u, j) == oracle_frac_of_scaled(x, t, u, j)


def test_frac_of_scaled_validation():
    with pytest.raises(ValueError):
        frac_of_scaled(Fraction(1, 3), 1, 1, 2)
    with pytest.raises(ValueError):
        frac_of_scaled(Fraction(1, 3), 1, 2, -1)


# ---------------------------------------------------------------------------
# Digit file format


def test_digit_file_roundtrip(tmp_path):
    w = DigitWord(12, tuple(i % 12 for i in range(300)))
    path = tmp_path / "digits.txt"
    write_digit_file(path, w)
    header = path.read_text().splitlines()[0]
    assert header == "base=12"
    assert read_digit_file(path) == w


def test_atomic_write_keeps_old_file_when_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "kept.txt"
    atomic_write_text(path, "old\r\ncontents\n")
    assert path.read_bytes() == b"old\r\ncontents\n"  # newlines written as given

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        atomic_write_text(path, "new contents\n")
    assert path.read_bytes() == b"old\r\ncontents\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_digit_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("radix=2\n0 1\n")
    with pytest.raises(ValueError):
        read_digit_file(bad)
    bad.write_text("base=2\n0 x 1\n")
    with pytest.raises(ValueError):
        read_digit_file(bad)
    bad.write_text("base=2\n0 2\n")
    with pytest.raises(ValueError):
        read_digit_file(bad)
    bad.write_text("base=2\n1.0\n")
    with pytest.raises(ValueError):
        read_digit_file(bad)
    bad.write_bytes(b"base=2\n0 1 \xff\n")  # not UTF-8
    with pytest.raises(ValueError):
        read_digit_file(bad)


def test_digit_file_roundtrip_many_bases(tmp_path):
    rng = random.Random(7)
    for base in (2, 3, 10, 11, 36):
        digits = tuple(rng.randrange(base) for _ in range(rng.randrange(0, 200)))
        w = DigitWord(base, digits)
        path = tmp_path / f"w{base}.txt"
        write_digit_file(path, w)
        assert read_digit_file(path) == w


def token_parse(path) -> DigitWord:
    """Reference parser: universal-newline UTF-8 text, one int() per token."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        assert header.startswith("base=")
        return DigitWord(int(header[len("base=") :]), tuple(int(t) for t in fh.read().split()))


@pytest.mark.parametrize("raw, base, digits", [
    (b"base=12\n10 11 0 3\n", 12, (10, 11, 0, 3)),  # multi-character tokens
    (b"base=2\n01 1\n", 2, (1, 1)),  # one token "01", not two digits
    (b"base=3\n+1 2\n", 3, (1, 2)),
    (b"base=3\n0\t1\t2\n", 3, (0, 1, 2)),
    (b"base=3\r\n0 1\r\n2\r\n", 3, (0, 1, 2)),
    (b"base=3\r0 1\r2\r", 3, (0, 1, 2)),  # a lone CR ends the header line
    (b"base=3\n0 1 2", 3, (0, 1, 2)),  # no trailing newline
    (b"base=3\n", 3, ()),
    (b"base=3", 3, ()),
    ("base=4\n0 \u0663 1\n".encode("utf-8"), 4, (0, 3, 1)),  # ARABIC-INDIC THREE
    (b"base=4\n3\x1c2\n", 4, (3, 2)),  # str.split() separates on U+001C
])
def test_digit_file_parse_paths_match_token_parser(tmp_path, raw, base, digits):
    path = tmp_path / "digits.txt"
    path.write_bytes(raw)
    assert read_digit_file(path) == DigitWord(base, digits) == token_parse(path)
