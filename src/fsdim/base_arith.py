"""Exact arithmetic on [0, 1) and positional digit expansions.

Every point that matters downstream is an exact rational, represented by
``fractions.Fraction``. Digit extraction uses the floor convention
``digit_i(x) = floor(x * b^i) mod b``, which selects the terminating
expansion for base-b rationals (1/2 in base 2 is ``1 0 0 ...``, never
``0 1 1 ...``). All mod-1 reductions happen in integer arithmetic before
any float conversion.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

__all__ = [
    "CylinderInterval",
    "DigitWord",
    "as_unit",
    "atomic_write_text",
    "digit_at",
    "digits_prefix",
    "frac_of_scaled",
    "in_cylinder",
    "orbit_residues",
    "read_digit_file",
    "value_of_word",
    "write_digit_file",
]

Rational = Union[Fraction, int]
Real = Union[float, Fraction, int]


def as_unit(x: Rational) -> Fraction:
    """Coerce ``x`` to an exact point of [0, 1), rejecting anything outside."""
    f = Fraction(x)
    if not 0 <= f < 1:
        raise ValueError(f"point {f} lies outside [0, 1)")
    return f


def _reduced(x: Real) -> Fraction:
    # exact value of x mod 1 (floats convert exactly)
    f = Fraction(x)
    return f - (f.numerator // f.denominator)


@dataclass(frozen=True)
class DigitWord:
    """Finite word over the digit alphabet {0, ..., base-1}."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be at least 2, got {self.base}")
        # set() hashes the digits in one C-level pass, and min/max then read
        # only the distinct values; the loop runs only to name the first bad digit
        values = set(self.digits)
        if values and not (0 <= min(values) and max(values) < self.base):
            for d in self.digits:
                if not 0 <= d < self.base:
                    raise ValueError(f"digit {d} out of range for base {self.base}")

    @classmethod
    def from_digits(cls, base: int, digits: Iterable[int]) -> "DigitWord":
        return cls(base, tuple(int(d) for d in digits))

    @classmethod
    def from_string(cls, text: str, base: int) -> "DigitWord":
        """Parse a compact digit string like ``"0211"`` (bases up to 10)."""
        if base > 10:
            raise ValueError("compact strings only support bases up to 10")
        return cls(base, tuple(int(ch) for ch in text))

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return DigitWord(self.base, self.digits[item])
        return self.digits[item]

    def prefix(self, n: int) -> "DigitWord":
        return DigitWord(self.base, self.digits[:n])

    def as_int(self) -> int:
        """The word read as a base-``base`` integer (empty word is 0)."""
        value = 0
        for d in self.digits:
            value = value * self.base + d
        return value


def value_of_word(w: DigitWord) -> Fraction:
    """Exact value sum_i w_i * base^-i of the word's cylinder left endpoint."""
    return Fraction(w.as_int(), w.base ** len(w))


def digit_at(x: Rational, base: int, i: int) -> int:
    """The i-th digit (1-indexed) of x in the given base."""
    f = as_unit(x)
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if i < 1:
        raise ValueError(f"digit index must be positive, got {i}")
    return (f.numerator * base**i // f.denominator) % base


# digits_prefix converts leaves of at most this many digits one by one
_LEAF_DIGITS = 64


def digits_prefix(x: Rational, base: int, n: int) -> DigitWord:
    """The first n digits of x in the given base, exactly as long division gives them.

    N = floor(num * base**n / den) holds the n digits; one big division
    forms it, and a divide-and-conquer radix conversion (Brent &
    Zimmermann, *Modern Computer Arithmetic*, section 1.7) splits it by
    base**(2**k) into halves down to leaves of at most 64 digits.
    CPython 3.11 divides big integers by schoolbook, so the cost grows
    about as n**1.6 in practice; it is not asymptotically subquadratic.
    """
    f = as_unit(x)
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if n < 0:
        raise ValueError(f"prefix length must be nonnegative, got {n}")
    return DigitWord(base, tuple(_expansion(f.numerator, f.denominator, base, n)[0]))


def _expansion(num: int, den: int, base: int, n: int) -> tuple[list[int], int]:
    """digits_prefix's digits of num/den (0 <= num < den), and num * base**n mod den."""
    powers = [base]  # powers[k] = base**(2**k), for every 2**k < n
    while 1 << len(powers) < n:
        powers.append(powers[-1] * powers[-1])
    digits: list[int] = []

    def convert(value: int, width: int) -> None:
        # append value's base digits, zero-padded to width
        if width <= _LEAF_DIGITS:
            leaf = [0] * width
            for i in range(width - 1, -1, -1):
                value, leaf[i] = divmod(value, base)
            digits.extend(leaf)
            return
        k = (width - 1).bit_length() - 1  # 2**k < width <= 2**(k+1)
        high, low = divmod(value, powers[k])
        convert(high, width - (1 << k))
        convert(low, 1 << k)

    quotient, remainder = divmod(num * base**n, den)
    convert(quotient, n)
    return digits, remainder


RESIDUE_CHUNK = 1 << 14


def orbit_residues(num: int, den: int, base: int, n: int) -> Iterator[np.ndarray]:
    """Yield r_j = num * base**(j-1) mod den for j = 1..n as int64 chunks.

    Each chunk of RESIDUE_CHUNK residues is one running remainder times a
    table of base powers mod den, so den must stay below 2**31 for the
    products to fit in int64.
    """
    if not 0 < den < (1 << 31):
        raise ValueError(f"denominator {den} outside the int64 residue range")
    chunk = min(RESIDUE_CHUNK, max(n, 1))
    powers = np.empty(chunk, dtype=np.int64)
    acc = 1
    for i in range(chunk):
        powers[i] = acc
        acc = (acc * base) % den
    step = pow(base, chunk, den)
    start = num % den
    for done in range(0, n, chunk):
        yield (start * powers[: min(chunk, n - done)]) % den
        start = (start * step) % den


@dataclass(frozen=True)
class CylinderInterval:
    """Half-open interval [low, low + width) of reals sharing a digit prefix."""

    word: DigitWord
    low: Fraction
    width: Fraction

    @classmethod
    def of(cls, word: DigitWord) -> "CylinderInterval":
        return cls(word, value_of_word(word), Fraction(1, word.base ** len(word)))


def in_cylinder(x: Rational, w: DigitWord) -> bool:
    """Whether x's expansion starts with w (exact interval membership)."""
    f = as_unit(x)
    cyl = CylinderInterval.of(w)
    return cyl.low <= f < cyl.low + cyl.width


def frac_of_scaled(x: Rational, t: int, u: int, j: int) -> float:
    """Fractional part of t * u^j * x, reduced exactly before the final division.

    The reduction (t * u^j * num) mod den runs in integer arithmetic with a
    modular power, so only the closing division rounds.
    """
    f = as_unit(x)
    if u < 2:
        raise ValueError(f"scale base must be at least 2, got {u}")
    if j < 0:
        raise ValueError(f"exponent must be nonnegative, got {j}")
    den = f.denominator
    r = (t * pow(u, j, den) * f.numerator) % den
    return r / den


_TOKENS_PER_LINE = 64


def write_digit_file(path: Union[str, os.PathLike], word: DigitWord) -> None:
    """Write a digit file: ``base=<b>`` then whitespace-separated digit tokens."""
    lines = [f"base={word.base}"]
    for i in range(0, len(word), _TOKENS_PER_LINE):
        lines.append(" ".join(map(str, word.digits[i : i + _TOKENS_PER_LINE])))
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path: Union[str, os.PathLike], text: str) -> None:
    """Replace path's contents with text; readers never see a half-written file.

    The text goes to a temporary file in the same directory, which then
    replaces path in one rename; on any failure the temporary file is
    removed and path keeps its old contents.  Newlines are written as given.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# read_digit_file's byte path takes ASCII digits and these separators, on
# which bytes.split() and str.split() agree; 0x1c-0x1f, on which only
# str.split() splits, go to the token path
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[list(b" \t\n\r\x0b\x0c")] = True
_ASCII_DIGIT = np.zeros(256, dtype=bool)
_ASCII_DIGIT[list(b"0123456789")] = True


def read_digit_file(path: Union[str, os.PathLike]) -> DigitWord:
    """Parse a digit file written by :func:`write_digit_file`.

    The file is UTF-8 text: a ``base=<b>`` line ending at the first
    ``\\n``, ``\\r`` or ``\\r\\n``, then whitespace-separated integer
    tokens.  A body made only of ASCII whitespace and single ASCII digits
    is read in one numpy pass over its bytes; any other body is split and
    parsed token by token with ``int()``.  Both accept the same files and
    give the same digits.  Raises ``ValueError`` on a bad header, a token
    that is not an integer, or a digit outside ``0..b-1``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # the header line ends where universal newlines would end it
    cut = min((i for i in (data.find(b"\n"), data.find(b"\r")) if i >= 0), default=len(data))
    header = data[:cut].decode("utf-8").strip()
    if not header.startswith("base="):
        raise ValueError(f"{path}: first line must be 'base=<b>', got {header!r}")
    try:
        base = int(header[len("base=") :])
    except ValueError:
        raise ValueError(f"{path}: malformed base declaration {header!r}") from None
    body = np.frombuffer(data, dtype=np.uint8, offset=cut)
    is_digit = _ASCII_DIGIT[body]
    if (is_digit | _ASCII_SPACE[body]).all() and not (is_digit[1:] & is_digit[:-1]).any():
        return DigitWord(base, tuple((body[is_digit] - 48).tolist()))
    try:
        digits = tuple(int(tok) for tok in data[cut:].decode("utf-8").split())
    except ValueError:  # UnicodeDecodeError included
        raise ValueError(f"{path}: non-integer digit token") from None
    return DigitWord(base, digits)
