"""Balanced-ternary codec between 32-bit fixed-point samples and digit words.

A digit word is one row of an int8 array, most significant digit first.
Every integer t with |t| <= m = (3**n - 1) // 2 has exactly one n-digit
representation with digits drawn from {-1, 0, +1}; the codec is an exact
bijection on that range.

The codec works on groups of five digits. The balanced digits of t are
the base-3 digits of t + m, minus 1 (Knuth, TAOCP vol. 2, §4.1). The encoder
pads the word with leading zeros to whole groups, takes one base-243
remainder of t + m_pad per group (m_pad the padded word's full scale) and
looks its five digits up in :data:`GROUP_DIGITS`. :func:`group_codes` maps
digit words back to the same codes, one per group, which is what the
converter's output and rail-current tables are indexed by.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import FileFormatError, RangeError

#: 32-bit signed fixed-point sample limits. Positive full scale maps onto the
#: positive ternary full scale exactly; -2**31 is clamped (and flagged).
SAMPLE_FULL_SCALE = 2**31 - 1
SAMPLE_MIN = -(2**31)

DEFAULT_N_DIGITS = 20

#: Most digits the array codec handles: its values are int64, and
#: (3**40 - 1) // 2 < 2**63 <= (3**41 - 1) // 2.
MAX_ARRAY_DIGITS = 40

#: Digits per group of the array codec; a group's code is one base-243 digit.
GROUP_SIZE = 5
GROUP_CODES = 3**GROUP_SIZE
#: Balanced digits of group code c, most significant first: the base-3 digits
#: of c, minus 1. Code GROUP_CODES // 2 is the all-zero group.
GROUP_DIGITS = (
    np.arange(GROUP_CODES)[:, None] // 3 ** np.arange(GROUP_SIZE - 1, -1, -1) % 3 - 1
).astype(np.int8)
GROUP_DIGITS.setflags(write=False)


def ternary_full_scale(n_digits: int) -> int:
    """Largest magnitude representable with ``n_digits`` balanced-ternary digits."""
    if n_digits < 1:
        raise RangeError("n_digits must be >= 1")
    return (3**n_digits - 1) // 2


def _array_full_scale(n_digits: int) -> int:
    if n_digits > MAX_ARRAY_DIGITS:
        raise RangeError(
            f"{n_digits} digits exceed the int64 array codec (at most {MAX_ARRAY_DIGITS})"
        )
    return ternary_full_scale(n_digits)


@dataclass(frozen=True)
class DigitVector:
    """One validated digit word, index 0 = most significant.

    The reference paths of :class:`~ternadac.dac.Dac` take any 1-D digit
    sequence; this wrapper is one such sequence.
    """

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digits) < 1:
            raise RangeError("digit vector must contain at least one digit")
        for d in self.digits:
            if d not in (-1, 0, 1):
                raise RangeError(f"digit {d!r} is not -1, 0 or +1")

    def __len__(self) -> int:
        return len(self.digits)

    def __getitem__(self, k: int) -> int:
        return self.digits[k]

    @classmethod
    def from_array(cls, row: Iterable[int]) -> "DigitVector":
        return cls(tuple(int(d) for d in row))


def scale_samples(samples: Iterable[int], n_digits: int = DEFAULT_N_DIGITS) -> tuple[np.ndarray, int]:
    """Map 32-bit samples onto the ternary range of ``n_digits`` digits, exact in int64.

    Positive full scale (2**31 - 1) maps exactly onto +(3**n - 1)/2; rounding
    is to nearest with ties away from zero, which keeps the mapping odd
    symmetric. Results outside the range are clamped and counted rather than
    raised. Supports ``n_digits`` up to :data:`MAX_ARRAY_DIGITS`; more raise
    RangeError.

    Returns:
        (int64 array of ternary values, number of clamped samples)
    """
    m = _array_full_scale(n_digits)
    s = np.asarray(samples, dtype=np.int64)
    if s.size and (s.min() < SAMPLE_MIN or s.max() > SAMPLE_FULL_SCALE):
        raise RangeError("stream contains values outside the 32-bit signed range")
    # |s| * m can overflow int64, so split m = hi * F + lo with lo < F:
    # round(|s| * m / F) = |s| * hi + round(|s| * lo / F), each term in range.
    hi, lo = divmod(m, SAMPLE_FULL_SCALE)
    a = np.abs(s)
    t = a * hi + (2 * a * lo + SAMPLE_FULL_SCALE) // (2 * SAMPLE_FULL_SCALE)
    t = np.where(s >= 0, t, -t)
    clamped = int(np.count_nonzero((t < -m) | (t > m)))
    return np.clip(t, -m, m), clamped


def _checked_digits(digits) -> np.ndarray:
    """Digit words as int8; RangeError unless 2-D integers in {-1, 0, +1}."""
    digits = np.asarray(digits)
    if digits.ndim != 2 or digits.dtype.kind not in "biu":
        raise RangeError(
            f"digits must be a 2-D integer array (count, n_digits), got {digits.dtype} "
            f"of shape {digits.shape}"
        )
    if digits.size and (digits.min() < -1 or digits.max() > 1):
        raise RangeError("digit array holds values other than -1, 0 and +1")
    return digits.astype(np.int8, copy=False)


def group_count(n_digits: int) -> int:
    """Five-digit groups of an n-digit word, the top one possibly partial."""
    return -(-n_digits // GROUP_SIZE)


def to_balanced_ternary_array(values: Iterable[int], n_digits: int = DEFAULT_N_DIGITS) -> np.ndarray:
    """Vectorised encoder; returns an int8 array of shape (len(values), n_digits).

    One divmod by 243 per five digits of t + m_pad, held as uint64
    (3**40 - 1 < 2**64), then one gather from :data:`GROUP_DIGITS`. m_pad is
    the full scale of the word padded to whole groups, so the remainders are
    the :func:`group_codes` of the result.
    """
    t = np.asarray(values, dtype=np.int64).reshape(-1)
    m = _array_full_scale(n_digits)
    if t.size and (t.min() < -m or t.max() > m):
        raise RangeError(f"values outside [-{m}, +{m}] for {n_digits} digits")
    groups = group_count(n_digits)
    m_pad = (GROUP_CODES**groups - 1) // 2
    # Wrapping int64 -> uint64 and adding m_pad modulo 2**64 gives t + m_pad exactly.
    rest = t.astype(np.uint64) + np.uint64(m_pad)
    codes = np.empty((t.size, groups), dtype=np.intp)
    for j in range(groups - 1, 0, -1):
        rest, codes[:, j] = np.divmod(rest, np.uint64(GROUP_CODES))
    codes[:, 0] = rest
    digits = GROUP_DIGITS[codes].reshape(t.size, groups * GROUP_SIZE)
    return np.ascontiguousarray(digits[:, digits.shape[1] - n_digits :])


def group_codes(digits: np.ndarray) -> np.ndarray:
    """Base-243 code of every five-digit group of digit words (count, n_digits).

    Returns an intp array of shape (count, ceil(n_digits / 5)), most
    significant group first. The top group holds n_digits % 5 digits when that
    is not 0 and reads as if padded with leading zeros, so
    ``GROUP_DIGITS[code]`` is a group's digits, padding included. Raises
    RangeError unless ``digits`` is a 2-D integer array of digits -1, 0 and +1.
    """
    digits = _checked_digits(digits)
    count, n = digits.shape
    groups = group_count(n)
    codes = np.empty((groups, count), dtype=np.intp)
    stop = n
    for j in range(groups - 1, -1, -1):
        start = max(stop - GROUP_SIZE, 0)
        code = codes[j]
        code[:] = digits[:, start]
        for k in range(start + 1, stop):
            code *= 3
            code += digits[:, k]
        code += GROUP_CODES // 2  # a group's code is its value plus 121
        stop = start
    return codes.T


def encode_stream(stream: Iterable[int], n_digits: int = DEFAULT_N_DIGITS) -> tuple[np.ndarray, int]:
    """Scale a 32-bit sample stream and encode it: the one scale -> encode path.

    Returns:
        (int8 digit array of shape (len(stream), n_digits), number of clamped samples)
    """
    values, clamped = scale_samples(stream, n_digits)
    return to_balanced_ternary_array(values, n_digits), clamped


def from_balanced_ternary_array(digits: np.ndarray) -> np.ndarray:
    """Vectorised decoder for an array of shape (count, n_digits)."""
    digits = np.asarray(digits, dtype=np.int64)
    n = digits.shape[1]
    _array_full_scale(n)
    powers = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return digits @ powers


def leading_zero_count_array(digits: np.ndarray) -> np.ndarray:
    """Per-row leading-zero counts for an array of shape (count, n_digits)."""
    digits = np.asarray(digits)
    nonzero = digits != 0
    first = nonzero.argmax(axis=1)
    return np.where(nonzero.any(axis=1), first, digits.shape[1])


# --- digit dump file format -------------------------------------------------
#
# One line per sample, n_digits characters from {+, 0, -}, most significant
# first. Written by `ternadac encode`, readable by `ternadac simulate`.

#: Dump character of digit d is _DUMP_CHARS[d + 1].
_DUMP_CHARS = np.frombuffer(b"-0+", dtype=np.uint8)
#: Digit of dump byte c is _DUMP_DIGITS[c]; _NOT_A_DIGIT marks every other byte.
_NOT_A_DIGIT = 2
_DUMP_DIGITS = np.full(256, _NOT_A_DIGIT, dtype=np.int8)
_DUMP_DIGITS[_DUMP_CHARS] = (-1, 0, 1)


@contextmanager
def replacing(path) -> Iterator[str]:
    """Temporary name beside ``path``, moved onto it on success and removed on failure."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_digit_dump(path, digits: np.ndarray, header_lines: Iterable[str] = ()) -> None:
    """Write an array of shape (count, n_digits) in the textual dump format.

    Raises RangeError unless ``digits`` is 2-D with every digit in {-1, 0, +1},
    and FileFormatError, leaving ``path`` as it was, when the file cannot be written.
    """
    digits = _checked_digits(digits)
    count, n = digits.shape
    block = np.empty((count, n + 1), dtype=np.uint8)
    block[:, :n] = _DUMP_CHARS[digits + 1]
    block[:, n] = ord("\n")
    header = "".join(line if line.endswith("\n") else line + "\n" for line in header_lines)
    try:
        head = header.encode("ascii")
        with replacing(path) as tmp, open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(block.data)
    except (OSError, UnicodeEncodeError) as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def read_digit_dump(path, n_digits: int | None = None) -> np.ndarray:
    """Read a digit dump back into an int8 array of shape (count, n_digits).

    Surrounding whitespace is stripped from each line, any line ending is
    accepted, and blank lines and lines starting with '#' are ignored.
    Raises FileFormatError when the file cannot be read as ASCII, and with the
    offending line number on malformed content.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    lines = list(map(str.strip, text.split("\n")))
    kept = [k for k, line in enumerate(lines) if line and line[0] != "#"]
    if not kept:
        width = n_digits if n_digits is not None else 0
        return np.empty((0, width), dtype=np.int8)
    rows = list(map(lines.__getitem__, kept))
    count = len(rows)
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=count)
    body = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    digits = _DUMP_DIGITS[body]

    # Report the first faulty row; within a row a bad character comes before
    # a bad width, as when the file is checked line by line.
    bad_chars = np.flatnonzero(digits == _NOT_A_DIGIT)
    char_row = count
    if bad_chars.size:
        char_row = int(np.searchsorted(np.cumsum(widths), bad_chars[0], side="right"))
    width = n_digits if n_digits is not None else int(widths[0])
    wrong_widths = np.flatnonzero(widths != width)
    width_row = int(wrong_widths[0]) if wrong_widths.size else count
    if char_row < count and char_row <= width_row:
        char = chr(body[bad_chars[0]])
        raise FileFormatError(f"{path}:{kept[char_row] + 1}: invalid digit character {char!r}")
    if width_row < count:
        found = int(widths[width_row])
        if n_digits is not None:
            problem = f"expected {n_digits} digits, found {found}"
        else:
            problem = f"inconsistent digit count {found} != {width}"
        raise FileFormatError(f"{path}:{kept[width_row] + 1}: {problem}")
    return digits.reshape(count, width)
