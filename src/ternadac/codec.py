"""Balanced-ternary codec between 32-bit fixed-point samples and digit vectors.

Digit vectors are ordered most-significant first. Every integer t with
|t| <= (3**n - 1) // 2 has exactly one n-digit representation with digits
drawn from {-1, 0, +1}; the codec is an exact bijection on that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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

#: A ternary value is a plain integer in [-(3**n - 1)/2, +(3**n - 1)/2].
TernaryValue = int

_DIGIT_TO_CHAR = {1: "+", 0: "0", -1: "-"}
_CHAR_TO_DIGIT = {"+": 1, "0": 0, "-": -1}


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
    """Ordered balanced-ternary digits, index 0 = most significant."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digits) < 1:
            raise RangeError("digit vector must contain at least one digit")
        for d in self.digits:
            if d not in (-1, 0, 1):
                raise RangeError(f"digit {d!r} is not -1, 0 or +1")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, k: int) -> int:
        return self.digits[k]

    def __neg__(self) -> "DigitVector":
        return DigitVector(tuple(-d for d in self.digits))

    def to_string(self) -> str:
        """Render as one character per digit from {+, 0, -}."""
        return "".join(_DIGIT_TO_CHAR[d] for d in self.digits)

    @classmethod
    def from_string(cls, text: str) -> "DigitVector":
        try:
            return cls(tuple(_CHAR_TO_DIGIT[c] for c in text))
        except KeyError as exc:
            raise FileFormatError(f"invalid digit character {exc.args[0]!r}") from None

    @classmethod
    def from_array(cls, row: Iterable[int]) -> "DigitVector":
        return cls(tuple(int(d) for d in row))


class Switch(Enum):
    """State of one SPDT switch: reference rail or ground."""

    GND = 0
    HIGH = 1


@dataclass(frozen=True)
class SwitchStates:
    """Per-stage switch states of the two differential half ladders."""

    upper: tuple[Switch, ...]
    lower: tuple[Switch, ...]

    def __post_init__(self) -> None:
        if len(self.upper) != len(self.lower):
            raise RangeError("upper and lower switch lists must have equal length")
        for u, l in zip(self.upper, self.lower):
            if u is Switch.HIGH and l is Switch.HIGH:
                raise RangeError("upper and lower switches must never be HIGH together")


def _round_half_away(num: int, den: int) -> int:
    # den > 0; exact integer round-to-nearest, ties away from zero.
    q = (2 * abs(num) + den) // (2 * den)
    return q if num >= 0 else -q


def scale_sample(sample: int, n_digits: int = DEFAULT_N_DIGITS) -> tuple[int, bool]:
    """Map a 32-bit sample onto the ternary range of ``n_digits`` digits.

    Positive full scale (2**31 - 1) maps exactly onto +(3**n - 1)/2; rounding
    is to nearest with ties away from zero, which keeps the mapping odd
    symmetric. Results outside the range are clamped, reported by the flag
    rather than raised.

    Returns:
        (value, clamped)
    """
    if not SAMPLE_MIN <= sample <= SAMPLE_FULL_SCALE:
        raise RangeError(f"sample {sample} is not a 32-bit signed integer")
    m = ternary_full_scale(n_digits)
    t = _round_half_away(sample * m, SAMPLE_FULL_SCALE)
    if t < -m:
        return -m, True
    if t > m:
        return m, True
    return t, False


def scale_samples(samples: Iterable[int], n_digits: int = DEFAULT_N_DIGITS) -> tuple[np.ndarray, int]:
    """Vectorised :func:`scale_sample` over a stream, exact in int64.

    Supports ``n_digits`` up to :data:`MAX_ARRAY_DIGITS`; more raise RangeError.

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


def to_balanced_ternary(t: int, n_digits: int = DEFAULT_N_DIGITS) -> DigitVector:
    """Convert an in-range integer to its unique balanced-ternary digit vector.

    Sequential algorithm: repeated division by 3 with the remainder 2 remapped
    to digit -1 plus a carry into the next position.
    """
    m = ternary_full_scale(n_digits)
    t = int(t)
    if not -m <= t <= m:
        raise RangeError(f"value {t} outside [-{m}, +{m}] for {n_digits} digits")
    out = [0] * n_digits
    for k in range(n_digits - 1, -1, -1):
        r = t % 3
        d = -1 if r == 2 else r
        out[k] = d
        t = (t - d) // 3
    return DigitVector(tuple(out))


def to_balanced_ternary_array(values: Iterable[int], n_digits: int = DEFAULT_N_DIGITS) -> np.ndarray:
    """Vectorised encoder; returns an int8 array of shape (len(values), n_digits)."""
    t = np.asarray(values, dtype=np.int64).copy()
    m = _array_full_scale(n_digits)
    if t.size and (t.min() < -m or t.max() > m):
        raise RangeError(f"values outside [-{m}, +{m}] for {n_digits} digits")
    digits = np.empty((t.size, n_digits), dtype=np.int8)
    for k in range(n_digits - 1, -1, -1):
        r = t % 3
        d = np.where(r == 2, -1, r)
        digits[:, k] = d
        t = (t - d) // 3
    return digits


def from_balanced_ternary(d: DigitVector) -> int:
    """Exact digit-weighted sum; inverse of :func:`to_balanced_ternary`."""
    n = len(d)
    return sum(dk * 3 ** (n - 1 - k) for k, dk in enumerate(d))


def from_balanced_ternary_array(digits: np.ndarray) -> np.ndarray:
    """Vectorised decoder for an array of shape (count, n_digits)."""
    digits = np.asarray(digits, dtype=np.int64)
    n = digits.shape[1]
    _array_full_scale(n)
    powers = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return digits @ powers


def leading_zero_count(d: DigitVector) -> int:
    """Number of consecutive zero digits starting at the most significant end."""
    count = 0
    for dk in d:
        if dk != 0:
            break
        count += 1
    return count


def leading_zero_count_array(digits: np.ndarray) -> np.ndarray:
    """Per-row leading-zero counts for an array of shape (count, n_digits)."""
    digits = np.asarray(digits)
    nonzero = digits != 0
    first = nonzero.argmax(axis=1)
    return np.where(nonzero.any(axis=1), first, digits.shape[1])


def split_differential(d: DigitVector) -> SwitchStates:
    """Map digits onto the two half ladders of the differential topology.

    +1 drives the upper switch HIGH, -1 drives the lower switch HIGH, 0 leaves
    both at ground, so the all-zero word draws no quiescent power.
    """
    upper = tuple(Switch.HIGH if dk == 1 else Switch.GND for dk in d)
    lower = tuple(Switch.HIGH if dk == -1 else Switch.GND for dk in d)
    return SwitchStates(upper=upper, lower=lower)


# --- digit dump file format -------------------------------------------------
#
# One line per sample, n_digits characters from {+, 0, -}, most significant
# first. Written by `ternadac encode`, readable by `ternadac simulate`.


def write_digit_dump(path, digits: np.ndarray, header_lines: Iterable[str] = ()) -> None:
    """Write an array of shape (count, n_digits) in the textual dump format."""
    digits = np.asarray(digits)
    lut = np.array(["-", "0", "+"])
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(line if line.endswith("\n") else line + "\n")
        for row in digits:
            fh.write("".join(lut[row + 1]) + "\n")


def read_digit_dump(path, n_digits: int | None = None) -> np.ndarray:
    """Read a digit dump back into an int8 array of shape (count, n_digits).

    Lines starting with '#' are ignored. Raises FileFormatError with the
    offending line number on malformed content.
    """
    rows: list[list[int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [_CHAR_TO_DIGIT[c] for c in line]
            except KeyError as exc:
                raise FileFormatError(
                    f"{path}:{lineno}: invalid digit character {exc.args[0]!r}"
                ) from None
            if n_digits is not None and len(row) != n_digits:
                raise FileFormatError(
                    f"{path}:{lineno}: expected {n_digits} digits, found {len(row)}"
                )
            if rows and len(row) != len(rows[0]):
                raise FileFormatError(
                    f"{path}:{lineno}: inconsistent digit count {len(row)} != {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        width = n_digits if n_digits is not None else 0
        return np.empty((0, width), dtype=np.int8)
    return np.array(rows, dtype=np.int8)
