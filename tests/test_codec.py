from __future__ import annotations

import numpy as np
import pytest

from ternadac import codec
from ternadac.errors import FileFormatError, RangeError

from oracles import scale_oracle

FULL_SCALE_20 = (3**20 - 1) // 2  # 1_743_392_200, by integer arithmetic


# --- scale_sample -------------------------------------------------------


def test_scale_zero_maps_to_zero():
    assert codec.scale_sample(0, 20) == (0, False)


def test_scale_positive_full_scale_is_exact():
    assert codec.scale_sample(2**31 - 1, 20) == (FULL_SCALE_20, False)
    assert codec.scale_sample(-(2**31 - 1), 20) == (-FULL_SCALE_20, False)


def test_scale_most_negative_sample_clamps():
    value, clamped = codec.scale_sample(-(2**31), 20)
    assert value == -FULL_SCALE_20
    assert clamped


def test_scale_matches_exact_rational_oracle():
    rng = np.random.default_rng(7)
    samples = list(rng.integers(-(2**31), 2**31, size=2000))
    samples += [0, 1, -1, 2**31 - 1, -(2**31 - 1), -(2**31), 12345, -987654321]
    for x in samples:
        assert codec.scale_sample(int(x), 20) == scale_oracle(int(x), 20)
    for x in samples:
        assert codec.scale_sample(int(x), 8) == scale_oracle(int(x), 8)


def test_scale_negation_symmetry():
    rng = np.random.default_rng(8)
    for x in rng.integers(-(2**31) + 1, 2**31, size=500):
        t_pos, _ = codec.scale_sample(int(x), 20)
        t_neg, _ = codec.scale_sample(-int(x), 20)
        assert t_neg == -t_pos


def test_scale_quantization_error_bound():
    # |t - x*m/(2^31-1)| <= 1/2, checked in exact integers.
    rng = np.random.default_rng(9)
    m = codec.ternary_full_scale(20)
    den = 2**31 - 1
    for x in rng.integers(-(2**31) + 1, 2**31, size=2000):
        t, clamped = codec.scale_sample(int(x), 20)
        assert not clamped
        assert 2 * abs(t * den - int(x) * m) <= den


def test_scale_samples_matches_scalar():
    rng = np.random.default_rng(10)
    samples = rng.integers(-(2**31), 2**31, size=300)
    values, clamp_count = codec.scale_samples(samples, 20)
    expected = [codec.scale_sample(int(x), 20) for x in samples]
    assert list(values) == [t for t, _ in expected]
    assert clamp_count == sum(c for _, c in expected)


@pytest.mark.parametrize("n", [21, 30, codec.MAX_ARRAY_DIGITS])
def test_scale_samples_wide_records_match_oracle(n):
    rng = np.random.default_rng(n)
    edges = [-(2**31), 2**31 - 1, 1, -1]
    samples = np.concatenate([rng.integers(-(2**31), 2**31, size=200), edges])
    values, clamp_count = codec.scale_samples(samples, n)
    expected = [scale_oracle(int(x), n) for x in samples]
    assert [int(t) for t in values] == [t for t, _ in expected]
    assert clamp_count == sum(c for _, c in expected)
    digits = codec.to_balanced_ternary_array(values, n)
    assert np.array_equal(codec.from_balanced_ternary_array(digits), values)


def test_array_codec_rejects_digits_beyond_int64():
    n = codec.MAX_ARRAY_DIGITS + 1
    with pytest.raises(RangeError, match="at most 40"):
        codec.scale_samples([0, 1], n)
    with pytest.raises(RangeError):
        codec.to_balanced_ternary_array([0, 1], n)
    with pytest.raises(RangeError):
        codec.from_balanced_ternary_array(np.zeros((1, n), dtype=np.int8))


def test_scale_rejects_non_32bit_samples():
    with pytest.raises(RangeError):
        codec.scale_sample(2**31, 20)
    with pytest.raises(RangeError):
        codec.scale_samples([0, 2**31], 20)


# --- balanced ternary conversion -----------------------------------------


def test_to_ternary_zero_is_all_zeros():
    assert codec.to_balanced_ternary(0, 20).digits == (0,) * 20


def test_to_ternary_hand_example():
    # 9 - 3 - 1 = 5
    assert codec.to_balanced_ternary(5, 3).digits == (1, -1, -1)


def test_to_ternary_power_of_three():
    # Exactly one +1, at the position whose weight is the encoded power of 3.
    assert codec.to_balanced_ternary(3**19, 20).digits == (1,) + (0,) * 19
    assert codec.to_balanced_ternary(3**18, 20).digits == (0, 1) + (0,) * 18


def test_to_ternary_out_of_range():
    m = codec.ternary_full_scale(4)
    codec.to_balanced_ternary(m, 4)
    with pytest.raises(RangeError):
        codec.to_balanced_ternary(m + 1, 4)
    with pytest.raises(RangeError):
        codec.to_balanced_ternary(-m - 1, 4)


def test_from_ternary_all_plus_is_geometric_sum():
    d = codec.DigitVector((1,) * 20)
    expected = sum(3**k for k in range(20))  # independent digit sum
    assert codec.from_balanced_ternary(d) == expected == FULL_SCALE_20


def test_from_ternary_negation_linearity():
    rng = np.random.default_rng(11)
    m = codec.ternary_full_scale(12)
    for t in rng.integers(-m, m + 1, size=200):
        d = codec.to_balanced_ternary(int(t), 12)
        assert codec.from_balanced_ternary(-d) == -codec.from_balanced_ternary(d)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_round_trip_exhaustive(n):
    m = codec.ternary_full_scale(n)
    seen = set()
    for t in range(-m, m + 1):
        d = codec.to_balanced_ternary(t, n)
        assert codec.from_balanced_ternary(d) == t
        seen.add(d.digits)
    assert len(seen) == 3**n  # bijection over the full range


def test_round_trip_random_full_width():
    rng = np.random.default_rng(12)
    m = codec.ternary_full_scale(20)
    for t in rng.integers(-m, m + 1, size=1000):
        assert codec.from_balanced_ternary(codec.to_balanced_ternary(int(t), 20)) == int(t)


def test_array_codec_matches_scalar():
    rng = np.random.default_rng(13)
    m = codec.ternary_full_scale(20)
    values = rng.integers(-m, m + 1, size=400)
    digits = codec.to_balanced_ternary_array(values, 20)
    for row, t in zip(digits, values):
        assert tuple(int(d) for d in row) == codec.to_balanced_ternary(int(t), 20).digits
    back = codec.from_balanced_ternary_array(digits)
    assert np.array_equal(back, values)


def test_encode_monotone_identity():
    # Order preservation: decode(encode(t)) is the identity, checked exhaustively.
    m = codec.ternary_full_scale(6)
    values = np.arange(-m, m + 1)
    back = codec.from_balanced_ternary_array(codec.to_balanced_ternary_array(values, 6))
    assert np.array_equal(back, values)


# --- leading zeros --------------------------------------------------------


def test_leading_zero_basics():
    assert codec.leading_zero_count(codec.DigitVector((0,) * 20)) == 20
    assert codec.leading_zero_count(codec.DigitVector((0, 1) + (0,) * 18)) == 1
    assert codec.leading_zero_count(codec.DigitVector((1,) + (0,) * 19)) == 0


def test_leading_zero_bound_exhaustive_n8():
    # |t| <= (3^m - 1)/2 guarantees at least n - m leading zeros.
    n = 8
    for t in range(-codec.ternary_full_scale(n), codec.ternary_full_scale(n) + 1):
        count = codec.leading_zero_count(codec.to_balanced_ternary(t, n))
        for m in range(1, n + 1):
            if abs(t) <= codec.ternary_full_scale(m):
                assert count >= n - m
                break


def test_leading_zero_array_matches_scalar():
    rng = np.random.default_rng(14)
    m = codec.ternary_full_scale(10)
    values = np.concatenate([[0], rng.integers(-m, m + 1, size=100)])
    digits = codec.to_balanced_ternary_array(values, 10)
    counts = codec.leading_zero_count_array(digits)
    for row, count in zip(digits, counts):
        assert count == codec.leading_zero_count(codec.DigitVector.from_array(row))


# --- differential split ----------------------------------------------------


def test_split_all_zero_is_all_ground():
    states = codec.split_differential(codec.DigitVector((0,) * 20))
    assert all(s is codec.Switch.GND for s in states.upper)
    assert all(s is codec.Switch.GND for s in states.lower)


def test_split_rule():
    states = codec.split_differential(codec.DigitVector((1, -1)))
    assert states.upper == (codec.Switch.HIGH, codec.Switch.GND)
    assert states.lower == (codec.Switch.GND, codec.Switch.HIGH)


def test_split_negation_swaps_halves():
    rng = np.random.default_rng(15)
    for _ in range(50):
        d = codec.DigitVector(tuple(int(x) for x in rng.integers(-1, 2, size=20)))
        a = codec.split_differential(d)
        b = codec.split_differential(-d)
        assert a.upper == b.lower
        assert a.lower == b.upper


def test_switch_states_reject_double_high():
    with pytest.raises(RangeError):
        codec.SwitchStates(upper=(codec.Switch.HIGH,), lower=(codec.Switch.HIGH,))


# --- digit vector / dump format ---------------------------------------------


def test_digit_vector_validation():
    with pytest.raises(RangeError):
        codec.DigitVector((0, 2, 0))
    with pytest.raises(RangeError):
        codec.DigitVector(())


def test_digit_vector_string_round_trip():
    d = codec.to_balanced_ternary(5, 3)
    assert d.to_string() == "+--"
    assert codec.DigitVector.from_string("+--") == d
    with pytest.raises(FileFormatError):
        codec.DigitVector.from_string("+x-")


def test_digit_dump_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    m = codec.ternary_full_scale(20)
    digits = codec.to_balanced_ternary_array(rng.integers(-m, m + 1, size=50), 20)
    path = tmp_path / "digits.txt"
    codec.write_digit_dump(path, digits, header_lines=["# test dump"])
    back = codec.read_digit_dump(path, 20)
    assert np.array_equal(back, digits)


def test_digit_dump_reports_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+0-\n+0x\n", encoding="ascii")
    with pytest.raises(FileFormatError, match=":2:"):
        codec.read_digit_dump(path)


def test_digit_dump_reports_wrong_width(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+0-\n+0\n", encoding="ascii")
    with pytest.raises(FileFormatError, match=":2:"):
        codec.read_digit_dump(path, 3)
