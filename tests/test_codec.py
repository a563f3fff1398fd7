from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternadac import codec
from ternadac.errors import FileFormatError, RangeError

from oracles import (
    read_digit_dump_oracle,
    scale_oracle,
    to_balanced_ternary_array_oracle,
    write_digit_dump_oracle,
)

FULL_SCALE_20 = (3**20 - 1) // 2  # 1_743_392_200, by integer arithmetic


# --- scale_samples ------------------------------------------------------


def scaled(samples, n_digits=20):
    """(values as Python ints, clamp count) of :func:`codec.scale_samples`."""
    values, clamp_count = codec.scale_samples(np.array(samples, dtype=np.int64), n_digits)
    return values.tolist(), clamp_count


def test_scale_zero_maps_to_zero():
    assert scaled([0]) == ([0], 0)


def test_scale_positive_full_scale_is_exact():
    assert scaled([2**31 - 1, -(2**31 - 1)]) == ([FULL_SCALE_20, -FULL_SCALE_20], 0)


def test_scale_most_negative_sample_clamps():
    assert scaled([-(2**31)]) == ([-FULL_SCALE_20], 1)


def test_scale_matches_exact_rational_oracle():
    rng = np.random.default_rng(7)
    samples = list(rng.integers(-(2**31), 2**31, size=2000))
    samples += [0, 1, -1, 2**31 - 1, -(2**31 - 1), -(2**31), 12345, -987654321]
    for n in (20, 8):
        expected = [scale_oracle(int(x), n) for x in samples]
        assert scaled(samples, n) == ([t for t, _ in expected], sum(c for _, c in expected))


def test_scale_negation_symmetry():
    rng = np.random.default_rng(8)
    samples = rng.integers(-(2**31) + 1, 2**31, size=500)
    t_pos, _ = scaled(samples)
    t_neg, _ = scaled(-samples)
    assert t_neg == [-t for t in t_pos]


def test_scale_quantization_error_bound():
    # |t - x*m/(2^31-1)| <= 1/2, checked in exact integers.
    rng = np.random.default_rng(9)
    m = codec.ternary_full_scale(20)
    den = 2**31 - 1
    samples = rng.integers(-(2**31) + 1, 2**31, size=2000)
    values, clamp_count = scaled(samples)
    assert clamp_count == 0
    for x, t in zip(samples.tolist(), values):
        assert 2 * abs(t * den - x * m) <= den


def test_scale_samples_matches_scalar():
    # A stream scales sample by sample: no sample depends on its neighbours,
    # and the clamp count is the sum of the one-sample counts.
    rng = np.random.default_rng(10)
    samples = np.concatenate([rng.integers(-(2**31), 2**31, size=300), [-(2**31)] * 3])
    single = [scaled([x]) for x in samples.tolist()]
    assert scaled(samples) == ([v for (v,), _ in single], sum(c for _, c in single))


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


SAMPLES = st.lists(
    st.one_of(
        st.integers(codec.SAMPLE_MIN, codec.SAMPLE_FULL_SCALE),
        st.sampled_from([codec.SAMPLE_MIN, codec.SAMPLE_MIN + 1, -1, 0, 1, 2**31 - 1]),
    ),
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(samples=SAMPLES)
def test_encode_stream_matches_oracle_for_every_width(samples):
    for n in range(1, codec.MAX_ARRAY_DIGITS + 1):
        digits, clamp_count = codec.encode_stream(np.array(samples, dtype=np.int64), n)
        expected = [scale_oracle(x, n) for x in samples]
        assert digits.shape == (len(samples), n)
        values = [t for t, _ in expected]
        assert np.array_equal(digits, to_balanced_ternary_array_oracle(values, n))
        assert clamp_count == sum(c for _, c in expected)
        # Odd symmetry: negating every sample (-2**31 has no negation) negates every digit.
        mirror = [x for x in samples if x != codec.SAMPLE_MIN]
        pos, pos_clamped = codec.encode_stream(np.array(mirror, dtype=np.int64), n)
        neg, neg_clamped = codec.encode_stream(-np.array(mirror, dtype=np.int64), n)
        assert np.array_equal(neg, -pos)
        assert neg_clamped == pos_clamped == 0


def test_array_codec_rejects_digits_beyond_int64():
    n = codec.MAX_ARRAY_DIGITS + 1
    with pytest.raises(RangeError, match="at most 40"):
        codec.scale_samples([0, 1], n)
    with pytest.raises(RangeError):
        codec.to_balanced_ternary_array([0, 1], n)
    with pytest.raises(RangeError):
        codec.from_balanced_ternary_array(np.zeros((1, n), dtype=np.int8))


def test_scale_rejects_non_32bit_samples():
    for samples in ([2**31], [0, 2**31], [-(2**31) - 1]):
        with pytest.raises(RangeError):
            codec.scale_samples(samples, 20)


# --- balanced ternary conversion -----------------------------------------


def encoded(t, n):
    """Digits of the single value ``t`` as a tuple of Python ints."""
    return tuple(codec.to_balanced_ternary_array([t], n)[0].tolist())


def test_to_ternary_zero_is_all_zeros():
    assert encoded(0, 20) == (0,) * 20


def test_to_ternary_hand_example():
    # 9 - 3 - 1 = 5
    assert encoded(5, 3) == (1, -1, -1)


def test_to_ternary_power_of_three():
    # Exactly one +1, at the position whose weight is the encoded power of 3.
    assert encoded(3**19, 20) == (1,) + (0,) * 19
    assert encoded(3**18, 20) == (0, 1) + (0,) * 18


def test_to_ternary_out_of_range():
    m = codec.ternary_full_scale(4)
    assert encoded(m, 4) == (1,) * 4
    with pytest.raises(RangeError):
        codec.to_balanced_ternary_array([m + 1], 4)
    with pytest.raises(RangeError):
        codec.to_balanced_ternary_array([-m - 1], 4)


def test_from_ternary_all_plus_is_geometric_sum():
    expected = sum(3**k for k in range(20))  # independent digit sum
    decoded = codec.from_balanced_ternary_array(np.ones((1, 20), dtype=np.int8))
    assert decoded.tolist() == [expected] == [FULL_SCALE_20]


def test_from_ternary_negation_linearity():
    rng = np.random.default_rng(11)
    m = codec.ternary_full_scale(12)
    digits = codec.to_balanced_ternary_array(rng.integers(-m, m + 1, size=200), 12)
    values = codec.from_balanced_ternary_array(digits)
    assert np.array_equal(codec.from_balanced_ternary_array(-digits), -values)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_round_trip_exhaustive(n):
    m = codec.ternary_full_scale(n)
    values = np.arange(-m, m + 1)
    digits = codec.to_balanced_ternary_array(values, n)
    assert np.array_equal(digits, to_balanced_ternary_array_oracle(values, n))
    assert np.array_equal(codec.from_balanced_ternary_array(digits), values)
    assert len(np.unique(digits, axis=0)) == 3**n  # bijection over the full range


def test_round_trip_random_full_width():
    rng = np.random.default_rng(12)
    m = codec.ternary_full_scale(20)
    values = rng.integers(-m, m + 1, size=1000)
    digits = codec.to_balanced_ternary_array(values, 20)
    assert np.array_equal(codec.from_balanced_ternary_array(digits), values)


def test_array_codec_matches_scalar():
    # Against the oracle that encodes one digit position at a time.
    rng = np.random.default_rng(13)
    m = codec.ternary_full_scale(20)
    values = rng.integers(-m, m + 1, size=400)
    digits = codec.to_balanced_ternary_array(values, 20)
    assert np.array_equal(digits, to_balanced_ternary_array_oracle(values, 20))
    back = codec.from_balanced_ternary_array(digits)
    assert np.array_equal(back, values)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_group_encoder_matches_digit_loop_oracle(data):
    # Every width the array codec supports, with 0 and both full scales in
    # every draw: at 40 digits t + m reaches 3**40 - 1, beyond int64.
    for n in range(1, codec.MAX_ARRAY_DIGITS + 1):
        m = codec.ternary_full_scale(n)
        drawn = data.draw(st.lists(st.integers(-m, m), max_size=6), label=f"values{n}")
        values = np.array([0, m, -m, 1 - m, m - 1, *drawn], dtype=np.int64)
        digits = codec.to_balanced_ternary_array(values, n)
        assert digits.dtype == np.int8 and digits.flags.c_contiguous
        assert np.array_equal(digits, to_balanced_ternary_array_oracle(values, n))
        assert np.array_equal(codec.from_balanced_ternary_array(digits), values)


def test_group_encoder_uint64_edge():
    n = codec.MAX_ARRAY_DIGITS
    m = codec.ternary_full_scale(n)
    digits = codec.to_balanced_ternary_array(np.array([m, -m, 0]), n)
    assert np.array_equal(digits, np.array([[1] * n, [-1] * n, [0] * n], dtype=np.int8))
    with pytest.raises(RangeError):
        codec.to_balanced_ternary_array([m + 1], n)
    with pytest.raises(RangeError):
        codec.to_balanced_ternary_array([-m - 1], n)


@pytest.mark.parametrize("n", [1, 4, 5, 6, 11, 20, codec.MAX_ARRAY_DIGITS])
def test_group_codes_index_the_group_digit_table(n):
    rng = np.random.default_rng(n)
    words = rng.integers(-1, 2, size=(60, n)).astype(np.int8)
    codes = codec.group_codes(words)
    groups = -(-n // 5)
    assert codes.shape == (60, groups)
    # The top group reads as if padded with leading zeros.
    padded = codec.GROUP_DIGITS[codes].reshape(60, 5 * groups)
    assert np.array_equal(padded[:, : 5 * groups - n], np.zeros((60, 5 * groups - n)))
    assert np.array_equal(padded[:, 5 * groups - n :], words)
    # A code is its group's balanced value plus 121, so all-zero groups are 121.
    zero = codec.group_codes(np.zeros((1, n), dtype=np.int8))
    assert zero.tolist() == [[codec.GROUP_CODES // 2] * groups]


def test_group_codes_reject_non_digits():
    with pytest.raises(RangeError):
        codec.group_codes(np.array([[0, 2, 1]], dtype=np.int8))
    with pytest.raises(RangeError):
        codec.group_codes(np.array([0, 1, -1], dtype=np.int8))
    with pytest.raises(RangeError):
        codec.group_codes(np.zeros((2, 3)))


def test_encode_monotone_identity():
    # Order preservation: decode(encode(t)) is the identity, checked exhaustively.
    m = codec.ternary_full_scale(6)
    values = np.arange(-m, m + 1)
    back = codec.from_balanced_ternary_array(codec.to_balanced_ternary_array(values, 6))
    assert np.array_equal(back, values)


# --- leading zeros --------------------------------------------------------


def test_leading_zero_basics():
    words = np.array([(0,) * 20, (0, 1) + (0,) * 18, (1,) + (0,) * 19, (0, 0, -1) + (0,) * 17])
    assert codec.leading_zero_count_array(words).tolist() == [20, 1, 0, 2]


def test_leading_zero_bound_exhaustive_n8():
    # |t| <= (3^m - 1)/2 guarantees at least n - m leading zeros.
    n = 8
    t = np.arange(-codec.ternary_full_scale(n), codec.ternary_full_scale(n) + 1)
    counts = codec.leading_zero_count_array(codec.to_balanced_ternary_array(t, n))
    for m in range(1, n + 1):
        fits = np.abs(t) <= codec.ternary_full_scale(m)
        assert (counts[fits] >= n - m).all()


def test_leading_zero_array_matches_scalar():
    # Exactly n - m leading zeros, m the fewest digits that hold |t| (0 for t = 0).
    rng = np.random.default_rng(14)
    m = codec.ternary_full_scale(10)
    values = np.concatenate([[0, 1, -1, m, -m], rng.integers(-m, m + 1, size=100)])
    counts = codec.leading_zero_count_array(codec.to_balanced_ternary_array(values, 10))
    for t, count in zip(values.tolist(), counts.tolist()):
        width = next(w for w in range(11) if abs(t) <= (3**w - 1) // 2)
        assert count == 10 - width


# --- digit vector / dump format ---------------------------------------------


def test_digit_vector_validation():
    with pytest.raises(RangeError):
        codec.DigitVector((0, 2, 0))
    with pytest.raises(RangeError):
        codec.DigitVector(())
    d = codec.DigitVector.from_array(np.array([1, 0, -1], dtype=np.int8))
    assert d.digits == (1, 0, -1)
    assert np.asarray(d).tolist() == [1, 0, -1]


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


def test_digit_dump_writer_rejects_non_digits(tmp_path):
    path = tmp_path / "digits.txt"
    for digits in ([[0, 2, 0]], [[0, -2, 0]], [[0.5, 0, 0]], [0, 1, -1], [[[0, 1]]]):
        with pytest.raises(RangeError):
            codec.write_digit_dump(path, np.array(digits))


class FailingSecondWrite:
    """File wrapper whose second ``write`` fails, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


@pytest.mark.parametrize("existing", [None, b"old dump\n"])
def test_digit_dump_write_failing_partway_leaves_no_file(tmp_path, monkeypatch, existing):
    path = tmp_path / "digits.txt"
    if existing is not None:
        path.write_bytes(existing)
    monkeypatch.setattr(codec, "open", lambda *a, **k: FailingSecondWrite(open(*a, **k)), raising=False)
    with pytest.raises(FileFormatError, match="No space left"):
        codec.write_digit_dump(path, np.zeros((4, 3), dtype=np.int8), header_lines=["# h"])
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["digits.txt"])
    if existing is not None:
        assert path.read_bytes() == existing


# --- digit dump against the line-by-line oracles --------------------------------

PRINTABLE = st.characters(min_codepoint=32, max_codepoint=126)
PADDING = st.text(st.sampled_from(" \t"), max_size=2)
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
#: Characters that make a digit line malformed wherever they stand in it.
BAD_CHAR = st.characters(max_codepoint=127).filter(lambda c: c not in "+0-#" and not c.isspace())
DIGIT_ROWS = st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=40, max_size=40), max_size=8)


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("dumps")


@settings(max_examples=25, deadline=None)
@given(
    rows=DIGIT_ROWS,
    header=st.lists(st.tuples(st.text(PRINTABLE, max_size=12), st.booleans()), max_size=3),
)
def test_dump_writer_bytes_match_oracle_for_every_width(dump_dir, rows, header):
    header_lines = [text + "\n" if newline else text for text, newline in header]
    wide = np.array(rows, dtype=np.int8).reshape(len(rows), 40)
    for n in range(1, codec.MAX_ARRAY_DIGITS + 1):
        digits = wide[:, :n]
        codec.write_digit_dump(dump_dir / "fast.txt", digits, header_lines)
        write_digit_dump_oracle(dump_dir / "oracle.txt", digits, header_lines)
        assert (dump_dir / "fast.txt").read_bytes() == (dump_dir / "oracle.txt").read_bytes()


@st.composite
def dump_files(draw, faulty: bool):
    """(file bytes, n_digits argument) of a dump in any layout the reader accepts.

    With ``faulty``, one to three rows get a bad character, a wrong width or both.
    """
    n = draw(st.integers(1, codec.MAX_ARRAY_DIGITS))
    rows = draw(st.lists(st.text(st.sampled_from("-0+"), min_size=n, max_size=n),
                         min_size=2 if faulty else 0, max_size=8))
    if faulty:
        # Faults go on distinct rows and leave at least one row intact, so
        # every faulty file is malformed with or without n_digits.
        faulty_rows = st.lists(st.integers(0, len(rows) - 1), min_size=1,
                               max_size=min(3, len(rows) - 1), unique=True)
        for k in draw(faulty_rows):
            row = rows[k]
            bad_char, width_change = draw(st.sampled_from([(True, 0), (False, -1), (False, 1),
                                                           (True, -1), (True, 1)]))
            if bad_char:
                p = draw(st.integers(0, len(row) - 1))
                row = row[:p] + draw(BAD_CHAR) + row[p + 1 :]
            if width_change < 0 and len(row) > 1:
                row = row[:-1]
            elif width_change:
                row = row + draw(st.sampled_from("-0+"))
            rows[k] = row
    comment = st.builds(lambda pad, text: pad + "#" + text, PADDING, st.text(PRINTABLE, max_size=8))
    filler = st.lists(st.one_of(comment, PADDING), max_size=2)
    lines = []
    for row in rows:
        lines += draw(filler)
        lines.append(draw(PADDING) + row + draw(PADDING))
    lines += draw(filler)
    ends = [draw(LINE_END) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.encode("ascii"), draw(st.sampled_from([n, None]))


@settings(max_examples=200, deadline=None)
@given(dump=dump_files(faulty=False))
def test_dump_reader_matches_oracle_on_valid_files(dump_dir, dump):
    data, n_digits = dump
    path = dump_dir / "valid.txt"
    path.write_bytes(data)
    expected = read_digit_dump_oracle(path, n_digits)
    got = codec.read_digit_dump(path, n_digits)
    assert got.dtype == np.int8
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(dump=dump_files(faulty=True))
def test_dump_reader_reports_the_oracles_line(dump_dir, dump):
    data, n_digits = dump
    path = dump_dir / "faulty.txt"
    path.write_bytes(data)
    with pytest.raises(FileFormatError) as expected:
        read_digit_dump_oracle(path, n_digits)
    with pytest.raises(FileFormatError) as got:
        codec.read_digit_dump(path, n_digits)
    assert str(got.value) == str(expected.value)
