from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternadac import __version__, analysis, calibrate, cli, codec, dac, pipeline
from ternadac import read_config, write_config
from ternadac.errors import FileFormatError

from oracles import csv_rows_oracle


def run(args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    """CSV rows as lists of strings, skipping the manifest header."""
    rows = []
    header = None
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append(cells)
    return header, rows


@pytest.fixture(scope="module")
def calibrated_config_file(tmp_path_factory, calibrated):
    path = tmp_path_factory.mktemp("cfg") / "prototype.cfg"
    write_config(calibrated, path)
    return path


# --- encode -------------------------------------------------------------------


def test_encode_silence_writes_zero_lines(tmp_path):
    out = tmp_path / "digits.txt"
    assert run(["encode", "--kind", "silence", "--duration", "0.005", "--out", out]) == 0
    digits = codec.read_digit_dump(out, 20)
    assert digits.shape == (320, 20)
    assert not digits.any()
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert set(lines) == {"0" * 20}


def test_encode_full_scale_sample_file(tmp_path):
    src = tmp_path / "samples.txt"
    src.write_text(f"{2**31 - 1}\n0\n-{2**31 - 1}\n", encoding="ascii")
    out = tmp_path / "digits.txt"
    assert run(["encode", "--in", src, "--out", out]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines == ["+" * 20, "0" * 20, "-" * 20]


def test_encode_round_trip_reproduces_scaled_samples(tmp_path):
    rng = np.random.default_rng(44)
    samples = rng.integers(-(2**31) + 1, 2**31, size=64)
    src = tmp_path / "samples.txt"
    src.write_text("".join(f"{int(s)}\n" for s in samples), encoding="ascii")
    out = tmp_path / "digits.txt"
    assert run(["encode", "--in", src, "--out", out]) == 0
    decoded = codec.from_balanced_ternary_array(codec.read_digit_dump(out, 20))
    expected, _ = codec.scale_samples(samples, 20)
    assert np.array_equal(decoded, expected)


def test_encode_reports_bad_sample_line(tmp_path, capsys):
    src = tmp_path / "samples.txt"
    src.write_text("12\nnope\n", encoding="ascii")
    code = run(["encode", "--in", src, "--out", tmp_path / "d.txt"])
    assert code == 5
    err = capsys.readouterr().err
    assert "[IO]" in err and ":2:" in err


@pytest.mark.parametrize(
    "bad, message",
    [
        ("1e3", "not an integer sample: '1e3'"),
        ("+-5", "not an integer sample: '+-5'"),
        ("1__0", "not an integer sample: '1__0'"),
        ("2147483648", "sample 2147483648 outside 32-bit range"),
        ("-2_147_483_649", "sample -2147483649 outside 32-bit range"),
        ("000000000012345678901", "sample 12345678901 outside 32-bit range"),
        ("10000000000", "sample 10000000000 outside 32-bit range"),
        ("-20_000_000_001", "sample -20000000001 outside 32-bit range"),
    ],
)
def test_sample_file_fault_after_comments_and_blanks(tmp_path, bad, message):
    # Comment, blank and indented lines before the faulty line still count
    # toward its number; the good lines around it do not hide it.
    src = tmp_path / "samples.txt"
    src.write_text(f"# header\n\n  7\n# note\n\t\n  {bad}  \n-3\n{bad}\n", encoding="ascii")
    with pytest.raises(FileFormatError) as exc:
        cli._read_sample_file(src)
    assert str(exc.value) == f"{src}:6: {message}"


def test_sample_file_accepts_int_syntax(tmp_path):
    src = tmp_path / "samples.txt"
    lines = ["# c", "", "+5", "-0", "007", "1_000", f"{-(2**31)}", f"+{2**31 - 1}", "0" * 30 + "42"]
    src.write_text("\r\n".join(lines), encoding="ascii")
    values = cli._read_sample_file(src)
    assert values.dtype == np.int64
    assert values.tolist() == [5, 0, 7, 1000, -(2**31), 2**31 - 1, 42]


def test_encode_digits_beyond_codec_range_is_range_error(tmp_path, capsys):
    out = tmp_path / "digits.txt"
    code = run(
        ["encode", "--digits", "41", "--kind", "silence", "--duration", "0.005", "--out", out]
    )
    assert code == 3
    assert "[RANGE]" in capsys.readouterr().err


# --- weights --------------------------------------------------------------------


def test_weights_csv_from_config_file(tmp_path, calibrated_config_file):
    out = tmp_path / "weights.csv"
    assert run(["weights", "--config", calibrated_config_file, "--out", out]) == 0
    header, rows = read_rows(out)
    assert header == ["stage", "weight_volts", "ratio_to_next", "attenuation_db"]
    stage_rows = rows[:20]
    for row in stage_rows[:-1]:
        assert row[2] == "3.000000000"
        assert row[3] == "9.5424"
    summary = {row[0]: float(row[1]) for row in rows[20:]}
    assert abs(summary["z_out_ohms"] - 15.0) / 15.0 < 0.10
    assert abs(summary["v_full_scale_volts"] - 90.0) / 90.0 < 0.01
    assert abs(summary["v_full_scale_pp_volts"] - 180.0) / 180.0 < 0.01
    assert abs(summary["v_loaded_full_scale_pp_volts"] - 120.0) / 120.0 < 0.05


def test_weights_builtin_prototype(tmp_path):
    out = tmp_path / "weights.csv"
    assert run(["weights", "--out", out]) == 0
    _, rows = read_rows(out)
    assert rows[0][2] == "3.000000000"


def test_weights_missing_config_is_config_error(tmp_path, capsys):
    code = run(["weights", "--config", tmp_path / "absent.cfg", "--out", tmp_path / "w.csv"])
    assert code == 2
    assert "[CONFIG]" in capsys.readouterr().err


# --- simulate --------------------------------------------------------------------


def test_simulate_csv_and_digit_dump(tmp_path, calibrated_config_file):
    out = tmp_path / "trace.csv"
    dump = tmp_path / "digits.txt"
    code = run(
        [
            "simulate", "--config", calibrated_config_file,
            "--kind", "sine", "--amp", -20, "--freq", 800, "--duration", "0.01",
            "--out", out, "--dump-digits", dump,
        ]
    )
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["time_s", "v_out_volts", "i90_amps", "i12_amps"]
    assert len(rows) == 640
    assert rows[0][0] == "0.0"
    first_line = out.read_text().splitlines()[0]
    assert first_line == f"# ternadac {__version__} simulate"
    # The dump is readable back by simulate.
    out2 = tmp_path / "trace2.csv"
    code = run(
        ["simulate", "--config", calibrated_config_file, "--digits-in", dump, "--out", out2]
    )
    assert code == 0
    _, rows2 = read_rows(out2)
    assert [r[1] for r in rows2] == [r[1] for r in rows]


def test_simulate_manifest_counts_clamped_samples(tmp_path, calibrated_config_file):
    # A full-scale sine at fs/4 hits -1.0 on 16 of its 64 samples; -2**31 lies
    # outside the symmetric int32 range, so those samples clamp.
    out = tmp_path / "trace.csv"
    dump = tmp_path / "digits.txt"
    args = ["simulate", "--config", calibrated_config_file, "--kind", "sine", "--amp", 0,
            "--freq", 16000, "--duration", "0.001", "--out", out, "--dump-digits", dump]
    assert run(args) == 0
    assert " clamped=16 " in out.read_text().splitlines()[1]
    # Replayed digits were clamped, if at all, when they were encoded.
    out2 = tmp_path / "replay.csv"
    args = ["simulate", "--config", calibrated_config_file, "--digits-in", dump, "--out", out2]
    assert run(args) == 0
    assert "clamped=" not in out2.read_text().splitlines()[1]


def test_simulate_rejects_malformed_dump(tmp_path, capsys):
    dump = tmp_path / "digits.txt"
    dump.write_text("+0-\n", encoding="ascii")
    code = run(["simulate", "--digits-in", dump, "--out", tmp_path / "t.csv"])
    assert code == 5
    assert "[IO]" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "non-ascii"])
def test_simulate_unreadable_dump_is_io_error(tmp_path, capsys, kind):
    dump = tmp_path / "digits.txt"
    if kind == "directory":
        dump.mkdir()
    elif kind == "non-ascii":
        dump.write_bytes(b"+0-\n" + "\u00e9\n".encode("utf-8"))
    code = run(["simulate", "--digits-in", dump, "--out", tmp_path / "t.csv"])
    assert code == 5
    assert "[IO]" in capsys.readouterr().err


def test_encode_unwritable_dump_is_io_error(tmp_path, capsys):
    out = tmp_path / "absent" / "digits.txt"
    code = run(["encode", "--kind", "silence", "--duration", "0.001", "--out", out])
    assert code == 5
    assert "[IO]" in capsys.readouterr().err


def test_encode_non_ascii_sample_file_is_io_error(tmp_path, capsys):
    src = tmp_path / "samples.txt"
    src.write_bytes(b"12\n" + "\u00e9\n".encode("utf-8"))
    code = run(["encode", "--in", src, "--out", tmp_path / "d.txt"])
    assert code == 5
    assert "[IO]" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["encode", "weights"])
def test_non_ascii_output_path_is_io_error(tmp_path, capsys, subcommand):
    # The manifest header records the path, and output files are ASCII.
    args = [subcommand, "--out", tmp_path / "w\u00e9.csv"]
    if subcommand == "encode":
        args += ["--kind", "silence", "--duration", "0.001"]
    assert run(args) == 5
    assert "[IO]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # not even a partial file


class _FullDisk:
    """A cell whose formatting fails as a write on a full disk would."""

    def __str__(self):
        raise OSError(28, "No space left on device")


def test_csv_write_failing_partway_keeps_old_file(tmp_path):
    # The failure comes from a cell of a column: in the first block, then in
    # the second, after one whole block was written to the temporary file.
    out = tmp_path / "table.csv"
    for bad_row in (1, cli.CSV_BLOCK + 1):
        out.write_text("old table\n", encoding="ascii")
        labels = [1] * bad_row + [_FullDisk()] + [1] * 3
        values = np.arange(len(labels), dtype=np.float64)
        with pytest.raises(FileFormatError, match="No space left"):
            cli._write_csv(out, cli.RunManifest("test", {"out": out}), ["a", "b"], [labels, values])
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
        assert out.read_text(encoding="ascii") == "old table\n"


def _data_lines(path) -> list[str]:
    """The CSV's data lines, newline kept: everything after the manifest and the column header."""
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    return [line for line in lines if not line.startswith("#")][1:]


#: Float64 bit patterns a column formatter could merge or mangle: both zeros,
#: NaNs of either sign and another payload, both infinities and subnormals.
SPECIAL_FLOATS = np.array(
    [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
     0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001,
     0x800FFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64)

CSV_LENGTHS = st.sampled_from([0, 1, cli.CSV_BLOCK - 1, cli.CSV_BLOCK, cli.CSV_BLOCK + 1])


@st.composite
def float_columns(draw, length):
    """A float64 column: a few values (specials always among them) heavily repeated, or all distinct."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.standard_normal(length) * 10.0 ** rng.integers(-320, 300, length)
    extra = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6))
    pool = np.concatenate([SPECIAL_FLOATS, np.array(extra, dtype=np.float64)])
    return pool[rng.integers(len(pool), size=length)]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_csv_writer_matches_row_oracle_on_float_columns(csv_dir, data):
    length = data.draw(CSV_LENGTHS)
    columns = [data.draw(float_columns(length)) for _ in range(data.draw(st.integers(1, 3)))]
    out = csv_dir / "t.csv"
    cli._write_csv(out, cli.RunManifest("test", {}), [f"c{k}" for k in range(len(columns))], columns)
    # The row form the writer replaces: a numeric table converted to Python floats.
    rows = np.column_stack(columns).tolist() if length else []
    assert _data_lines(out) == csv_rows_oracle(rows).splitlines(keepends=True)


def test_csv_writer_matches_row_oracle_on_mixed_columns(tmp_path):
    # The columns of weights (int or str labels, float64 scalars, str and "")
    # and of montecarlo (an int trial index and float64 scalars).
    w = np.array([3.25, -0.0, 1 / 3, np.nan, np.inf, 5e-324])
    weights_rows = [(k + 1, w[k], f"{k / 7:.9f}", "") for k in range(len(w))]
    weights_rows.append(("z_out_ohms", w[2], "", ""))
    mc = np.array([71.5, np.nan, -0.0, 71.5, 0.0] * (cli.CSV_BLOCK // 4))
    mc_rows = list(enumerate(mc))
    for rows in (weights_rows, mc_rows):
        out = tmp_path / "t.csv"
        cli._write_csv(out, cli.RunManifest("test", {}), ["a", "b", "c", "d"][: len(rows[0])], list(zip(*rows)))
        assert _data_lines(out) == csv_rows_oracle(rows).splitlines(keepends=True)


def test_non_ascii_config_is_config_error(tmp_path, capsys, calibrated_config_file):
    config = tmp_path / "bad.cfg"
    config.write_bytes(calibrated_config_file.read_bytes() + "# \u00e9\n".encode("utf-8"))
    code = run(["weights", "--config", config, "--out", tmp_path / "w.csv"])
    assert code == 2
    assert "[CONFIG]" in capsys.readouterr().err


# --- sweep / montecarlo / noise -----------------------------------------------


def test_sweep_csv(tmp_path, calibrated_config_file):
    out = tmp_path / "sweep.csv"
    code = run(
        [
            "sweep", "--config", calibrated_config_file,
            "--levels=-12,-6,0", "--duration", "0.064", "--out", out,
        ]
    )
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["level_dbfs", "level_dbm", "sfdr_db", "efficiency_pct", "i90_avg_a", "i12_avg_a"]
    assert [r[0] for r in rows] == ["-12.0", "-6.0", "0.0"]
    assert float(rows[2][1]) == pytest.approx(47.7, abs=0.5)  # full-scale sine power


def test_sweep_row_below_the_lsb_has_no_sfdr(tmp_path, calibrated_config_file):
    # -400 dBFS rounds every sample to the zero word: no tone, no supply power.
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--config", calibrated_config_file, "--levels=-400,0", "--duration", "0.001"]
    assert run([*args, "--out", out]) == 0
    _, rows = read_rows(out)
    assert rows[0][:4] == ["-400.0", "-inf", "nan", "nan"]
    assert float(rows[1][2]) > 100.0


def test_rail_columns_follow_the_config_rails(tmp_path, prototype):
    # A 48 V / 6 V converter: the columns are named after its rails and carry
    # their currents (nothing about the rails is fixed to the prototype's).
    rails = {90.0: 48.0, 12.0: 6.0}
    stages = tuple(replace(s, supply_v=rails[s.supply_v]) for s in prototype.stages)
    path = tmp_path / "rails.cfg"
    write_config(calibrate(replace(prototype, stages=stages)), path)
    config = read_config(path)

    out = tmp_path / "sweep.csv"
    args = ["sweep", "--config", path, "--levels=-12", "--duration", "0.016", "--out", out]
    assert run(args) == 0
    header, rows = read_rows(out)
    assert header[4:] == ["i48_avg_a", "i6_avg_a"]
    spec = pipeline.StimulusSpec(
        kind=pipeline.StimulusKind.SINE,
        amplitude_dbfs=-12.0,
        frequency_hz=analysis.snap_coherent(800.0, pipeline.DEFAULT_FS_HZ, 1024),
        duration_s=0.016,
    )
    trace = pipeline.simulate(pipeline.generate(spec), config)
    i48 = float(rows[0][4])
    assert i48 > 0
    assert i48 == float(np.mean(trace.rail_currents[48.0]))

    out = tmp_path / "trace.csv"
    assert run(["simulate", "--config", path, "--duration", "0.001", "--out", out]) == 0
    header, _ = read_rows(out)
    assert header == ["time_s", "v_out_volts", "i48_amps", "i6_amps"]


def test_montecarlo_zero_tolerance_rows_identical(tmp_path, calibrated_config_file):
    out = tmp_path / "mc.csv"
    code = run(
        [
            "montecarlo", "--config", calibrated_config_file,
            "--tol", "0", "--trials", "5", "--level", "-20",
            "--duration", "0.064", "--out", out,
        ]
    )
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 5
    assert len({row[1] for row in rows}) == 1


def test_noise_csv_matches_budget(tmp_path):
    out = tmp_path / "noise.csv"
    assert run(["noise", "--t", "300", "--b", "20000", "--out", out]) == 0
    header, rows = read_rows(out)
    assert header == ["t_k", "b_hz", "noise_w", "noise_dbm", "dr_db"]
    row = rows[0]
    assert float(row[3]) == pytest.approx(-131.0, abs=0.5)
    assert float(row[4]) == pytest.approx(178.4, abs=0.5)


def test_levels_range_syntax(tmp_path, calibrated_config_file):
    out = tmp_path / "sweep.csv"
    code = run(
        [
            "sweep", "--config", calibrated_config_file,
            "--levels=-4:0:2", "--duration", "0.064", "--out", out,
        ]
    )
    assert code == 0
    _, rows = read_rows(out)
    assert [r[0] for r in rows] == ["-4.0", "-2.0", "0.0"]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("-30:0:8", [-30.0, -22.0, -14.0, -6.0]),
        ("-1:0:0.3", [-1.0, -0.7, -0.4, -0.1]),
        ("-0.3:0:0.1", [-0.3, -0.2, -0.1, 0.0]),
        ("-30:0:1", [float(v) for v in range(-30, 1)]),
    ],
)
def test_levels_range_stops_at_stop(text, expected):
    levels = cli._parse_levels(text)
    assert levels == pytest.approx(expected, abs=1e-12)
    assert max(levels) <= float(text.split(":")[1])


def test_levels_range_step_past_stop_runs(tmp_path, calibrated_config_file):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--config", calibrated_config_file, "--levels=-30:0:8", "--duration", "0.016"]
    assert run(args + ["--out", out]) == 0
    _, rows = read_rows(out)
    assert [r[0] for r in rows] == ["-30.0", "-22.0", "-14.0", "-6.0"]


def test_bad_levels_is_config_error(tmp_path, capsys):
    code = run(["sweep", "--levels", "0:-4:2", "--out", tmp_path / "s.csv"])
    assert code == 2
    assert "[CONFIG]" in capsys.readouterr().err


BAD_NUMBERS = [
    (["simulate", "--duration", "nan"], "CONFIG", 2),
    (["simulate", "--duration", "inf"], "CONFIG", 2),
    (["simulate", "--kind", "silence", "--fs", "nan"], "CONFIG", 2),
    (["simulate", "--amp", "nan"], "CONFIG", 2),
    (["simulate", "--kind", "burst", "--burst-on", "nan", "--burst-off", "0"], "CONFIG", 2),
    (["simulate", "--duration", "0.004", "--noise", "--temp", "-5"], "RANGE", 3),
    (["simulate", "--duration", "0.004", "--noise", "--temp", "nan"], "RANGE", 3),
    (["sweep", "--levels=0", "--duration", "nan"], "RANGE", 3),
    (["sweep", "--levels=0", "--duration", "inf"], "RANGE", 3),
    (["sweep", "--levels=0", "--freq", "nan"], "RANGE", 3),
    (["sweep", "--levels=0:nan:1"], "CONFIG", 2),
    (["montecarlo", "--trials", "1", "--duration", "nan"], "RANGE", 3),
    (["montecarlo", "--trials", "1", "--fs", "inf"], "RANGE", 3),
    (["noise", "--t", "nan"], "RANGE", 3),
    (["noise", "--b", "inf"], "RANGE", 3),
    (["noise", "--pmax-dbm", "nan"], "CONFIG", 2),
]


@pytest.mark.parametrize(
    "argv, category, code", BAD_NUMBERS, ids=[" ".join(argv) for argv, _, _ in BAD_NUMBERS]
)
def test_bad_numbers_fail_by_category(tmp_path, capsys, argv, category, code):
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", out]) == code
    err = capsys.readouterr().err
    assert f"[{category}]" in err
    assert "Traceback" not in err
    assert not out.exists()


def data_section(path):
    return "\n".join(
        line for line in path.read_text(encoding="ascii").splitlines()
        if not line.startswith("#")
    )


def test_identical_invocations_are_byte_identical(tmp_path, calibrated_config_file):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = [
        "montecarlo", "--config", calibrated_config_file,
        "--tol", "0.05", "--trials", "3", "--level", "-20",
        "--duration", "0.064", "--seed", "9",
    ]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert data_section(a) == data_section(b)
    # Same out path as well: the whole file, manifest included, is identical.
    assert run(args + ["--out", a]) == 0
    bytes_first = a.read_bytes()
    assert run(args + ["--out", a]) == 0
    assert a.read_bytes() == bytes_first
