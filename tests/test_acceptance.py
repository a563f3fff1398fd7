"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ternadac import analysis, cli, codec, dac, network, pipeline

FS = 64000.0


def report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


def data_section(path) -> str:
    return "\n".join(
        line
        for line in path.read_text(encoding="ascii").splitlines()
        if not line.startswith("#")
    )


def read_column(path, column: str) -> np.ndarray:
    header = None
    values = []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            idx = header.index(column)
        else:
            values.append(float(cells[idx]))
    return np.array(values)


def test_criterion_01_impedance_identities():
    cases = {
        dac.TopologyKind.R2R: 1.0,
        dac.TopologyKind.TERNARY_4R3R: 2.0,
        dac.TopologyKind.POWER3_DIFFERENTIAL: 4.0 / 3.0,
    }
    for kind, multiple in cases.items():
        for r in (100.0, 1000.0, 6000.0):
            for n in range(4, 13):
                net = dac.build_topology(kind, n, r, 90.0)
                z = network.NetworkSolver(net).output_impedance()
                assert abs(z - multiple * r) <= 1e-9 * multiple * r, (kind, r, n, z)
    report(1, "impedance identities")


def test_criterion_02_prototype_figures(calibrated):
    table = dac.weights(calibrated)
    assert abs(table.z_out - 15.0) <= 0.10 * 15.0
    open_pp = 2.0 * table.v_full_scale
    assert abs(open_pp - 180.0) <= 0.01 * 180.0
    loaded_peak = float(table.w_pos_loaded.sum())
    assert abs(2.0 * loaded_peak - 120.0) <= 0.05 * 120.0
    peak_sine_dbm = 10.0 * math.log10((loaded_peak**2 / 2.0 / 32.0) / 1e-3)
    assert abs(peak_sine_dbm - 47.4) <= 0.5
    report(2, "prototype figures")


def test_criterion_03_noise_budget():
    budget = analysis.thermal_noise(300.0, 20000.0)
    assert abs(budget.noise_w - 8.3e-17) <= 0.02 * 8.3e-17
    assert abs(budget.noise_dbm - (-131.0)) <= 0.5
    assert abs(analysis.dynamic_range(47.4, -131.0) - 178.4) <= 0.5
    assert abs(analysis.quantization_dynamic_range(20) - 190.8) <= 0.1
    report(3, "noise budget")


def test_criterion_04_attenuation_chain(calibrated):
    w = dac.weights(calibrated).w_open
    steps_db = 20.0 * np.log10(w[:-1] / w[1:])
    assert steps_db.shape == (19,)
    assert np.abs(steps_db - 9.5424).max() <= 0.01
    report(4, "attenuation chain")


def test_criterion_05_codec_properties():
    rng = np.random.default_rng(2026)
    samples = rng.integers(-(2**31), 2**31, size=1_000_000)
    values, _ = codec.scale_samples(samples, 20)
    digits = codec.to_balanced_ternary_array(values, 20)
    assert np.array_equal(codec.from_balanced_ternary_array(digits), values)

    unclamped = samples[samples != codec.SAMPLE_MIN][:100_000]
    forward, _ = codec.scale_samples(unclamped, 20)
    backward, _ = codec.scale_samples(-unclamped, 20)
    assert np.array_equal(backward, -forward)
    assert np.array_equal(
        codec.to_balanced_ternary_array(backward, 20),
        -codec.to_balanced_ternary_array(forward, 20),
    )

    n = 8
    t = np.arange(-codec.ternary_full_scale(n), codec.ternary_full_scale(n) + 1)
    zeros = codec.leading_zero_count_array(codec.to_balanced_ternary_array(t, n))
    for m in range(1, n + 1):
        mask = np.abs(t) <= codec.ternary_full_scale(m)
        assert zeros[mask].min() >= n - m
    report(5, "codec properties")


def test_criterion_06_oracle_equivalence(calibrated):
    converter = dac.Dac(calibrated)
    rng = np.random.default_rng(77)
    words = rng.integers(-1, 2, size=(1000, 20)).astype(np.int8)
    fast = converter.output_array(words)
    scale = float(np.abs(fast).max())
    for k, row in enumerate(words):
        direct = converter.output_direct(row)
        assert abs(fast[k] - direct) <= 1e-9 * max(abs(direct), 1e-9 * scale)
    report(6, "weight-table vs direct-solve equivalence")


def test_criterion_07_sfdr_harness(calibrated):
    n = 65536
    i = np.arange(n)
    v = np.sin(2.0 * np.pi * 819 * i / n) + 1e-3 * np.sin(2.0 * np.pi * 3 * 819 * i / n)
    f0 = 819 * FS / n
    assert analysis.sfdr(v, f0, FS) == pytest.approx(60.0, abs=0.1)

    spec = pipeline.StimulusSpec(
        kind=pipeline.StimulusKind.SINE,
        amplitude_dbfs=0.0,
        frequency_hz=f0,
        duration_s=n / FS,
    )
    trace = pipeline.simulate(pipeline.generate(spec), calibrated)
    assert analysis.sfdr(trace, f0, FS) >= 150.0
    report(7, "sfdr harness")


@pytest.fixture(scope="module")
def config_file(tmp_path_factory, calibrated):
    path = tmp_path_factory.mktemp("acceptance") / "prototype.cfg"
    dac.write_config(calibrated, path)
    return path


@pytest.fixture(scope="module")
def sweep_csvs(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("sweep")
    paths = (out / "sweep_a.csv", out / "sweep_b.csv")
    args = [
        "sweep", "--config", str(config_file), "--levels=-30:0:1",
        "--freq", "800", "--duration", "0.256", "--seed", "0",
    ]
    for path in paths:
        assert cli.main(args + ["--out", str(path)]) == 0
    return paths


@pytest.fixture(scope="module")
def montecarlo_csvs(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("mc")
    paths = (out / "mc_a.csv", out / "mc_b.csv")
    args = [
        "montecarlo", "--config", str(config_file), "--tol", "0.05", "--trials", "100",
        "--level", "-20", "--freq", "800", "--duration", "0.256", "--seed", "1234",
    ]
    for path in paths:
        assert cli.main(args + ["--out", str(path)]) == 0
    return paths


@pytest.fixture(scope="module")
def burst_csvs(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("burst")
    paths = (out / "burst_a.csv", out / "burst_b.csv")
    args = [
        "simulate", "--config", str(config_file), "--kind", "burst", "--amp", "-177",
        "--freq", "800", "--duration", "1.0", "--burst-on", "0.5", "--burst-off", "0.5",
        "--seed", "0",
    ]
    for path in paths:
        assert cli.main(args + ["--out", str(path)]) == 0
    return paths


def test_criterion_08_supply_current_peak(sweep_csvs):
    levels = read_column(sweep_csvs[0], "level_dbfs")
    total = read_column(sweep_csvs[0], "i90_avg_a") + read_column(sweep_csvs[0], "i12_avg_a")
    peak_level = float(levels[int(np.argmax(total))])
    max_output_level = float(levels.max())
    assert -15.0 <= peak_level - max_output_level <= -5.0
    report(8, f"supply-current peak at {peak_level - max_output_level:g} dB")


def test_criterion_09_tolerance_study(calibrated, montecarlo_csvs):
    five_pct = read_column(montecarlo_csvs[0], "sfdr_db")
    assert len(five_pct) == 100
    median_5 = float(np.median(five_pct))
    assert 40.0 <= median_5 <= 90.0
    medians = [median_5]
    for tol in (0.02, 0.01):
        res = analysis.monte_carlo(
            calibrated, tolerance=tol, trials=100, level_dbfs=-20.0,
            f0_hz=800.0, seed=1234, duration_s=0.256,
        )
        medians.append(res.median_db)
    # medians list is [5%, 2%, 1%]: SFDR must decrease as tolerance grows.
    assert medians[0] < medians[1] < medians[2]
    report(9, f"tolerance study (medians 5/2/1% = {[round(m, 1) for m in medians]} dB)")


def test_criterion_10_nanovolt_regime(calibrated, burst_csvs):
    spec = pipeline.StimulusSpec(
        kind=pipeline.StimulusKind.BURST,
        amplitude_dbfs=-177.0,
        frequency_hz=800.0,
        duration_s=1.0,
        burst_on_s=0.5,
        burst_off_s=0.5,
    )
    stream = pipeline.generate(spec)
    values, _ = codec.scale_samples(stream, 20)
    digits = codec.to_balanced_ternary_array(values, 20)
    assert codec.leading_zero_count_array(digits).min() >= 18

    v_out = read_column(burst_csvs[0], "v_out_volts")
    gate = pipeline.burst_gate(spec)
    rms = float(np.sqrt(np.mean(v_out[gate] ** 2)))
    reference = 42.0 * 10.0 ** (-177.0 / 20.0)  # 59.3 nV from the 42 Vrms full scale
    assert abs(rms - reference) <= 0.10 * reference
    report(10, f"nanovolt regime (rms {rms * 1e9:.1f} nV)")


def test_criterion_11_reproducibility(sweep_csvs, montecarlo_csvs, burst_csvs):
    for a, b in (sweep_csvs, montecarlo_csvs, burst_csvs):
        assert data_section(a) == data_section(b)
    report(11, "reproducibility")
