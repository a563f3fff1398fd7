from __future__ import annotations

import math

import numpy as np
import pytest

from ternadac import analysis, dac, network, pipeline
from ternadac.errors import RangeError
from ternadac.pipeline import StimulusKind, StimulusSpec

FS = 64000.0


def coherent_sine(bin_k, n, amplitude=1.0, harmonic=None, harmonic_level=0.0):
    i = np.arange(n)
    v = amplitude * np.sin(2.0 * np.pi * bin_k * i / n)
    if harmonic is not None:
        v = v + harmonic_level * np.sin(2.0 * np.pi * bin_k * harmonic * i / n)
    return v


# --- sfdr -------------------------------------------------------------------


def test_sfdr_of_pure_sine_hits_numerical_floor():
    n = 4096
    f0 = 127 * FS / n
    v = coherent_sine(127, n)
    assert analysis.sfdr(v, f0, FS) >= 250.0


def test_sfdr_two_tone_oracle():
    n = 8192
    f0 = 100 * FS / n
    v = coherent_sine(100, n, harmonic=3, harmonic_level=1e-3)
    measured = analysis.sfdr(v, f0, FS)
    assert measured == pytest.approx(60.0, abs=1e-6)


def test_sfdr_ignores_dc():
    n = 4096
    f0 = 127 * FS / n
    v = coherent_sine(127, n) + 0.5
    assert analysis.sfdr(v, f0, FS) >= 250.0


def test_sfdr_of_all_zero_record_is_nan():
    # No tone, so no SFDR: NaN, not +inf from the all-zero spur bins.
    n = 4096
    assert math.isnan(analysis.sfdr(np.zeros(n), 127 * FS / n, FS))


def test_sfdr_rejects_non_power_of_two():
    with pytest.raises(RangeError, match="power of two"):
        analysis.sfdr(np.zeros(6000), 800.0, FS)


def test_sfdr_rejects_non_coherent_tone_with_suggestion():
    n = 16384
    snapped = analysis.snap_coherent(800.0, FS, n)
    with pytest.raises(RangeError, match="snap") as err:
        analysis.sfdr(np.zeros(n), 800.0, FS)
    assert repr(snapped) in str(err.value)
    # The suggestion itself is accepted.
    v = coherent_sine(round(snapped * n / FS), n)
    assert analysis.sfdr(v, snapped, FS) > 100.0


def test_snap_coherent_is_exact_bin():
    n = 65536
    f = analysis.snap_coherent(800.0, FS, n)
    assert f == 819 * FS / n
    cycles = f * n / FS
    assert cycles == round(cycles)


def test_sfdr_accepts_trace_objects(calibrated):
    n = 4096
    f0 = analysis.snap_coherent(800.0, FS, n)
    spec = StimulusSpec(
        kind=StimulusKind.SINE, amplitude_dbfs=-6.0, frequency_hz=f0, duration_s=n / FS
    )
    trace = pipeline.simulate(pipeline.generate(spec), calibrated)
    assert analysis.sfdr(trace, f0, FS) > 100.0


# --- efficiency --------------------------------------------------------------


def test_efficiency_undefined_for_silence(calibrated):
    spec = StimulusSpec(kind=StimulusKind.SILENCE, duration_s=0.01)
    trace = pipeline.simulate(pipeline.generate(spec), calibrated)
    assert math.isnan(analysis.efficiency(trace, calibrated))


def test_series_divider_current_accounting():
    # Textbook series divider: load power over source power is R_L/(R_L + R).
    net = network.ResistiveNetwork(
        resistors=(network.Resistor(1, 0, 150.0),),
        sources=(network.VoltageSource(node=1, series_ohms=50.0),),
        port=(1, 0),
    )
    sol = network.NetworkSolver(net).solve([90.0])
    p_load = sol.node_voltages[1] ** 2 / 150.0
    p_supply = 90.0 * sol.source_currents[0]
    assert p_load / p_supply == pytest.approx(150.0 / (150.0 + 50.0), rel=1e-12)


def test_efficiency_single_stage_hand_reduction():
    # One weighted stage per half, 100-ohm string, 200-ohm tail terminator,
    # 100-ohm load, MSB held at +1. Reducing the divider by hand gives
    # P_load / P_supply = (180/7)^2/100 / (90 * 33/70) = 0.15584416.
    config = dac.DacConfig(
        stages=(dac.StageSpec(dac.StageKind.POWER3_WEIGHTED, 100.0, 90.0),),
        load_ohms=100.0,
    )
    digits = np.ones((8, 1), dtype=np.int8)
    trace = pipeline.simulate_digits(digits, config)
    assert trace.v_out[0] == pytest.approx(180.0 / 7.0, rel=1e-12)
    assert analysis.efficiency(trace, config) == pytest.approx(15.584415584, rel=1e-9)


def test_efficiency_bounded_on_prototype(calibrated):
    spec = StimulusSpec(kind=StimulusKind.SINE, amplitude_dbfs=-6.0, duration_s=0.032)
    trace = pipeline.simulate(pipeline.generate(spec), calibrated)
    eff = analysis.efficiency(trace, calibrated)
    assert 0.0 < eff <= 100.0
    clamped = analysis.efficiency(trace, calibrated, clamp_negative=True)
    assert 0.0 < clamped <= eff + 1e-12


# --- noise budget and dynamic range ------------------------------------------


def test_thermal_noise_budget_values():
    budget = analysis.thermal_noise(300.0, 20000.0)
    assert budget.noise_w == pytest.approx(8.283894e-17, rel=1e-6)
    assert budget.noise_dbm == pytest.approx(-130.8177, abs=1e-3)
    assert budget.k_boltzmann == 1.380649e-23


def test_thermal_noise_linearity():
    base = analysis.thermal_noise(300.0, 20000.0)
    assert analysis.thermal_noise(300.0, 40000.0).noise_w == pytest.approx(
        2.0 * base.noise_w, rel=1e-12
    )
    assert analysis.thermal_noise(600.0, 20000.0).noise_w == pytest.approx(
        2.0 * base.noise_w, rel=1e-12
    )


def test_thermal_noise_rejects_nonpositive():
    with pytest.raises(RangeError):
        analysis.thermal_noise(0.0, 20000.0)
    with pytest.raises(RangeError):
        analysis.thermal_noise(300.0, -1.0)


def test_dynamic_range_arithmetic():
    assert analysis.dynamic_range(47.4, -131.0) == pytest.approx(178.4, abs=1e-12)
    assert analysis.dynamic_range(5.0, 5.0) == 0.0
    # Chaining: dr(a,b) + dr(b,c) = dr(a,c).
    assert analysis.dynamic_range(10.0, -3.0) + analysis.dynamic_range(-3.0, -20.0) == (
        pytest.approx(analysis.dynamic_range(10.0, -20.0))
    )


def test_quantization_dynamic_range():
    assert analysis.quantization_dynamic_range(20) == pytest.approx(
        20.0 * math.log10(3.0**20), rel=1e-12
    )
    assert analysis.quantization_dynamic_range(20) == pytest.approx(190.8485, abs=1e-3)


# --- level sweep ---------------------------------------------------------------


def test_sweep_row_matches_direct_run(calibrated):
    duration = 16384 / FS
    result = analysis.level_sweep(calibrated, [-12.0], f0_hz=800.0, duration_s=duration)
    row = result.rows[0]
    spec = StimulusSpec(
        kind=StimulusKind.SINE,
        amplitude_dbfs=-12.0,
        frequency_hz=result.f0_hz,
        duration_s=duration,
    )
    trace = pipeline.simulate(pipeline.generate(spec), calibrated)
    assert row.sfdr_db == analysis.sfdr(trace, result.f0_hz, FS)
    assert row.efficiency_pct == analysis.efficiency(trace, calibrated)
    assert list(row.rail_avg_a) == [90.0, 12.0]
    means = {v: float(np.mean(i)) for v, i in trace.rail_currents.items()}
    assert row.rail_avg_a == pytest.approx(means, rel=1e-12)


def test_sweep_levels_must_increase(calibrated):
    with pytest.raises(RangeError, match="strictly increasing"):
        analysis.level_sweep(calibrated, [-10.0, -10.0], duration_s=4096 / FS)


def test_sweep_requires_power_of_two_record(calibrated):
    with pytest.raises(RangeError, match="power-of-two"):
        analysis.level_sweep(calibrated, [-10.0], duration_s=0.1)


def test_sweep_sfdr_drops_with_level(calibrated):
    result = analysis.level_sweep(
        calibrated, [-30.0, -15.0, 0.0], f0_hz=800.0, duration_s=16384 / FS
    )
    sfdrs = [row.sfdr_db for row in result.rows]
    assert sfdrs[0] < sfdrs[1] < sfdrs[2]


# --- monte carlo ---------------------------------------------------------------


def test_monte_carlo_zero_tolerance_matches_ideal(calibrated):
    duration = 4096 / FS
    res = analysis.monte_carlo(
        calibrated, tolerance=0.0, trials=3, level_dbfs=-20.0, duration_s=duration
    )
    assert np.all(res.sfdr_db == res.sfdr_db[0])
    spec = StimulusSpec(
        kind=StimulusKind.SINE,
        amplitude_dbfs=-20.0,
        frequency_hz=res.f0_hz,
        duration_s=duration,
    )
    trace = pipeline.simulate(pipeline.generate(spec), calibrated)
    assert res.sfdr_db[0] == analysis.sfdr(trace, res.f0_hz, FS)


def test_monte_carlo_trials_extend_deterministically(calibrated):
    duration = 4096 / FS
    short = analysis.monte_carlo(calibrated, 0.05, trials=4, seed=3, duration_s=duration)
    long = analysis.monte_carlo(calibrated, 0.05, trials=8, seed=3, duration_s=duration)
    assert np.array_equal(short.sfdr_db, long.sfdr_db[:4])


def test_monte_carlo_validates_trials(calibrated):
    with pytest.raises(RangeError):
        analysis.monte_carlo(calibrated, 0.05, trials=0)


def test_monte_carlo_statistics_are_percentiles(calibrated):
    res = analysis.monte_carlo(calibrated, 0.05, trials=8, seed=4, duration_s=4096 / FS)
    assert res.p10_db <= res.median_db <= res.p90_db
    assert res.median_db == pytest.approx(float(np.median(res.sfdr_db)))
