from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ternadac import codec, pipeline
from ternadac.errors import ConfigError
from ternadac.pipeline import StimulusKind, StimulusSpec


def sine_spec(**kw):
    defaults = dict(kind=StimulusKind.SINE, amplitude_dbfs=0.0, frequency_hz=800.0, duration_s=0.05)
    defaults.update(kw)
    return StimulusSpec(**defaults)


# --- generation -------------------------------------------------------------


def test_silence_is_all_zero():
    stream = pipeline.generate(StimulusSpec(kind=StimulusKind.SILENCE, duration_s=0.01))
    assert stream.shape == (640,)
    assert not stream.any()


def test_full_scale_sine_peaks_at_positive_full_scale():
    stream = pipeline.generate(sine_spec())
    assert stream.max() == codec.SAMPLE_FULL_SCALE  # clipped 2**31 peak
    assert abs(int(stream.min()) + codec.SAMPLE_FULL_SCALE) <= 1
    assert len(stream) == 3200


def test_nanovolt_sine_peak_counts():
    # 2**31 * 10**(-177/20) = 3.03, so the peak sample is 3 counts.
    stream = pipeline.generate(sine_spec(amplitude_dbfs=-177.0, duration_s=0.0125))
    expected = round(2.0**31 * 10.0 ** (-177.0 / 20.0))
    assert expected == 3
    assert int(np.abs(stream).max()) == expected


def test_click_is_single_sample():
    stream = pipeline.generate(StimulusSpec(kind=StimulusKind.CLICK, duration_s=0.01))
    assert stream[0] == codec.SAMPLE_FULL_SCALE
    assert not stream[1:].any()


def test_burst_gates_the_sine():
    spec = StimulusSpec(
        kind=StimulusKind.BURST,
        amplitude_dbfs=-6.0,
        frequency_hz=800.0,
        duration_s=0.02,
        burst_on_s=0.005,
        burst_off_s=0.005,
    )
    stream = pipeline.generate(spec)
    gate = pipeline.burst_gate(spec)
    assert gate[:320].all() and not gate[320:640].any()
    assert not stream[~gate].any()
    assert stream[gate].any()


def test_phase_starts_at_zero():
    assert pipeline.generate(sine_spec())[0] == 0


def test_stimulus_validation():
    with pytest.raises(ConfigError):
        sine_spec(frequency_hz=40000.0)  # >= fs/2
    with pytest.raises(ConfigError):
        sine_spec(amplitude_dbfs=1.0)
    with pytest.raises(ConfigError):
        sine_spec(duration_s=0.0)
    with pytest.raises(ConfigError):
        StimulusSpec(kind=StimulusKind.BURST, duration_s=1.0, burst_on_s=None)


# --- simulation ----------------------------------------------------------------


def test_silence_trace_is_quiescent(calibrated):
    spec = StimulusSpec(kind=StimulusKind.SILENCE, duration_s=0.01)
    trace = pipeline.simulate(pipeline.generate(spec), calibrated)
    assert not trace.v_out.any()
    assert list(trace.rail_currents) == [90.0, 12.0]
    assert not any(series.any() for series in trace.rail_currents.values())
    assert not trace.digit_toggles.any()
    assert trace.clamp_count == 0
    assert len(trace) == spec.n_samples


def test_full_scale_sine_swing(calibrated):
    trace = pipeline.simulate(pipeline.generate(sine_spec()), calibrated)
    swing = float(trace.v_out.max() - trace.v_out.min())
    assert abs(swing - 120.0) / 120.0 < 0.05


def test_nanovolt_burst_activity(calibrated):
    spec = StimulusSpec(
        kind=StimulusKind.BURST,
        amplitude_dbfs=-177.0,
        frequency_hz=800.0,
        duration_s=0.1,
        burst_on_s=0.05,
        burst_off_s=0.05,
    )
    stream = pipeline.generate(spec)
    values, _ = codec.scale_samples(stream, 20)
    digits = codec.to_balanced_ternary_array(values, 20)
    assert codec.leading_zero_count_array(digits).min() >= 18
    trace = pipeline.simulate(stream, calibrated)
    assert trace.digit_toggles[:18].sum() == 0
    assert trace.digit_toggles[18:].sum() > 0


def test_toggle_locality(calibrated):
    # Amplitude below full-scale/3^(k+1) leaves stages 0..k untouched.
    k = 2
    level_db = 20.0 * np.log10(1.0 / 3 ** (k + 1)) - 0.5
    trace = pipeline.simulate(
        pipeline.generate(sine_spec(amplitude_dbfs=level_db, duration_s=0.02)), calibrated
    )
    assert trace.digit_toggles[: k + 1].sum() == 0
    assert trace.digit_toggles[k + 1 :].sum() > 0


def test_small_signal_linearity(calibrated):
    half_db = 20.0 * np.log10(0.5)
    a = pipeline.simulate(pipeline.generate(sine_spec(amplitude_dbfs=-20.0)), calibrated)
    b = pipeline.simulate(
        pipeline.generate(sine_spec(amplitude_dbfs=-20.0 + half_db)), calibrated
    )
    rms_a = float(np.sqrt(np.mean(a.v_out**2)))
    rms_b = float(np.sqrt(np.mean(b.v_out**2)))
    step = 2.0 * 61.6 / 3**20  # one output quantum, generously rounded up
    assert abs(rms_a - 2.0 * rms_b) <= 4.0 * step


def test_simulate_digits_matches_stream_path(calibrated):
    stream = pipeline.generate(sine_spec(amplitude_dbfs=-12.0, duration_s=0.01))
    values, clamp = codec.scale_samples(stream, 20)
    digits = codec.to_balanced_ternary_array(values, 20)
    via_stream = pipeline.simulate(stream, calibrated)
    via_digits = pipeline.simulate_digits(digits, calibrated, clamp_count=clamp)
    assert np.array_equal(via_stream.v_out, via_digits.v_out)
    assert np.array_equal(via_stream.rail_currents[90.0], via_digits.rail_currents[90.0])


def test_clamp_counter_propagates(calibrated):
    stream = np.array([0, codec.SAMPLE_MIN, 17], dtype=np.int64)
    trace = pipeline.simulate(stream, calibrated)
    assert trace.clamp_count == 1


def test_noise_is_seeded_and_scaled(calibrated):
    spec = StimulusSpec(kind=StimulusKind.SILENCE, duration_s=1.0)
    stream = pipeline.generate(spec)
    a = pipeline.simulate(stream, calibrated, add_thermal_noise=True, seed=5)
    b = pipeline.simulate(stream, calibrated, add_thermal_noise=True, seed=5)
    c = pipeline.simulate(stream, calibrated, add_thermal_noise=True, seed=6)
    assert np.array_equal(a.v_out, b.v_out)
    assert not np.array_equal(a.v_out, c.v_out)
    # Measured noise matches the budgeted output-referred level.
    from ternadac.dac import Dac

    sigma = pipeline._noise_sigma_at_load(Dac(calibrated), 300.0, 32000.0)
    assert float(a.v_out.std()) == pytest.approx(sigma, rel=0.05)


def test_identical_runs_identical_traces(calibrated):
    stream = pipeline.generate(sine_spec(amplitude_dbfs=-30.0, duration_s=0.02))
    a = pipeline.simulate(stream, calibrated, seed=1)
    b = pipeline.simulate(stream, calibrated, seed=1)
    assert np.array_equal(a.v_out, b.v_out)
    assert np.array_equal(a.rail_currents[90.0], b.rail_currents[90.0])
    assert np.array_equal(a.digit_toggles, b.digit_toggles)
