"""Stimulus generation and end-to-end converter simulation.

A sample stream becomes digit words through :func:`ternadac.codec.encode_stream`
(scale, then balanced-ternary encode), the one encode path that every caller
shares. :func:`simulate_digits` converts digit words: the differential
weight-table fast path gives the volts into the load, and the same network's
source currents give the signed current of each supply rail, keyed by its
volts. Everything is deterministic given (stimulus, config, seed); optional
load thermal noise is seeded Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import codec
from .dac import Dac, DacConfig, load_divider
from .errors import ConfigError, RangeError

BOLTZMANN_J_PER_K = 1.380649e-23

DEFAULT_FS_HZ = 64000.0


class StimulusKind(Enum):
    SINE = "SINE"
    BURST = "BURST"
    CLICK = "CLICK"
    SILENCE = "SILENCE"


@dataclass(frozen=True)
class StimulusSpec:
    """Test-signal description in the fixed-point sample domain."""

    kind: StimulusKind
    amplitude_dbfs: float = 0.0
    frequency_hz: float = 800.0
    duration_s: float = 1.0
    burst_on_s: float | None = None
    burst_off_s: float | None = None
    fs_hz: float = DEFAULT_FS_HZ

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0 < self.fs_hz < math.inf:
            raise ConfigError(f"fs_hz must be finite and > 0, got {self.fs_hz}")
        if not 0 < self.duration_s < math.inf:
            raise ConfigError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if not self.amplitude_dbfs <= 0:
            raise ConfigError("amplitude_dbfs must be <= 0 (0 dBFS = full scale)")
        if self.kind in (StimulusKind.SINE, StimulusKind.BURST):
            if not 0 < self.frequency_hz < self.fs_hz / 2:
                raise ConfigError(
                    f"frequency_hz must lie in (0, fs/2) = (0, {self.fs_hz / 2:g})"
                )
        if self.kind is StimulusKind.BURST:
            if self.burst_on_s is None or not 0 < self.burst_on_s < math.inf:
                raise ConfigError("BURST requires a finite burst_on_s > 0")
            if self.burst_off_s is None or not 0 <= self.burst_off_s < math.inf:
                raise ConfigError("BURST requires a finite burst_off_s >= 0")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.fs_hz))


def burst_gate(spec: StimulusSpec) -> np.ndarray:
    """Boolean on/off gate of a BURST stimulus (all-true for other kinds)."""
    n = spec.n_samples
    if spec.kind is not StimulusKind.BURST:
        return np.ones(n, dtype=bool)
    t = np.arange(n) / spec.fs_hz
    period = spec.burst_on_s + spec.burst_off_s
    return (t % period) < spec.burst_on_s


def generate(spec: StimulusSpec) -> np.ndarray:
    """Render the stimulus as a 32-bit fixed-point sample stream (int64 array).

    SINE: round(A * 2**31 * sin(2*pi*f*i/fs)) with A = 10**(dbfs/20), clipped
    to the signed 32-bit range; BURST gates the sine; CLICK is one
    full-amplitude sample; SILENCE is zeros. Phase starts at zero.
    """
    n = spec.n_samples
    if spec.kind is StimulusKind.SILENCE:
        return np.zeros(n, dtype=np.int64)
    amplitude = 10.0 ** (spec.amplitude_dbfs / 20.0)
    if spec.kind is StimulusKind.CLICK:
        out = np.zeros(n, dtype=np.int64)
        out[0] = round(amplitude * codec.SAMPLE_FULL_SCALE)
        return out
    phase = 2.0 * np.pi * spec.frequency_hz * np.arange(n) / spec.fs_hz
    wave = np.rint(amplitude * 2.0**31 * np.sin(phase))
    wave = np.clip(wave, codec.SAMPLE_MIN, codec.SAMPLE_FULL_SCALE).astype(np.int64)
    if spec.kind is StimulusKind.BURST:
        wave = np.where(burst_gate(spec), wave, 0)
    return wave


@dataclass(frozen=True)
class SimulationTrace:
    """Time series of one run: output volts, rail currents, digit activity.

    ``rail_currents`` maps each supply rail's volts to its signed amps per
    sample, in :attr:`Dac.rail_voltages` order.
    """

    v_out: np.ndarray
    rail_currents: dict[float, np.ndarray]
    digit_toggles: np.ndarray
    clamp_count: int
    fs_hz: float

    def __post_init__(self) -> None:
        n = len(self.v_out)
        for v, series in self.rail_currents.items():
            if len(series) != n:
                raise ConfigError(f"rail {v:g} V series length {len(series)} != {n}")

    def __len__(self) -> int:
        return len(self.v_out)


def _noise_sigma_at_load(dac: Dac, temperature_k: float, bandwidth_hz: float) -> float:
    # Output-referred source: open-circuit thermal voltage of the port
    # impedance (available power kT*B), divided down into the load.
    v_open = math.sqrt(4.0 * BOLTZMANN_J_PER_K * temperature_k * dac.z_out * bandwidth_hz)
    return v_open * load_divider(dac.z_out, dac.config.load_ohms)


def simulate_digits(
    digits: np.ndarray,
    config: DacConfig,
    fs_hz: float = DEFAULT_FS_HZ,
    add_thermal_noise: bool = False,
    temperature_k: float = 300.0,
    seed: int = 0,
    clamp_count: int = 0,
    dac: Dac | None = None,
) -> SimulationTrace:
    """Run pre-encoded digit words through the converter model."""
    if not 0 < fs_hz < math.inf:
        raise ConfigError(f"fs_hz must be finite and > 0, got {fs_hz}")
    if add_thermal_noise and not 0 < temperature_k < math.inf:
        raise RangeError(f"noise temperature must be finite and > 0 K, got {temperature_k}")
    if dac is None:
        dac = Dac(config)
    digits = np.asarray(digits)
    v_out = dac.output_array(digits)
    rails = dac.rail_currents_array(digits)
    toggles = np.count_nonzero(digits[1:] != digits[:-1], axis=0).astype(np.int64)
    if add_thermal_noise:
        rng = np.random.default_rng(seed)
        sigma = _noise_sigma_at_load(dac, temperature_k, fs_hz / 2.0)
        v_out = v_out + rng.normal(0.0, sigma, size=len(v_out))
    return SimulationTrace(
        v_out=v_out,
        rail_currents=rails,
        digit_toggles=toggles,
        clamp_count=clamp_count,
        fs_hz=fs_hz,
    )


def simulate(
    stream: np.ndarray,
    config: DacConfig,
    add_thermal_noise: bool = False,
    temperature_k: float = 300.0,
    seed: int = 0,
    fs_hz: float = DEFAULT_FS_HZ,
    dac: Dac | None = None,
) -> SimulationTrace:
    """Scale, encode and convert a fixed-point sample stream."""
    digits, clamp_count = codec.encode_stream(stream, config.n_digits)
    return simulate_digits(
        digits,
        config,
        fs_hz=fs_hz,
        add_thermal_noise=add_thermal_noise,
        temperature_k=temperature_k,
        seed=seed,
        clamp_count=clamp_count,
        dac=dac,
    )
