"""Figures of merit: SFDR, power efficiency, thermal-noise budget, sweeps.

Spectra use coherent sampling with a rectangular window on power-of-two
records, so the fundamental occupies a single FFT bin and spur identification
needs no window bookkeeping. Helpers snap a requested tone onto the nearest
coherent bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import codec, pipeline
from .dac import Dac, DacConfig, group_tables, table_output, trial_weights
from .dac import perturb  # noqa: F401  (kept importable from here; benchmarks/tracing.py wraps it)
from .errors import RangeError
from .pipeline import BOLTZMANN_J_PER_K, SimulationTrace, StimulusKind, StimulusSpec

DEFAULT_RECORD_SAMPLES = 2**16


def snap_coherent(frequency_hz: float, fs_hz: float, n_samples: int) -> float:
    """Nearest frequency with an integer number of cycles in the record."""
    if n_samples < 2:
        raise RangeError("record must hold at least 2 samples")
    cycles = frequency_hz * n_samples / fs_hz
    if not math.isfinite(cycles):
        raise RangeError(f"{frequency_hz:g} Hz at fs={fs_hz:g} Hz has no coherent bin")
    k = int(round(cycles))
    k = min(max(k, 1), n_samples // 2 - 1)
    return k * fs_hz / n_samples


def _as_series(trace) -> np.ndarray:
    if isinstance(trace, SimulationTrace):
        return np.asarray(trace.v_out, dtype=float)
    return np.asarray(trace, dtype=float)


def sfdr(trace, f0_hz: float, fs_hz: float) -> float:
    """Spurious-free dynamic range in dB.

    dB gap between the fundamental bin and the largest other bin (DC
    excluded) of the rectangular-window magnitude spectrum. The record length
    must be a power of two and f0 must be coherent; a non-coherent tone
    raises with the nearest coherent substitute in the message.
    """
    v = _as_series(trace)
    n = len(v)
    if n < 4 or n & (n - 1):
        raise RangeError(f"record length {n} is not a power of two")
    cycles = f0_hz * n / fs_hz
    if abs(cycles - round(cycles)) > 1e-6:
        suggestion = snap_coherent(f0_hz, fs_hz, n)
        raise RangeError(
            f"{f0_hz:g} Hz is not coherent with a {n}-sample record at fs={fs_hz:g} Hz; "
            f"snap the tone to {suggestion!r} Hz"
        )
    bin_f0 = int(round(cycles))
    if not 1 <= bin_f0 <= n // 2:
        raise RangeError(f"fundamental bin {bin_f0} outside the spectrum")
    spectrum = np.abs(np.fft.rfft(v))
    fundamental = spectrum[bin_f0]
    spurs = spectrum.copy()
    spurs[0] = 0.0
    spurs[bin_f0] = 0.0
    worst = float(spurs.max())
    if worst == 0.0:
        return math.inf
    if fundamental == 0.0:
        return -math.inf
    return 20.0 * math.log10(fundamental / worst)


def efficiency(trace: SimulationTrace, config: DacConfig, clamp_negative: bool = False) -> float:
    """Load power over supply power, in percent.

    Signed rail accounting by default (a rail absorbing current subtracts);
    ``clamp_negative`` switches to non-regenerative accounting where back-fed
    instantaneous current is discarded. Zero supply power with any output is
    undefined and reported as NaN.
    """
    load_w = float(np.mean(np.square(trace.v_out))) / config.load_ohms
    supply_w = 0.0
    for rail_v, series in trace.rail_currents.items():
        current = np.maximum(series, 0.0) if clamp_negative else series
        supply_w += rail_v * float(np.mean(current))
    if supply_w == 0.0:
        return math.nan
    return 100.0 * load_w / supply_w


@dataclass(frozen=True)
class NoiseBudget:
    """Available thermal noise power of the output impedance over a bandwidth."""

    k_boltzmann: float
    temperature_k: float
    bandwidth_hz: float
    noise_w: float
    noise_dbm: float


def thermal_noise(temperature_k: float, bandwidth_hz: float) -> NoiseBudget:
    """kTB available noise power and its dBm equivalent."""
    if not (0 < temperature_k < math.inf and 0 < bandwidth_hz < math.inf):
        raise RangeError("temperature and bandwidth must be finite and > 0")
    noise_w = BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz
    return NoiseBudget(
        k_boltzmann=BOLTZMANN_J_PER_K,
        temperature_k=temperature_k,
        bandwidth_hz=bandwidth_hz,
        noise_w=noise_w,
        noise_dbm=10.0 * math.log10(noise_w / 1e-3),
    )


def dynamic_range(p_max_dbm: float, noise_dbm: float) -> float:
    """dB span between peak signal power and the noise floor."""
    return p_max_dbm - noise_dbm


def quantization_dynamic_range(n_digits: int) -> float:
    """20*log10(3**n): level-count bound on the converter's dynamic range."""
    if n_digits < 1:
        raise RangeError("n_digits must be >= 1")
    return 20.0 * n_digits * math.log10(3.0)


@dataclass(frozen=True)
class SweepRow:
    level_dbfs: float
    level_dbm: float
    sfdr_db: float
    efficiency_pct: float
    rail_avg_a: dict[float, float]  # mean signed amps per rail, Dac.rail_voltages order


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    f0_hz: float
    fs_hz: float

    def __post_init__(self) -> None:
        levels = [row.level_dbfs for row in self.rows]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise RangeError("sweep levels must be strictly increasing")


def _coherent_sine(
    level_dbfs: float, f0_hz: float, duration_s: float, fs_hz: float
) -> StimulusSpec:
    """Sine stimulus on a power-of-two record, its tone snapped to a coherent bin."""
    if not math.isfinite(duration_s * fs_hz):
        raise RangeError(f"duration {duration_s:g} s at fs={fs_hz:g} Hz gives no finite record")
    n = int(round(duration_s * fs_hz))
    if n < 4 or n & (n - 1):
        raise RangeError(
            f"duration {duration_s:g} s gives {n} samples; choose a power-of-two record"
        )
    return StimulusSpec(
        kind=StimulusKind.SINE,
        amplitude_dbfs=level_dbfs,
        frequency_hz=snap_coherent(f0_hz, fs_hz, n),
        duration_s=duration_s,
        fs_hz=fs_hz,
    )


def level_sweep(
    config: DacConfig,
    levels_dbfs,
    f0_hz: float = 800.0,
    duration_s: float = 0.256,
    fs_hz: float = pipeline.DEFAULT_FS_HZ,
) -> SweepResult:
    """One simulate + sfdr + efficiency row per level (noise off, deterministic).

    The tone is snapped to the nearest coherent bin of the record.
    """
    tone = _coherent_sine(0.0, f0_hz, duration_s, fs_hz)
    f_snap = tone.frequency_hz
    dac = Dac(config)
    rows = []
    for level in levels_dbfs:
        spec = replace(tone, amplitude_dbfs=float(level))
        trace = pipeline.simulate(pipeline.generate(spec), config, fs_hz=fs_hz, dac=dac)
        power_w = float(np.mean(np.square(trace.v_out))) / config.load_ohms
        rows.append(
            SweepRow(
                level_dbfs=float(level),
                level_dbm=10.0 * math.log10(power_w / 1e-3) if power_w > 0 else -math.inf,
                sfdr_db=sfdr(trace, f_snap, fs_hz),
                efficiency_pct=efficiency(trace, config),
                rail_avg_a={v: float(np.mean(i)) for v, i in trace.rail_currents.items()},
            )
        )
    return SweepResult(rows=tuple(rows), f0_hz=f_snap, fs_hz=fs_hz)


@dataclass(frozen=True)
class MonteCarloResult:
    sfdr_db: np.ndarray  # one entry per trial
    median_db: float
    p10_db: float
    p90_db: float
    tolerance: float
    level_dbfs: float
    f0_hz: float


def monte_carlo(
    config: DacConfig,
    tolerance: float,
    trials: int,
    level_dbfs: float = -20.0,
    f0_hz: float = 800.0,
    seed: int = 0,
    duration_s: float = 0.256,
    fs_hz: float = pipeline.DEFAULT_FS_HZ,
) -> MonteCarloResult:
    """Component-tolerance SFDR study.

    Each trial perturbs the converter elements (seeded by (seed, trial) so a
    longer run extends a shorter one unchanged), keeps the exact encoder, and
    measures the SFDR of the mismatched converter on a coherent sine. The
    sine is encoded once into digit-group codes, every trial's loaded weights
    come from one stacked solve (:func:`~ternadac.dac.trial_weights`), and
    each trial is evaluated through its own group tables with the converter's
    fast-path expression.
    """
    spec = _coherent_sine(level_dbfs, f0_hz, duration_s, fs_hz)
    f_snap = spec.frequency_hz
    w_pos, w_neg = trial_weights(replace(config, tolerance=tolerance), seed, trials)
    digits, _ = codec.encode_stream(pipeline.generate(spec), config.n_digits)
    codes = codec.group_codes(digits)
    results = np.array(
        [
            sfdr(table_output(codes, group_tables(wp, wn)), f_snap, fs_hz)
            for wp, wn in zip(w_pos, w_neg)
        ]
    )
    p10, median, p90 = np.percentile(results, [10.0, 50.0, 90.0])
    return MonteCarloResult(
        sfdr_db=results,
        median_db=float(median),
        p10_db=float(p10),
        p90_db=float(p90),
        tolerance=tolerance,
        level_dbfs=level_dbfs,
        f0_hz=f_snap,
    )
