"""The benchmark workloads: one CLI operation each, plus its output checks.

A workload turns a seed into the argument lists of one operation (one or two
``cli.main`` calls) and checks the files that operation wrote. Checks compare
against tolerances, never golden digests, because a faster implementation may
change the last bits of a float: the fast path must agree with the direct
network solve to 1e-9 relative (acceptance criterion 6's gate).

The seed picks the tone's coherent bin (within two bins of 800 Hz) and the
Monte-Carlo seed. The program under test receives only CLI arguments and the
config file the set-up wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ternadac import codec, dac, pipeline

FS = pipeline.DEFAULT_FS_HZ
N_DIGITS = codec.DEFAULT_N_DIGITS
RTOL = 1e-9
SAMPLED_ROWS = 64
#: The ideal converter's spurs lie 185-215 dB below the tone, where float
#: rounding of v_out moves the spur-to-tone amplitude ratio by up to 5e-18
#: (seen between the fast path and the direct solve). SFDR is therefore
#: compared as that ratio, to RTOL or to this absolute floor.
SPUR_FLOOR = 1e-16

BURST_AMP_DBFS = -177.0
#: 42 Vrms full scale at -177 dBFS, acceptance criterion 10.
BURST_RMS_V = 42.0 * 10.0 ** (BURST_AMP_DBFS / 20.0)
MC_TOL = 0.05
MC_LEVEL_DBFS = -20.0

TRACE_COLUMNS = ["time_s", "v_out_volts", "i90_amps", "i12_amps"]
SWEEP_COLUMNS = ["level_dbfs", "level_dbm", "sfdr_db", "efficiency_pct", "i90_avg_a", "i12_avg_a"]


@dataclass(frozen=True)
class Sizes:
    """Record lengths and trial count; the benchmark runs FULL, its tests TINY."""

    replay_s: float = 1.0
    #: The replay record (64,000 samples) is no power of two, so its tone
    #: sits on the coherent grid of a record this long.
    replay_grid_s: float = 1.024
    #: Sweep levels as the CLI's ``start:stop:step`` in dBFS.
    sweep_levels: tuple[int, int, int] = (-30, 0, 1)
    sweep_s: float = 0.256
    mc_trials: int = 100
    mc_s: float = 0.256


FULL = Sizes()
TINY = Sizes(replay_s=0.05, replay_grid_s=0.016, sweep_levels=(-30, 0, 5), sweep_s=0.016, mc_trials=8, mc_s=0.016)


def n_samples(duration_s: float) -> int:
    return int(round(duration_s * FS))


def coherent_tone(duration_s: float, bin_offset: int) -> float:
    """A tone ``bin_offset`` bins from 800 Hz on the record's coherent grid."""
    n = n_samples(duration_s)
    return (round(800.0 * n / FS) + bin_offset) * FS / n


@dataclass(frozen=True)
class Params:
    """Everything a workload takes from the seed."""

    bin_offset: int
    mc_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Params":
        rng = np.random.default_rng(seed)
        return cls(bin_offset=int(rng.integers(-2, 3)), mc_seed=int(rng.integers(0, 2**31)))


class Oracle:
    """Reference values from the direct network solve of the calibrated converter."""

    def __init__(self, config: dac.DacConfig):
        self.config = config
        self.dac = dac.Dac(config)
        self.w_pos, self.w_neg = direct_weights(self.dac)

    def v_out(self, digits: np.ndarray) -> np.ndarray:
        return (digits == 1) @ self.w_pos + (digits == -1) @ self.w_neg


def direct_weights(converter: dac.Dac) -> tuple[np.ndarray, np.ndarray]:
    """Output of every single-digit word (+1 and -1 per stage) by full solve."""
    n = converter.n_digits
    pos, neg = np.empty(n), np.empty(n)
    for k in range(n):
        word = np.zeros(n, dtype=np.int8)
        word[k] = 1
        pos[k] = converter.output_direct(codec.DigitVector.from_array(word))
        word[k] = -1
        neg[k] = converter.output_direct(codec.DigitVector.from_array(word))
    return pos, neg


def single_digit_words(n: int) -> np.ndarray:
    eye = np.eye(n, dtype=np.int8)
    return np.concatenate([eye, -eye])


def close(actual, expected, scale: float) -> np.ndarray:
    """Criterion 6's gate: |a - e| <= 1e-9 * max(|e|, 1e-9 * scale)."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    return np.abs(actual - expected) <= RTOL * np.maximum(np.abs(expected), RTOL * scale)


def sfdr_close(actual_db: float, expected_db: float) -> bool:
    actual, expected = 10.0 ** (-actual_db / 20.0), 10.0 ** (-expected_db / 20.0)
    return abs(actual - expected) <= max(RTOL * expected, SPUR_FLOOR)


def encode(stream: np.ndarray) -> np.ndarray:
    values, _ = codec.scale_samples(stream, N_DIGITS)
    return codec.to_balanced_ternary_array(values, N_DIGITS)


def sine_digits(level_dbfs: float, frequency_hz: float, duration_s: float) -> np.ndarray:
    spec = pipeline.StimulusSpec(
        kind=pipeline.StimulusKind.SINE, amplitude_dbfs=level_dbfs,
        frequency_hz=frequency_hz, duration_s=duration_s,
    )
    return encode(pipeline.generate(spec))


def data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="ascii").splitlines() if not line.startswith("#")]


def read_csv(path: Path, columns: list[str]) -> np.ndarray:
    """Numeric body of a CLI CSV; raises ValueError on a header or shape mismatch."""
    lines = data_lines(path)
    if not lines or lines[0].split(",") != columns:
        raise ValueError(f"{path.name}: header is not {','.join(columns)}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{path.name}: a row does not have {len(columns)} cells")
    return np.array(rows, dtype=float).reshape(len(rows), len(columns))


def read_dump(path: Path) -> np.ndarray:
    """Digit dump parsed independently of the codec's reader."""
    table = {"+": 1, "0": 0, "-": -1}
    return np.array([[table[c] for c in line] for line in data_lines(path)], dtype=np.int8)


def spectral_sfdr(v: np.ndarray, bin_f0: int) -> float:
    spectrum = np.abs(np.fft.rfft(v))
    spurs = spectrum.copy()
    spurs[[0, bin_f0]] = 0.0
    return 20.0 * math.log10(spectrum[bin_f0] / spurs.max())


class Workload:
    """One operation of the closed loop and the checks on what it wrote."""

    name: str
    why: str
    outputs: tuple[str, ...]

    def __init__(self, params: Params, sizes: Sizes = FULL):
        self.params = params
        self.sizes = sizes

    @property
    def samples_per_op(self) -> int:
        raise NotImplementedError

    def argvs(self, config_path: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, oracle: Oracle, out: Path) -> list[str]:
        """Problems found in the files of one operation written under ``out``."""
        raise NotImplementedError


def check_trace(oracle: Oracle, table: np.ndarray, digits: np.ndarray, seed: int) -> list[str]:
    """simulate CSV against the direct solve: every v_out, and rails on sampled rows."""
    if len(table) != len(digits):
        return [f"trace has {len(table)} rows, expected {len(digits)}"]
    problems = []
    if not np.array_equal(table[:, 0], np.arange(len(digits)) / FS):
        problems.append("time_s column is not sample index / fs")
    v_out = table[:, 1]
    v_scale = float(np.abs(v_out).max(initial=0.0))
    bad = np.flatnonzero(~close(v_out, oracle.v_out(digits), v_scale))
    if bad.size:
        problems.append(f"v_out differs from the direct-solve weights at row {bad[0]}")
    rng = np.random.default_rng(seed)
    rows = rng.choice(len(digits), size=min(SAMPLED_ROWS, len(digits)), replace=False)
    i_scale = {90.0: float(np.abs(table[:, 2]).max()), 12.0: float(np.abs(table[:, 3]).max())}
    for row in np.sort(rows):
        word = codec.DigitVector.from_array(digits[row])
        if not close(v_out[row], oracle.dac.output_direct(word), v_scale):
            problems.append(f"v_out differs from output_direct at row {row}")
        currents = oracle.dac.supply_currents(word)
        for col, rail in ((2, 90.0), (3, 12.0)):
            if not close(table[row, col], currents.get(rail, 0.0), i_scale[rail]):
                problems.append(f"{rail:g} V rail current differs from supply_currents at row {row}")
    return problems


class Replay(Workload):
    name = "replay"
    why = "criterion-10 nanovolt burst encoded to a digit dump and simulated back: the only dump write and read; seed picks the tone bin"
    outputs = ("burst.dump", "trace.csv")

    def spec(self) -> pipeline.StimulusSpec:
        half = self.sizes.replay_s / 2.0
        return pipeline.StimulusSpec(
            kind=pipeline.StimulusKind.BURST,
            amplitude_dbfs=BURST_AMP_DBFS,
            frequency_hz=coherent_tone(self.sizes.replay_grid_s, self.params.bin_offset),
            duration_s=self.sizes.replay_s,
            burst_on_s=half,
            burst_off_s=half,
        )

    @property
    def samples_per_op(self) -> int:
        return n_samples(self.sizes.replay_s)

    def argvs(self, config_path, out):
        spec = self.spec()
        dump = str(out / "burst.dump")
        return [
            [
                "encode", "--kind", "burst", "--amp", repr(spec.amplitude_dbfs),
                "--freq", repr(spec.frequency_hz), "--duration", repr(spec.duration_s),
                "--burst-on", repr(spec.burst_on_s), "--burst-off", repr(spec.burst_off_s),
                "--out", dump,
            ],
            [
                "simulate", "--config", str(config_path), "--digits-in", dump,
                "--out", str(out / "trace.csv"),
            ],
        ]

    def check(self, oracle, out):
        spec = self.spec()
        try:
            digits = read_dump(out / "burst.dump")
            table = read_csv(out / "trace.csv", TRACE_COLUMNS)
        except (KeyError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]
        values, _ = codec.scale_samples(pipeline.generate(spec), N_DIGITS)
        if digits.shape != (len(values), N_DIGITS):
            return [f"dump has shape {digits.shape}, expected {(len(values), N_DIGITS)}"]
        problems = []
        if not np.array_equal(digits.astype(np.int64) @ 3 ** np.arange(N_DIGITS - 1, -1, -1), values):
            problems.append("dump does not decode to scale_samples(generate(spec))")
        if codec.leading_zero_count_array(digits).min() < N_DIGITS - 2:
            problems.append("a dump word has fewer than 18 leading zeros")
        problems += check_trace(oracle, table, digits, self.params.mc_seed)
        if len(table) == len(digits):
            rms = float(np.sqrt(np.mean(table[pipeline.burst_gate(spec), 1] ** 2)))
            if abs(rms - BURST_RMS_V) > 0.10 * BURST_RMS_V:
                problems.append(f"on-gate rms {rms:.4g} V is not within 10% of {BURST_RMS_V:.4g} V")
        return problems


class Sweep(Workload):
    name = "sweep"
    why = "31 levels x 16,384 samples on one reused Dac: rail currents and encoding dominate, tiny CSV, no rebuild; seed picks the tone bin"
    outputs = ("sweep.csv",)

    def levels(self) -> np.ndarray:
        start, stop, step = self.sizes.sweep_levels
        # The CLI's own expansion of start:stop:step, so the floats match exactly.
        return np.array([float(start) + k * float(step) for k in range((stop - start) // step + 1)])

    @property
    def samples_per_op(self) -> int:
        return len(self.levels()) * n_samples(self.sizes.sweep_s)

    def argvs(self, config_path, out):
        return [[
            "sweep", "--config", str(config_path), "--levels={}:{}:{}".format(*self.sizes.sweep_levels),
            "--freq", repr(coherent_tone(self.sizes.sweep_s, self.params.bin_offset)),
            "--duration", repr(self.sizes.sweep_s), "--out", str(out / "sweep.csv"),
        ]]

    def check(self, oracle, out):
        levels = self.levels()
        try:
            table = read_csv(out / "sweep.csv", SWEEP_COLUMNS)
        except ValueError as exc:
            return [str(exc)]
        if len(table) != len(levels) or not np.array_equal(table[:, 0], levels):
            return [f"sweep rows are not the levels {levels[0]:g}..{levels[-1]:g} dBFS"]
        problems = []
        if not np.all(np.diff(table[:, 1]) > 0):
            problems.append("level_dbm does not increase strictly with level_dbfs")
        total = table[:, 4] + table[:, 5]
        below_top = levels[int(np.argmax(total))] - levels[-1]
        if not -15.0 <= below_top <= -5.0:
            problems.append(f"supply-current peak {below_top:g} dB from the top level, not 5-15 dB below (criterion 8)")
        row = int(np.random.default_rng(self.params.mc_seed).integers(len(levels)))
        return problems + self.check_level(oracle, levels[row], table[row])

    def check_level(self, oracle, level: float, row: np.ndarray) -> list[str]:
        """One row against the direct network solve of every distinct word."""
        n = n_samples(self.sizes.sweep_s)
        f0 = coherent_tone(self.sizes.sweep_s, self.params.bin_offset)
        digits = sine_digits(level, f0, self.sizes.sweep_s)
        v = oracle.v_out(digits)
        words, index = np.unique(digits, axis=0, return_inverse=True)
        per_word = [oracle.dac.supply_currents(codec.DigitVector.from_array(w)) for w in words]
        currents = {rail: np.array([c.get(rail, 0.0) for c in per_word])[index.ravel()] for rail in (90.0, 12.0)}
        load_w = float(np.mean(v**2)) / oracle.config.load_ohms
        supply_w = sum(rail * float(np.mean(i)) for rail, i in currents.items())
        problems = []
        sfdr_db = spectral_sfdr(v, round(f0 * n / FS))
        if not sfdr_close(row[2], sfdr_db):
            problems.append(f"level {level:g} dBFS: sfdr_db {row[2]!r} != direct-solve {sfdr_db!r}")
        expected = {
            "level_dbm": (10.0 * math.log10(load_w / 1e-3), 0.0),
            "efficiency_pct": (100.0 * load_w / supply_w, 0.0),
            "i90_avg_a": (float(np.mean(currents[90.0])), float(np.abs(currents[90.0]).max())),
            "i12_avg_a": (float(np.mean(currents[12.0])), float(np.abs(currents[12.0]).max())),
        }
        return problems + [
            f"level {level:g} dBFS: {name} {row[SWEEP_COLUMNS.index(name)]!r} != direct-solve {value!r}"
            for name, (value, scale) in expected.items()
            if not close(row[SWEEP_COLUMNS.index(name)], value, scale)
        ]


class MonteCarlo(Workload):
    name = "montecarlo"
    why = "100 perturbed trials, one Dac build each: network stamping and LU, no rail currents, tiny CSV; seed picks tone bin and trial seed"
    outputs = ("mc.csv",)

    @property
    def samples_per_op(self) -> int:
        return self.sizes.mc_trials * n_samples(self.sizes.mc_s)

    def argvs(self, config_path, out):
        return [[
            "montecarlo", "--config", str(config_path), "--tol", repr(MC_TOL),
            "--trials", str(self.sizes.mc_trials), "--level", repr(MC_LEVEL_DBFS),
            "--freq", repr(coherent_tone(self.sizes.mc_s, self.params.bin_offset)),
            "--duration", repr(self.sizes.mc_s), "--seed", str(self.params.mc_seed),
            "--out", str(out / "mc.csv"),
        ]]

    def check(self, oracle, out):
        trials = self.sizes.mc_trials
        try:
            table = read_csv(out / "mc.csv", ["trial", "sfdr_db"])
        except ValueError as exc:
            return [str(exc)]
        if len(table) != trials or not np.array_equal(table[:, 0], np.arange(trials)):
            return [f"montecarlo rows are not trials 0..{trials - 1}"]
        problems = []
        median = float(np.median(table[:, 1]))
        if not 40.0 <= median <= 90.0:
            problems.append(f"median SFDR {median:.2f} dB outside [40, 90] dB (criterion 9)")
        trial = int(np.random.default_rng(self.params.mc_seed).integers(trials))
        perturbed = dac.Dac(dac.perturb(replace(oracle.config, tolerance=MC_TOL), (self.params.mc_seed, trial)))
        w_pos, w_neg = direct_weights(perturbed)
        words = single_digit_words(N_DIGITS)
        direct = np.concatenate([w_pos, w_neg])
        if not np.all(close(perturbed.output_array(words), direct, float(np.abs(direct).max()))):
            problems.append(f"trial {trial}: fast path differs from output_direct on single-digit words")
        n = n_samples(self.sizes.mc_s)
        f0 = coherent_tone(self.sizes.mc_s, self.params.bin_offset)
        digits = sine_digits(MC_LEVEL_DBFS, f0, self.sizes.mc_s)
        v = (digits == 1) @ w_pos + (digits == -1) @ w_neg
        expected = spectral_sfdr(v, round(f0 * n / FS))
        if not sfdr_close(table[trial, 1], expected):
            problems.append(f"trial {trial}: sfdr_db {table[trial, 1]!r} != direct-solve {expected!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Replay, Sweep, MonteCarlo)}
