"""Command-line surface: encode, weights, simulate, sweep, montecarlo, noise.

Every output file starts with a manifest header (tool version, subcommand and
the full parameter set) sufficient to re-run the command; identical
invocations produce byte-identical files. Errors print a machine-readable
category (CONFIG, RANGE, SOLVER, IO) and exit nonzero.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, analysis, codec, dac, pipeline
from .errors import ConfigError, FileFormatError, TernadacError


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written verbatim at the top of every output."""

    subcommand: str
    params: dict

    def header_lines(self, columns: str | None = None) -> list[str]:
        rendered = " ".join(f"{k}={v}" for k, v in self.params.items())
        lines = [
            f"# ternadac {__version__} {self.subcommand}",
            f"# params: {rendered}",
        ]
        if columns:
            lines.append(f"# columns: {columns}")
        return lines


#: Rows formatted and written at a time, so the text of a long record stays small.
CSV_BLOCK = 4096


def _cells(col) -> list[str]:
    """``str`` of every cell; a float64 array formats each distinct bit pattern once."""
    if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
        return list(map(str, col))
    _, first, inverse = np.unique(col.view(np.uint64), return_index=True, return_inverse=True)
    return np.array(list(map(repr, col[first].tolist())), dtype=object)[inverse].tolist()


def _write_csv(path, manifest: RunManifest, header: list[str], columns) -> None:
    """Manifest, header and equal-length data columns, all or nothing.

    Takes columns, not rows, and formats each one ``CSV_BLOCK`` rows at a time.
    Every cell is written as ``str(cell)``, which for a float is its shortest
    round-trip ``repr``: a value's text is the same whichever column form holds it.
    """
    names = ",".join(header)
    head = "".join(line + "\n" for line in manifest.header_lines(names)) + names + "\n"
    rows = len(columns[0]) if columns else 0
    try:
        head.encode("ascii")  # fails on a path the header cannot hold, before any file is made
        with codec.replacing(path) as tmp, open(tmp, "w", encoding="ascii") as fh:
            fh.write(head)
            for start in range(0, rows, CSV_BLOCK):
                cells = [_cells(col[start : start + CSV_BLOCK]) for col in columns]
                fh.write("".join(map("%s\n".__mod__, map(",".join, zip(*cells)))))
    except (OSError, UnicodeEncodeError) as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def _load_config(args) -> tuple[dac.DacConfig, str]:
    if getattr(args, "config", None):
        return dac.read_config(args.config), str(args.config)
    return dac.calibrate(dac.build_prototype()), "builtin:prototype-calibrated"


def _stimulus_from_args(args, fs_hz: float) -> pipeline.StimulusSpec:
    try:
        kind = pipeline.StimulusKind(args.kind.upper())
    except ValueError:
        valid = ", ".join(k.value.lower() for k in pipeline.StimulusKind)
        raise ConfigError(f"--kind {args.kind!r} is not one of {valid}") from None
    return pipeline.StimulusSpec(
        kind=kind,
        amplitude_dbfs=args.amp,
        frequency_hz=args.freq,
        duration_s=args.duration,
        burst_on_s=args.burst_on,
        burst_off_s=args.burst_off,
        fs_hz=fs_hz,
    )


def _read_sample_file(path) -> np.ndarray:
    samples: list[int] = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise FileFormatError(
                f"{path}:{lineno}: not an integer sample: {line!r}"
            ) from None
        if not codec.SAMPLE_MIN <= value <= codec.SAMPLE_FULL_SCALE:
            raise FileFormatError(f"{path}:{lineno}: sample {value} outside 32-bit range")
        samples.append(value)
    return np.array(samples, dtype=np.int64)


def _parse_levels(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("--levels range must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"--levels: not numeric: {text!r}") from None
        if not (math.isfinite(start) and start <= stop < math.inf and 0 < step < math.inf):
            raise ConfigError("--levels range needs finite bounds, step > 0 and stop >= start")
        # Whole steps that fit, forgiving only float rounding; no level passes stop.
        count = math.floor((stop - start) / step + 1e-9) + 1
        return [min(start + k * step, stop) for k in range(count)]
    try:
        levels = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"--levels: not numeric: {text!r}") from None
    if not levels:
        raise ConfigError("--levels is empty")
    return levels


# --- subcommands -----------------------------------------------------------


def _cmd_encode(args) -> int:
    if args.infile:
        stream = _read_sample_file(args.infile)
        n_digits = args.digits
        stim_desc = f"in={args.infile}"
    else:
        spec = _stimulus_from_args(args, args.fs)
        stream = pipeline.generate(spec)
        n_digits = args.digits
        stim_desc = (
            f"kind={spec.kind.value.lower()} amp={spec.amplitude_dbfs}"
            f" freq={spec.frequency_hz} duration={spec.duration_s} fs={spec.fs_hz}"
        )
    digits, clamp_count = codec.encode_stream(stream, n_digits)
    manifest = RunManifest(
        "encode",
        {"digits": n_digits, "stimulus": stim_desc, "clamped": clamp_count, "out": args.out},
    )
    codec.write_digit_dump(args.out, digits, header_lines=manifest.header_lines())
    return 0


def _cmd_weights(args) -> int:
    config, config_desc = _load_config(args)
    table = dac.weights(config)
    w = table.w_open
    rows = []
    for k in range(table.n_digits):
        if k + 1 < table.n_digits:
            ratio = w[k] / w[k + 1]
            rows.append((k + 1, w[k], f"{ratio:.9f}", f"{20.0 * math.log10(ratio):.4f}"))
        else:
            rows.append((k + 1, w[k], "", ""))
    rows.append(("z_out_ohms", table.z_out, "", ""))
    rows.append(("v_full_scale_volts", table.v_full_scale, "", ""))
    rows.append(("v_full_scale_pp_volts", 2.0 * table.v_full_scale, "", ""))
    rows.append(("v_loaded_full_scale_pp_volts", 2.0 * float(table.w_pos_loaded.sum()), "", ""))
    manifest = RunManifest("weights", {"config": config_desc, "out": args.out})
    header = ["stage", "weight_volts", "ratio_to_next", "attenuation_db"]
    _write_csv(args.out, manifest, header, list(zip(*rows)))
    return 0


def _cmd_simulate(args) -> int:
    config, config_desc = _load_config(args)
    params = {"config": config_desc, "seed": args.seed, "fs": args.fs}
    if args.digits_in:
        digits = codec.read_digit_dump(args.digits_in, config.n_digits)
        clamp_count = 0
        params["digits_in"] = args.digits_in
    else:
        spec = _stimulus_from_args(args, args.fs)
        digits, clamp_count = codec.encode_stream(pipeline.generate(spec), config.n_digits)
        params.update(
            kind=spec.kind.value.lower(),
            amp=spec.amplitude_dbfs,
            freq=spec.frequency_hz,
            duration=spec.duration_s,
            clamped=clamp_count,
        )
    trace = pipeline.simulate_digits(
        digits,
        config,
        fs_hz=args.fs,
        add_thermal_noise=args.noise,
        temperature_k=args.temp,
        seed=args.seed,
        clamp_count=clamp_count,
    )
    params["noise"] = "on" if args.noise else "off"
    if args.noise:
        params["temp"] = args.temp
    params["out"] = args.out
    manifest = RunManifest("simulate", params)
    if args.dump_digits:
        codec.write_digit_dump(args.dump_digits, digits, header_lines=manifest.header_lines())
    columns = ["time_s", "v_out_volts"] + [f"i{v:g}_amps" for v in trace.rail_currents]
    time_s = np.arange(len(trace)) / args.fs
    _write_csv(args.out, manifest, columns, [time_s, trace.v_out, *trace.rail_currents.values()])
    return 0


def _cmd_sweep(args) -> int:
    config, config_desc = _load_config(args)
    levels = _parse_levels(args.levels)
    result = analysis.level_sweep(
        config,
        levels,
        f0_hz=args.freq,
        duration_s=args.duration,
        fs_hz=args.fs,
    )
    manifest = RunManifest(
        "sweep",
        {
            "config": config_desc,
            "levels": args.levels,
            "f0": result.f0_hz,
            "duration": args.duration,
            "fs": args.fs,
            "seed": args.seed,
            "out": args.out,
        },
    )
    columns = ["level_dbfs", "level_dbm", "sfdr_db", "efficiency_pct"]
    columns += [f"i{v:g}_avg_a" for v in result.rows[0].rail_avg_a]
    rows = [
        (r.level_dbfs, r.level_dbm, r.sfdr_db, r.efficiency_pct, *r.rail_avg_a.values())
        for r in result.rows
    ]
    _write_csv(args.out, manifest, columns, list(zip(*rows)))
    return 0


def _cmd_montecarlo(args) -> int:
    config, config_desc = _load_config(args)
    result = analysis.monte_carlo(
        config,
        tolerance=args.tol,
        trials=args.trials,
        level_dbfs=args.level,
        f0_hz=args.freq,
        seed=args.seed,
        duration_s=args.duration,
        fs_hz=args.fs,
    )
    manifest = RunManifest(
        "montecarlo",
        {
            "config": config_desc,
            "tol": args.tol,
            "trials": args.trials,
            "level": args.level,
            "f0": result.f0_hz,
            "duration": args.duration,
            "fs": args.fs,
            "seed": args.seed,
            "out": args.out,
        },
    )
    rows = [(trial, value) for trial, value in enumerate(result.sfdr_db)]
    _write_csv(args.out, manifest, ["trial", "sfdr_db"], list(zip(*rows)))
    print(
        f"montecarlo: median={result.median_db:.2f} dB "
        f"p10={result.p10_db:.2f} dB p90={result.p90_db:.2f} dB"
    )
    return 0


def _cmd_noise(args) -> int:
    if not math.isfinite(args.pmax_dbm):
        raise ConfigError(f"--pmax-dbm must be a finite dBm figure, got {args.pmax_dbm}")
    budget = analysis.thermal_noise(args.t, args.b)
    dr = analysis.dynamic_range(args.pmax_dbm, budget.noise_dbm)
    manifest = RunManifest(
        "noise",
        {
            "t": args.t,
            "b": args.b,
            "pmax_dbm": args.pmax_dbm,
            "digits": args.digits,
            "quantization_dr_db": analysis.quantization_dynamic_range(args.digits),
            "out": args.out,
        },
    )
    rows = [(budget.temperature_k, budget.bandwidth_hz, budget.noise_w, budget.noise_dbm, dr)]
    _write_csv(args.out, manifest, ["t_k", "b_hz", "noise_w", "noise_dbm", "dr_db"], list(zip(*rows)))
    return 0


# --- parser ------------------------------------------------------------------


def _add_stimulus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", default="sine", help="sine | burst | click | silence")
    parser.add_argument("--amp", type=float, default=0.0, help="amplitude in dBFS (<= 0)")
    parser.add_argument("--freq", type=float, default=800.0, help="tone frequency in Hz")
    parser.add_argument("--duration", type=float, default=1.024, help="duration in seconds")
    parser.add_argument("--burst-on", type=float, default=None, help="burst on time (s)")
    parser.add_argument("--burst-off", type=float, default=None, help="burst off time (s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternadac",
        description="Ternary resistor-ladder DAC simulator",
    )
    parser.add_argument("--version", action="version", version=f"ternadac {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("encode", help="encode a stimulus or sample file as ternary digits")
    _add_stimulus_args(p)
    p.add_argument("--in", dest="infile", default=None, help="sample file, one integer per line")
    p.add_argument("--digits", type=int, default=codec.DEFAULT_N_DIGITS)
    p.add_argument("--fs", type=float, default=pipeline.DEFAULT_FS_HZ)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("weights", help="emit the per-stage weight table as CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("simulate", help="run a stimulus through the converter model")
    _add_stimulus_args(p)
    p.add_argument("--config", default=None)
    p.add_argument("--digits-in", default=None, help="pre-encoded digit dump to convert")
    p.add_argument("--noise", action="store_true", help="add load thermal noise")
    p.add_argument("--temp", type=float, default=300.0, help="noise temperature in K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fs", type=float, default=pipeline.DEFAULT_FS_HZ)
    p.add_argument("--dump-digits", default=None, help="also write the digit dump here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="level sweep: SFDR, efficiency and rail currents")
    p.add_argument("--config", default=None)
    p.add_argument("--levels", default="-30:0:1", help="dBFS list a,b,c or range start:stop:step")
    p.add_argument("--freq", type=float, default=800.0)
    p.add_argument("--duration", type=float, default=0.256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fs", type=float, default=pipeline.DEFAULT_FS_HZ)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("montecarlo", help="component-tolerance SFDR study")
    p.add_argument("--config", default=None)
    p.add_argument("--tol", type=float, default=0.05, help="uniform tolerance fraction")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--level", type=float, default=-20.0, help="stimulus level in dBFS")
    p.add_argument("--freq", type=float, default=800.0)
    p.add_argument("--duration", type=float, default=0.256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fs", type=float, default=pipeline.DEFAULT_FS_HZ)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("noise", help="thermal-noise budget and dynamic ranges")
    p.add_argument("--t", type=float, default=300.0, help="temperature in K")
    p.add_argument("--b", type=float, default=20000.0, help="bandwidth in Hz")
    p.add_argument("--pmax-dbm", type=float, default=47.4, help="peak signal power in dBm")
    p.add_argument("--digits", type=int, default=codec.DEFAULT_N_DIGITS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_noise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TernadacError as exc:
        print(f"ternadac: error [{exc.category}] {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
