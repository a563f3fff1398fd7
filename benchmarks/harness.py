"""Closed-loop measurement of one workload through ``ternadac.cli.main``.

One client sends the next operation only after the previous one completed.
An untimed reference operation runs first and its files are checked in full;
every timed operation must then reproduce the reference's CSV and dump data
sections byte for byte (criterion 11), so every output is checked. Checks and
digests run outside the timed interval.

Set-up (import, calibrate, write the config file) is timed in fresh
interpreters spread evenly over the run; ``setup_s`` is their median.

Times are reported at nominal machine speed (see speed.py): the reference
kernel runs between the operations and inside every set-up process. The mean
operation time is divided by the kernel's mean time in the same run, each
set-up time by the kernel's time in its own process, and the ratios are
scaled by ``speed.NOMINAL_S``. The raw host-time figures are printed beside
them.

With tracing off the run reports the end-to-end metrics. With tracing on it
alternates untraced and traced operations and reports per-layer self times
and counts per traced operation, plus the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import speed
import ternadac
from ternadac import cli, dac
from tracing import Tracer
from workloads import FULL, WORKLOADS, Oracle, Params, Sizes, data_lines

SRC = Path(ternadac.__file__).resolve().parent.parent
ROOT = SRC.parent
SETUP_REPEATS = 10
MIN_TIMED_OPS = 3

# No per-operation latency percentile: a run holds too few operations for
# any percentile above the median to have ten operations beyond it.
END_TO_END = {
    "samples_per_s": "samples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_TIMES = [
    "cli.main", "cli.write_csv",
    "codec.scale", "codec.encode", "codec.write_dump", "codec.read_dump",
    "network.factor", "network.unit_solve", "network.output_impedance",
    "dac.read_config", "dac.perturb", "dac.build", "dac.output_array", "dac.rail_currents",
    "pipeline.generate", "pipeline.simulate_digits",
    "analysis.sfdr", "analysis.driver",
]
LAYER_CALLS = ["network.factor", "dac.perturb", "dac.build", "analysis.sfdr"]
LAYER_COUNTS = {"cli.write_csv.bytes": "B/op", "codec.dump.bytes": "B/op", "dac.samples": "count/op"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.ms": "ms/op" for name in LAYER_TIMES}
    units.update({f"{name}.calls": "count/op" for name in LAYER_CALLS})
    units.update(LAYER_COUNTS)
    units.update({"dac.calibrate.ms": "ms", "setup.network.factor.calls": "count", "trace.overhead_ms": "ms/op"})
    return units


# Set-up as a fresh process pays it: import, calibrate, write the config
# file. The reference kernel runs after it, in the same process.
SETUP_CODE = """\
import json, statistics, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ternadac
ternadac.write_config(ternadac.calibrate(ternadac.build_prototype()), sys.argv[2])
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
import speed
kernel = statistics.median(speed.seconds() for _ in range(3))
print(json.dumps({"seconds": seconds, "kernel": kernel, "module": ternadac.__file__}))
"""


def measure_setup(path: Path, reference: bytes) -> tuple[float, float, float]:
    """One set-up in a fresh interpreter: its own host seconds, the kernel's
    seconds in that process, and the wall seconds spent."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(path), str(Path(speed.__file__).parent)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    if Path(record["module"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"set-up imported ternadac from {record['module']}")
    if path.read_bytes() != reference:
        raise RuntimeError("set-up wrote a config that differs from the in-process one")
    return record["seconds"], record["kernel"], wall


def environment(blas_pin: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": blas_pin,
        "thread_env": {var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def execute(argvs: list[list[str]]) -> str | None:
    """Run one operation; returns why it failed, or None."""
    for argv in argvs:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an operation that raises is a failed operation
            return f"{argv[0]} raised {exc!r}"
        if code != 0:
            return f"{argv[0]} exited {code}"
    return None


def digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = out / name
        h.update("\n".join(data_lines(path)).encode() if path.exists() else b"<missing>")
    return h.hexdigest()


def run(workload_name: str, seed: int, seconds: float, trace: bool, blas_pin: int,
        sizes: Sizes = FULL, setup_repeats: int = SETUP_REPEATS,
        spans_path: Path | None = None) -> tuple[dict, list[str], list[float], dict[str, float]]:
    """Measure one workload.

    Returns the result object the benchmark prints, the problems found, the
    host seconds of each measured operation, and (tracing off) the end-to-end
    figures in raw host time.
    """
    workload = WORKLOADS[workload_name](Params.from_seed(seed), sizes)
    work = ROOT / ".bench_work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "ref").mkdir(parents=True)
    (work / "op").mkdir()
    try:
        return _run(workload, seconds, trace, blas_pin, setup_repeats, work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seconds, trace, blas_pin, setup_repeats, work, spans_path):
    tracer = Tracer()
    config_path = work / "dac.cfg"
    if trace:
        tracer.op = "setup"
        tracer.install()
    try:
        config = dac.calibrate(dac.build_prototype())
    finally:
        tracer.remove()
    dac.write_config(config, config_path)
    config_bytes = config_path.read_bytes()
    setup_times: list[float] = []
    setup_ratios: list[float] = []
    setup_wall = 0.0

    problems: list[str] = []
    failure = execute(workload.argvs(config_path, work / "ref"))
    failed = 0
    if failure:
        problems.append(f"reference operation: {failure}")
        failed += 1
    reference = digest(work / "ref", workload.outputs)
    timed: list[float] = []
    traced: list[float] = []
    argvs = workload.argvs(config_path, work / "op")
    setups = 0 if trace else setup_repeats
    # The reference kernel's seconds, once before and then after each timed operation.
    kernel = [] if trace else [speed.seconds()]
    while (sum(timed) + sum(traced) + sum(kernel) + setup_wall < seconds
           or len(traced if trace else timed) < MIN_TIMED_OPS or len(setup_times) < setups):
        # Set-up samples are spread evenly over the run, so that they see the
        # same machine speed as the operations around them.
        if len(setup_times) < setups and len(setup_times) * seconds <= (sum(timed) + setup_wall) * setups:
            seconds_inside, kernel_inside, wall = measure_setup(work / f"setup-{len(setup_times)}.cfg", config_bytes)
            setup_times.append(seconds_inside)
            setup_ratios.append(seconds_inside / kernel_inside)
            setup_wall += wall
        op_traced = trace and len(timed) > len(traced)
        # A fresh directory, so an operation that skips writing cannot pass on
        # the files an earlier one left behind.
        shutil.rmtree(work / "op")
        (work / "op").mkdir()
        gc.collect()
        if op_traced:
            tracer.op = len(traced)
            tracer.install()
        start = time.perf_counter()
        try:
            failure = execute(argvs)
        finally:
            elapsed = time.perf_counter() - start
            tracer.remove()
        (traced if op_traced else timed).append(elapsed)
        if not trace:
            kernel.append(speed.seconds())
        if failure is None and digest(work / "op", workload.outputs) != reference:
            failure = "data sections differ from the reference operation's"
        if failure:
            problems.append(f"operation {len(timed) + len(traced)}: {failure}")
            failed += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = 1 + len(timed) + len(traced)
    if not problems:
        problems = workload.check(Oracle(dac.read_config(config_path)), work / "ref")
        if problems:  # every operation reproduced the wrong reference output
            failed = attempted

    raw: dict[str, float] = {}
    if trace:
        metrics = layer_metrics(tracer, traced, timed)
        if spans_path is not None:
            write_spans(spans_path, tracer, environment(blas_pin))
    else:
        op_ratio = statistics.mean(timed) / statistics.mean(kernel)
        metrics = {
            "samples_per_s": workload.samples_per_op / (op_ratio * speed.NOMINAL_S),
            "setup_s": statistics.median(setup_ratios) * speed.NOMINAL_S,
            "peak_rss_mb": peak_rss_mb,
        }
        raw = {
            "samples_per_s": workload.samples_per_op * len(timed) / sum(timed),
            "setup_s": statistics.median(setup_times),
            "kernel_ms": statistics.median(kernel) * 1e3,
        }
    units = per_layer_units() if trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, problems, traced if trace else timed, raw


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict[str, float]:
    self_times, calls = tracer.self_times(), tracer.calls()
    ops = range(len(traced))

    def per_op(table, key):
        return sum(table[op][key] for op in ops) / len(traced)

    metrics = {f"{name}.ms": per_op(self_times, name) * 1e3 for name in LAYER_TIMES}
    metrics.update({f"{name}.calls": per_op(calls, name) for name in LAYER_CALLS})
    metrics.update({key: per_op(tracer.counts, key) for key in LAYER_COUNTS})
    metrics["dac.calibrate.ms"] = self_times["setup"]["dac.calibrate"] * 1e3
    metrics["setup.network.factor.calls"] = calls["setup"]["network.factor"]
    # Each traced operation directly follows an untraced one; pairing them
    # cancels most of the machine's drift in speed.
    metrics["trace.overhead_ms"] = statistics.median(t - u for t, u in zip(traced, untraced)) * 1e3
    return metrics


def write_spans(path: Path, tracer: Tracer, env: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = ["op", "name", "start", "end", "parent"]
    path.write_text(json.dumps({"environment": env, "columns": columns, "spans": tracer.spans}))
