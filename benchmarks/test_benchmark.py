"""Tests of the benchmark itself: metrics emitted, output checks, tracer.

Run with ``PYTHONPATH=src python -m pytest benchmarks``; the workloads run at
the TINY size so the whole file takes seconds.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import harness
import speed
import tracing
from ternadac import dac
from workloads import TINY, WORKLOADS, Oracle, Params

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def oracle():
    return Oracle(dac.calibrate(dac.build_prototype()))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory, oracle):
    path = tmp_path_factory.mktemp("cfg") / "dac.cfg"
    dac.write_config(oracle.config, path)
    return path


def test_benchmark_json_names_the_harness_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [cls.why for cls in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.per_layer_units()


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    result, problems, times, _ = harness.run(name, 3, 0.0, trace, 1, sizes=TINY, setup_repeats=1)
    assert problems == [] and result["correct"]
    assert result["failed"] == 0 and result["attempted"] == len(times) * (2 if trace else 1) + 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float)) and np.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_times_are_scaled_by_the_kernel_next_to_them(monkeypatch):
    kernel = iter([0.5, 1.0, 2.0, 4.5])
    monkeypatch.setattr(harness.speed, "seconds", lambda: next(kernel))
    result, _, times, _ = harness.run("sweep", 1, 0.0, False, 1, sizes=TINY, setup_repeats=1)
    assert len(times) == 3
    ratio = statistics.mean(times) / 2.0
    op_seconds = WORKLOADS["sweep"](Params.from_seed(1), TINY).samples_per_op / result["metrics"]["samples_per_s"]["value"]
    assert op_seconds == pytest.approx(ratio * speed.NOMINAL_S)


def test_failing_operation_fails_the_run(monkeypatch):
    monkeypatch.setattr(harness.cli, "main", lambda argv: 3)
    result, problems, _, _ = harness.run("montecarlo", 1, 0.0, False, 1, sizes=TINY, setup_repeats=1)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "exited 3" in problems[0]


def test_operation_that_writes_nothing_fails_the_run(monkeypatch):
    real_main, calls = harness.cli.main, []

    def main(argv):  # the reference and the first timed operation write; later ones do not
        calls.append(argv)
        return real_main(argv) if len(calls) <= 2 else 0

    monkeypatch.setattr(harness.cli, "main", main)
    result, problems, times, _ = harness.run("montecarlo", 1, 0.0, False, 1, sizes=TINY, setup_repeats=1)
    assert len(times) >= 2 and not result["correct"]
    assert result["failed"] == len(times) - 1
    assert all("differ from the reference" in problem for problem in problems)


# --- output checks on deliberately corrupted outputs --------------------------


def run_once(workload, config_path, out):
    out.mkdir()
    assert harness.execute(workload.argvs(config_path, out)) is None


def edit_data(path: Path, edit) -> None:
    """Apply ``edit`` to the list of data rows (cells split on commas)."""
    lines = path.read_text(encoding="ascii").splitlines()
    head = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    edit(body)
    path.write_text("\n".join(head + [",".join(row) for row in body]) + "\n", encoding="ascii")


def scale_cell(row: int, col: int, factor: float = 1.0 + 1e-6):
    def edit(body):
        body[row + 1][col] = repr(float(body[row + 1][col]) * factor)

    return edit


def drop_row(row: int):
    def edit(body):
        del body[row + 1]

    return edit


def sampled_row(workload, path: Path, column: int) -> int:
    """A row the trace check compares against the direct solve, nonzero in ``column``."""
    rng = np.random.default_rng(workload.params.mc_seed)
    rows = np.sort(rng.choice(workload.samples_per_op, size=64, replace=False))
    return next(int(k) for k in rows if float(data_row(path, k)[column]) != 0.0)


def data_row(path: Path, row: int) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")][row + 1].split(",")


def nonzero_row(path: Path, column: int) -> int:
    body = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
    return next(k for k, row in enumerate(body[1:]) if float(row[column]) != 0.0)


def corruptions(name, workload, out):
    """(file, edit) pairs that each must make the check fail."""
    if name == "replay":
        trace_csv = out / "trace.csv"
        return [
            (trace_csv, scale_cell(nonzero_row(trace_csv, 1), 1)),
            (trace_csv, scale_cell(sampled_row(workload, trace_csv, 3), 3)),
            (trace_csv, drop_row(len(trace_csv.read_text().splitlines()) // 2)),
            (out / "burst.dump", None),
        ]
    if name == "sweep":
        sweep_csv = out / "sweep.csv"
        row = int(np.random.default_rng(workload.params.mc_seed).integers(len(workload.levels())))
        return [(sweep_csv, scale_cell(row, col)) for col in range(1, 6)] + [(sweep_csv, drop_row(0))]
    trial = int(np.random.default_rng(workload.params.mc_seed).integers(workload.sizes.mc_trials))
    return [(out / "mc.csv", scale_cell(trial, 1)), (out / "mc.csv", drop_row(0))]


def flip_digit(path: Path) -> None:
    lines = path.read_text(encoding="ascii").splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#") and line[-1] != "0")
    lines[k] = lines[k][:-1] + ("-" if lines[k][-1] == "+" else "+")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_fail_on_corrupted_outputs(name, oracle, config_path, tmp_path):
    workload = WORKLOADS[name](Params.from_seed(5), TINY)
    clean = tmp_path / "clean"
    run_once(workload, config_path, clean)
    assert workload.check(oracle, clean) == []
    for k, (target, edit) in enumerate(corruptions(name, workload, clean)):
        out = tmp_path / f"bad{k}"
        shutil.copytree(clean, out)
        bad = out / target.name
        if edit is None:
            flip_digit(bad)
        else:
            edit_data(bad, edit)
        assert workload.check(oracle, out), f"check passed on corruption {k} of {target.name}"
        assert harness.digest(out, workload.outputs) != harness.digest(clean, workload.outputs)


# --- tracer ------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.op = 0
    child = tracer._wrap("child", lambda: time.sleep(0.05), None)

    def parent():
        child()
        time.sleep(0.01)

    tracer._wrap("parent", parent, None)()
    self_times = tracer.self_times()[0]
    assert self_times["child"] >= 0.05
    assert 0.01 <= self_times["parent"] < 0.05
    assert tracer.calls()[0] == {"parent": 1, "child": 1}


def test_install_and_remove_restore_every_target():
    before = [(owner, attr, vars(owner).get(attr, getattr(owner, attr, None))) for owner, attr, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    for owner, attr, original in before:
        assert vars(owner).get(attr, getattr(owner, attr, None)) is original


def test_run_without_source_tree_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""
