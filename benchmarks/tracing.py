"""Spans around the public entry points of each ternadac layer.

The tracer wraps each function under the name its caller looks it up by
(module attributes, and methods on the ``Dac`` and ``NetworkSolver`` classes),
records one span (operation, name, start, end, parent) per call in memory,
and counts rows and bytes at the same boundaries. A layer's self time is its
span's duration minus the time its child spans cover; calls nest on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from ternadac import analysis, cli, codec, dac, network, pipeline


def _rows(args, kwargs, result):
    return {"dac.samples": len(args[1])}


def _written(key):
    def count(args, kwargs, result):
        return {key: os.path.getsize(args[0])}

    return count


#: (owner, attribute, span name, counter). Functions imported by name into a
#: second module are wrapped there too, because that is where callers look.
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "_write_csv", "cli.write_csv", _written("cli.write_csv.bytes")),
    (codec, "scale_samples", "codec.scale", None),
    (codec, "to_balanced_ternary_array", "codec.encode", None),
    (codec, "write_digit_dump", "codec.write_dump", _written("codec.dump.bytes")),
    (codec, "read_digit_dump", "codec.read_dump", None),
    (network.NetworkSolver, "__init__", "network.factor", None),
    (network.NetworkSolver, "port_weights", "network.unit_solve", None),
    (network.NetworkSolver, "source_current_matrix", "network.unit_solve", None),
    (network.NetworkSolver, "output_impedance", "network.output_impedance", None),
    (dac, "read_config", "dac.read_config", None),
    (dac, "perturb", "dac.perturb", None),
    (analysis, "perturb", "dac.perturb", None),
    (dac, "calibrate", "dac.calibrate", None),
    (dac.Dac, "__init__", "dac.build", None),
    (dac.Dac, "output_array", "dac.output_array", _rows),
    (dac.Dac, "rail_currents_array", "dac.rail_currents", None),
    (pipeline, "generate", "pipeline.generate", None),
    (pipeline, "simulate_digits", "pipeline.simulate_digits", None),
    (analysis, "sfdr", "analysis.sfdr", None),
    (analysis, "level_sweep", "analysis.driver", None),
    (analysis, "monte_carlo", "analysis.driver", None),
]


class Tracer:
    """In-memory span recorder; ``install`` patches the targets, ``remove`` restores them."""

    def __init__(self):
        self.spans: list[tuple[object, str, float, float, int]] = []
        self.counts: dict[object, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op: object = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (self.op, name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[self.op][key] += value
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, functools.cached_property):
                patched = functools.cached_property(self._wrap(name, original.func, counter))
                patched.__set_name__(owner, attr)
            else:
                patched = self._wrap(name, original, counter)
            setattr(owner, attr, patched)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[object, dict[str, float]]:
        """Seconds of self time per span name, per operation."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (op, name, start, end, _) in enumerate(self.spans):
            out[op][name] += (end - start) - child[index]
        return out

    def calls(self) -> dict[object, dict[str, int]]:
        out: dict[object, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for op, name, *_ in self.spans:
            out[op][name] += 1
        return out
