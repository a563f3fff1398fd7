"""Linear resistive-network solver (modified nodal analysis).

Networks are resistor graphs plus voltage sources referenced to ground, each
source optionally behind a series resistance. Node 0 is ground. The solver
keeps the graph in stamp form, so a system matrix is a conductance vector
applied to a fixed incidence stamp. Per-source superposition weights come
from one stacked dense solve over any number of conductance vectors (the
network's own, or a batch of perturbed ones); direct solves and Thevenin
extraction reuse one LU factorisation (networks here stay well under a
hundred nodes).

A source with a positive series resistance is stamped as its Norton
equivalent, which keeps the matrix size down; a source with zero series
resistance gets an explicit branch-current unknown. Source currents are
reported positive out of the source's positive terminal in both cases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import SolverError

#: Relative residual bound every solve is verified against.
RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class Resistor:
    node_a: int
    node_b: int
    ohms: float

    def __post_init__(self) -> None:
        if self.node_a < 0 or self.node_b < 0:
            raise SolverError("resistor node indices must be >= 0")
        if self.node_a == self.node_b:
            raise SolverError(f"resistor shorts node {self.node_a} to itself")
        if not self.ohms > 0:
            raise SolverError(f"resistance must be > 0 ohms, got {self.ohms}")


@dataclass(frozen=True)
class VoltageSource:
    """Ideal source from ``node`` to ground, behind ``series_ohms`` (0 = ideal)."""

    node: int
    series_ohms: float = 0.0

    def __post_init__(self) -> None:
        if self.node <= 0:
            raise SolverError("source node must be a non-ground node")
        if self.series_ohms < 0:
            raise SolverError("source series resistance must be >= 0")


@dataclass(frozen=True)
class ResistiveNetwork:
    """Resistor branches, grounded sources and one differential output port."""

    resistors: tuple[Resistor, ...]
    sources: tuple[VoltageSource, ...]
    port: tuple[int, int]
    name: str = ""

    def __post_init__(self) -> None:
        if self.port[0] < 0 or self.port[1] < 0:
            raise SolverError("port nodes must be >= 0")
        self._check_connected()

    @property
    def n_nodes(self) -> int:
        top = 0
        for r in self.resistors:
            top = max(top, r.node_a, r.node_b)
        for s in self.sources:
            top = max(top, s.node)
        top = max(top, self.port[0], self.port[1])
        return top + 1

    def _check_connected(self) -> None:
        # Every non-ground node must reach ground through resistor or source
        # branches, otherwise the system is singular.
        n = self.n_nodes
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for r in self.resistors:
            adjacency[r.node_a].append(r.node_b)
            adjacency[r.node_b].append(r.node_a)
        for s in self.sources:
            adjacency[s.node].append(0)
            adjacency[0].append(s.node)
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            node = stack.pop()
            for other in adjacency[node]:
                if not seen[other]:
                    seen[other] = True
                    stack.append(other)
        if not seen.all():
            floating = int(np.flatnonzero(~seen)[0])
            raise SolverError(f"node {floating} has no path to ground")


@dataclass(frozen=True)
class Solution:
    """Node voltages (index 0 = ground) and per-source branch currents."""

    node_voltages: np.ndarray
    source_currents: np.ndarray


@dataclass(frozen=True)
class TheveninEquivalent:
    """Open-circuit port voltage and port output impedance."""

    v_open: float
    z_out: float

    def __post_init__(self) -> None:
        if self.z_out < -1e-12:
            raise SolverError(f"negative output impedance {self.z_out}")


class NetworkSolver:
    """Stamp-form solver for one fixed network topology.

    The graph is held as an incidence stamp: the conductance part of the
    system matrix is ``Incᵀ·diag(g)·Inc`` over the branches (resistors, then
    Norton sources), plus the fixed rows of ideal sources (Ho, Ruehli &
    Brennan, "The modified nodal approach to network analysis", IEEE Trans.
    CAS 22(6), 1975). The network's own conductances give the single-network
    paths; :meth:`batch_port_weights` solves any stack of conductance vectors
    on the same topology, which is how perturbed converters are evaluated.

    Immutable after construction apart from its caches (unit solutions, LU
    factorisation). Switch states of a DAC only change source levels, never
    the resistive graph, so one set of unit solutions serves every digit state.
    """

    def __init__(self, net: ResistiveNetwork):
        self.net = net
        n = net.n_nodes
        self._n_nodes = n
        series = np.array([s.series_ohms for s in net.sources])
        self._norton = np.flatnonzero(series > 0.0)
        self._ideal = np.flatnonzero(series == 0.0)
        m = (n - 1) + len(self._ideal)
        self._n_unknowns = m
        src_rows = np.array([s.node - 1 for s in net.sources], dtype=np.intp)
        self._norton_rows = src_rows[self._norton]
        self._ideal_rows = (n - 1) + np.arange(len(self._ideal))

        # Branch b joins ia[b] to ib[b] (unknown indices, -1 = ground): the
        # resistors, then the Norton sources to ground.
        n_res = len(net.resistors)
        ia = np.array([r.node_a - 1 for r in net.resistors], dtype=np.intp)
        ib = np.array([r.node_b - 1 for r in net.resistors], dtype=np.intp)
        ia = np.concatenate([ia, self._norton_rows])
        ib = np.concatenate([ib, np.full(len(self._norton), -1)])
        self._norton_branches = n_res + np.arange(len(self._norton))
        rows = np.stack([ia, ib, ia, ib], axis=1)
        cols = np.stack([ia, ib, ib, ia], axis=1)
        keep = (rows >= 0) & (cols >= 0)
        # Cells in branch order, so every entry sums its branches in one fixed order.
        self._cells = (rows * m + cols)[keep]
        self._cell_branch = np.repeat(np.arange(len(ia)), 4).reshape(-1, 4)[keep]
        self._cell_sign = np.broadcast_to([1.0, 1.0, -1.0, -1.0], rows.shape)[keep]

        self._fixed = np.zeros((m, m))
        ideal_nodes = src_rows[self._ideal]
        self._fixed[ideal_nodes, self._ideal_rows] = -1.0  # branch current enters the node
        self._fixed[self._ideal_rows, ideal_nodes] = 1.0  # constraint row: v_node = level

        self._norton_ohms = series[self._norton]
        ohms = np.concatenate([[r.ohms for r in net.resistors], self._norton_ohms])
        #: Branch conductances: resistors in order, then Norton sources in order.
        self.conductances = 1.0 / ohms
        self._matrix = self._stamp(self.conductances[None])[0]
        self._source_rhs = self._unit_rhs(self.conductances[None])[0]

    @property
    def n_sources(self) -> int:
        return len(self.net.sources)

    @property
    def n_branches(self) -> int:
        return len(self.conductances)

    def _stamp(self, g: np.ndarray) -> np.ndarray:
        """System matrices for conductance rows ``g`` of shape (T, n_branches)."""
        t, m = g.shape[0], self._n_unknowns
        index = self._cells + (m * m) * np.arange(t)[:, None]
        values = g[:, self._cell_branch] * self._cell_sign
        a = np.bincount(index.ravel(), values.ravel(), minlength=t * m * m).reshape(t, m, m)
        a += self._fixed
        return a

    def _unit_rhs(self, g: np.ndarray) -> np.ndarray:
        """Right-hand sides, column i = source i at 1 V and all others at 0 V."""
        b = np.zeros((g.shape[0], self._n_unknowns, self.n_sources))
        b[:, self._norton_rows, self._norton] = g[:, self._norton_branches]
        b[:, self._ideal_rows, self._ideal] = 1.0
        return b

    def _unit_solve(self, g: np.ndarray) -> np.ndarray:
        """Unknowns for every unit source excitation, shape (T, n_unknowns, n_sources).

        One stacked solve; every unit column of every trial is checked for
        finiteness and its residual against ``RESIDUAL_RTOL``. The residual
        is scaled like the direct solve's, plus ``|A| |x|``: rounding in a very
        large conductance grows with it (calibration brackets an entry
        resistor down to 1e-9 ohm), so this measures the solve's backward
        error rather than the conductance scale.
        """
        a = self._stamp(g)
        b = self._unit_rhs(g)
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular network system in superposition solve: {exc}") from exc
        residual = np.linalg.norm(a @ x - b, axis=1)
        scale = np.linalg.norm(a, axis=(1, 2))[:, None] * np.linalg.norm(x, axis=1)
        scale += np.maximum(np.linalg.norm(b, axis=1), 1.0)
        bad = ~np.isfinite(x).all(axis=(1, 2)) | ~(residual <= RESIDUAL_RTOL * scale).all(axis=1)
        if bad.any():
            where = f" (trial {int(np.flatnonzero(bad)[0])})" if len(g) > 1 else ""
            raise SolverError(f"singular or ill-conditioned system in superposition solve{where}")
        return x

    def _port(self, x: np.ndarray) -> np.ndarray:
        """Differential port row of unknowns ``x``, shape (..., n_unknowns, k)."""
        ground = np.zeros(x.shape[:-2] + x.shape[-1:])
        p, q = self.net.port
        vp = x[..., p - 1, :] if p > 0 else ground
        vq = x[..., q - 1, :] if q > 0 else ground
        return vp - vq

    @cached_property
    def _lu(self):
        try:
            with warnings.catch_warnings():
                # An exactly singular matrix only warns here; the zero pivot is
                # caught at solve time and raised as a SolverError.
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                return scipy.linalg.lu_factor(self._matrix)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise SolverError(f"singular network system: {exc}") from exc

    def _rhs(self, source_levels: Sequence[float]) -> np.ndarray:
        levels = np.asarray(source_levels, dtype=float)
        if levels.shape != (self.n_sources,):
            raise SolverError(
                f"expected {self.n_sources} source levels, got shape {levels.shape}"
            )
        return self._source_rhs @ levels

    def _solve_raw(self, b: np.ndarray) -> np.ndarray:
        x = scipy.linalg.lu_solve(self._lu, b)
        if not np.all(np.isfinite(x)):
            raise SolverError("singular network system (zero pivot in factorisation)")
        residual = self._matrix @ x - b
        scale = max(float(np.linalg.norm(b)), 1.0)
        if np.linalg.norm(residual) > RESIDUAL_RTOL * scale:
            worst = int(np.argmax(np.abs(residual)))
            if worst < self._n_nodes - 1:
                node = worst + 1
            else:
                node = self.net.sources[self._ideal[worst - (self._n_nodes - 1)]].node
            raise SolverError(
                f"singular or ill-conditioned system (largest residual at node {node})"
            )
        return x

    def _unpack(self, x: np.ndarray, levels: np.ndarray) -> Solution:
        n = self._n_nodes
        voltages = np.zeros(n)
        voltages[1:] = x[: n - 1]
        currents = np.empty(self.n_sources)
        currents[self._norton] = (
            levels[self._norton] - voltages[self._norton_rows + 1]
        ) / self._norton_ohms
        currents[self._ideal] = x[self._ideal_rows]
        return Solution(node_voltages=voltages, source_currents=currents)

    def solve(self, source_levels: Sequence[float]) -> Solution:
        """Node voltages and source currents for one excitation vector."""
        levels = np.asarray(source_levels, dtype=float)
        x = self._solve_raw(self._rhs(levels))
        return self._unpack(x, levels)

    def port_voltage(self, source_levels: Sequence[float]) -> float:
        sol = self.solve(source_levels)
        p, q = self.net.port
        return float(sol.node_voltages[p] - sol.node_voltages[q])

    @cached_property
    def _unit_solutions(self) -> np.ndarray:
        # Column i = full unknown vector for source i at 1 V, all others at 0 V.
        return self._unit_solve(self.conductances[None])[0]

    @cached_property
    def port_weights(self) -> np.ndarray:
        """Differential port volts per source volt; the superposition fast path."""
        return self._port(self._unit_solutions)

    def batch_port_weights(self, conductances) -> np.ndarray:
        """Port weights of this topology for each row of branch conductances.

        ``conductances`` has shape (T, n_branches), columns ordered like
        :attr:`conductances`; the result has shape (T, n_sources). Row ``t``
        equals ``port_weights`` of the network built with those conductances.
        """
        g = np.asarray(conductances, dtype=float)
        if g.ndim != 2 or g.shape[1] != self.n_branches:
            raise SolverError(
                f"expected conductances of shape (T, {self.n_branches}), got {g.shape}"
            )
        return self._port(self._unit_solve(g))

    @cached_property
    def source_current_matrix(self) -> np.ndarray:
        """J[j, i] = current of source j when source i is at 1 V, others 0 V."""
        x = self._unit_solutions
        j_mat = np.empty((self.n_sources, self.n_sources))
        unit = np.eye(self.n_sources)
        j_mat[self._norton] = (
            unit[self._norton] - x[self._norton_rows]
        ) / self._norton_ohms[:, None]
        j_mat[self._ideal] = x[self._ideal_rows]
        return j_mat

    def output_impedance(self) -> float:
        """Port impedance with all sources zeroed and a unit test current injected."""
        b = np.zeros(self._n_unknowns)
        p, q = self.net.port
        if p > 0:
            b[p - 1] += 1.0
        if q > 0:
            b[q - 1] -= 1.0
        x = self._solve_raw(b)
        vp = x[p - 1] if p > 0 else 0.0
        vq = x[q - 1] if q > 0 else 0.0
        return float(vp - vq)

    def thevenin(self, source_levels: Sequence[float]) -> TheveninEquivalent:
        return TheveninEquivalent(
            v_open=self.port_voltage(source_levels),
            z_out=self.output_impedance(),
        )


def solve(net: ResistiveNetwork, source_levels: Sequence[float]) -> Solution:
    """One-shot MNA solve; see :class:`NetworkSolver` for the cached path."""
    return NetworkSolver(net).solve(source_levels)


def thevenin(net: ResistiveNetwork, source_levels: Sequence[float]) -> TheveninEquivalent:
    """Open-circuit port voltage for the given excitation plus port impedance."""
    return NetworkSolver(net).thevenin(source_levels)


def superposition_weights(net: ResistiveNetwork) -> np.ndarray:
    """Differential port voltage per source for unit excitations.

    For any excitation vector ``s`` the port voltage is ``weights @ s``; the
    direct solve and this fast path agree to the solver tolerance.
    """
    return NetworkSolver(net).port_weights


def netlist_dump(net: ResistiveNetwork) -> str:
    """Textual netlist (for debugging and golden-file tests)."""
    lines = [f"* {net.name or 'network'}"]
    for k, r in enumerate(net.resistors):
        lines.append(f"R{k} {r.node_a} {r.node_b} {r.ohms:.9g}")
    for k, s in enumerate(net.sources):
        lines.append(f"V{k} {s.node} 0 series={s.series_ohms:.9g}")
    lines.append(f"PORT {net.port[0]} {net.port[1]}")
    return "\n".join(lines) + "\n"
