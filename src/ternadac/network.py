"""Linear resistive-network solver (modified nodal analysis).

Networks are resistor graphs plus voltage sources referenced to ground, each
source optionally behind a series resistance. Node 0 is ground. The solver
keeps the graph in stamp form, so a system matrix is a conductance vector
applied to a fixed incidence stamp. One stacked dense solve, over the
network's own conductances or a batch of perturbed ones, has a unit column
per source plus a port column (1 A into port node p, out of node q): its port
volts are the output impedance and its source currents are what a load across
the port takes from each source (see :mod:`ternadac.dac`). A direct solve is
one dense ``numpy.linalg.solve`` (networks here stay well under a hundred nodes).

A source with a positive series resistance is stamped as its Norton
equivalent, which keeps the matrix size down; a source with zero series
resistance gets an explicit branch-current unknown. Source currents are
reported positive out of the source's positive terminal in every case. A
near-short branch (see :data:`NEAR_SHORT_RATIO`) is stamped as a group-2
branch: a current unknown with ``v_a - v_b - R·i = 0`` for a resistor, and
``v_node - R·i = level`` for a source, whose current is then ``-i``. Its
huge conductance never swamps the rest of its node's row, and a source's
current is solved for instead of taken as the difference
``(level - v_node)/R`` of two nearly equal volts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SolverError

#: Relative residual bound every solve is verified against.
RESIDUAL_RTOL = 1e-9

#: A branch (resistor or Norton source) whose conductance exceeds the rest of
#: the conductance at its weaker endpoint by this ratio gets a branch-current
#: unknown. Ground and ideal-source nodes are held at fixed potential and
#: never count as weaker.
NEAR_SHORT_RATIO = 1e4


def _solved(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which columns of ``x`` (..., m, k) solve ``a x = b`` to ``RESIDUAL_RTOL``.

    A column passes when it is finite and its residual is within
    ``RESIDUAL_RTOL·(|A|·|x| + max(|b|, 1))``: the ``|A|·|x|`` term makes this
    a backward-error test, so a correct solve passes at any conductance scale,
    including a config that holds a 1e-9 ohm element.
    """
    residual = np.linalg.norm(a @ x - b, axis=-2)
    scale = np.linalg.norm(a, axis=(-2, -1))[..., None] * np.linalg.norm(x, axis=-2)
    scale += np.maximum(np.linalg.norm(b, axis=-2), 1.0)
    return np.isfinite(x).all(axis=-2) & (residual <= RESIDUAL_RTOL * scale)


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


class NetworkSolver:
    """Stamp-form solver for one fixed network topology.

    The graph is held as an incidence stamp: the conductance part of the
    system matrix is ``Incᵀ·diag(g)·Inc`` over the branches (resistors, then
    Norton sources), plus the fixed rows of ideal sources and near-short
    branches (Ho, Ruehli & Brennan, "The modified nodal approach to network
    analysis", IEEE Trans. CAS 22(6), 1975). Which branches are near-short
    is fixed per topology and their ``-R`` cells come from the conductance
    row, so a stack of rows is still one solve. The network's own
    conductances give the single-network paths; :meth:`batch_port` solves
    any stack of conductance vectors on the same topology, which is how
    perturbed converters are evaluated. Every solve, direct or stacked, is
    LAPACK gesv through ``numpy.linalg.solve``.

    Immutable after construction apart from its cache of unit solutions.
    Switch states of a DAC only change source levels, never the resistive
    graph, so one set of unit solutions serves every digit state.
    """

    def __init__(self, net: ResistiveNetwork):
        self.net = net
        n = net.n_nodes
        self._n_nodes = n
        series = np.array([s.series_ohms for s in net.sources])
        norton = np.flatnonzero(series > 0.0)
        self._ideal = np.flatnonzero(series == 0.0)
        src_rows = np.array([s.node - 1 for s in net.sources], dtype=np.intp)
        norton_rows = src_rows[norton]
        ideal_nodes = src_rows[self._ideal]

        # Branch b joins ia[b] to ib[b] (unknown indices, -1 = ground): the
        # resistors, then the Norton sources to ground.
        n_res = len(net.resistors)
        ia = np.array([r.node_a - 1 for r in net.resistors], dtype=np.intp)
        ib = np.array([r.node_b - 1 for r in net.resistors], dtype=np.intp)
        ia = np.concatenate([ia, norton_rows])
        ib = np.concatenate([ib, np.full(len(norton), -1)])
        ohms = np.concatenate([[r.ohms for r in net.resistors], series[norton]])
        #: Branch conductances: resistors in order, then Norton sources in order.
        self.conductances = 1.0 / ohms

        # Total conductance per node (index 0 = ground); fixed-potential nodes are inf.
        node_g = np.zeros(n)
        np.add.at(node_g, np.concatenate([ia, ib]) + 1, np.tile(self.conductances, 2))
        node_g[0] = np.inf
        node_g[ideal_nodes + 1] = np.inf
        rest = np.minimum(node_g[ia + 1], node_g[ib + 1]) - self.conductances
        self._shorts = np.flatnonzero(self.conductances > NEAR_SHORT_RATIO * rest)

        # Unknowns: node voltages 1..n-1, ideal-source currents, near-short currents.
        self._ideal_rows = (n - 1) + np.arange(len(self._ideal))
        self._short_rows = (n - 1) + len(self._ideal) + np.arange(len(self._shorts))
        m = (n - 1) + len(self._ideal) + len(self._shorts)
        self._n_unknowns = m
        # The node each unknown's row belongs to, for error messages.
        short_nodes = np.maximum(ia, ib)[self._shorts] + 1
        self._row_nodes = np.concatenate([np.arange(1, n), ideal_nodes + 1, short_nodes])

        rows = np.stack([ia, ib, ia, ib], axis=1)
        cols = np.stack([ia, ib, ib, ia], axis=1)
        nodal = np.ones(len(ia), dtype=bool)
        nodal[self._shorts] = False
        keep = (rows >= 0) & (cols >= 0) & nodal[:, None]
        # Cells in branch order, so every entry sums its branches in one fixed order.
        self._cells = (rows * m + cols)[keep]
        self._cell_branch = np.repeat(np.arange(len(ia)), 4).reshape(-1, 4)[keep]
        self._cell_sign = np.broadcast_to([1.0, 1.0, -1.0, -1.0], rows.shape)[keep]

        self._fixed = np.zeros((m, m))
        self._fixed[ideal_nodes, self._ideal_rows] = -1.0  # branch current enters the node
        self._fixed[self._ideal_rows, ideal_nodes] = 1.0  # constraint row: v_node = level
        for ends, sign in ((ia[self._shorts], 1.0), (ib[self._shorts], -1.0)):
            live = ends >= 0
            self._fixed[ends[live], self._short_rows[live]] = sign  # current leaves a, enters b
            self._fixed[self._short_rows[live], ends[live]] = sign  # v_a - v_b - R·i = 0

        # Norton sources are stamped unless their branch is near-short; then
        # its current unknown is the source's (negated) current.
        near = np.isin(n_res + np.arange(len(norton)), self._shorts)
        self._stamped = norton[~near]
        self._stamped_rows = norton_rows[~near]
        self._stamped_branches = n_res + np.flatnonzero(~near)
        self._stamped_ohms = series[self._stamped]
        self._near = norton[near]
        self._near_rows = self._short_rows[self._shorts >= n_res]

        self._matrix = self._stamp(self.conductances[None])[0]
        self._source_rhs = self._unit_rhs(self.conductances[None])[0, :, :-1]

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
        a = a + self._fixed  # not in place: with no conductance cells bincount gives ints
        a[:, self._short_rows, self._short_rows] = -1.0 / g[:, self._shorts]
        return a

    def _unit_rhs(self, g: np.ndarray) -> np.ndarray:
        """Unit right-hand sides, shape (T, n_unknowns, n_sources + 1).

        Column i is source i at 1 V with all others at 0 V; the last is the
        port column, 1 A into port node p and out of node q.
        """
        k = self.n_sources
        b = np.zeros((g.shape[0], self._n_unknowns, k + 1))
        b[:, self._stamped_rows, self._stamped] = g[:, self._stamped_branches]
        b[:, self._near_rows, self._near] = 1.0
        b[:, self._ideal_rows, self._ideal] = 1.0
        p, q = self.net.port
        if p > 0:
            b[:, p - 1, k] += 1.0
        if q > 0:
            b[:, q - 1, k] -= 1.0
        return b

    def _unit_solve(self, g: np.ndarray) -> np.ndarray:
        """Unknowns for every unit column, shape (T, n_unknowns, n_sources + 1).

        One stacked solve; every unit column of every trial is checked by
        :func:`_solved`.
        """
        a = self._stamp(g)
        b = self._unit_rhs(g)
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular network system in superposition solve: {exc}") from exc
        bad = ~_solved(a, x, b).all(axis=1)
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

    def solve(self, source_levels: Sequence[float]) -> Solution:
        """Node voltages and source currents for one excitation vector."""
        levels = np.asarray(source_levels, dtype=float)
        if levels.shape != (self.n_sources,):
            raise SolverError(
                f"expected {self.n_sources} source levels, got shape {levels.shape}"
            )
        b = self._source_rhs @ levels
        try:
            x = np.linalg.solve(self._matrix, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular network system: {exc}") from exc
        if not _solved(self._matrix, x[:, None], b[:, None]).all():
            node = self._row_nodes[np.argmax(np.abs(self._matrix @ x - b))]
            raise SolverError(
                f"singular or ill-conditioned system (largest residual at node {node})"
            )
        voltages = np.zeros(self._n_nodes)
        voltages[1:] = x[: self._n_nodes - 1]
        currents = self._source_currents(x[:, None], levels[:, None])[:, 0]
        return Solution(node_voltages=voltages, source_currents=currents)

    def _source_currents(self, x: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Source currents, shape (n_sources, k), of unknowns ``x`` solved at ``levels``."""
        currents = np.empty(levels.shape)
        currents[self._stamped] = (
            levels[self._stamped] - x[self._stamped_rows]
        ) / self._stamped_ohms[:, None]
        currents[self._near] = -x[self._near_rows]
        currents[self._ideal] = x[self._ideal_rows]
        return currents

    def port_voltage(self, source_levels: Sequence[float]) -> float:
        sol = self.solve(source_levels)
        p, q = self.net.port
        return float(sol.node_voltages[p] - sol.node_voltages[q])

    @cached_property
    def _unit_solutions(self) -> np.ndarray:
        # Column i = full unknown vector for source i at 1 V, all others at 0 V;
        # the last column is the port column.
        return self._unit_solve(self.conductances[None])[0]

    @cached_property
    def port_weights(self) -> np.ndarray:
        """Differential port volts per source volt; the superposition fast path."""
        return self._port(self._unit_solutions[:, :-1])

    def output_impedance(self) -> float:
        """Port volts per amp of the port column: the impedance seen at the port."""
        return float(self._port(self._unit_solutions[:, -1:])[0])

    def batch_port(self, conductances) -> np.ndarray:
        """Port rows of this topology for each row of branch conductances.

        ``conductances`` has shape (T, n_branches), columns ordered like
        :attr:`conductances`; the result has shape (T, n_sources + 1). Row
        ``t`` holds :attr:`port_weights` and then :meth:`output_impedance` of
        the network built with those conductances.
        """
        g = np.asarray(conductances, dtype=float)
        if g.ndim != 2 or g.shape[1] != self.n_branches:
            raise SolverError(
                f"expected conductances of shape (T, {self.n_branches}), got {g.shape}"
            )
        return self._port(self._unit_solve(g))

    @cached_property
    def _unit_currents(self) -> np.ndarray:
        # Source currents of every unit column, shape (n_sources, n_sources + 1).
        k = self.n_sources
        return self._source_currents(self._unit_solutions, np.eye(k, k + 1))

    @cached_property
    def source_current_matrix(self) -> np.ndarray:
        """J[j, i] = current of source j when source i is at 1 V, others 0 V."""
        return self._unit_currents[:, :-1]

    @property
    def port_source_currents(self) -> np.ndarray:
        """h[j] = current of source j per amp into the port, every source at 0 V."""
        return self._unit_currents[:, -1]


def netlist_dump(net: ResistiveNetwork) -> str:
    """Textual netlist (for debugging and golden-file tests)."""
    lines = [f"* {net.name or 'network'}"]
    for k, r in enumerate(net.resistors):
        lines.append(f"R{k} {r.node_a} {r.node_b} {r.ohms:.9g}")
    for k, s in enumerate(net.sources):
        lines.append(f"V{k} {s.node} 0 series={s.series_ohms:.9g}")
    lines.append(f"PORT {net.port[0]} {net.port[1]}")
    return "\n".join(lines) + "\n"
