from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ternadac
from ternadac import network
from ternadac.errors import SolverError

from oracles import loop_current_solve


def divider_network(series=100.0, shunt=100.0):
    # 90 V source behind `series` ohms into `shunt` ohms to ground.
    return network.ResistiveNetwork(
        resistors=(network.Resistor(1, 0, shunt),),
        sources=(network.VoltageSource(node=1, series_ohms=series),),
        port=(1, 0),
        name="divider",
    )


def random_network(rng, n_nodes=6, extra_edges=3, n_sources=2):
    # Spanning tree plus a few chords: connected, <= extra_edges + sources loops.
    resistors = []
    for node in range(1, n_nodes):
        other = int(rng.integers(0, node))
        resistors.append(network.Resistor(node, other, float(rng.uniform(10, 5000))))
    for _ in range(extra_edges):
        a, b = rng.choice(n_nodes, size=2, replace=False)
        resistors.append(network.Resistor(int(a), int(b), float(rng.uniform(10, 5000))))
    sources = []
    nodes = rng.choice(np.arange(1, n_nodes), size=n_sources, replace=False)
    for k, node in enumerate(nodes):
        series = 0.0 if k == 0 else float(rng.uniform(1, 100))
        sources.append(network.VoltageSource(node=int(node), series_ohms=series))
    return network.ResistiveNetwork(
        resistors=tuple(resistors), sources=tuple(sources), port=(1, 0)
    )


def kcl_residuals(net, solution, levels):
    """Per-node current imbalance computed from first principles."""
    residual = np.zeros(net.n_nodes)
    v = solution.node_voltages
    for r in net.resistors:
        i = (v[r.node_a] - v[r.node_b]) / r.ohms
        residual[r.node_a] -= i
        residual[r.node_b] += i
    for src, i in zip(net.sources, solution.source_currents):
        residual[src.node] += i
    return residual[1:]  # ground absorbs the return current


def test_symmetric_divider_midpoint():
    sol = network.NetworkSolver(divider_network()).solve([90.0])
    assert sol.node_voltages[1] == pytest.approx(45.0, rel=1e-12)
    assert sol.source_currents[0] == pytest.approx(0.45, rel=1e-12)


def test_all_sources_zero_gives_zero_state():
    rng = np.random.default_rng(21)
    net = random_network(rng)
    sol = network.NetworkSolver(net).solve(np.zeros(len(net.sources)))
    assert np.allclose(sol.node_voltages, 0.0, atol=1e-15)
    assert np.allclose(sol.source_currents, 0.0, atol=1e-15)


def test_random_networks_match_loop_current_oracle():
    rng = np.random.default_rng(22)
    for trial in range(25):
        net = random_network(rng, n_nodes=int(rng.integers(4, 8)))
        levels = rng.uniform(-90, 90, size=len(net.sources))
        sol = network.NetworkSolver(net).solve(levels)
        v_ref, i_ref = loop_current_solve(net, levels)
        assert np.allclose(sol.node_voltages, v_ref, rtol=1e-9, atol=1e-9)
        assert np.allclose(sol.source_currents, i_ref, rtol=1e-9, atol=1e-9)


def test_kcl_residual_bound():
    rng = np.random.default_rng(23)
    for _ in range(10):
        net = random_network(rng)
        levels = rng.uniform(-90, 90, size=len(net.sources))
        sol = network.NetworkSolver(net).solve(levels)
        scale = max(1.0, float(np.abs(sol.source_currents).max()))
        assert np.abs(kcl_residuals(net, sol, levels)).max() <= 1e-9 * scale


def with_load(net, load_ohms):
    """The same network with a load resistor across its port."""
    load = network.Resistor(net.port[0], net.port[1], load_ohms)
    return network.ResistiveNetwork(
        resistors=net.resistors + (load,), sources=net.sources, port=net.port
    )


def test_superposition_weights_match_direct_solve():
    rng = np.random.default_rng(24)
    net = random_network(rng, n_nodes=7, extra_edges=4, n_sources=3)
    solver = network.NetworkSolver(net)
    loaded = network.NetworkSolver(with_load(net, 47.0))
    weights = solver.port_weights
    divider = 47.0 / (47.0 + solver.output_impedance())
    for _ in range(100):
        levels = rng.uniform(-90, 90, size=len(net.sources))
        direct = solver.port_voltage(levels)
        fast = float(weights @ levels)
        assert fast == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert fast * divider == pytest.approx(loaded.port_voltage(levels), rel=1e-9, abs=1e-12)


def test_solve_linearity():
    rng = np.random.default_rng(25)
    net = random_network(rng)
    s1 = rng.uniform(-50, 50, size=len(net.sources))
    s2 = rng.uniform(-50, 50, size=len(net.sources))
    solver = network.NetworkSolver(net)
    assert solver.port_voltage(s1 + s2) == pytest.approx(
        solver.port_voltage(s1) + solver.port_voltage(s2), rel=1e-9, abs=1e-12
    )


def test_thevenin_reciprocity_and_divider():
    net = divider_network(series=100.0, shunt=300.0)
    solver = network.NetworkSolver(net)
    assert solver.output_impedance() == pytest.approx(75.0, rel=1e-12)  # 100 || 300
    assert solver.port_weights[0] == pytest.approx(0.75, rel=1e-12)  # 300/400
    assert solver.port_voltage([90.0]) == pytest.approx(67.5, rel=1e-12)  # 90 * 300/400
    assert solver.port_voltage([-37.5]) == pytest.approx(-28.125, rel=1e-12)
    # 75 ohm across the port halves the open-port volts.
    assert network.NetworkSolver(with_load(net, 75.0)).port_voltage([90.0]) == pytest.approx(
        33.75, rel=1e-12
    )


def test_resistance_scaling_property():
    rng = np.random.default_rng(26)
    net = random_network(rng)
    scaled = network.ResistiveNetwork(
        resistors=tuple(
            network.Resistor(r.node_a, r.node_b, 7.0 * r.ohms) for r in net.resistors
        ),
        sources=tuple(
            network.VoltageSource(s.node, 7.0 * s.series_ohms) for s in net.sources
        ),
        port=net.port,
    )
    base = network.NetworkSolver(net)
    seven = network.NetworkSolver(scaled)
    assert seven.output_impedance() == pytest.approx(7.0 * base.output_impedance(), rel=1e-12)
    assert np.allclose(seven.port_weights, base.port_weights, rtol=1e-12)


def test_near_short_resistor_matches_loop_current_oracle():
    # One resistor at 1e-9 ohm, anywhere: between two nodes, to ground, or at
    # an ideal-source node. The mesh oracle sums the tiny resistance exactly.
    rng = np.random.default_rng(30)
    for _ in range(40):
        net = random_network(rng, n_nodes=int(rng.integers(3, 8)))
        k = int(rng.integers(len(net.resistors)))
        short = dataclasses.replace(net.resistors[k], ohms=1e-9)
        net = dataclasses.replace(net, resistors=net.resistors[:k] + (short,) + net.resistors[k + 1 :])
        levels = rng.uniform(-90, 90, size=len(net.sources))
        sol = network.NetworkSolver(net).solve(levels)
        v_ref, i_ref = loop_current_solve(net, levels)
        assert np.allclose(sol.node_voltages, v_ref, rtol=1e-9, atol=1e-9)
        assert np.allclose(sol.source_currents, i_ref, rtol=1e-9, atol=1e-9 * np.abs(i_ref).max())


def test_near_short_source_matches_loop_current_oracle():
    # A Norton source behind 1e-9 ohm gets a current unknown: its current is
    # solved for, not taken as (level - v_node)/R of two nearly equal volts.
    rng = np.random.default_rng(31)
    for _ in range(40):
        net = random_network(rng, n_nodes=int(rng.integers(4, 8)), n_sources=3)
        near = dataclasses.replace(net.sources[1], series_ohms=1e-9)
        net = dataclasses.replace(net, sources=net.sources[:1] + (near,) + net.sources[2:])
        levels = rng.uniform(-90, 90, size=len(net.sources))
        solver = network.NetworkSolver(net)
        sol = solver.solve(levels)
        v_ref, i_ref = loop_current_solve(net, levels)
        bound = 1e-9 * np.abs(i_ref).max()
        assert np.allclose(sol.node_voltages, v_ref, rtol=1e-9, atol=1e-9)
        assert np.allclose(sol.source_currents, i_ref, rtol=1e-9, atol=bound)
        assert np.allclose(solver.source_current_matrix @ levels, i_ref, rtol=1e-9, atol=bound)


def test_port_behind_lone_resistor_of_ideal_source():
    # The resistor is the port node's only branch, so it is stamped as a
    # branch current and the system has no conductance cell at all.
    solver = network.NetworkSolver(
        network.ResistiveNetwork(
            resistors=(network.Resistor(1, 2, 100.0),),
            sources=(network.VoltageSource(node=1),),
            port=(2, 0),
        )
    )
    assert solver.port_weights.tolist() == [1.0]
    assert solver.output_impedance() == pytest.approx(100.0, rel=1e-12)
    assert solver.port_voltage([3.0]) == pytest.approx(3.0, rel=1e-12)


def test_floating_node_is_named():
    with pytest.raises(SolverError, match="node 2"):
        network.ResistiveNetwork(
            resistors=(network.Resistor(1, 0, 100.0), network.Resistor(2, 3, 100.0)),
            sources=(network.VoltageSource(node=1),),
            port=(1, 0),
        )


def test_conflicting_ideal_sources_raise():
    net = network.ResistiveNetwork(
        resistors=(network.Resistor(1, 0, 100.0),),
        sources=(network.VoltageSource(node=1), network.VoltageSource(node=1)),
        port=(1, 0),
    )
    with pytest.raises(SolverError):
        network.NetworkSolver(net).solve([1.0, 2.0])


def test_source_current_matrix_matches_solve():
    rng = np.random.default_rng(27)
    net = random_network(rng, n_sources=3)
    solver = network.NetworkSolver(net)
    j = solver.source_current_matrix
    levels = rng.uniform(-90, 90, size=3)
    sol = solver.solve(levels)
    assert np.allclose(j @ levels, sol.source_currents, rtol=1e-9, atol=1e-12)


def test_invalid_elements_rejected():
    with pytest.raises(SolverError):
        network.Resistor(1, 0, 0.0)
    with pytest.raises(SolverError):
        network.Resistor(1, 1, 10.0)
    with pytest.raises(SolverError):
        network.VoltageSource(node=0)
    with pytest.raises(SolverError):
        network.VoltageSource(node=1, series_ohms=-1.0)


def test_wrong_level_count_rejected():
    net = divider_network()
    with pytest.raises(SolverError):
        network.NetworkSolver(net).solve([1.0, 2.0])


def test_netlist_dump_golden():
    net = divider_network()
    assert network.netlist_dump(net) == (
        "* divider\n"
        "R0 1 0 100\n"
        "V0 1 0 series=100\n"
        "PORT 1 0\n"
    )


# --- batched superposition ------------------------------------------------------


def scaled_copy(net, factors):
    """The same topology with every branch (resistors, then Norton sources) scaled."""
    resistors = tuple(
        network.Resistor(r.node_a, r.node_b, r.ohms * f) for r, f in zip(net.resistors, factors)
    )
    rest = iter(factors[len(net.resistors) :])
    sources = tuple(
        network.VoltageSource(s.node, s.series_ohms * next(rest) if s.series_ohms > 0 else 0.0)
        for s in net.sources
    )
    return network.ResistiveNetwork(resistors=resistors, sources=sources, port=net.port)


def test_batch_port_weights_match_each_network():
    rng = np.random.default_rng(28)
    net = random_network(rng, n_nodes=7, extra_edges=4, n_sources=3)
    solver = network.NetworkSolver(net)
    factors = rng.uniform(0.5, 2.0, size=(5, solver.n_branches))
    batch = solver.batch_port(solver.conductances / factors)
    assert batch.shape == (5, len(net.sources) + 1)
    for row, f in zip(batch, factors):
        other = scaled_copy(net, f)
        other_solver = network.NetworkSolver(other)
        assert np.allclose(row[:-1], other_solver.port_weights, rtol=1e-12, atol=1e-15)
        assert row[-1] == pytest.approx(other_solver.output_impedance(), rel=1e-12)
        for k in range(len(net.sources)):
            unit = np.zeros(len(net.sources))
            unit[k] = 1.0
            v_ref, _ = loop_current_solve(other, unit)
            p, q = net.port
            assert row[k] == pytest.approx(v_ref[p] - v_ref[q], rel=1e-9, abs=1e-12)


def test_batch_of_own_conductances_is_port_weights():
    rng = np.random.default_rng(29)
    solver = network.NetworkSolver(random_network(rng, n_sources=3))
    batch = solver.batch_port(np.tile(solver.conductances, (3, 1)))
    assert all(np.array_equal(row[:-1], solver.port_weights) for row in batch)
    assert all(row[-1] == solver.output_impedance() for row in batch)


def test_batch_rejects_wrong_conductance_shape():
    solver = network.NetworkSolver(divider_network())
    with pytest.raises(SolverError, match="shape"):
        solver.batch_port(np.ones((2, solver.n_branches + 1)))


def corrupt_solve(monkeypatch, offset=1e-3):
    """Make every stacked solve return a slightly wrong answer."""
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + offset)


def test_corrupted_unit_solve_raises(monkeypatch):
    solver = network.NetworkSolver(divider_network())
    corrupt_solve(monkeypatch)
    with pytest.raises(SolverError, match="superposition"):
        solver.port_weights
    with pytest.raises(SolverError, match="superposition"):
        solver.source_current_matrix


def test_corrupted_direct_solve_names_a_node(monkeypatch):
    solver = network.NetworkSolver(divider_network())
    corrupt_solve(monkeypatch)
    with pytest.raises(SolverError, match="residual at node 1"):
        solver.solve([90.0])


def test_corrupted_batch_solve_names_the_trial(monkeypatch):
    solver = network.NetworkSolver(divider_network())
    good = np.tile(solver.conductances, (3, 1))
    solve = np.linalg.solve

    def corrupt_last(a, b):
        x = solve(a, b)
        x[-1] += 1e-3
        return x

    monkeypatch.setattr(np.linalg, "solve", corrupt_last)
    with pytest.raises(SolverError, match=r"trial 2"):
        solver.batch_port(good)


def test_non_finite_unit_solve_raises(monkeypatch):
    solver = network.NetworkSolver(divider_network())
    corrupt_solve(monkeypatch, offset=np.nan)
    with pytest.raises(SolverError):
        solver.port_weights


def test_import_loads_no_scipy():
    # The library is numpy-only; a fresh interpreter shows what importing it pulls in.
    code = "import sys, ternadac; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=str(Path(ternadac.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
