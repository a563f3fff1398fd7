from __future__ import annotations

import dataclasses
import math

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ternadac import codec, dac, network
from ternadac.errors import CalibrationError, ConfigError, RangeError

from oracles import indicator_output_oracle, loop_current_solve

LADDER = dac.StageKind.LADDER_4R3R
POWER3 = dac.StageKind.POWER3_WEIGHTED


def uniform_ladder(n=6, r=2000.0, v=90.0, load=32.0):
    return dac.DacConfig(
        stages=tuple(dac.StageSpec(LADDER, r, v) for _ in range(n)),
        load_ohms=load,
    )


def random_words(rng, n_digits, count):
    return rng.integers(-1, 2, size=(count, n_digits)).astype(np.int8)


def ladder_branch_impedance(r, n_stages, entry):
    # Series-parallel reduction from the terminated end up to the entry element.
    z = (3.0 * r * 6.0 * r) / (3.0 * r + 6.0 * r)  # last node: 3R || 6R
    for _ in range(n_stages - 1):
        below = 4.0 * r + z
        z = (3.0 * r * below) / (3.0 * r + below)
    return entry + z


# --- topology builders -----------------------------------------------------


@pytest.mark.parametrize("n", [1, 4, 8])
def test_r2r_ladder_impedance_and_weights(n):
    r = 1000.0
    solver = network.NetworkSolver(dac.build_topology(dac.TopologyKind.R2R, n, r, 90.0))
    assert solver.output_impedance() == pytest.approx(r, rel=1e-12)
    weights = solver.port_weights
    for k in range(n):
        assert weights[k] == pytest.approx(2.0 ** -(k + 1), rel=1e-12)
    # All switches low -> 0; all high -> v * (1 - 2^-n), approaching +V.
    v = 90.0
    assert solver.port_voltage(np.zeros(n)) == pytest.approx(0.0, abs=1e-12)
    assert solver.port_voltage(np.full(n, v)) == pytest.approx(v * (1 - 2.0**-n), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 6, 10])
def test_ternary_ladder_impedance_and_weights(n):
    r = 1000.0
    solver = network.NetworkSolver(
        dac.build_topology(dac.TopologyKind.TERNARY_4R3R, n, r, 90.0)
    )
    assert solver.output_impedance() == pytest.approx(2.0 * r, rel=1e-12)
    weights = solver.port_weights
    for k in range(n):
        assert weights[k] == pytest.approx((2.0 / 3.0) * 3.0**-k, rel=1e-12)


def test_ternary_ladder_swing_approaches_twice_the_reference():
    v = 90.0
    for n in range(8, 13):
        solver = network.NetworkSolver(
            dac.build_topology(dac.TopologyKind.TERNARY_4R3R, n, 1000.0, v)
        )
        top = solver.port_voltage(np.full(n, v))
        swing = 2.0 * top  # digits are symmetric: -V word mirrors +V word
        assert abs(swing - 2.0 * v) / (2.0 * v) < 0.01


def test_ternary_ladder_level_count():
    # 10 stages address 3^10 distinct codes, one output level each (exact
    # power-of-3 weights make distinct codes distinct voltages).
    n = 10
    m = codec.ternary_full_scale(n)
    assert 2 * m + 1 == 3**n == 59049


def test_differential_ladder_impedance():
    # Two 2R half ladders in series across the port.
    r = 1500.0
    solver = network.NetworkSolver(
        dac.build_topology(dac.TopologyKind.DIFFERENTIAL_4R3R, 6, r, 90.0)
    )
    assert solver.output_impedance() == pytest.approx(4.0 * r, rel=1e-12)


def test_differential_halves_mirror():
    n, r, v = 5, 2000.0, 90.0
    solver = network.NetworkSolver(
        dac.build_topology(dac.TopologyKind.DIFFERENTIAL_4R3R, n, r, v)
    )
    weights = solver.port_weights
    assert np.allclose(weights[:n], -weights[n:], rtol=1e-12)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_power3_differential_impedance(n):
    r = 300.0
    solver = network.NetworkSolver(
        dac.build_topology(dac.TopologyKind.POWER3_DIFFERENTIAL, n, r, 90.0)
    )
    assert solver.output_impedance() == pytest.approx(4.0 * r / 3.0, rel=1e-12)


def test_build_topology_rejects_bad_args():
    with pytest.raises(RangeError):
        dac.build_topology(dac.TopologyKind.R2R, 0, 1000.0, 90.0)
    with pytest.raises(RangeError):
        dac.build_topology(dac.TopologyKind.R2R, 4, -1.0, 90.0)


def test_dacconfig_ladder_matches_topology_builder():
    n, r = 6, 2000.0
    config = uniform_ladder(n=n, r=r, load=math.inf)
    converter = dac.Dac(config)
    solver = network.NetworkSolver(
        dac.build_topology(dac.TopologyKind.DIFFERENTIAL_4R3R, n, r, 90.0)
    )
    assert converter.z_out == pytest.approx(solver.output_impedance(), rel=1e-12)
    assert np.allclose(
        converter.weight_table().w_pos_open, 90.0 * solver.port_weights[:n], rtol=1e-12
    )


def test_dacconfig_power3_matches_topology_builder():
    n, r = 4, 300.0
    config = dac.DacConfig(
        stages=tuple(dac.StageSpec(POWER3, r * 3.0**k, 90.0) for k in range(n)),
        load_ohms=math.inf,
    )
    converter = dac.Dac(config)
    solver = network.NetworkSolver(
        dac.build_topology(dac.TopologyKind.POWER3_DIFFERENTIAL, n, r, 90.0)
    )
    assert converter.z_out == pytest.approx(4.0 * r / 3.0, rel=1e-12)
    assert converter.z_out == pytest.approx(solver.output_impedance(), rel=1e-12)


# --- prototype and calibration ----------------------------------------------


def test_prototype_structure(prototype):
    assert prototype.n_digits == 20
    kinds = [s.kind for s in prototype.stages]
    assert kinds == [POWER3] * 6 + [LADDER] * 14
    assert [s.parallel_strings for s in prototype.stages[:6]] == [9, 3, 1, 1, 1, 1]
    assert [s.r_base for s in prototype.stages[:6]] == [100, 100, 100, 300, 900, 2700]
    assert all(s.supply_v == 90.0 for s in prototype.stages[:12])
    assert all(s.supply_v == 12.0 for s in prototype.stages[12:])
    assert all(s.r_base == 2000.0 for s in prototype.stages[6:12])
    assert all(s.r_base == 5000.0 for s in prototype.stages[12:])
    assert prototype.load_ohms == 32.0
    assert prototype.tolerance == 0.05


def test_prototype_nominal_figures(prototype):
    table = dac.weights(prototype)
    assert abs(table.z_out - 15.0) / 15.0 < 0.10
    assert abs(2.0 * table.v_full_scale - 180.0) / 180.0 < 0.01


def test_calibrated_entry_values(calibrated):
    # Closed-form values from reducing the boundary dividers by hand:
    # g = 1/5400 continues the power-of-3 conductance series (entry 1400 ohms),
    # and the supply step forces 1/g = 3^5 * 12 * 5400 / 90 = 524880 ohms total.
    entries = {k: s.entry_ohms for k, s in enumerate(calibrated.stages) if s.entry_ohms}
    assert set(entries) == {6, 12}
    assert entries[6] == pytest.approx(1400.0, rel=1e-12)
    assert entries[12] == pytest.approx(514880.0, rel=1e-12)


def test_calibrated_ratios_all_three(calibrated):
    w = dac.weights(calibrated).w_open
    ratios = w[:-1] / w[1:]
    assert np.allclose(ratios, 3.0, rtol=1e-9)


def test_calibrated_prototype_figures(calibrated):
    table = dac.weights(calibrated)
    assert abs(table.z_out - 15.0) / 15.0 < 0.10
    assert abs(2.0 * table.v_full_scale - 180.0) / 180.0 < 0.01
    loaded_pp = 2.0 * float(table.w_pos_loaded.sum())
    assert abs(loaded_pp - 120.0) / 120.0 < 0.05
    # Consistent with the open-circuit swing through the output divider.
    assert loaded_pp == pytest.approx(
        2.0 * table.v_full_scale * 32.0 / (32.0 + table.z_out), rel=1e-9
    )


def test_calibrate_single_section_is_identity():
    config = uniform_ladder()
    assert dac.calibrate(config) is config


def test_calibrate_is_a_fixed_point(calibrated):
    again = dac.calibrate(calibrated)
    for a, b in zip(again.stages, calibrated.stages):
        if a.entry_ohms is not None:
            assert a.entry_ohms == pytest.approx(b.entry_ohms, rel=1e-9)


def test_calibrate_recovers_perturbed_boundary(calibrated):
    stages = list(calibrated.stages)
    stages[6] = dataclasses.replace(stages[6], entry_ohms=5000.0)
    broken = dataclasses.replace(calibrated, stages=tuple(stages))
    w = dac.weights(broken).w_open
    assert abs(w[5] / w[6] - 3.0) > 0.1  # actually detuned
    fixed = dac.calibrate(broken)
    w = dac.weights(fixed).w_open
    assert w[5] / w[6] == pytest.approx(3.0, rel=1e-9)
    assert fixed.stages[6].entry_ohms == pytest.approx(1400.0, rel=1e-6)


def test_calibrate_unreachable_boundary_raises():
    config = dac.DacConfig(
        stages=(
            dac.StageSpec(POWER3, 100.0, 90.0),
            dac.StageSpec(LADDER, 100.0, 0.01),  # supply far too low to keep ratio 3
        ),
        load_ohms=32.0,
    )
    with pytest.raises(CalibrationError, match="1 -> 2"):
        dac.calibrate(config)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_calibrate_rejects_entry_hidden_by_override(calibrated, seed):
    # perturb() pins every element, the entries included, so no entry value
    # can reach ratio 3 and the returned config must be refused.
    with pytest.raises(CalibrationError, match="6 -> 7"):
        dac.calibrate(dac.perturb(calibrated, seed))


@st.composite
def reachable_configs(draw):
    """2-3 ladder sections behind an optional power-of-3 bank.

    With its entry shorted, each downstream section's first source drives at
    least 1/2.42 of the short-circuit current of the upstream section's last
    source (its string is at most 3·0.8 times as large relative to its supply,
    and ``r_on`` at most 2 % of any string), so the boundary ratio is below 3
    at zero entry and every boundary is reachable with a positive entry.
    """
    stages = []
    v = draw(st.floats(1.0, 200.0))
    ladders = draw(st.integers(2, 3))
    bank = draw(st.booleans())
    if bank:
        r = draw(st.floats(10.0, 1e4))
        for k in range(draw(st.integers(1, 3))):
            stages.append(dac.StageSpec(POWER3, r * 3.0**k, v, draw(st.integers(1, 9))))
        source_ohms = stages[-1].r_base / stages[-1].parallel_strings
    else:
        r, p = draw(st.floats(10.0, 1e4)), draw(st.integers(1, 3))
        stages += [dac.StageSpec(LADDER, r, v, p)] * draw(st.integers(1, 3))
        source_ohms = 3.0 * r / p
    for _ in range(ladders - (not bank)):
        v_next = v * draw(st.floats(0.05, 1.0))
        p = draw(st.integers(1, 3))
        r = p * draw(st.floats(0.05, 0.8)) * source_ohms * v_next / v
        v = v_next
        stages += [dac.StageSpec(LADDER, r, v, p)] * draw(st.integers(1, 3))
        source_ohms = 3.0 * r / p
    config = dac.DacConfig(
        stages=tuple(stages),
        load_ohms=draw(st.sampled_from([math.inf, 32.0]) | st.floats(1.0, 1e4)),
        r_on=draw(st.floats(0.0, 0.02)) * min(s.r_base / s.parallel_strings for s in stages),
    )
    # Two ladder sections with equal (r_base, supply_v) would merge into one.
    assume(len(dac._sections(config)) == bank + ladders)
    return config


@settings(max_examples=40, deadline=None)
@given(config=reachable_configs())
def test_calibrate_reaches_ratio_three_on_random_configs(config):
    calibrated = dac.calibrate(config)
    w = dac.weights(calibrated).w_open
    sections = dac._sections(config)
    for up, down in zip(sections, sections[1:]):
        ratio = w[up.indices[-1]] / w[down.indices[0]]
        assert ratio == pytest.approx(3.0, rel=dac.RATIO_RTOL)
    assert dac.calibrate(calibrated) == calibrated


def test_loaded_weights_follow_output_divider(calibrated):
    table = dac.weights(calibrated)
    divider = table.load_ohms / (table.load_ohms + table.z_out)
    assert np.allclose(table.w_pos_loaded, table.w_pos_open * divider, rtol=1e-9)


def test_weight_table_symmetric_on_ideal_config(calibrated):
    table = dac.weights(calibrated)
    assert np.allclose(table.w_pos_open, table.w_neg_open, rtol=1e-12)
    assert np.all(np.diff(table.w_open) < 0)  # strictly decreasing
    assert table.z_out > 0


def test_attenuation_per_stage_db(calibrated):
    w = dac.weights(calibrated).w_open
    steps = 20.0 * np.log10(w[:-1] / w[1:])
    assert np.allclose(steps, 9.5424, atol=0.01)


def test_shifted_code_attenuation(calibrated):
    # The same digit pattern shifted down n stages comes out 3^-n weaker:
    # grounded leading stages act as a fixed attenuator chain.
    converter = dac.Dac(calibrated)
    for shift in (1, 5, 18):
        t = codec.ternary_full_scale(20 - shift)
        words = codec.to_balanced_ternary_array(np.array([t, t * 3**shift]), 20)
        low, high = converter.output_array(words)
        assert low / high == pytest.approx(3.0**-shift, rel=1e-9)


# --- digit-state evaluation ---------------------------------------------------


def test_dac_output_zero_word_is_zero(calibrated):
    assert dac.Dac(calibrated).output_array(np.zeros((1, 20), dtype=np.int8)).tolist() == [0.0]


def test_dac_output_negation_symmetry(calibrated):
    converter = dac.Dac(calibrated)
    words = random_words(np.random.default_rng(31), 20, 50)
    v = converter.output_array(words)
    assert converter.output_array(-words) == pytest.approx(-v, rel=1e-12, abs=1e-18)


def test_dac_output_length_mismatch(calibrated):
    with pytest.raises(RangeError):
        dac.Dac(calibrated).output_array(np.array([[1, 0]], dtype=np.int8))


def test_fast_path_matches_direct_solve(calibrated):
    converter = dac.Dac(calibrated)
    words = random_words(np.random.default_rng(32), 20, 200)
    for fast, row in zip(converter.output_array(words), words):
        direct = converter.output_direct(row)
        assert fast == pytest.approx(direct, rel=1e-9, abs=1e-15)


def test_fast_path_matches_direct_solve_perturbed(calibrated):
    converter = dac.Dac(dac.perturb(calibrated, seed=99))
    words = random_words(np.random.default_rng(33), 20, 50)
    for fast, row in zip(converter.output_array(words), words):
        direct = converter.output_direct(row)
        assert fast == pytest.approx(direct, rel=1e-9, abs=1e-15)


def test_tiny_entry_resistor_matches_mesh_oracle(calibrated):
    # A 1e-9 ohm entry element is a valid config: the solves must accept it
    # and stay exact. Stamped as a conductance, its 1e9 S would round the
    # ~0.1 S of the other branches at the output node to ~1e-7 S; the solver
    # gives it a branch-current unknown instead. Mesh analysis, which sums
    # the tiny resistance, is the reference.
    stages = list(calibrated.stages)
    stages[6] = dataclasses.replace(stages[6], entry_ohms=1e-9)
    config = dataclasses.replace(calibrated, stages=tuple(stages))
    converter = dac.Dac(config)
    net = dac._layout(config).network(config.load_ohms)
    p, q = net.port
    words = random_words(np.random.default_rng(37), 20, 20)
    for fast, row in zip(converter.output_array(words), words):
        v, _ = loop_current_solve(net, converter.source_levels(row))
        assert fast == pytest.approx(v[p] - v[q], rel=1e-9, abs=1e-15)
        assert converter.output_direct(row) == pytest.approx(v[p] - v[q], rel=1e-9, abs=1e-15)


def test_monotone_output_exhaustive_six_stages():
    converter = dac.Dac(uniform_ladder(n=6))
    m = codec.ternary_full_scale(6)
    values = np.arange(-m, m + 1)
    v = converter.output_array(codec.to_balanced_ternary_array(values, 6))
    assert np.all(np.diff(v) > 0)


def test_monotone_output_sampled_twenty_stages(calibrated):
    converter = dac.Dac(calibrated)
    rng = np.random.default_rng(36)
    m = codec.ternary_full_scale(20)
    values = np.unique(rng.integers(-m, m + 1, size=5000))
    values = np.concatenate([values, values[:-1] + 1])  # adjacent codes too
    values.sort()
    v = converter.output_array(codec.to_balanced_ternary_array(values, 20))
    assert np.all(np.diff(v) > 0)


def test_supply_currents_zero_word(calibrated):
    currents = dac.Dac(calibrated).supply_currents([0] * 20)
    assert currents[90.0] == 0.0
    assert currents[12.0] == 0.0


def test_supply_currents_msb_word_vs_hand_reduction(calibrated):
    # Open load, only the most significant digit set: all current leaves the
    # 90 V rail through the MSB strings into the rest of the upper half.
    open_config = dataclasses.replace(calibrated, load_ohms=math.inf)
    word = [1] + [0] * 19
    currents = dac.Dac(open_config).supply_currents(word)

    r_msb = 100.0 / 9.0
    g_rest = 3.0 / 100.0 + 1.0 / 100.0 + 1.0 / 300.0 + 1.0 / 900.0 + 1.0 / 2700.0
    g_rest += 1.0 / ladder_branch_impedance(2000.0, 6, calibrated.stages[6].entry_ohms)
    g_rest += 1.0 / ladder_branch_impedance(5000.0, 8, calibrated.stages[12].entry_ohms)
    expected = 90.0 / (r_msb + 1.0 / g_rest)
    assert currents[90.0] == pytest.approx(expected, rel=1e-9)
    assert currents[12.0] == pytest.approx(0.0, abs=1e-15)


def test_supply_currents_word_negation(calibrated):
    rng = np.random.default_rng(34)
    converter = dac.Dac(calibrated)
    for row in random_words(rng, 20, 20):
        a = converter.supply_currents(row)
        b = converter.supply_currents(-row)
        assert a[90.0] == pytest.approx(b[90.0], rel=1e-9, abs=1e-15)
        assert a[12.0] == pytest.approx(b[12.0], rel=1e-9, abs=1e-15)


def test_reference_paths_take_int_rows_and_digit_vectors(calibrated):
    converter = dac.Dac(calibrated)
    for row in random_words(np.random.default_rng(39), 20, 10):
        word = codec.DigitVector.from_array(row)
        assert converter.output_direct(row) == converter.output_direct(word)
        assert converter.output_direct(row.tolist()) == converter.output_direct(word)
        assert converter.supply_currents(row) == converter.supply_currents(word)


@pytest.mark.parametrize(
    "word",
    [[1, 0, -1], [0] * 19 + [2], [[0] * 20], [0.5] * 20],
    ids=["wrong-length", "digit-2", "2-D", "float"],
)
def test_reference_paths_reject_bad_words(calibrated, word):
    converter = dac.Dac(calibrated)
    for path in (converter.source_levels, converter.output_direct, converter.supply_currents):
        with pytest.raises(RangeError):
            path(word)


def test_source_levels_zero_word_is_all_ground(calibrated):
    assert dac.Dac(calibrated).source_levels([0] * 20).tolist() == [0.0] * 40


def test_source_levels_split_rule(calibrated):
    # +1 drives the upper stage to its rail, -1 the lower one; stages 13-20 are on 12 V.
    levels = dac.Dac(calibrated).source_levels([1, -1] + [0] * 17 + [-1])
    assert np.flatnonzero(levels).tolist() == [0, 21, 39]
    assert levels[[0, 21, 39]].tolist() == [90.0, 90.0, 12.0]


def test_source_levels_never_drive_both_halves(calibrated):
    converter = dac.Dac(calibrated)
    for row in random_words(np.random.default_rng(15), 20, 50):
        levels = converter.source_levels(row)
        assert (levels[:20] * levels[20:] == 0.0).all()


def test_source_levels_negation_swaps_halves(calibrated):
    converter = dac.Dac(calibrated)
    for row in random_words(np.random.default_rng(16), 20, 50):
        levels = converter.source_levels(row)
        assert np.array_equal(converter.source_levels(-row), np.roll(levels, 20))


def test_near_short_source_currents_match_mesh_oracle(calibrated):
    # A 1e-9 ohm string element puts a 1e9 S source branch on its node.
    # Taken as the difference of two nearly equal volts over 1e-9 ohm, its
    # current would be ~1e-6 of max|I| off; solved as its own unknown it is exact.
    config = dataclasses.replace(calibrated, element_overrides={"upper.s13.shunt1": 1e-9})
    converter = dac.Dac(config)
    net = dac._layout(config).network(config.load_ohms)
    words = random_words(np.random.default_rng(41), 20, 30)
    rails = converter.rail_currents_array(words)
    for k, row in enumerate(words):
        levels = converter.source_levels(row)
        _, i_ref = loop_current_solve(net, levels)
        high = i_ref * (levels > 0)
        expected = {v: high[levels == v].sum() for v in converter.rail_voltages}
        bound = 1e-9 * np.abs(i_ref).max()
        for volts, amps in converter.supply_currents(row).items():
            assert abs(amps - expected[volts]) <= bound
            assert abs(rails[volts][k] - expected[volts]) <= bound


def test_rail_currents_array_matches_scalar(calibrated):
    converter = dac.Dac(calibrated)
    rng = np.random.default_rng(35)
    words = random_words(rng, 20, 40)
    rails = converter.rail_currents_array(words)
    for k, row in enumerate(words):
        scalar = converter.supply_currents(row)
        assert rails[90.0][k] == pytest.approx(scalar[90.0], rel=1e-9, abs=1e-15)
        assert rails[12.0][k] == pytest.approx(scalar[12.0], rel=1e-9, abs=1e-15)


def three_rail_config():
    # Eleven digits (a one-digit top group) on 60 V, 24 V and 5 V rails.
    stages = [dac.StageSpec(POWER3, 300.0, 60.0), dac.StageSpec(POWER3, 900.0, 60.0)]
    stages += [dac.StageSpec(LADDER, 3000.0, 24.0) for _ in range(4)]
    stages += [dac.StageSpec(LADDER, 8000.0, 5.0) for _ in range(5)]
    return dac.DacConfig(stages=tuple(stages), load_ohms=16.0, r_on=0.5)


def twelve_rail_config():
    # Three digit groups, each stage on its own rail.
    stages = [dac.StageSpec(POWER3, 100.0 * 3**k, 5.0 + k) for k in range(12)]
    return dac.DacConfig(stages=tuple(stages), load_ohms=8.0, r_on=0.2)


@pytest.fixture(
    scope="module",
    params=[
        "six-stage perturbed", "prototype", "three-rail",
        "three-digit", "five-digit perturbed", "twelve-rail",
    ],
)
def table_converter(request, calibrated):
    configs = {
        # Mismatched halves, so a swapped +1/-1 indicator column shows.
        "six-stage perturbed": lambda: dac.perturb(dataclasses.replace(uniform_ladder(), tolerance=0.05), 3),
        "prototype": lambda: calibrated,
        "three-rail": three_rail_config,
        # One digit group: no pair of groups, only the group's own terms.
        "three-digit": lambda: uniform_ladder(3),
        "five-digit perturbed": lambda: dac.perturb(
            dataclasses.replace(uniform_ladder(5), tolerance=0.05), 4
        ),
        "twelve-rail": twelve_rail_config,
    }
    return dac.Dac(configs[request.param]())


def test_table_output_matches_indicator_gemv(table_converter):
    n = table_converter.n_digits
    rng = np.random.default_rng(40 + n)
    full = np.ones((1, n), dtype=np.int8)
    words = np.concatenate([random_words(rng, n, 500), full, -full])
    table = table_converter.weight_table()
    expected = indicator_output_oracle(words, table.w_pos_loaded, table.w_neg_loaded)
    actual = table_converter.output_array(words)
    assert np.abs(actual - expected).max() <= 1e-14 * np.abs(expected).max()


def test_table_output_is_exact_on_zero_and_single_digit_words(table_converter):
    n = table_converter.n_digits
    table = table_converter.weight_table()
    assert table_converter.output_array(np.zeros((1, n), dtype=np.int8)).tolist() == [0.0]
    eye = np.eye(n, dtype=np.int8)
    assert np.array_equal(table_converter.output_array(eye), table.w_pos_loaded)
    assert np.array_equal(table_converter.output_array(-eye), -table.w_neg_loaded)


def test_rail_currents_array_matches_supply_currents(table_converter):
    n = table_converter.n_digits
    words = random_words(np.random.default_rng(50 + n), n, 2055)
    rails = table_converter.rail_currents_array(words)
    assert set(rails) == set(table_converter.rail_voltages)
    for k in [*range(40), 1023, 1024, 2047, 2048, 2054]:
        for volts, amps in table_converter.supply_currents(words[k]).items():
            assert rails[volts][k] == pytest.approx(amps, rel=1e-9, abs=1e-15)


def test_rail_currents_array_is_exact_on_the_zero_word(table_converter):
    zero = np.zeros((3, table_converter.n_digits), dtype=np.int8)
    rails = table_converter.rail_currents_array(zero)
    assert {volts: amps.tolist() for volts, amps in rails.items()} == {
        volts: [0.0] * 3 for volts in table_converter.rail_voltages
    }


@pytest.mark.parametrize("load", [8.0, 32.0, 600.0, math.inf])
def test_one_open_solve_serves_every_load(calibrated, monkeypatch, load):
    built = []
    init = network.NetworkSolver.__init__

    def counting_init(self, net):
        built.append(net.name)
        init(self, net)

    monkeypatch.setattr(network.NetworkSolver, "__init__", counting_init)
    converter = dac.Dac(dataclasses.replace(calibrated, load_ohms=load))
    assert built == ["dac open"]
    table = converter.weight_table()
    if math.isinf(load):
        assert np.array_equal(table.w_pos_loaded, table.w_pos_open)
        assert np.array_equal(table.w_neg_loaded, table.w_neg_open)

    # Criterion 6's bound, for the output and for each rail's current.
    def close(actual, expected, scale):
        return abs(actual - expected) <= 1e-9 * max(abs(expected), 1e-9 * scale)

    words = random_words(np.random.default_rng(38), 20, 200)
    fast = converter.output_array(words)
    rails = converter.rail_currents_array(words)
    for k, row in enumerate(words):
        assert close(fast[k], converter.output_direct(row), np.abs(fast).max())
        for volts, amps in converter.supply_currents(row).items():
            assert close(rails[volts][k], amps, np.abs(rails[volts]).max())
    assert len(built) == 2  # the reference paths built their own network, once


def test_switch_resistance_raises_output_impedance(calibrated):
    with_r_on = dataclasses.replace(calibrated, r_on=5.0)
    assert dac.Dac(with_r_on).z_out > dac.Dac(calibrated).z_out


# --- perturbation --------------------------------------------------------------


def test_perturb_zero_tolerance_is_identity(calibrated):
    config = dataclasses.replace(calibrated, tolerance=0.0)
    assert dac.perturb(config, seed=1) is config


def test_perturb_is_deterministic(calibrated):
    a = dac.perturb(calibrated, seed=42)
    b = dac.perturb(calibrated, seed=42)
    assert a.element_overrides == b.element_overrides
    c = dac.perturb(calibrated, seed=43)
    assert a.element_overrides != c.element_overrides


def test_perturb_respects_bounds(calibrated):
    elements = dict(dac.enumerate_elements(calibrated))
    noisy = dac.perturb(calibrated, seed=7)
    assert set(noisy.element_overrides) == set(elements)
    for label, value in noisy.element_overrides.items():
        assert abs(value / elements[label] - 1.0) <= calibrated.tolerance


def test_perturb_halves_are_independent(calibrated):
    noisy = dac.perturb(calibrated, seed=8)
    overrides = noisy.element_overrides
    upper = {k.split(".", 1)[1]: v for k, v in overrides.items() if k.startswith("upper.")}
    lower = {k.split(".", 1)[1]: v for k, v in overrides.items() if k.startswith("lower.")}
    assert set(upper) == set(lower)
    assert any(upper[k] != lower[k] for k in lower)


def test_prototype_element_count(calibrated):
    # 16 string resistors in the weighted bank, 13 + 17 ladder elements, per half.
    assert len(dac.enumerate_elements(calibrated)) == 92


def test_perturbed_upper_lower_asymmetry_shows_in_weights(calibrated):
    noisy = dac.perturb(calibrated, seed=9)
    table = dac.weights(noisy)
    assert not np.allclose(table.w_pos_open, table.w_neg_open, rtol=1e-6)


# --- config surface --------------------------------------------------------


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        dac.DacConfig(stages=())
    with pytest.raises(ConfigError):
        dac.DacConfig(stages=(dac.StageSpec(POWER3, 100.0, 90.0),), load_ohms=0.0)
    with pytest.raises(ConfigError):
        dac.DacConfig(stages=(dac.StageSpec(POWER3, 100.0, 90.0),), tolerance=1.0)
    with pytest.raises(ConfigError):
        dac.DacConfig(
            stages=(dac.StageSpec(LADDER, 100.0, 90.0), dac.StageSpec(POWER3, 100.0, 90.0))
        )
    with pytest.raises(ConfigError):
        dac.StageSpec(POWER3, -5.0, 90.0)


def test_config_file_round_trip(tmp_path, calibrated):
    noisy = dac.perturb(calibrated, seed=11)
    path = tmp_path / "dac.cfg"
    dac.write_config(noisy, path)
    back = dac.read_config(path)
    assert back == noisy


@settings(max_examples=20, deadline=None)
@given(
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    tolerance=st.floats(0.0, 0.5),
    load_ohms=st.sampled_from([32.0, 4.7, math.inf]),
    r_on=st.floats(0.0, 10.0),
)
def test_config_file_round_trip_property(calibrated, seed, tolerance, load_ohms, r_on):
    # Calibrated (seed None) or perturbed, with any load, switch resistance and
    # tolerance: every field comes back bit for bit.
    config = dataclasses.replace(calibrated, tolerance=tolerance, load_ohms=load_ohms, r_on=r_on)
    if seed is not None:
        config = dac.perturb(config, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dac.cfg"
        dac.write_config(config, path)
        assert dac.read_config(path) == config


def test_config_file_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[dac]\nload_ohms = 32\n", encoding="ascii")
    with pytest.raises(ConfigError, match="stage"):
        dac.read_config(path)
    path.write_text(
        "[dac]\nload_ohms = 32\n[stage.01]\nkind = WRONG\nr_base = 1\nsupply_v = 1\n",
        encoding="ascii",
    )
    with pytest.raises(ConfigError, match="kind"):
        dac.read_config(path)
    path.write_text(
        "[dac]\nload_ohms = 32\n[stage.01]\nkind = LADDER_4R3R\nsupply_v = 1\n",
        encoding="ascii",
    )
    with pytest.raises(ConfigError, match="r_base"):
        dac.read_config(path)
    path.write_text(
        "[dac]\nload_ohms = 32\n[stage.02]\nkind = LADDER_4R3R\nr_base = 1\nsupply_v = 1\n",
        encoding="ascii",
    )
    with pytest.raises(ConfigError, match="consecutive"):
        dac.read_config(path)
