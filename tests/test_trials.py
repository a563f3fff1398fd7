"""Batched Monte-Carlo trials against the per-trial path and the mesh oracle.

``monte_carlo`` solves every trial in one stacked solve on the nominal
topology. Each trial must still be the converter ``perturb(base, (seed, t))``
that a direct ``Dac`` build gives, on the prototype and on non-prototype
configs (switch on-resistance, other rails, open port).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternadac import analysis, calibrate, codec, dac, pipeline
from ternadac.errors import RangeError

from oracles import loop_current_solve

FS = pipeline.DEFAULT_FS_HZ
RECORD_S = 1024 / FS

VARIANTS = ("prototype", "r_on", "48V/6V", "open port")


@pytest.fixture(scope="module")
def variants(prototype):
    rails = {90.0: 48.0, 12.0: 6.0}
    return {
        "prototype": calibrate(prototype),
        "r_on": calibrate(replace(prototype, r_on=2.5)),
        "48V/6V": calibrate(
            replace(
                prototype,
                stages=tuple(replace(s, supply_v=rails[s.supply_v]) for s in prototype.stages),
            )
        ),
        "open port": calibrate(replace(prototype, load_ohms=math.inf)),
    }


def spur_ratio(sfdr_db: float) -> float:
    return 10.0 ** (-sfdr_db / 20.0)


@settings(max_examples=16, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    seed=st.integers(0, 2**32 - 1),
    tolerance=st.floats(0.0, 0.2),
    trials=st.integers(1, 4),
    level_dbfs=st.sampled_from([-40.0, -20.0, -3.0]),
)
def test_batched_trials_match_per_trial_dac(variants, variant, seed, tolerance, trials, level_dbfs):
    config = variants[variant]
    res = analysis.monte_carlo(
        config, tolerance, trials, level_dbfs=level_dbfs, seed=seed, duration_s=RECORD_S
    )
    spec = pipeline.StimulusSpec(
        kind=pipeline.StimulusKind.SINE,
        amplitude_dbfs=level_dbfs,
        frequency_hz=res.f0_hz,
        duration_s=RECORD_S,
    )
    values, _ = codec.scale_samples(pipeline.generate(spec), config.n_digits)
    digits = codec.to_balanced_ternary_array(values, config.n_digits)
    base = replace(config, tolerance=tolerance)
    for t in range(trials):
        v_out = dac.Dac(dac.perturb(base, (seed, t))).output_array(digits)
        expected = analysis.sfdr(v_out, res.f0_hz, FS)
        assert math.isclose(spur_ratio(res.sfdr_db[t]), spur_ratio(expected), rel_tol=1e-9)


@settings(max_examples=8, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    seed=st.integers(0, 2**32 - 1),
    tolerance=st.floats(0.001, 0.2),
    trials=st.integers(1, 4),
)
def test_batched_weights_match_mesh_oracle(variants, variant, seed, tolerance, trials):
    base = replace(variants[variant], tolerance=tolerance)
    w_pos, w_neg = dac.trial_weights(base, seed, trials)
    trial = trials - 1
    assert_mesh_weights(dac.perturb(base, (seed, trial)), w_pos[trial], w_neg[trial])


def assert_mesh_weights(config, w_pos, w_neg):
    """Loaded digit weights match the loaded network's mesh solve to 1e-9."""
    net = dac._layout(config).network(config.load_ohms)
    p, q = net.port
    unit = np.eye(len(net.sources))
    port = np.empty(len(net.sources))
    for k in range(len(net.sources)):
        v, _ = loop_current_solve(net, unit[k])
        port[k] = v[p] - v[q]
    n = config.n_digits
    volts = np.array([s.supply_v for s in config.stages])
    expected = np.concatenate([volts * port[:n], -volts * port[n:]])
    actual = np.concatenate([w_pos, w_neg])
    assert np.allclose(actual, expected, rtol=1e-9, atol=1e-9 * float(np.abs(expected).max()))


def test_near_short_trial_weights_match_mesh_oracle(variants):
    # A 1e-9 ohm entry element gets a branch-current unknown in the stacked
    # solve too, so every trial stays exact.
    base = variants["prototype"]
    stages = list(base.stages)
    stages[6] = replace(stages[6], entry_ohms=1e-9)
    base = replace(base, stages=tuple(stages), tolerance=0.05)
    w_pos, w_neg = dac.trial_weights(base, 11, 3)
    for t in range(3):
        assert_mesh_weights(dac.perturb(base, (11, t)), w_pos[t], w_neg[t])


def test_trial_blocks_join_unchanged(variants):
    base = replace(variants["prototype"], tolerance=0.05)
    trials = dac.TRIAL_BLOCK + 2
    w_pos, w_neg = dac.trial_weights(base, 5, trials)
    assert w_pos.shape == w_neg.shape == (trials, base.n_digits)
    for t in (0, dac.TRIAL_BLOCK - 1, dac.TRIAL_BLOCK, trials - 1):
        table = dac.Dac(dac.perturb(base, (5, t))).weight_table()
        assert np.array_equal(w_pos[t], table.w_pos_loaded)
        assert np.array_equal(w_neg[t], table.w_neg_loaded)


def test_trial_weights_validates_trials(variants):
    with pytest.raises(RangeError):
        dac.trial_weights(variants["prototype"], 0, 0)
