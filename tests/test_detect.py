import math
from dataclasses import replace

import numpy as np
import pytest

from cbmdetect.cdp import StabilityRelease
from cbmdetect.detect import (
    ESTIMATORS,
    DetectorConfig,
    StoppingRule,
    adaptive_step_unknown_params,
    cdp_step,
    cdp_stop,
    cdp_threshold,
    estimate,
    estimate_prechange_cdp,
    estimate_prechange_ldp,
    init_detector,
    ldp_step,
    ldp_stop,
    sensitivity_constant,
)
from cbmdetect.ldp import PrivacyBudget, perturbed_params
from cbmdetect.likelihood import flip_gap, log_likelihood_ratio
from cbmdetect.model import CbmParams, TernaryGraph, pair_indices, quad_form, sample_cbm
from cbmdetect.recovery import EIGH_MAX_N, ml_exhaustive, sdp_estimate, spectral_estimate

PRE = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
POST = np.array([1, -1, 1, -1, -1, -1], dtype=np.int8)


def _pattern_graph(labels):
    # complete graph showing every pair's label product, no noise
    i, j = pair_indices(len(labels))
    return TernaryGraph(len(labels), (labels[i] * labels[j]).astype(np.int8))


FIXED = DetectorConfig(estimator="fixed")


def test_init_detector():
    state = init_detector(-PRE)
    assert np.array_equal(state.sigma_hat, PRE)
    assert state.t == 0 and state.stat == 0.0 and state.buffer == ()


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(estimator="exact")
    with pytest.raises(ValueError):
        DetectorConfig(window=0)
    with pytest.raises(ValueError):
        StoppingRule(b=0.0)


# each name's solver, called directly: what estimate must return
DIRECT = {
    "sdp": lambda g, seed: sdp_estimate(g, seed=seed),
    "spectral": lambda g, seed: spectral_estimate(g, seed=seed),
    "ml": lambda g, seed: ml_exhaustive(g),
}


@pytest.mark.parametrize("name", ESTIMATORS)
def test_estimate_is_the_direct_solver_call(name):
    labels = np.array([1] * 5 + [-1] * 5, dtype=np.int8)
    for seed in range(3):
        g = sample_cbm(CbmParams(n=10, p=0.6, zeta=0.1), labels, seed)
        got, want = estimate(name, g, seed), DIRECT[name](g, seed)
        assert np.array_equal(got.labels, want.labels)
        assert (got.objective, got.status, got.iterations) == (
            want.objective, want.status, want.iterations,
        )


def test_estimate_forwards_start_to_spectral_only():
    g = _pattern_graph(POST)
    zero = np.zeros(len(POST))
    with pytest.raises(ValueError):  # spectral_estimate refuses a zero start
        estimate("spectral", g, 0, zero)
    for name in ("sdp", "ml"):
        assert np.array_equal(estimate(name, g, 0, zero).labels, estimate(name, g, 0).labels)


@pytest.mark.parametrize("name", ESTIMATORS)
@pytest.mark.parametrize("window", [list, tuple])
def test_estimate_takes_a_one_graph_window(name, window):
    g = _pattern_graph(POST)
    got, want = estimate(name, window([g]), 1), estimate(name, g, 1)
    assert np.array_equal(got.labels, want.labels)
    assert (got.objective, got.status, got.iterations) == (
        want.objective, want.status, want.iterations,
    )


@pytest.mark.parametrize("length", [0, 2, 3])
def test_ml_refuses_a_longer_window(length):
    with pytest.raises(ValueError, match=f"ml estimator takes one graph, got a window of {length}"):
        estimate("ml", [_pattern_graph(POST)] * length)


@pytest.mark.parametrize("name", ["fixed", "mll", "SDP", None])
def test_estimate_refuses_an_unknown_name(name):
    with pytest.raises(ValueError, match=f"unknown estimator {name!r}"):
        estimate(name, _pattern_graph(POST))


def test_first_sample_only_seeds():
    state = init_detector(PRE)
    g = _pattern_graph(POST)
    state = ldp_step(state, g, PRE, 0.6, 0.38, DetectorConfig())
    assert state.t == 0
    assert state.stat == 0.0
    assert len(state.buffer) == 1
    # the seed graph is noiseless for POST, so the estimate lands there
    assert np.array_equal(state.sigma_hat, POST)


def test_detector_config_has_no_seed_first_knob():
    # the first graph always only seeds the estimate (test_first_sample_only_seeds)
    with pytest.raises(TypeError):
        DetectorConfig(seed_first=False)


def test_scored_increment_is_the_log_ratio():
    g = _pattern_graph(POST)
    state = replace(init_detector(PRE), sigma_hat=POST, buffer=(g,))
    state = ldp_step(state, g, PRE, 0.6, 0.38, FIXED)
    expected = log_likelihood_ratio(g, POST, PRE, 0.6, 0.38)
    assert expected > 0
    np.testing.assert_allclose(state.stat, expected, rtol=1e-12)
    assert state.t == 1
    state = ldp_step(state, g, PRE, 0.6, 0.38, FIXED)
    np.testing.assert_allclose(state.stat, 2 * expected, rtol=1e-12)
    assert state.t == 2


def test_statistic_rectified_at_zero():
    g_pre = _pattern_graph(PRE)
    state = replace(init_detector(PRE), sigma_hat=POST, buffer=(g_pre,))
    for _ in range(4):
        state = ldp_step(state, g_pre, PRE, 0.6, 0.38, FIXED)
        assert state.stat == 0.0


def test_window_keeps_last_graphs():
    cfg = DetectorConfig(estimator="fixed", window=3)
    state = init_detector(PRE)
    graphs = [_pattern_graph(PRE) for _ in range(5)]
    for g in graphs:
        state = ldp_step(state, g, PRE, 0.6, 0.38, cfg)
    assert len(state.buffer) == 3
    assert all(b is g for b, g in zip(state.buffer, graphs[-3:]))


@pytest.mark.parametrize("window", [1, 3])
def test_warm_started_spectral_steps_match_a_cold_recomputation(window):
    # above EIGH_MAX_N each estimate starts Lanczos from the last one; the
    # labels must be the cold-started ones and every score the quadratic forms'
    n = EIGH_MAX_N + 22
    pre = np.array([1] * (n // 2) + [-1] * (n - n // 2), dtype=np.int8)
    post = pre.copy()
    post[:6] *= -1
    params = CbmParams.from_scale(n, 6.0, 0.2)
    rng = np.random.default_rng(window)
    graphs = [sample_cbm(params, pre if k < 2 else post, rng) for k in range(8)]
    cfg = DetectorConfig(estimator="spectral", window=window, seed=4)
    state = init_detector(pre)
    stat, sigma = 0.0, None
    for k, g in enumerate(graphs):
        if sigma is not None:
            q_gap = quad_form(g, sigma) - quad_form(g, pre)
            stat = max(stat + 0.25 * flip_gap(0.2) * q_gap, 0.0)
        state = ldp_step(state, g, pre, params.p, 0.2, cfg)
        sigma = spectral_estimate(graphs[max(k + 1 - window, 0) : k + 1], seed=4).labels
        assert np.array_equal(state.sigma_hat, sigma)
        assert state.stat == stat
    assert state.t == len(graphs) - 1 and stat > 0.0


def test_ldp_stop_needs_scored_steps():
    rule = StoppingRule(b=1.0)
    fresh = init_detector(PRE)
    assert not ldp_stop(replace(fresh, stat=5.0), rule)
    assert ldp_stop(replace(fresh, stat=5.0, t=1), rule)
    assert not ldp_stop(replace(fresh, stat=0.5, t=3), rule)


def test_sensitivity_constant():
    np.testing.assert_allclose(sensitivity_constant(0.1), 2.0 * math.log(9.0))


def test_cdp_threshold_flags_and_reproducibility():
    rule = cdp_threshold(2.0, 0.1, 40.0, seed=1)
    assert rule.b == 2.0
    assert rule.eps_gt_4c
    assert rule.b_tilde == cdp_threshold(2.0, 0.1, 40.0, seed=1).b_tilde
    assert rule.b_tilde != cdp_threshold(2.0, 0.1, 40.0, seed=2).b_tilde
    assert not cdp_threshold(2.0, 0.1, 10.0, seed=1).eps_gt_4c
    with pytest.raises(ValueError):
        cdp_threshold(2.0, 0.1, 0.0, seed=1)


def _released(labels):
    return lambda g, b, s: StabilityRelease(labels.copy(), True, 1.0)


def test_cdp_step_seeds_then_scores():
    budget = PrivacyBudget(5.0, 0.05)
    g = _pattern_graph(POST)
    state = init_detector(PRE)
    state = cdp_step(state, g, PRE, 0.5, 0.1, budget, _released(POST), seed=11)
    assert state.t == 0 and state.stat == 0.0 and state.noisy_stat is None
    assert np.array_equal(state.sigma_hat, POST)
    state = cdp_step(state, g, PRE, 0.5, 0.1, budget, _released(POST), seed=12)
    expected = log_likelihood_ratio(g, POST, PRE, 0.5, 0.1)
    np.testing.assert_allclose(state.stat, expected, rtol=1e-12)
    assert state.noisy_stat != state.stat
    assert state.t == 1


def test_cdp_step_noise_reproducible():
    budget = PrivacyBudget(5.0, 0.05)
    g = _pattern_graph(POST)

    def run():
        state = init_detector(PRE)
        state = cdp_step(state, g, PRE, 0.5, 0.1, budget, _released(POST), seed=21)
        return cdp_step(state, g, PRE, 0.5, 0.1, budget, _released(POST), seed=22)

    assert run().noisy_stat == run().noisy_stat


def test_cdp_stop_contract():
    rule = cdp_threshold(1.0, 0.1, 50.0, seed=0)
    state = replace(init_detector(PRE), t=1, noisy_stat=rule.b_tilde + 0.1)
    assert cdp_stop(state, rule)
    assert not cdp_stop(replace(state, noisy_stat=rule.b_tilde - 0.1), rule)
    assert not cdp_stop(replace(state, t=0), rule)
    with pytest.raises(ValueError):
        cdp_stop(state, StoppingRule(b=1.0))


def test_adaptive_step_refits_parameters():
    params = CbmParams(n=6, p=0.9, zeta=0.05)
    g = sample_cbm(params, POST, seed=3)
    state = init_detector(PRE)
    state = adaptive_step_unknown_params(state, g, PRE, 0.9, 0.05, FIXED)
    assert state.t == 0
    assert state.p_hat == g.edge_count / 15
    state = adaptive_step_unknown_params(state, g, PRE, 0.9, 0.05, FIXED)
    assert state.t == 1


def test_adaptive_step_degenerate_sample():
    empty = TernaryGraph.zero(6)
    state = init_detector(PRE)
    state = adaptive_step_unknown_params(state, empty, PRE, 0.9, 0.05, FIXED)
    assert state.p_hat is None
    assert state.degenerate_steps == 1
    # with no usable fit the next sample scores zero
    state = adaptive_step_unknown_params(state, empty, PRE, 0.9, 0.05, FIXED)
    assert state.stat == 0.0
    assert state.degenerate_steps == 2
    assert state.t == 1


@pytest.mark.parametrize(
    "step, mode", [(ldp_step, "LDP"), (adaptive_step_unknown_params, "LDP-adaptive")]
)
@pytest.mark.parametrize(
    "bad", [PRE[:5], np.array([1, 1, 0, -1, -1, -1], np.int8)], ids=["short", "zero entry"]
)
def test_malformed_pre_labels_raise_at_the_first_scored_step(step, mode, bad):
    # pre_labels are checked where they are scored; the seed-only first
    # step scores nothing, so the check comes with the second sample
    g = sample_cbm(CbmParams(n=6, p=0.9, zeta=0.05), POST, seed=3)
    state = step(init_detector(PRE), g, bad, 0.9, 0.05, FIXED)
    assert state.t == 0
    with pytest.raises(ValueError):
        step(state, g, bad, 0.9, 0.05, FIXED)
    # the global sign is free: -PRE scores like PRE
    good = step(state, g, PRE, 0.9, 0.05, FIXED)
    assert step(state, g, -PRE, 0.9, 0.05, FIXED).stat == good.stat


def test_prechange_ldp_estimate():
    params = CbmParams(n=30, p=0.9, zeta=0.05)
    labels = np.array([1] * 15 + [-1] * 15, dtype=np.int8)
    graphs = [sample_cbm(params, labels, seed=k) for k in range(6)]
    est = estimate_prechange_ldp(graphs, epsilon=3.0, seed=0)
    assert np.array_equal(est.labels, labels)
    assert not est.degenerate
    p_t, z_t = perturbed_params(0.9, 0.05, 3.0)
    np.testing.assert_allclose(est.p_hat, p_t, atol=0.05)
    np.testing.assert_allclose(est.zeta_hat, z_t, atol=0.05)
    with pytest.raises(ValueError):
        estimate_prechange_ldp([], epsilon=3.0, seed=0)


def test_prechange_cdp_estimate():
    params = CbmParams(n=8, p=0.9, zeta=0.05)
    labels = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
    graphs = [sample_cbm(params, labels, seed=k) for k in range(4)]
    budget = PrivacyBudget(5.0, 0.3)
    mech = lambda g, b, s: StabilityRelease(ml_exhaustive(g).labels, True, 1.0)
    est = estimate_prechange_cdp(graphs, budget, seed=0, mechanism=mech)
    assert np.array_equal(est.labels, labels)
    assert 0.0 < est.p_hat < 1.0
    assert 1e-6 <= est.zeta_hat <= 0.5 - 1e-6
    again = estimate_prechange_cdp(graphs, budget, seed=0, mechanism=mech)
    assert (again.p_hat, again.zeta_hat) == (est.p_hat, est.zeta_hat)


def test_prechange_cdp_falls_back_to_withheld_labels():
    params = CbmParams(n=8, p=0.9, zeta=0.05)
    labels = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=np.int8)
    graphs = [sample_cbm(params, labels, seed=k) for k in range(3)]
    stand_in = np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=np.int8)
    mech = lambda g, b, s: StabilityRelease(stand_in.copy(), False, -1.0)
    est = estimate_prechange_cdp(graphs, PrivacyBudget(5.0, 0.3), seed=0, mechanism=mech)
    assert np.array_equal(est.labels, stand_in)
