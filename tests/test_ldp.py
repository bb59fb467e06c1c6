import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbmdetect.ldp import (
    EPS_IDENTITY,
    PrivacyBudget,
    RrProbabilities,
    ldp_recovery_margin,
    ldp_threshold_rhs,
    perturb_graph,
    perturbed_params,
)
from cbmdetect.model import CbmParams, TernaryGraph, pair_indices, random_labels, sample_cbm

import oracles

eps_values = st.floats(min_value=0.05, max_value=20.0)


def test_privacy_budget_validation():
    PrivacyBudget(1.0)
    PrivacyBudget(1.0, 0.05)
    for eps, delta in ((0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (1.0, 1.0), (1.0, -0.1)):
        with pytest.raises(ValueError):
            PrivacyBudget(eps, delta)


@given(eps_values)
def test_rr_probabilities_likelihood_ratio(epsilon):
    probs = RrProbabilities.from_epsilon(epsilon)
    np.testing.assert_allclose(probs.keep + 2.0 * probs.switch, 1.0, rtol=1e-12)
    np.testing.assert_allclose(probs.keep / probs.switch, math.exp(epsilon), rtol=1e-12)


def test_rr_probabilities_saturate_to_identity():
    probs = RrProbabilities.from_epsilon(1e4)
    assert (probs.keep, probs.switch) == (1.0, 0.0)


def test_rr_probabilities_validation():
    with pytest.raises(ValueError):
        RrProbabilities(keep=0.2, switch=0.4)
    with pytest.raises(ValueError):
        RrProbabilities(keep=0.5, switch=0.3)
    with pytest.raises(ValueError):
        RrProbabilities.from_epsilon(0.0)


def test_perturb_graph_reproducible_and_identity():
    params = CbmParams(n=20, p=0.5, zeta=0.1)
    labels = random_labels(20, np.random.default_rng(0))
    g = sample_cbm(params, labels, seed=1)
    assert perturb_graph(g, 1.0, seed=2) == perturb_graph(g, 1.0, seed=2)
    assert perturb_graph(g, 1.0, seed=3) != perturb_graph(g, 1.0, seed=2)
    same = perturb_graph(g, 1e6, seed=2)
    assert same == g
    assert same.upper is not g.upper


@pytest.mark.parametrize("n", [2, 3, 50, 257])
@pytest.mark.parametrize("epsilon", [0.5, 1.5, EPS_IDENTITY + 1.0])
def test_perturb_graph_matches_per_pair_oracle(n, epsilon):
    labels = random_labels(n, np.random.default_rng(n))
    g = sample_cbm(CbmParams(n=n, p=0.6, zeta=0.3), labels, seed=1)
    for seed in (0, 5):
        out = perturb_graph(g, epsilon, seed)
        assert out.upper.dtype == np.int8
        assert np.array_equal(out.upper, oracles.perturb_by_pairs(g, epsilon, seed).upper)


def test_perturb_graph_empirical_channel():
    # single huge graph, zero input: switch probability shows as symbol mass
    n = 500
    g = TernaryGraph.zero(n)
    out = perturb_graph(g, 1.0, seed=7)
    freq = np.bincount(out.upper + 1, minlength=3) / out.upper.size
    switch = 1.0 / (math.exp(1.0) + 2.0)
    np.testing.assert_allclose(freq[0], switch, atol=0.005)
    np.testing.assert_allclose(freq[2], switch, atol=0.005)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.02, max_value=0.48),
    eps_values,
)
def test_perturbed_params_match_channel_composition(p, zeta, epsilon):
    p_t, z_t = perturbed_params(p, zeta, epsilon)
    p_oracle, z_oracle = oracles.rr_edge_marginals(p, zeta, epsilon)
    np.testing.assert_allclose(p_t, p_oracle, rtol=1e-12)
    np.testing.assert_allclose(z_t, z_oracle, rtol=1e-12)
    if p > 0.0:
        assert 0.0 < z_t <= 0.5
    if p > 1e-6:
        assert z_t < 0.5
    assert z_t >= zeta - 1e-15


def test_perturbed_params_worked_point():
    p_t, z_t = perturbed_params(0.5, 0.1, 1.0)
    np.testing.assert_allclose(p_t, 0.605970778809, atol=1e-9)
    np.testing.assert_allclose(z_t, 0.379804327243, atol=1e-9)


def test_perturbed_params_identity_at_huge_eps():
    assert perturbed_params(0.37, 0.12, 800.0) == (0.37, 0.12)


def test_perturbed_params_validation():
    with pytest.raises(ValueError):
        perturbed_params(1.2, 0.1, 1.0)
    with pytest.raises(ValueError):
        perturbed_params(0.5, 0.6, 1.0)
    with pytest.raises(ValueError):
        perturbed_params(0.5, 0.1, 0.0)


def test_threshold_rhs_worked_point_and_limit():
    np.testing.assert_allclose(
        ldp_threshold_rhs(math.log(100.0), 100), 1.1335578, atol=1e-6
    )
    # coth -> 1, leaving the pure size factor
    np.testing.assert_allclose(
        ldp_threshold_rhs(1e3, 100), math.sqrt(100) / (math.sqrt(100) - 1), rtol=1e-12
    )
    with pytest.raises(ValueError):
        ldp_threshold_rhs(0.0, 100)
    with pytest.raises(ValueError):
        ldp_threshold_rhs(1.0, 1)


@given(st.floats(min_value=0.5, max_value=30.0))
def test_recovery_margin_increases_with_signal(epsilon):
    lo, _ = ldp_recovery_margin(1.0, 0.1, epsilon, 100)
    hi, _ = ldp_recovery_margin(20.0, 0.1, epsilon, 100)
    assert hi > lo


def test_recovery_margin_precondition_flag():
    # the flag tracks a > 2 (n^{3/2} - n)/((n - 1) log n), not the margin sign
    n = 100
    bar = 2.0 * (n**1.5 - n) / ((n - 1) * math.log(n))
    assert not ldp_recovery_margin(bar * 0.9, 0.1, 5.0, n)[1]
    assert ldp_recovery_margin(bar * 1.1, 0.1, 5.0, n)[1]
