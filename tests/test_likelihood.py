import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbmdetect.likelihood import (
    flip_gap,
    kl_divergence,
    log_likelihood,
    log_likelihood_ratio,
    mle_params,
    mle_params_pooled,
)
from cbmdetect.model import CbmParams, TernaryGraph, n_pairs, quad_form, sample_cbm

import oracles

interior_p = st.floats(min_value=0.05, max_value=0.95)
interior_zeta = st.floats(min_value=0.02, max_value=0.48)
small_n = st.integers(min_value=2, max_value=5)


@st.composite
def labeled_graph(draw):
    n = draw(small_n)
    upper = draw(
        st.lists(st.sampled_from((-1, 0, 1)), min_size=n_pairs(n), max_size=n_pairs(n))
    )
    labels = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return (
        TernaryGraph(n, np.array(upper, dtype=np.int8)),
        np.array(labels, dtype=np.int8),
    )


def test_flip_gap_value_and_domain():
    assert math.isclose(flip_gap(0.1), math.log(9.0))
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            flip_gap(bad)


@given(labeled_graph(), interior_p, interior_zeta)
def test_log_likelihood_matches_per_edge_product(pair, p, zeta):
    graph, labels = pair
    fast = log_likelihood(graph, labels, p, zeta)
    slow = oracles.graph_log_pmf(graph, labels, p, zeta)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


@given(labeled_graph(), interior_p, interior_zeta)
def test_log_likelihood_flip_invariant(pair, p, zeta):
    graph, labels = pair
    assert log_likelihood(graph, labels, p, zeta) == log_likelihood(
        graph, -labels, p, zeta
    )


def test_log_likelihood_rejects_boundary_params():
    g = TernaryGraph.zero(3)
    labels = np.array([1, 1, -1], dtype=np.int8)
    for p, zeta in ((0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 0.5)):
        with pytest.raises(ValueError):
            log_likelihood(g, labels, p, zeta)


def test_normalization_small():
    labels = np.array([1, -1, 1], dtype=np.int8)
    total = sum(
        math.exp(log_likelihood(g, labels, 0.3, 0.2)) for g in oracles.all_graphs(3)
    )
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


@given(labeled_graph(), st.data(), interior_p, interior_zeta)
def test_ratio_is_difference_of_log_likelihoods(pair, data, p, zeta):
    graph, num = pair
    den = np.array(
        data.draw(st.lists(st.sampled_from((1, -1)), min_size=graph.n, max_size=graph.n)),
        dtype=np.int8,
    )
    ratio = log_likelihood_ratio(graph, num, den, p, zeta)
    diff = log_likelihood(graph, num, p, zeta) - log_likelihood(graph, den, p, zeta)
    np.testing.assert_allclose(ratio, diff, rtol=1e-9, atol=1e-9)
    # the score's integer gap of quadratic forms equals the per-pair sums exactly
    gap = oracles.quad_form_by_pairs(graph, num) - oracles.quad_form_by_pairs(graph, den)
    assert ratio == 0.25 * flip_gap(zeta) * gap


@given(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_ratio_over_disagreeing_nodes_is_exact(n, p, seed, data):
    # 0 to n disagreements, in either global orientation of labels_num
    rng = np.random.default_rng(seed)
    den = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    graph = sample_cbm(CbmParams(n=n, p=p, zeta=0.1), den, rng)
    flipped = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    num = den.copy()
    num[list(flipped)] *= -1
    if data.draw(st.booleans()):
        num = -num
    zeta = data.draw(interior_zeta)
    ratio = log_likelihood_ratio(graph, num, den, 0.5, zeta)
    assert ratio == 0.25 * flip_gap(zeta) * (quad_form(graph, num) - quad_form(graph, den))


def test_agreeing_labels_score_zero_without_the_dense_matrix():
    labels = np.array([1, -1, 1, 1, -1, -1, 1, -1], dtype=np.int8)
    graph = sample_cbm(CbmParams(n=8, p=0.8, zeta=0.1), labels, 0)
    assert log_likelihood_ratio(graph, labels, labels, 0.8, 0.1) == 0.0
    assert log_likelihood_ratio(graph, -labels, labels, 0.8, 0.1) == 0.0
    assert graph._dense is None
    other = labels.copy()
    other[2] = -1
    assert log_likelihood_ratio(graph, other, labels, 0.8, 0.1) != 0.0


@pytest.mark.parametrize("bad", [[1, 1, 0, -1], [1, 1, -1], [[1, 1, -1, -1]], [1, 2, -1, -1]])
def test_ratio_checks_both_labelings(bad):
    g = TernaryGraph(4, np.array([1, -1, 0, 1, -1, 1], dtype=np.int8))
    good = np.array([1, 1, -1, -1], dtype=np.int8)
    with pytest.raises(ValueError):
        log_likelihood_ratio(g, np.array(bad), good, 0.5, 0.1)
    with pytest.raises(ValueError):
        log_likelihood_ratio(g, good, np.array(bad), 0.5, 0.1)


def test_ratio_single_revealed_pair():
    # one observed agreeing pair: evidence for 'same community' over 'split'
    g = TernaryGraph(2, np.array([1], dtype=np.int8))
    same = np.array([1, 1], dtype=np.int8)
    split = np.array([1, -1], dtype=np.int8)
    val = log_likelihood_ratio(g, same, split, 0.3, 0.1)
    np.testing.assert_allclose(val, math.log(9.0), rtol=1e-12)


def test_ratio_defined_at_full_reveal():
    # the reveal terms cancel, so p = 1 scores exactly like any other p
    g = TernaryGraph(4, np.array([1, -1, 0, 1, -1, 1], dtype=np.int8))
    num = np.array([1, 1, -1, -1], dtype=np.int8)
    den = np.array([1, -1, 1, -1], dtype=np.int8)
    full = log_likelihood_ratio(g, num, den, 1.0, 0.1)
    assert full == log_likelihood_ratio(g, num, den, 0.5, 0.1)
    assert full == log_likelihood_ratio(g, num, den, 0.0, 0.1)
    for p, zeta in ((1.5, 0.1), (-0.1, 0.1), (1.0, 0.0), (1.0, 0.5)):
        with pytest.raises(ValueError):
            log_likelihood_ratio(g, num, den, p, zeta)


@given(st.data(), interior_p, interior_zeta)
def test_kl_matches_brute_force(data, p, zeta):
    n = data.draw(st.integers(min_value=2, max_value=4))
    a = np.array(
        data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)),
        dtype=np.int8,
    )
    b = np.array(
        data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)),
        dtype=np.int8,
    )
    np.testing.assert_allclose(
        kl_divergence(a, b, p, zeta), oracles.brute_kl(a, b, p, zeta), atol=1e-10
    )


@given(st.data(), interior_p, interior_zeta)
def test_kl_zero_iff_same_partition(data, p, zeta):
    n = data.draw(st.integers(min_value=2, max_value=6))
    a = np.array(
        data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)),
        dtype=np.int8,
    )
    b = np.array(
        data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)),
        dtype=np.int8,
    )
    kl = kl_divergence(a, b, p, zeta)
    assert kl == kl_divergence(b, a, p, zeta)
    if np.array_equal(a, b) or np.array_equal(a, -b):
        assert kl == 0.0
    else:
        assert kl > 0.0


@given(labeled_graph())
def test_mle_matches_counting(pair):
    graph, labels = pair
    fit = mle_params(graph, labels)
    et = graph.edge_count
    if et == 0:
        assert fit.degenerate
        assert (fit.p_hat, fit.zeta_hat) == (0.0, 0.25)
        return
    assert not fit.degenerate
    assert fit.p_hat == et / n_pairs(graph.n)
    flips = (et - quad_form(graph, labels) // 2) / 2
    clamped = min(max(flips / et, 1e-6), 0.5 - 1e-6)
    np.testing.assert_allclose(fit.zeta_hat, clamped, rtol=1e-12)


def test_mle_clamps_pure_agreement():
    g = TernaryGraph(3, np.array([1, 1, 1], dtype=np.int8))
    fit = mle_params(g, np.array([1, 1, 1], dtype=np.int8))
    assert fit.zeta_hat == 1e-6
    fit_flip = mle_params(g, np.array([1, -1, 1], dtype=np.int8))
    assert fit_flip.zeta_hat > 0.4


def test_mle_pooled_matches_stacked_counts():
    rng = np.random.default_rng(5)
    labels = np.array([1, 1, -1, -1], dtype=np.int8)
    graphs = [
        TernaryGraph(4, rng.integers(-1, 2, size=6).astype(np.int8)) for _ in range(3)
    ]
    pooled = mle_params_pooled(graphs, labels)
    et = sum(g.edge_count for g in graphs)
    assert pooled.p_hat == et / (3 * n_pairs(4))
    q = sum(quad_form(g, labels) for g in graphs)
    np.testing.assert_allclose(pooled.zeta_hat, 0.5 - q / (4.0 * et), rtol=1e-12)
    with pytest.raises(ValueError):
        mle_params_pooled([], labels)
