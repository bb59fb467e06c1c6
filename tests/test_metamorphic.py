"""Metamorphic properties: relabel the nodes, negate the labels, replay the draws.

A CBM's law does not depend on how its nodes are numbered. A permutation pi
that moves the graph's entries and every label vector together must move
every output by pi. Negating a labeling leaves its law alone, and a drawn
trial's raw graphs, replayed as a stream, are that trial. Each test states
one such property, and each holds exactly, except the certified SDP value,
which holds up to the two bars its certificates prove.

Not gated: the SDP estimate at window 1 depends on the numbering, because
its seeded start's rows are tied to node indices and a block certified
within GAP_TOL can leave near-zero entries in its top singular vector,
whose signs decide the rounding. Under one random pi per perturbed draw
(eps 1.5, zeta 0.1, the same solver seed on both sides), the labels changed
on 12 of 300 draws at n = 50, a = 5, and on 8 of 20 at n = 200, a = 5.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmdetect import recovery
from cbmdetect._rng import SAMPLE, TRIAL, derive_seed, generator
from cbmdetect.harness import ExperimentConfig, run_trajectory
from cbmdetect.io import ingest_stream, write_stream_csv
from cbmdetect.ldp import perturb_graph
from cbmdetect.likelihood import log_likelihood, log_likelihood_ratio, mle_params
from cbmdetect.model import (
    CbmParams, ChangeScenario, TernaryGraph, canonical, random_labels, sample_cbm,
)
from cbmdetect.recovery import GAP_TOL, ml_exhaustive, sdp_estimate, spectral_estimate

import oracles


def _relabelled(graph, perm):
    """The graph whose node i is graph's node perm[i]."""
    return TernaryGraph.from_dense(graph.dense()[np.ix_(perm, perm)])


@st.composite
def labelled_graphs(draw, max_n=30):
    """(graph, labels, other labels, pi, p, zeta): a CBM draw and two labelings of its nodes."""
    n = draw(st.integers(3, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, zeta = draw(st.floats(0.05, 0.95)), draw(st.floats(0.01, 0.49))
    labels, other = random_labels(n, rng), random_labels(n, rng)
    graph = sample_cbm(CbmParams(n, p, zeta), labels, rng)
    return graph, labels, other, rng.permutation(n), p, zeta


@settings(max_examples=100)
@given(labelled_graphs())
def test_likelihoods_do_not_depend_on_the_numbering(case):
    graph, labels, other, perm, p, zeta = case
    moved = _relabelled(graph, perm)
    assert log_likelihood(moved, labels[perm], p, zeta) == log_likelihood(graph, labels, p, zeta)
    ratio = log_likelihood_ratio(graph, other, labels, p, zeta)
    assert log_likelihood_ratio(moved, other[perm], labels[perm], p, zeta) == ratio
    assert mle_params(moved, labels[perm]) == mle_params(graph, labels)


@settings(max_examples=100)
@given(labelled_graphs())
def test_likelihoods_do_not_depend_on_a_global_sign(case):
    # a labeling and its negation are one partition: the estimate or pre may come either way
    graph, labels, other, _, p, zeta = case
    assert log_likelihood(graph, -labels, p, zeta) == log_likelihood(graph, labels, p, zeta)
    ratio = log_likelihood_ratio(graph, other, labels, p, zeta)
    assert log_likelihood_ratio(graph, -other, labels, p, zeta) == ratio
    assert log_likelihood_ratio(graph, other, -labels, p, zeta) == ratio


def _perturbed(n, a, seed):
    params = CbmParams.from_scale(n, a, 0.1)
    pre = np.array([1] * (n // 2) + [-1] * (n - n // 2), dtype=np.int8)
    return perturb_graph(sample_cbm(params, pre, seed=seed), 1.5, seed=seed)


def _proved(m):
    """Whether a squared row of m has its signs proved, so the dense path's labels are v's."""
    candidates = recovery._dense_candidates(m)
    return any(recovery._sign_proof(m, x, norm) is not None for x, norm in candidates)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_proved_spectral_labels_follow_the_numbering(seed):
    graph = _perturbed(50, 5.0, seed)
    perm = np.random.default_rng(seed).permutation(50)
    moved = _relabelled(graph, perm)
    if _proved(graph.dense()) and _proved(moved.dense()):
        want = canonical(spectral_estimate(graph, seed=0).labels[perm])
        assert np.array_equal(spectral_estimate(moved, seed=0).labels, want)


@pytest.mark.parametrize("seed", range(3))
def test_lanczos_spectral_labels_follow_the_numbering(seed):
    # n = 200 is above EIGH_MAX_N; the seeded start is not moved with the nodes
    graph = _perturbed(200, 5.0, seed)
    perm = np.random.default_rng(seed).permutation(200)
    result = spectral_estimate(_relabelled(graph, perm), seed=0)
    assert result.status == "converged"
    want = canonical(spectral_estimate(graph, seed=0).labels[perm])
    assert np.array_equal(result.labels, want)


def _certified_value(graph):
    """The value f of the ascent sdp_estimate runs on graph at solver seed 0, or None uncertified."""
    ascend, ascents = recovery._ascend, []

    def record(*args):
        ascents.append(ascend(*args))
        return ascents[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "_ascend", record)
        sdp_estimate(graph, seed=0)
    _, certified, _, _, f = ascents[0]
    return f if certified else None


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_a_certified_ascent_value_does_not_depend_on_the_numbering(seed):
    # each side's f is proved within GAP_TOL (1 + |f|) of the one SDP optimum,
    # which the numbering does not move; the seeded start's rows stay put
    graph = _perturbed(50, 5.0, seed)
    perm = np.random.default_rng(seed).permutation(50)
    f, f_moved = _certified_value(graph), _certified_value(_relabelled(graph, perm))
    if f is not None and f_moved is not None:
        assert abs(f - f_moved) <= GAP_TOL * (1.0 + abs(f)) + GAP_TOL * (1.0 + abs(f_moved))


def _unique_optimum(graph):
    m = graph.dense()
    objs = [labels @ m @ labels for labels in oracles.all_canonical_labelings(graph.n)]
    return objs.count(max(objs)) == 1


@settings(max_examples=100)
@given(labelled_graphs(max_n=10))
def test_ml_labels_follow_the_numbering(case):
    graph, _, _, perm, _, _ = case
    if _unique_optimum(graph):
        want = ml_exhaustive(graph)
        got = ml_exhaustive(_relabelled(graph, perm))
        assert np.array_equal(got.labels, canonical(want.labels[perm]))
        assert got.objective == want.objective


CDP = {"kind": "CDP", "b": 3.0, "epsilon": 20.0, "release": "assumed"}


@pytest.mark.filterwarnings("ignore:assumed-stability release")
@pytest.mark.parametrize("seed", range(4))
def test_a_replayed_cdp_trial_is_the_drawn_trial(tmp_path, seed):
    # the CDP runner reads raw graphs, so the drawn trial's graphs, written out
    # and read back, must give its statistic and its noisy statistic step for step
    n, horizon = 20, 12
    pre = np.array([1] * 10 + [-1] * 10, dtype=np.int8)
    post = pre.copy()
    post[:2] = -post[:2]
    params = CbmParams.from_scale(n, 5.0, 0.1)
    scenario = ChangeScenario(pre=pre, post=post, nu=4, params_pre=params, params_post=params)
    cfg = ExperimentConfig(scenario=scenario, detector=CDP, trials=1, truncation=horizon, seed=seed)
    rng = generator(derive_seed(seed, TRIAL, 0), SAMPLE)
    graphs = []
    for k in range(1, horizon + 1):
        labels, law = scenario.regime_at(k)
        graphs.append(sample_cbm(law, labels, rng))
    path = tmp_path / "stream.csv"
    write_stream_csv(graphs, path)
    drawn = run_trajectory(cfg)
    replayed = run_trajectory(cfg, ingest_stream(path))
    assert [(r["stat"], r["noisy_stat"], r["stopped"]) for r in replayed] == [
        (r["stat"], r["noisy_stat"], r["stopped"]) for r in drawn
    ]
