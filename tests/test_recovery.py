import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmdetect import recovery
from cbmdetect._rng import SOLVER, generator
from cbmdetect.ldp import perturb_graph
from cbmdetect.model import (
    CbmParams,
    TernaryGraph,
    canonical,
    err,
    n_pairs,
    quad_form,
    random_labels,
    sample_cbm,
)
from cbmdetect.recovery import (
    EIGH_MAX_N,
    GAP_TOL,
    MAX_ITERS,
    RITZ_TOL,
    _ascend,
    _power_step,
    _top_eigenvector,
    ml_exhaustive,
    sdp_estimate,
    spectral_estimate,
    stack_dense,
)

import oracles


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    upper = draw(
        st.lists(st.sampled_from((-1, 0, 1)), min_size=n_pairs(n), max_size=n_pairs(n))
    )
    return TernaryGraph(n, np.array(upper, dtype=np.int8))


def _planted(n, seed):
    params = CbmParams(n=n, p=0.9, zeta=0.05)
    labels = random_labels(n, np.random.default_rng(seed))
    return sample_cbm(params, labels, seed=seed), labels


def test_stack_dense_sums():
    g1 = TernaryGraph(3, np.array([1, 0, -1], dtype=np.int8))
    g2 = TernaryGraph(3, np.array([1, 1, 1], dtype=np.int8))
    n, m = stack_dense([g1, g2])
    assert n == 3
    np.testing.assert_allclose(m, g1.dense() + g2.dense())
    g3 = TernaryGraph(3, np.array([-1, 1, 0], dtype=np.int8))
    n3, m3 = stack_dense([g1, g2, g3])
    assert n3 == 3
    assert np.array_equal(m3, g1.dense() + g2.dense() + g3.dense())
    assert m3.flags.writeable and not g1.dense().flags.writeable
    n1, m1 = stack_dense(g1)
    assert m1 is g1.dense()
    with pytest.raises(ValueError):
        m1[0, 1] = 5.0
    with pytest.raises(ValueError):
        stack_dense([])
    with pytest.raises(ValueError):
        stack_dense([g1, TernaryGraph.zero(4)])


@given(small_graphs())
def test_ml_exhaustive_matches_enumeration(graph):
    result = ml_exhaustive(graph)
    labels, best_obj = oracles.brute_best_labels(graph)
    assert np.array_equal(result.labels, labels)
    np.testing.assert_allclose(result.objective, best_obj, atol=1e-9)
    assert result.objective == quad_form(graph, result.labels)


def test_ml_exhaustive_size_cap():
    with pytest.raises(ValueError):
        ml_exhaustive(TernaryGraph.zero(17))


@settings(max_examples=40)
@given(small_graphs())
def test_sdp_never_beats_ml(graph):
    sdp = sdp_estimate(graph, seed=1)
    ml = ml_exhaustive(graph)
    assert quad_form(graph, sdp.labels) <= ml.objective + 1e-9


def _unit_block(n, rank, seed):
    v = np.random.default_rng(seed).standard_normal((n, rank))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@settings(max_examples=200)
@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_power_step_never_lowers_objective(graph, seed):
    m = graph.dense()
    v = _unit_block(graph.n, 3, seed)
    mv = m @ v
    y = np.einsum("ir,ir->i", mv, v)
    lam_min = np.linalg.eigvalsh(m)[0]
    after = _power_step(v, mv, y, lam_min)
    np.testing.assert_allclose(np.linalg.norm(after, axis=1), 1.0, rtol=1e-12)
    before_obj = y.sum()
    after_obj = np.einsum("ir,ij,jr->", after, m, after)
    assert after_obj >= before_obj - 1e-9 * (1.0 + abs(before_obj))


@settings(max_examples=100)
@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_certified_blocks_meet_the_dual_bound(graph, seed):
    m = graph.dense()
    if not m.any():
        return
    lam_min = float(np.linalg.eigvalsh(m)[0])
    v, certified, steps = _ascend(m, _unit_block(graph.n, 3, seed), lam_min)
    assert 0 <= steps <= MAX_ITERS
    ml = ml_exhaustive(graph).objective
    tol = 1e-9 * (1.0 + abs(ml))
    if certified:
        y = np.sum((m @ v) * v, axis=1)
        bar = GAP_TOL * (1.0 + abs(y.sum()))
        gap = graph.n * max(0.0, np.linalg.eigvalsh(m - np.diag(y))[-1])
        assert gap <= bar + tol
        # every labeling is a feasible SDP point, so the dual bound sum(y) + gap
        # is at least ml, and the certified value is within the bar of it
        assert y.sum() + gap >= ml - tol
        assert y.sum() >= ml - bar - tol


def test_sdp_stops_at_a_certified_first_restart():
    g, _ = _planted(24, seed=2)
    obj, first, certified, steps = oracles.sdp_restart(g.dense(), 0, 0)
    assert certified and steps > 0
    result = sdp_estimate(g, seed=0)
    assert result.iterations == steps
    assert result.status == "converged"
    assert result.objective == obj
    assert np.array_equal(result.labels, first)


def _n50_draw(seed):
    params = CbmParams.from_scale(50, 5.0, 0.1)
    pre = np.array([1] * 25 + [-1] * 25, dtype=np.int8)
    return perturb_graph(sample_cbm(params, pre, seed=seed), 1.5, seed=seed)


# (graph, solver seed) with no restart certified after 3 steps: on the
# perturbed draw restarts 1 and 2 tie above restart 0; on the single edge
# every restart ties, and restarts 0 and 2 differ in the free nodes 2 and 3
UNCERTIFIED = [
    pytest.param(lambda: _n50_draw(8), 0, id="n50 draw 8"),
    pytest.param(lambda: TernaryGraph(4, np.array([1, 0, 0, 0, 0, 0], np.int8)), 3, id="one edge"),
]


@pytest.mark.parametrize("make, seed", UNCERTIFIED)
def test_sdp_runs_every_restart_when_none_certifies(monkeypatch, make, seed):
    monkeypatch.setattr(recovery, "MAX_ITERS", 3)
    g = make()
    runs = [oracles.sdp_restart(g.dense(), seed, k) for k in range(recovery.RESTARTS)]
    assert not any(certified for _, _, certified, _ in runs)
    objs = [obj for obj, _, _, _ in runs]
    win = objs.index(max(objs))
    ties = [k for k in range(len(runs)) if objs[k] == objs[win]]
    # each case exercises a half of the rule: a later restart wins, or a
    # later tied restart has other labels
    assert win > 0 or any(not np.array_equal(runs[k][1], runs[win][1]) for k in ties)
    result = sdp_estimate(g, seed=seed)
    assert result.status == "max_iters"
    assert result.iterations == sum(steps for _, _, _, steps in runs) == 3 * recovery.RESTARTS
    assert result.objective == objs[win]
    assert np.array_equal(result.labels, runs[win][1])


@pytest.mark.parametrize("window, count", [(1, 60), (17, 20)])
def test_sdp_matches_the_all_restarts_rule(window, count):
    # stopping at the first certified restart keeps the labels that running
    # every restart and taking the best would give
    for draw in range(count):
        graphs = [_n50_draw(s) for s in range(100 * draw, 100 * draw + window)]
        labels, objective, status = oracles.sdp_all_restarts(graphs, seed=draw)
        result = sdp_estimate(graphs, seed=draw)
        assert np.array_equal(result.labels, labels), draw
        assert (result.objective, result.status) == (objective, status), draw


def test_sdp_recovers_planted_labels():
    g, labels = _planted(24, seed=2)
    result = sdp_estimate(g, seed=0)
    assert err(result.labels, labels) == 0
    assert result.status == "converged"
    assert 0 < result.iterations < MAX_ITERS
    assert result.labels[0] == 1


@pytest.mark.parametrize("field", ["step_rule", "step_size", "grad_tol", "polish"])
def test_sdp_config_has_no_step_knobs(field):
    # the solver's settings are module constants: no config object, no knobs
    assert not hasattr(recovery, "SdpConfig")
    g, _ = _planted(8, seed=1)
    with pytest.raises(TypeError):
        sdp_estimate(g, None, seed=0)
    with pytest.raises(TypeError):
        sdp_estimate(g, seed=0, **{field: 1})


def test_sdp_deterministic_given_seed():
    g, _ = _planted(16, seed=4)
    r1 = sdp_estimate(g, seed=5)
    r2 = sdp_estimate(g, seed=5)
    assert np.array_equal(r1.labels, r2.labels)
    assert r1.objective == r2.objective


def test_sdp_zero_graph_degenerate():
    result = sdp_estimate(TernaryGraph.zero(8), seed=3)
    assert result.status == "degenerate"
    assert result.objective == 0.0
    assert result.labels[0] == 1


def test_spectral_recovers_planted_labels():
    g, labels = _planted(24, seed=6)
    result = spectral_estimate(g, seed=0)
    assert err(result.labels, labels) == 0


# (n, a, seed) of perturbed draws (zeta=0.1, eps=1.5). Power iteration on
# the shifted matrix ran out of iterations on all but the first two, and the
# two draws at a < 5 have an eigengap below 0.01. The n=50 draws take the
# eigh path of spectral_estimate, the n=200 ones Lanczos; Lanczos itself is
# also run on every draw.
HARD_DRAWS = [
    (50, 5.0, 0),
    (200, 5.0, 0),
    (50, 5.0, 100),
    (200, 5.0, 10),
    (50, 2.0, 2739),
    (200, 1.0, 84),
]


@pytest.mark.parametrize("n, a, seed", HARD_DRAWS)
def test_spectral_converges_to_eigh_signs(n, a, seed):
    params = CbmParams.from_scale(n, a, 0.1)
    pre = np.array([1] * (n // 2) + [-1] * (n - n // 2), dtype=np.int8)
    g = perturb_graph(sample_cbm(params, pre, seed=seed), 1.5, seed=seed)
    evals, evecs = np.linalg.eigh(g.dense())
    if a < 5.0:
        assert evals[-1] - evals[-2] < 0.01
    want = canonical(np.where(evecs[:, -1] < 0, -1, 1))
    result = spectral_estimate(g, seed=0)
    assert result.status == "converged"
    if n <= EIGH_MAX_N:
        assert result.iterations == 0
    else:
        assert 1 <= result.iterations <= n
    assert np.array_equal(result.labels, want)
    x, converged, steps = _top_eigenvector(g.dense(), generator(0, SOLVER, 0).standard_normal(n))
    assert converged
    assert 1 <= steps <= n
    assert np.array_equal(canonical(np.where(x < 0, -1, 1)), want)


@pytest.mark.parametrize("n, by_eigh", [(EIGH_MAX_N, True), (EIGH_MAX_N + 1, False)])
def test_spectral_picks_its_eigensolver_by_n(n, by_eigh):
    g, labels = _planted(n, seed=4)
    result = spectral_estimate(g, seed=0)
    assert result.status == "converged"
    assert err(result.labels, labels) == 0
    if by_eigh:
        assert result.iterations == 0
    else:
        assert 1 <= result.iterations <= n


@settings(max_examples=200)
@given(small_graphs())
def test_top_eigenvector_is_top_eigenpair(graph):
    m = graph.dense()
    if not m.any():
        return
    x, converged, steps = _top_eigenvector(m, generator(0, SOLVER, 0).standard_normal(graph.n))
    assert converged
    assert 1 <= steps <= graph.n
    np.testing.assert_allclose(np.linalg.norm(x), 1.0, rtol=1e-12)
    theta = float(x @ m @ x)
    np.testing.assert_allclose(theta, np.linalg.eigvalsh(m)[-1], atol=1e-9)
    assert np.linalg.norm(m @ x - theta * x) <= RITZ_TOL * max(1.0, abs(theta))


def test_spectral_zero_graph_degenerate():
    result = spectral_estimate(TernaryGraph.zero(8), seed=3)
    assert result.status == "degenerate"


def test_spectral_deterministic_given_seed():
    g, _ = _planted(16, seed=8)
    r1 = spectral_estimate(g, seed=9)
    r2 = spectral_estimate(g, seed=9)
    assert np.array_equal(r1.labels, r2.labels)


def test_estimators_accept_graph_lists():
    g1, labels = _planted(12, seed=10)
    g2 = sample_cbm(CbmParams(n=12, p=0.9, zeta=0.05), labels, seed=11)
    for result in (sdp_estimate([g1, g2], seed=0), spectral_estimate([g1, g2], seed=0)):
        assert err(result.labels, labels) == 0
