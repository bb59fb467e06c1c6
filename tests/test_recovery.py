import math
import tracemalloc

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
    F32_STEPS_DIVISOR,
    GAP_TOL,
    MAX_ITERS,
    RITZ_TOL,
    _ascend,
    _certifies,
    _dense_top_eigenvector,
    _extrapolate,
    _lanczos,
    _power_step,
    _proves_psd,
    _rownormalize,
    _sign_proof,
    _signs,
    _solver_start,
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
    # on M + s I with the shift s = -lambda_min, PSD, and no previous block,
    # the step is Journee et al.'s, which cannot lower the objective; the
    # ascent's smaller shift and heavy ball keep neither promise
    m = graph.dense()
    v = _unit_block(graph.n, 3, seed)
    shift = -np.linalg.eigvalsh(m)[0]
    mv = (m + shift * np.eye(graph.n)) @ v
    before_obj = np.einsum("ir,ij,jr->", v, m, v)
    after = _power_step(v, mv, np.einsum("ir,ir->i", mv, v))
    np.testing.assert_allclose(np.linalg.norm(after, axis=1), 1.0, rtol=1e-12)
    after_obj = np.einsum("ir,ij,jr->", after, m, after)
    assert after_obj >= before_obj - 1e-9 * (1.0 + abs(before_obj))


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 12), st.floats(-100.0, 100.0))
def test_rownormalize_divides_in_place_by_the_row_norms(seed, n, rank, log_scale):
    w = np.random.default_rng(seed).standard_normal((n, rank)) * 10.0**log_scale
    want = w / np.linalg.norm(w, axis=1, keepdims=True)
    v = _unit_block(n, rank, seed)
    before = v.copy()
    assert _rownormalize(w, v) is w
    # each side rounds a sum of rank squares, its square root and a quotient
    np.testing.assert_array_max_ulp(w, want, maxulp=8)
    assert np.array_equal(v, before)


def test_rownormalize_keeps_the_previous_row_where_a_row_is_zero():
    w = np.random.default_rng(0).standard_normal((6, 3))
    w[[1, 4]] = 0.0
    v = _unit_block(6, 3, 1)
    w_before, v_before = w.copy(), v.copy()
    out = _rownormalize(w, v)
    assert out is not w and out is not v
    assert np.array_equal(w, w_before) and np.array_equal(v, v_before)
    assert np.array_equal(out[[1, 4]], v[[1, 4]])
    rows = w[[0, 2, 3, 5]]
    want = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    np.testing.assert_array_max_ulp(out[[0, 2, 3, 5]], want, maxulp=8)


def _assert_weak_duality(m, y, f, feasible):
    """The certificate's three claims, recomputed: feasible is tr(M Y) of a feasible Y."""
    tol = 1e-9 * (1.0 + abs(feasible))
    bar = GAP_TOL * (1.0 + abs(f))
    bound = y.sum() + len(m) * max(0.0, np.linalg.eigvalsh(m - np.diag(y))[-1])
    assert bound - f <= bar + tol
    # every labeling is a feasible SDP point, so the dual bound is at least
    # its value, and the certified value is within the bar of it
    assert bound >= feasible - tol
    assert f >= feasible - bar - tol


@settings(max_examples=100)
@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_certified_blocks_meet_the_dual_bound(graph, seed):
    m = graph.dense()
    if not m.any():
        return
    _, certified, steps, y, f = _ascend(m, _unit_block(graph.n, 3, seed), oracles.ascent_shift(m))
    assert 0 <= steps <= MAX_ITERS
    if certified:
        _assert_weak_duality(m, y, f, ml_exhaustive(graph).objective)


def test_certifies_refuses_lambda_max_at_mu():
    m = np.diag([1.0, -2.0, 3.0, 0.5])
    dual = np.array([0.25, -1.0, 0.5, 2.0])
    # M - Diag(dual) = diag(0.75, -1, 2.5, -1.5), so lambda_max = 2.5; with
    # f = 0 a bar of 4 * 2.5 + sum(dual) puts mu exactly on it
    f, lam = 0.0, 2.5
    bar = 4 * lam + dual.sum()
    assert (bar + f - dual.sum()) / 4 == lam
    assert not _certifies(m, dual, f, bar)
    assert _certifies(m, dual, f, bar + 4 * 1e-6 * (1.0 + lam))
    # a negative mu is no proof even though lambda_max lies below it
    assert not _certifies(m, dual + 10.0, f, 4 * -1.0 + (dual + 10.0).sum())
    for bad in (np.nan, np.inf, -np.inf):
        assert not _certifies(m, np.where(np.arange(4) == 1, bad, dual), f, bar)


@st.composite
def dual_bound_cases(draw):
    """(M, dual, f, bar) with mu = (bar + f - sum dual) / n near max(lambda_max, 0) or far from it."""
    m = draw(small_graphs()).dense()
    n = len(m)
    dual = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    lam = np.linalg.eigvalsh(m - np.diag(dual))[-1]
    near = st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6, -1e-6])
    gap = draw(st.one_of(near, st.floats(-3.0, 3.0)))
    f = draw(st.floats(-20.0, 20.0))
    return m, dual, f, n * (max(lam, 0.0) + gap) + dual.sum() - f


@given(dual_bound_cases())
def test_certifies_is_a_proof_and_decides_like_eigvalsh(case):
    m, dual, f, bar = case
    mu = (bar + f - dual.sum()) / len(m)
    top = max(np.linalg.eigvalsh(m - np.diag(dual))[-1], 0.0)
    verdict = _certifies(m, dual, f, bar)
    if verdict:
        assert top <= mu * (1.0 + 1e-12)
    if abs(top - mu) > 1e-8 * (1.0 + abs(mu)):
        assert verdict == (top <= mu) == oracles.eigvalsh_certifies(m, dual, f, bar)


@pytest.mark.parametrize("window", [1, 3])
def test_extrapolated_certificates_meet_the_dual_bound(window):
    # single and summed n=50 draws certify, some through the extrapolated
    # dual and some by y itself; every certificate meets weak duality
    extrapolated = 0
    for draw in range(10):
        graphs = [_n50_draw(s) for s in range(100 * draw, 100 * draw + window)]
        m = stack_dense(graphs)[1]
        shift = oracles.ascent_shift(m)
        v, certified, steps, y, f = _ascend(m, _unit_block(50, 10, draw), shift)
        assert certified and steps > 0
        # a block certified by y itself gives back y as its own row products,
        # taken on the ascent's shifted copy of M and shifted back
        own = np.einsum("ir,ir->i", (m + shift * np.eye(50)) @ v, v) - shift
        extrapolated += not np.array_equal(y, own)
        _assert_weak_duality(m, y, f, sdp_estimate(graphs, seed=draw).objective)
    assert extrapolated >= 1


def test_extrapolate_is_exact_on_two_geometric_modes():
    rng = np.random.default_rng(0)
    limit, a, b = rng.standard_normal((3, 50))
    for count in (4, recovery.GAP_EVERY + 1):
        xs = np.array([limit + a * 0.8**j + b * (-0.5) ** j for j in range(count)])
        g = _extrapolate(xs)
        np.testing.assert_allclose(g.sum(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(g @ xs[:-1], limit, atol=1e-9)
        assert _extrapolate(np.tile(limit, (count, 1))) is None


def test_sdp_certifies_from_its_one_seeded_start():
    g, _ = _planted(24, seed=2)
    obj, labels, certified, steps = oracles.sdp_start(g.dense(), 0)
    assert certified and steps > 0
    result = sdp_estimate(g, seed=0)
    assert (result.objective, result.status, result.iterations) == (obj, "converged", steps)
    assert np.array_equal(result.labels, labels)
    assert not hasattr(recovery, "RESTARTS")


def _n50_draw(seed):
    params = CbmParams.from_scale(50, 5.0, 0.1)
    pre = np.array([1] * 25 + [-1] * 25, dtype=np.int8)
    return perturb_graph(sample_cbm(params, pre, seed=seed), 1.5, seed=seed)


# (graph, solver seed) with no seeded start certified after 3 steps: on the
# perturbed draw, the first with that property, start 1 rounds above start
# 0; on the single edge every start ties, and starts 0 and 2 differ in the
# free nodes 2 and 3
UNCERTIFIED = [
    pytest.param(lambda: _n50_draw(0), 0, id="n50 draw 0"),
    pytest.param(lambda: TernaryGraph(4, np.array([1, 0, 0, 0, 0, 0], np.int8)), 3, id="one edge"),
]


@pytest.mark.parametrize("make, seed", UNCERTIFIED)
def test_sdp_returns_max_iters_from_an_uncertified_start(monkeypatch, make, seed):
    monkeypatch.setattr(recovery, "MAX_ITERS", 3)
    g = make()
    runs = [oracles.sdp_start(g.dense(), seed, k) for k in range(3)]
    assert not any(certified for _, _, certified, _ in runs)
    # each case would tell a best-of rule over starts 0-2 apart: a later
    # start wins, or a later tied start has other labels
    assert any(run[0] > runs[0][0] or not np.array_equal(run[1], runs[0][1]) for run in runs[1:])
    result = sdp_estimate(g, seed=seed)
    obj, labels, _, steps = runs[0]
    assert (result.objective, result.status, result.iterations) == (obj, "max_iters", 3)
    assert np.array_equal(result.labels, labels)


@pytest.mark.parametrize("window, count", [(1, 60), (17, 20)])
def test_sdp_certifies_every_draw_from_one_start(window, count):
    # the one seeded start certifies, and no other seeded start would have
    # rounded to a better labeling
    for draw in range(count):
        graphs = [_n50_draw(s) for s in range(100 * draw, 100 * draw + window)]
        m = stack_dense(graphs)[1]
        obj, labels, _, steps = oracles.sdp_start(m, draw)
        result = sdp_estimate(graphs, seed=draw)
        assert (result.objective, result.status, result.iterations) == (obj, "converged", steps), draw
        assert np.array_equal(result.labels, labels), draw
        assert all(oracles.sdp_start(m, draw, k)[0] <= obj for k in (1, 2)), draw


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


def test_sdp_decides_as_with_the_eigvalsh_bound(monkeypatch):
    # the Cholesky proof and the eigvalsh bound differ only within rounding
    # of the bar, so every certificate, and hence every result, is the same;
    # n=50 windows of 1 and 3 consecutive draws, then single n=200 draws
    cases = [([_n50_draw(s + k) for k in range(width)], s) for width in (1, 3) for s in range(20)]
    cases += [(_perturbed_draw(200, 5.0, s), s) for s in range(4)]
    got = [sdp_estimate(graphs, seed=seed) for graphs, seed in cases]
    monkeypatch.setattr(recovery, "_certifies", oracles.eigvalsh_certifies)
    for r, (graphs, seed) in zip(got, cases):
        w = sdp_estimate(graphs, seed=seed)
        assert np.array_equal(r.labels, w.labels)
        assert (r.objective, r.status, r.iterations) == (w.objective, w.status, w.iterations)


def test_sdp_calls_no_eigensolver(monkeypatch):
    # the shift is a share of 2 ||M||_F / sqrt(n); gap checks factor
    counted = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "cholesky"):
        solver = getattr(np.linalg, name)
        counting = lambda m, name=name, solver=solver: counted.append(name) or solver(m)
        monkeypatch.setattr(np.linalg, name, counting)
    for window in (1, 3):
        result = sdp_estimate([_n50_draw(s) for s in range(window)], seed=0)
        assert result.status == "converged"
    assert set(counted) == {"cholesky"}


def test_sdp_ascent_steps_per_call():
    # the shifted ascent with eigvalsh's lambda_min and no heavy ball took
    # 50.5 steps per call on these n=50 draws and 98.3 on the n=200 draws
    # of test_sdp_certifies_up_to_n500
    steps = [sdp_estimate(_n50_draw(s), seed=s).iterations for s in range(20)]
    assert np.mean(steps) <= 42
    steps = [sdp_estimate(_perturbed_draw(200, 5.0, s), seed=s).iterations for s in range(6)]
    assert np.mean(steps) < 98.3
    # sums of 3 and 5 draws: Journee's per-step shift from the bulk-edge
    # estimate of lambda_min took 24.5 and 13.0 steps per call here, as
    # that estimate counts their summed signal in ||M||_F
    for window, most in ((3, 22), (5, 11)):
        sums = [[_n50_draw(s) for s in range(100 * d, 100 * d + window)] for d in range(20)]
        steps = [sdp_estimate(graphs, seed=d).iterations for d, graphs in enumerate(sums)]
        assert np.mean(steps) <= most, window


@pytest.mark.parametrize("n, a, seed", [(200, 5.0, s) for s in range(6)] + [(500, 10.0, 0)])
def test_sdp_certifies_up_to_n500(n, a, seed):
    assert sdp_estimate(_perturbed_draw(n, a, seed), seed=seed).status == "converged"


def test_spectral_recovers_planted_labels():
    g, labels = _planted(24, seed=6)
    result = spectral_estimate(g, seed=0)
    assert err(result.labels, labels) == 0


def _perturbed_draw(n, a, seed):
    """One graph of CBM(a log(n)/n, zeta=0.1) on two halves, after eps=1.5 randomized response."""
    params = CbmParams.from_scale(n, a, 0.1)
    pre = np.array([1] * (n // 2) + [-1] * (n - n // 2), dtype=np.int8)
    return perturb_graph(sample_cbm(params, pre, seed=seed), 1.5, seed=seed)


def _eigh_signs(m):
    return canonical(_signs(np.linalg.eigh(m)[1][:, -1]))


# (n, a, seed) of perturbed draws (_perturbed_draw). Power iteration on the
# shifted matrix ran out of iterations on all but the first two, and the two
# draws at a < 5 have an eigengap below 0.01. The n=50 draws take the dense
# path of spectral_estimate, the n=200 ones Lanczos; Lanczos itself is also
# run on every draw.
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
    g = _perturbed_draw(n, a, seed)
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
    start = generator(0, SOLVER, 0).standard_normal(n)
    x, converged, steps = _lanczos(g.dense(), start, RITZ_TOL, n)
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
    start = generator(0, SOLVER, 0).standard_normal(graph.n)
    x, converged, steps = _lanczos(m, start, RITZ_TOL, graph.n)
    assert converged
    assert 1 <= steps <= graph.n
    np.testing.assert_allclose(np.linalg.norm(x), 1.0, rtol=1e-12)
    theta = float(x @ m @ x)
    np.testing.assert_allclose(theta, np.linalg.eigvalsh(m)[-1], atol=1e-9)
    assert np.linalg.norm(m @ x - theta * x) <= RITZ_TOL * max(1.0, abs(theta))


@st.composite
def doubled_graphs(draw):
    """Two disjoint copies of a small graph: every eigenvalue, lambda_1 too, is repeated."""
    g = draw(small_graphs())
    m = np.zeros((2 * g.n, 2 * g.n))
    m[: g.n, : g.n] = m[g.n :, g.n :] = g.dense()
    return TernaryGraph.from_dense(m)


@settings(max_examples=300)
@given(st.one_of(small_graphs(), doubled_graphs()))
def test_dense_top_eigenvector_has_eigh_signs(graph):
    # small graphs bring isolated nodes (an exact zero in v), doubled ones a
    # repeated lambda_1; no proof may pass either, so eigh decides
    m = graph.dense()
    assert np.array_equal(canonical(_signs(_dense_top_eigenvector(m))), _eigh_signs(m))


@pytest.mark.parametrize("n", [50, 100, EIGH_MAX_N])
@pytest.mark.parametrize("a", [1.0, 2.0, 5.0])
def test_spectral_dense_path_has_eigh_signs(n, a):
    # at a = 1 and 2 most draws are decided by eigh, no squared row being proved
    for seed in range(8):
        g = _perturbed_draw(n, a, seed)
        result = spectral_estimate(g, seed=0)
        assert (result.status, result.iterations) == ("converged", 0)
        assert np.array_equal(result.labels, _eigh_signs(g.dense()))


def _isolate_node_0(g):
    m = g.dense().copy()
    m[0] = m[:, 0] = 0.0
    return TernaryGraph.from_dense(m)


def _count_dense_path(monkeypatch, counted, solvers=("eigh", "eigvalsh")):
    """Append to counted each named np.linalg call and each sign proof's verdict."""
    for name in solvers:
        solver = getattr(np.linalg, name)
        counting = lambda *args, name=name, solver=solver: counted.append(name) or solver(*args)
        monkeypatch.setattr(np.linalg, name, counting)
    proof = recovery._sign_proof

    def proving(m, x, norm_m):
        mu = proof(m, x, norm_m)
        counted.append("unproved" if mu is None else "proved")
        return mu

    monkeypatch.setattr(recovery, "_sign_proof", proving)


# the dense paths: a squared row proved after k failed tries, or every try
# failed and eigh decided
TRIES = len(recovery.SIGN_TRIES)
PROVED_PATHS = [["unproved"] * k + ["proved"] for k in range(TRIES)]
EIGH_PATH = ["unproved"] * TRIES + ["eigh"]


@pytest.mark.parametrize(
    "make, paths",
    [
        (lambda seed: _perturbed_draw(50, 5.0, seed), PROVED_PATHS + [EIGH_PATH]),
        (lambda seed: _isolate_node_0(_perturbed_draw(50, 5.0, seed)), [EIGH_PATH]),
        (lambda seed: _planted(8, seed)[0], PROVED_PATHS),
    ],
    ids=["n50-a5", "n50-isolated-node", "n8-planted"],
)
def test_spectral_calls_eigh_only_where_the_signs_are_in_doubt(monkeypatch, make, paths):
    # every graph is squared, and eigh runs only where no squared row is
    # proved, as on a graph with an isolated node (an exact zero in v)
    graphs = [make(seed) for seed in range(10)]
    want = [_eigh_signs(g.dense()) for g in graphs]
    counted = []
    _count_dense_path(monkeypatch, counted)
    for g, eigh_labels in zip(graphs, want):
        counted.clear()
        assert np.array_equal(spectral_estimate(g, seed=0).labels, eigh_labels)
        assert counted in paths


def test_raw_n50_draws_never_reach_eigvalsh(monkeypatch):
    # the central release estimates raw snapshots, whose gap squaring proves
    params = CbmParams.from_scale(50, 5.0, 0.1)
    graphs = [sample_cbm(params, _halves(50), seed=seed) for seed in range(20)]
    want = [_eigh_signs(g.dense()) for g in graphs]
    counted = []
    _count_dense_path(monkeypatch, counted, ("eigh", "eigvalsh", "solve"))
    for g, eigh_labels in zip(graphs, want):
        counted.clear()
        result = spectral_estimate(g, seed=0)
        assert (result.status, result.iterations) == ("converged", 0)
        assert np.array_equal(result.labels, eigh_labels)
        assert counted in PROVED_PATHS


@pytest.mark.parametrize("n", [96, 97, EIGH_MAX_N])
def test_squaring_runs_at_every_dense_size(monkeypatch, n):
    # no size switch: a raw draw's first squared row is proved up to EIGH_MAX_N
    g = sample_cbm(CbmParams.from_scale(n, 5.0, 0.1), _halves(n), seed=3)
    want = _eigh_signs(g.dense())
    counted = []
    _count_dense_path(monkeypatch, counted)
    assert np.array_equal(spectral_estimate(g, seed=0).labels, want)
    assert counted == ["proved"]


@st.composite
def sign_proof_cases(draw):
    """(M, hard): a sum of 1-3 ternary graphs, planted or not, n small or near EIGH_MAX_N.

    The hard cases, which no proof may pass: two disjoint copies (a
    repeated lambda_1), a zero row, and the bipartite double cover [[0, A],
    [A, 0]] (|lambda_n| = lambda_1), whose squares cannot tell lambda_1 from
    lambda_n.
    """
    n = draw(st.one_of(st.integers(3, 60), st.integers(EIGH_MAX_N - 40, EIGH_MAX_N)))
    hard = draw(st.sampled_from([None, None, "repeated", "bipartite", "zero row"]))
    size = n // 2 if hard in ("repeated", "bipartite") else n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planted = draw(st.booleans())
    labels = random_labels(size, rng)
    m = np.zeros((size, size))
    for _ in range(draw(st.integers(1, 3))):
        a = rng.integers(-1, 2, (size, size))
        if planted:
            agree = rng.random((size, size)) < 0.6
            a = np.where(agree, np.outer(labels, labels), a)
        a = np.triu(a, 1)
        m += a + a.T
    if hard in ("repeated", "bipartite"):
        zero = np.zeros_like(m)
        m = np.block([[m, zero], [zero, m]] if hard == "repeated" else [[zero, m], [m, zero]])
    elif hard == "zero row":
        k = draw(st.integers(0, n - 1))
        m[k] = m[:, k] = 0.0
    return m, hard


@settings(max_examples=200, deadline=None)
@given(sign_proof_cases())
def test_every_dense_candidate_proof_holds_where_it_passes(case):
    m, hard = case
    if not m.any():
        return
    n = len(m)
    candidates = list(recovery._dense_candidates(m))
    assert len(candidates) == len(recovery.SIGN_TRIES)
    lam = np.linalg.eigvalsh(m)
    for x, norm_m in candidates:
        assert norm_m >= np.linalg.norm(m)
        mu = recovery._sign_proof(m, x, norm_m)
        if hard is not None:
            assert mu is None
        elif mu is not None:
            # eigvalsh's own rounding is about n eps ||M||_F
            assert lam[-2] < mu + n * np.finfo(float).eps * np.linalg.norm(m)
            assert mu < lam[-1]
            assert np.array_equal(canonical(_signs(x)), _eigh_signs(m))


def _two_plane_case(beta, theta):
    """(M, x): M with eigenvalues 100, 99, 0; x at angle theta from v1 towards v2.

    v1 has second entry -sin(beta) / ||.||, v2 lies in the plane of v1 and
    e_2, so x's second entry turns positive once theta passes about beta.
    """
    v1 = np.array([1.0, -math.sin(beta), 0.8])
    v1 /= np.linalg.norm(v1)
    v2 = np.array([0.0, 1.0, 0.0]) - v1[1] * v1
    v2 /= np.linalg.norm(v2)
    m = 100.0 * np.outer(v1, v1) + 99.0 * np.outer(v2, v2)
    return (m + m.T) / 2.0, math.cos(theta) * v1 + math.sin(theta) * v2


def test_sign_proof_is_tight():
    # the residual bound gives sin(angle) <= tan(theta); x has v1's signs
    # exactly while sin(angle) < min |x_i|, so x one sign away from v1,
    # within sqrt(2) of that bound, is refused, and far from it, proved
    norm = lambda m: 2.0 * np.linalg.norm(m)
    m, x = _two_plane_case(-0.3, 0.1)
    mu = recovery._sign_proof(m, x, norm(m))
    assert mu is not None and 99.0 < mu < x @ m @ x
    m, x = _two_plane_case(0.005, 0.1)
    v1 = np.linalg.eigh(m)[1][:, -1]
    assert not np.array_equal(canonical(_signs(x)), canonical(_signs(v1)))
    # a bound looser by sqrt(2) would pass it, with the proof's eighth of room
    assert abs(x).min() < math.tan(0.1) < math.sqrt(2.0) * abs(x).min() / 1.125
    assert recovery._sign_proof(m, x, norm(m)) is None


def test_psd_proof_refuses_a_singular_laplacian():
    # a graph Laplacian is PSD with lambda_min exactly 0, so L - err I is not
    # PSD for any err > 0; a plain factorization passes on some of them
    rng = np.random.default_rng(0)
    plain = 0
    for _ in range(20):
        a = np.triu(rng.random((30, 30)) < 0.3, 1).astype(float)
        a += a.T
        lap = np.diag(a.sum(axis=1)) - a
        try:
            np.linalg.cholesky(lap)
            plain += 1
        except np.linalg.LinAlgError:
            pass
        assert not recovery._proves_psd(lap.copy(), 1e-300)
        assert recovery._proves_psd(lap + 1e-9 * np.eye(30), 1e-12)
    assert plain > 0


def test_proofs_refuse_anything_but_float64():
    # their rounding bounds use float64's EPS; a float32 matrix would pass
    # proofs that its own rounding could break
    m = _perturbed_draw(50, 5.0, 0).dense()
    x = _dense_top_eigenvector(m)
    norm_m = 2.0 * np.linalg.norm(m)
    assert _sign_proof(m, x, norm_m) is not None
    # mu = 0.1 above lambda_max(M - Diag(dual)) = 0
    dual = np.full(50, np.linalg.eigvalsh(m)[-1])
    bar = dual.sum() + 5.0
    assert _certifies(m, dual, 0.0, bar)
    assert _proves_psd(np.eye(50), 0.0)
    for dtype in (np.float32, np.float16, np.int64):
        with pytest.raises(ValueError, match="float64"):
            _sign_proof(m.astype(dtype), x, norm_m)
        with pytest.raises(ValueError, match="float64"):
            _sign_proof(m, x.astype(dtype), norm_m)
        with pytest.raises(ValueError, match="float64"):
            _certifies(m.astype(dtype), dual, 0.0, bar)
        with pytest.raises(ValueError, match="float64"):
            _certifies(m, dual.astype(dtype), 0.0, bar)
        with pytest.raises(ValueError, match="float64"):
            _proves_psd(np.eye(50, dtype=dtype), 0.0)


# perturbed draws at the benchmark's n = 1000 and at n = 200, at a = 5 and 20
TWO_PHASE_DRAWS = [(n, a, 0) for n in (200, 1000) for a in (5.0, 20.0)]


@pytest.mark.parametrize("n, a, seed", TWO_PHASE_DRAWS)
def test_two_phase_lanczos_meets_the_float64_bound(n, a, seed):
    g = _perturbed_draw(n, a, seed)
    m = g.dense()
    result = spectral_estimate(g, seed=0)
    assert result.status == "converged"
    assert 1 <= result.iterations <= n
    assert np.array_equal(result.labels, _eigh_signs(m))
    x, converged, steps = _top_eigenvector(m, _solver_start(0, 0, (1, n))[0])
    assert (converged, steps) == (True, result.iterations)
    assert x.dtype == np.float64
    assert np.array_equal(canonical(_signs(x)), result.labels)
    x = x / np.linalg.norm(x)
    theta = float(x @ m @ x)
    assert np.linalg.norm(m @ x - theta * x) <= RITZ_TOL * max(1.0, abs(theta))


def test_lanczos_runs_a_capped_float32_phase_then_a_float64_one(monkeypatch):
    calls = []
    lanczos = recovery._lanczos

    def spy(m, start, tol, steps):
        x, converged, k = lanczos(m, start, tol, steps)
        calls.append((m.dtype, start.dtype, steps, k, x.dtype))
        return x, converged, k

    monkeypatch.setattr(recovery, "_lanczos", spy)
    n = 1000
    result = spectral_estimate(_perturbed_draw(n, 20.0, 1), seed=0)
    (m32, _, cap, head, x32), (m64, s64, rest, tail, x64) = calls
    assert (m32, x32) == (np.float32, np.float32)
    assert (m64, s64, x64) == (np.float64, np.float64, np.float64)
    assert cap == n // F32_STEPS_DIVISOR and 1 <= head <= cap
    assert rest == n - head and 1 <= tail <= rest
    assert result.iterations == head + tail


def test_large_n_spectral_estimate_allocates_no_n_by_n_float64():
    # a float64 Lanczos basis of n rows alone is 8 MB at n = 1000; the
    # float32 copy of M is 4 MB and the bases grow with the steps taken.
    # numpy reports its buffers to tracemalloc
    g = _perturbed_draw(1000, 20.0, 0)
    g.dense()
    spectral_estimate(g, seed=0)  # caches the seeded start
    tracemalloc.start()
    try:
        spectral_estimate(g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


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


@pytest.mark.parametrize("solve", [sdp_estimate, spectral_estimate])
def test_degenerate_window_is_read_off_the_summed_matrix(solve):
    # one graph's zero test reads its int8 triangle; a window's +-1 entries can cancel
    g = TernaryGraph(5, np.array([1, 0, -1, 0, 0, 1, 0, 0, 0, -1], dtype=np.int8))
    neg = TernaryGraph(5, -g.upper)
    assert solve([g, neg], seed=2).status == "degenerate"
    assert solve([g], seed=2).status != "degenerate"
    assert solve([TernaryGraph.zero(5)], seed=2).status == "degenerate"


def test_solver_start_is_the_seeded_block_read_only():
    v = recovery._solver_start(3, 1, (20, 7))
    w = generator(3, SOLVER, 1).standard_normal((20, 7))
    assert np.array_equal(v, w / np.linalg.norm(w, axis=1, keepdims=True))
    assert not v.flags.writeable
    assert recovery._solver_start(3, 1, (20, 7)) is v


def _halves(n):
    return np.array([1] * (n // 2) + [-1] * (n - n // 2), dtype=np.int8)


# the hard n = 200 draws, and n = 1000 draws at the delay-spectral-n1000 benchmark's a
WARM_DRAWS = [d for d in HARD_DRAWS if d[0] == 200] + [(1000, 20.0, s) for s in range(4)]


@pytest.mark.parametrize("n, a, seed", WARM_DRAWS)
def test_warm_start_keeps_the_cold_start_signs(n, a, seed):
    g = _perturbed_draw(n, a, seed)
    want = _eigh_signs(g.dense())
    cold = spectral_estimate(g, seed=0)
    assert cold.status == "converged"
    assert np.array_equal(cold.labels, want)
    planted = _halves(n)
    wrong = planted.copy()
    wrong[::2] *= -1  # orthogonal to the planted labels
    for start in (planted, wrong):
        warm = spectral_estimate(g, seed=0, start=start)
        assert warm.status == "converged"
        assert 1 <= warm.iterations <= n
        assert np.array_equal(warm.labels, want)


def test_warm_start_in_an_invariant_subspace_still_finds_the_top_eigenvector():
    # M = diag(B, C) with C a 60-cycle, whose top eigenpair (2, all ones) is
    # exact in floating point; B's top eigenvalue is far above 2. A start on C
    # alone spans an invariant subspace: Lanczos from it would stop at once
    # on (2, ones) unless the seeded Gaussian share brings B in.
    b = _perturbed_draw(150, 5.0, 0).dense()
    assert np.linalg.eigvalsh(b)[-1] > 4.0
    n = 210
    m = np.zeros((n, n))
    m[:150, :150] = b
    for i in range(60):
        j = 150 + (i + 1) % 60
        m[150 + i, j] = m[j, 150 + i] = 1.0
    g = TernaryGraph.from_dense(m)
    start = np.zeros(n)
    start[150:] = 1.0
    result = spectral_estimate(g, seed=0, start=start)
    assert result.status == "converged"
    assert np.array_equal(canonical(result.labels[:150]), _eigh_signs(b))


def test_warm_start_moves_only_the_lanczos_start():
    g = _perturbed_draw(EIGH_MAX_N, 5.0, 1)
    cold = spectral_estimate(g, seed=0)
    warm = spectral_estimate(g, seed=0, start=_halves(EIGH_MAX_N))
    assert np.array_equal(warm.labels, cold.labels)
    assert (warm.objective, warm.status, warm.iterations) == (cold.objective, cold.status, 0)
    # a bad start is refused on either side of EIGH_MAX_N, and at n = 50
    for n in (50, EIGH_MAX_N, EIGH_MAX_N + 1):
        graph = _perturbed_draw(n, 5.0, 1)
        for bad in (np.zeros(n), np.ones(n - 1), np.ones(7), np.full(n, np.nan), np.full(n, np.inf)):
            with pytest.raises(ValueError):
                spectral_estimate(graph, seed=0, start=bad)
