import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from cbmdetect.model import (
    SAMPLE_BLOCK,
    CbmParams,
    ChangeScenario,
    TernaryGraph,
    _below,
    canonical,
    correlation,
    err,
    format_labels,
    hamming,
    n_pairs,
    pair_indices,
    parse_labels,
    quad_form,
    random_labels,
    sample_cbm,
    validate_labels,
)

import oracles

sizes = st.integers(min_value=2, max_value=8)


@st.composite
def labelings(draw, n=None):
    if n is None:
        n = draw(sizes)
    vals = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return np.array(vals, dtype=np.int8)


@st.composite
def graphs_with_labels(draw):
    n = draw(sizes)
    upper = draw(
        st.lists(st.sampled_from((-1, 0, 1)), min_size=n_pairs(n), max_size=n_pairs(n))
    )
    return TernaryGraph(n, np.array(upper, dtype=np.int8)), draw(labelings(n))


def test_n_pairs():
    assert [n_pairs(n) for n in (2, 3, 4, 10)] == [1, 3, 6, 45]


def test_pair_indices_row_major():
    i, j = pair_indices(4)
    assert list(zip(i.tolist(), j.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


@pytest.mark.parametrize(
    "bad", [[1, 0, 1], [[1, -1], [1, 1]], [1], [2, -1], [1.5, -1]]
)
def test_validate_labels_rejects(bad):
    with pytest.raises(ValueError):
        validate_labels(bad)


def test_validate_labels_length_check():
    with pytest.raises(ValueError):
        validate_labels([1, -1, 1], n=4)


@given(labelings())
def test_canonical_representative(labels):
    rep = canonical(labels)
    assert rep[0] == 1
    assert np.array_equal(rep, labels) or np.array_equal(rep, -labels)
    assert np.array_equal(canonical(-labels), rep)


def test_random_labels_uniform_over_classes():
    rng = np.random.default_rng(42)
    draws = [tuple(random_labels(4, rng)) for _ in range(4000)]
    assert all(d[0] == 1 for d in draws)
    counts = [draws.count(key) for key in set(draws)]
    assert len(counts) == 8
    assert stats.chisquare(counts).pvalue > 1e-3


@given(labelings(), st.data())
def test_err_is_flip_invariant_and_small(a, data):
    b = data.draw(labelings(len(a)))
    assert err(a, b) == err(-a, b) == err(a, -b)
    assert err(a, b) <= len(a) // 2
    assert err(a, a) == 0
    assert hamming(a, b) + hamming(a, -b) == len(a)


@given(labelings())
def test_correlation_extremes(labels):
    assert correlation(labels, labels) == 1.0
    assert correlation(labels, -labels) == 1.0


@given(labelings())
def test_parse_format_round_trip(labels):
    assert np.array_equal(parse_labels(format_labels(labels)), labels)


def test_parse_labels_rejects_other_chars():
    with pytest.raises(ValueError):
        parse_labels("++0-")


def test_params_validation():
    with pytest.raises(ValueError):
        CbmParams(n=10, p=0.5, zeta=0.5)
    with pytest.raises(ValueError):
        CbmParams(n=10, p=1.5, zeta=0.1)
    with pytest.raises(ValueError):
        CbmParams(n=1, p=0.5, zeta=0.1)


@pytest.mark.parametrize(
    "n", [10.0, True, "10", np.float64(10.0)], ids=["float", "bool", "str", "float64"]
)
def test_params_refuse_a_node_count_that_is_not_an_int(n):
    # 10.0 once passed here and failed later in sample_cbm with a TypeError
    with pytest.raises(ValueError, match="n must be an int"):
        CbmParams(n=n, p=0.5, zeta=0.1)
    assert CbmParams(n=np.int64(10), p=0.5, zeta=0.1).n == 10


@pytest.mark.parametrize("n", [4.0, True, np.float64(4.0)], ids=["float", "bool", "float64"])
def test_graph_refuses_a_node_count_that_is_not_an_int(n):
    # 4.0 once passed here and failed later in dense() with a TypeError
    upper = np.zeros(n_pairs(4), dtype=np.int8)
    with pytest.raises(ValueError, match="n must be an int"):
        TernaryGraph(n, upper)
    assert TernaryGraph(np.int64(4), upper).dense().shape == (4, 4)


def test_params_from_scale():
    params = CbmParams.from_scale(50, 5.0, 0.1)
    assert math.isclose(params.p, 5.0 * math.log(50) / 50)


def test_graph_from_dense_round_trip():
    rng = np.random.default_rng(3)
    upper = rng.integers(-1, 2, size=n_pairs(6)).astype(np.int8)
    g = TernaryGraph(6, upper)
    assert TernaryGraph.from_dense(g.dense()) == g
    assert g.edge_count == int(np.count_nonzero(upper))


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        TernaryGraph(4, np.zeros(5, dtype=np.int8))
    with pytest.raises(ValueError):
        TernaryGraph(4, np.full(6, 2, dtype=np.int8))
    asym = np.zeros((3, 3))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError):
        TernaryGraph.from_dense(asym)
    with pytest.raises(ValueError):
        TernaryGraph.from_dense(np.eye(3))


@pytest.mark.parametrize(
    "upper",
    [[255, 0, 1], [257, 0, 0], [0.7, -0.4, 1.9], [np.nan, 0, 0], np.array([-128, 0, 0], np.int8)],
    ids=["255", "257", "fractions", "nan", "int8 -128"],
)
def test_graph_rejects_entries_an_int8_cast_would_mangle(upper):
    # casting first would store [-1, 0, 1], [1, 0, 0] and [0, 0, 1] for the first three
    with pytest.raises(ValueError, match="-1, 0, or"):
        TernaryGraph(3, np.asarray(upper))


@pytest.mark.parametrize("entry", [0.5, 255.0, 257.0, 2.0])
def test_graph_from_dense_rejects_non_ternary_pairs(entry):
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = entry
    with pytest.raises(ValueError, match="-1, 0, or"):
        TernaryGraph.from_dense(m)


def test_graph_accepts_integral_ternary_values_of_any_dtype():
    want = np.array([1, 0, -1], dtype=np.int8)
    for upper in ([1, 0, -1], [1.0, 0.0, -1.0], np.array([1, 0, -1], dtype=np.int64), want):
        g = TernaryGraph(3, upper)
        assert g.upper.dtype == np.int8
        assert np.array_equal(g.upper, want)
    assert TernaryGraph(3, want).upper is want


def test_zero_graph():
    g = TernaryGraph.zero(5)
    assert g.edge_count == 0
    assert not g.dense().any()


@given(graphs_with_labels())
def test_quad_form_matches_dense(pair):
    graph, labels = pair
    dense = labels.astype(float) @ graph.dense() @ labels.astype(float)
    assert quad_form(graph, labels) == int(round(dense))
    assert quad_form(graph, labels) == oracles.quad_form_by_pairs(graph, labels)


def test_sample_cbm_reproducible():
    params = CbmParams(n=30, p=0.4, zeta=0.2)
    labels = random_labels(30, np.random.default_rng(1))
    g1 = sample_cbm(params, labels, seed=9)
    g2 = sample_cbm(params, labels, seed=9)
    g3 = sample_cbm(params, labels, seed=10)
    assert g1 == g2
    assert g1 != g3


def test_sample_cbm_cell_frequencies():
    params = CbmParams(n=120, p=0.6, zeta=0.2)
    labels = random_labels(120, np.random.default_rng(2))
    g = sample_cbm(params, labels, seed=11)
    i, j = pair_indices(120)
    signed = g.upper * (labels[i] * labels[j])
    counts = [int((signed == v).sum()) for v in (1, -1, 0)]
    expected = [
        n_pairs(120) * q
        for q in (params.p * (1 - params.zeta), params.p * params.zeta, 1 - params.p)
    ]
    assert stats.chisquare(counts, expected).pvalue > 1e-3


@pytest.mark.parametrize("n", [2, 3, 50, 257])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_sample_dense_and_quad_form_match_per_pair_oracles(n, p):
    labels = np.random.default_rng(n).choice(np.array([-1, 1], dtype=np.int8), size=n)
    params = CbmParams(n=n, p=p, zeta=0.2)
    for seed in (0, 7):
        g = sample_cbm(params, labels, seed=seed)
        want = oracles.sample_by_pairs(params, labels, seed)
        assert g.upper.dtype == np.int8
        assert np.array_equal(g.upper, want.upper)
        dense = g.dense()
        assert dense.dtype == np.float64 and not dense.flags.writeable
        assert np.array_equal(dense, oracles.dense_by_pairs(g))
        assert TernaryGraph.from_dense(dense) == g
        assert quad_form(g, labels) == oracles.quad_form_by_pairs(g, labels)


def test_sample_cbm_degenerate_p():
    labels = np.array([1, -1, 1, -1], dtype=np.int8)
    empty = sample_cbm(CbmParams(n=4, p=0.0, zeta=0.1), labels, seed=0)
    assert empty.edge_count == 0
    full = sample_cbm(CbmParams(n=4, p=1.0, zeta=0.1), labels, seed=0)
    assert full.edge_count == n_pairs(4)


_BIT_GENERATORS = (np.random.Philox, np.random.PCG64, np.random.SFC64, np.random.MT19937)


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
@pytest.mark.parametrize(
    "p, zeta",
    # 0.5 (1 - 0.25) = 0.375 and 0.5 lie on the 2^-53 grid of the uniforms
    [(0.0, 0.2), (1.0, 0.2), (0.5, 0.25), (1.0 - 2.0**-53, 0.5 - 2.0**-54), (0.3, 0.1)],
)
def test_sample_cbm_from_a_generator_matches_the_per_pair_oracle(bit_generator, p, zeta):
    # MT19937's raw words are 32 bits, so it draws through random() itself
    n = 90
    labels = np.random.default_rng(3).choice(np.array([-1, 1], dtype=np.int8), size=n)
    params = CbmParams(n=n, p=p, zeta=zeta)
    for seed in (0, 5):
        fast, slow = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        g = sample_cbm(params, labels, fast)
        assert np.array_equal(g.upper, oracles.sample_by_pairs(params, labels, slow).upper)
        # the draw leaves the generator where random(n_pairs) leaves it
        assert fast.random() == slow.random()



@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
@pytest.mark.parametrize("n", [50, 300, 400])
def test_blocked_draws_match_one_random_call(bit_generator, n):
    # n = 50 is one partial block; 300 and 400 span several with a remainder
    pairs = n_pairs(n)
    assert pairs < SAMPLE_BLOCK if n == 50 else pairs > 2 * SAMPLE_BLOCK and pairs % SAMPLE_BLOCK
    labels = np.random.default_rng(n).choice(np.array([-1, 1], dtype=np.int8), size=n)
    params = CbmParams(n=n, p=0.3, zeta=0.1)
    fast, slow = (np.random.Generator(bit_generator(11)) for _ in range(2))
    for _ in range(2):  # the second draw starts mid-stream
        g = sample_cbm(params, labels, fast)
        assert np.array_equal(g.upper, oracles.sample_by_pairs(params, labels, slow).upper)
        # and leaves the generator where random(n_pairs) leaves it
        assert fast.random() == slow.random()


def test_sample_cbm_peaks_below_two_bytes_per_pair():
    # the int8 output is one byte per pair; raw words for the whole triangle would be eight
    n = 1000
    params = CbmParams.from_scale(n, 20.0, 0.1)
    labels = np.array([1, -1] * (n // 2), dtype=np.int8)
    sample_cbm(params, labels, seed=0)  # caches the mask and the label products
    tracemalloc.start()
    try:
        sample_cbm(params, labels, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_pairs(n)

@pytest.mark.parametrize("x", [0.0, 2.0**-53, 0.375, 0.1, 1.0 - 2.0**-53, 1.0, 5e-324])
def test_below_is_the_uniform_comparison(x):
    # words around the threshold, with the 11 dropped bits empty and full
    k = math.ceil(x * 2.0**53)
    ks = np.array([max(k + d, 0) for d in (-2, -1, 0, 1, 2)], dtype=np.uint64)
    ks = np.minimum(ks, np.uint64(2**53 - 1))
    words = np.concatenate([ks << np.uint64(11), (ks << np.uint64(11)) | np.uint64(2047)])
    want = (words >> np.uint64(11)) * 2.0**-53 < x
    assert np.array_equal(_below(words, x).astype(bool), want)


def test_scenario_orients_post_close_to_pre():
    pre = np.ones(6, dtype=np.int8)
    post = -pre.copy()
    post[[0, 1]] = 1  # given as the far orientation of a 2-flip change
    params = CbmParams(n=6, p=0.5, zeta=0.1)
    sc = ChangeScenario(pre=pre, post=post, nu=3, params_pre=params, params_post=params)
    assert hamming(sc.pre, sc.post) == 2


def test_scenario_regimes():
    pre = np.array([1, 1, -1, -1], dtype=np.int8)
    post = np.array([1, -1, -1, -1], dtype=np.int8)
    params = CbmParams(n=4, p=0.5, zeta=0.1)
    sc = ChangeScenario(pre=pre, post=post, nu=5, params_pre=params, params_post=params)
    assert np.array_equal(sc.regime_at(4)[0], sc.pre)
    assert np.array_equal(sc.regime_at(5)[0], sc.post)
    forever = ChangeScenario(
        pre=pre, post=post, nu=math.inf, params_pre=params, params_post=params
    )
    assert np.array_equal(forever.regime_at(10**9)[0], forever.pre)


def test_scenario_rejects_bad_nu():
    pre = np.array([1, -1], dtype=np.int8)
    params = CbmParams(n=2, p=0.5, zeta=0.1)
    for nu in (0, 2.5, -3):
        with pytest.raises(ValueError):
            ChangeScenario(pre=pre, post=pre, nu=nu, params_pre=params, params_post=params)


@pytest.mark.parametrize("nu", [True, False, "3", "inf"])
def test_scenario_refuses_a_bool_or_string_nu(nu):
    # True once became nu = 1; a string names no change time (io reads "inf" first)
    pre = np.array([1, -1], dtype=np.int8)
    params = CbmParams(n=2, p=0.5, zeta=0.1)
    with pytest.raises(ValueError, match="nu must be"):
        ChangeScenario(pre=pre, post=pre, nu=nu, params_pre=params, params_post=params)
