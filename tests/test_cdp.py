import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from cbmdetect._rng import LAPLACE, generator, laplace
from cbmdetect.cdp import (
    distance_to_instability,
    release_assuming_stable,
    stability_release,
    subsample_stability_release,
)
from cbmdetect.ldp import PrivacyBudget
from cbmdetect.model import TernaryGraph, n_pairs
from cbmdetect.recovery import ml_exhaustive

import oracles


def _complete_agree(n):
    return TernaryGraph(n, np.ones(n_pairs(n), dtype=np.int8))


def test_laplace_sample_reproducible():
    def laplace_sample(scale, seed):
        return laplace(generator(seed, LAPLACE), scale)

    a = laplace_sample(2.0, seed=1)
    assert a == laplace_sample(2.0, seed=1)
    assert a != laplace_sample(2.0, seed=2)
    assert laplace_sample(4.0, seed=1) == 2.0 * a


@pytest.mark.parametrize("cap", [1, 2])
def test_distance_matches_pairwise_enumeration_n3(cap):
    graphs, expected = oracles.instability_distances(3, ml_exhaustive, cap)
    got = [distance_to_instability(g, ml_exhaustive, cap=cap) for g in graphs]
    assert got == expected.tolist()


def test_distance_constant_estimator_hits_cap():
    fixed = lambda g: np.ones(g.n, dtype=np.int8)
    assert distance_to_instability(_complete_agree(4), fixed, cap=3) == 3


def test_distance_validation():
    with pytest.raises(ValueError):
        distance_to_instability(TernaryGraph.zero(13), ml_exhaustive)
    with pytest.raises(ValueError):
        distance_to_instability(TernaryGraph.zero(4), ml_exhaustive, cap=-1)


def test_distance_refuses_an_enumeration_over_budget():
    # n = 12 at the default cap (3) would try sum_{e=1}^{4} C(66, e) 2^e edits,
    # each an exhaustive ML solve; the count is refused before the first one
    start = time.perf_counter()
    with pytest.raises(ValueError, match="11,906,313 estimator calls"):
        distance_to_instability(_complete_agree(12), ml_exhaustive)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="MAX_ESTIMATOR_CALLS"):
        stability_release(_complete_agree(12), PrivacyBudget(1.0, 0.05), ml_exhaustive, seed=0)


def test_stability_release_needs_positive_delta():
    # every mechanism's gate, and its refusal names delta, not one mechanism
    budget = PrivacyBudget(1.0, 0.0)
    for release in (stability_release, subsample_stability_release, release_assuming_stable):
        with pytest.raises(ValueError, match=r"delta=0\.0: the release gate's bar"):
            release(_complete_agree(4), budget, ml_exhaustive, 0)


def test_stability_release_fires_on_stable_graph():
    budget = PrivacyBudget(5.0, 0.45)
    out = stability_release(_complete_agree(4), budget, ml_exhaustive, seed=0)
    assert out.released
    assert np.array_equal(out.labels, np.ones(4, dtype=np.int8))
    bar = math.log(1.0 / budget.delta) / budget.epsilon
    assert out.noisy_distance > bar


def test_stability_release_withholds_under_tight_delta():
    budget = PrivacyBudget(0.5, 1e-12)
    out = stability_release(_complete_agree(4), budget, ml_exhaustive, seed=0)
    assert not out.released
    assert out.labels[0] == 1


def test_stability_release_reproducible():
    budget = PrivacyBudget(2.0, 0.1)
    a = stability_release(_complete_agree(4), budget, ml_exhaustive, seed=5)
    b = stability_release(_complete_agree(4), budget, ml_exhaustive, seed=5)
    assert a.noisy_distance == b.noisy_distance
    assert np.array_equal(a.labels, b.labels)


def test_withheld_labels_uniform_over_classes():
    budget = PrivacyBudget(0.5, 1e-12)
    g = _complete_agree(4)
    draws = []
    for seed in range(600):
        out = stability_release(g, budget, ml_exhaustive, seed=seed)
        assert not out.released
        draws.append(tuple(out.labels))
    counts = [draws.count(key) for key in set(draws)]
    assert len(counts) == 8
    assert stats.chisquare(counts).pvalue > 1e-3


def test_subsample_rejects_large_rate():
    with pytest.raises(ValueError):
        subsample_stability_release(
            _complete_agree(4), PrivacyBudget(100.0, 0.05), ml_exhaustive, seed=0
        )


def test_subsample_truncation_warns_and_releases_unanimous():
    budget = PrivacyBudget(8.0, 0.2)
    with pytest.warns(RuntimeWarning, match="NOT"):
        out = subsample_stability_release(
            _complete_agree(4), budget, ml_exhaustive, seed=0, max_subgraphs=5
        )
    assert out.released
    assert np.array_equal(out.labels, np.ones(4, dtype=np.int8))


def test_subsample_reproducible():
    budget = PrivacyBudget(8.0, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = subsample_stability_release(
            _complete_agree(4), budget, ml_exhaustive, seed=3, max_subgraphs=5
        )
        b = subsample_stability_release(
            _complete_agree(4), budget, ml_exhaustive, seed=3, max_subgraphs=5
        )
    assert a.noisy_distance == b.noisy_distance
    assert np.array_equal(a.labels, b.labels)


def test_assumed_release_warns_and_defaults_high():
    budget = PrivacyBudget(2.0, 0.05)
    with pytest.warns(RuntimeWarning, match="not differentially private"):
        out = release_assuming_stable(_complete_agree(6), budget, ml_exhaustive, seed=0)
    assert out.released
    assert np.array_equal(out.labels, np.ones(6, dtype=np.int8))


def test_assumed_release_bottom_path():
    budget = PrivacyBudget(2.0, 0.05)
    with pytest.warns(RuntimeWarning):
        out = release_assuming_stable(
            _complete_agree(6), budget, ml_exhaustive, seed=0, assumed_distance=-1e6
        )
    assert not out.released
    assert out.labels[0] == 1
