"""Central-model mechanisms: stability-gated label releases.

Every release is one propose-test-release gate (`_gate`): a distance that
says how many edits the estimate survives gets Lap(1/epsilon) noise, and the
labels come out only if the noisy distance clears log(1/delta)/epsilon
(`_bar`). Otherwise the caller receives uniform random labels flagged as a
non-release. The three mechanisms differ only in that distance: exact by
enumeration, estimated from edge subsamples, or assumed. Each reads its seed,
an int or a Generator, as stream(seed, RELEASE) (SUBSAMPLE when subsampling).
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import RELEASE, SUBSAMPLE, laplace, stream
from .model import FOREIGN, TernaryGraph, canonical, n_pairs, random_labels


def _call_estimator(estimator, graph):
    out = estimator(graph)
    labels = getattr(out, "labels", out)
    return canonical(labels, graph.n)


# Estimator calls distance_to_instability may need (the estimate itself plus
# one per candidate edit) before it refuses to start; callers may raise it.
# n = 12 at the default cap would need 11,906,313.
MAX_ESTIMATOR_CALLS = 10**6


def _enumeration_calls(m, cap):
    """Worst-case estimator calls over m pairs: 1 + sum_{e=1}^{cap+1} C(m, e) 2^e."""
    return 1 + sum(math.comb(m, e) * 2**e for e in range(1, cap + 2))


def distance_to_instability(graph, estimator, cap=None):
    """Edits the estimate provably survives, exactly, by enumeration.

    Returns d = (minimum number of pair edits that changes the canonical
    estimate) - 1, or cap if no change is found within cap + 1 edits. An
    edit rewrites one unordered pair to either foreign symbol (both triangle
    copies at once). The estimator must be deterministic. Exhaustive, so
    n <= 12, and a call whose worst case needs more than
    MAX_ESTIMATOR_CALLS estimator calls raises ValueError before any work.
    """
    if graph.n > 12:
        raise ValueError("exact instability distance is capped at n=12")
    if cap is None:
        cap = max(1, math.ceil(math.log(graph.n)))
    if cap < 0:
        raise ValueError("cap must be >= 0")
    m = n_pairs(graph.n)
    calls = _enumeration_calls(m, cap)
    if calls > MAX_ESTIMATOR_CALLS:
        raise ValueError(
            f"exact instability distance at n={graph.n}, cap={cap} may need {calls:,} "
            f"estimator calls, above cdp.MAX_ESTIMATOR_CALLS = {MAX_ESTIMATOR_CALLS:,}; lower the cap"
        )
    base = _call_estimator(estimator, graph)
    original = graph.upper
    for edits in range(1, cap + 2):
        for positions in itertools.combinations(range(m), edits):
            for choice in itertools.product((0, 1), repeat=edits):
                mutated = original.copy()
                for pos, pick in zip(positions, choice):
                    mutated[pos] = FOREIGN[pick][original[pos] + 1]
                est = _call_estimator(estimator, TernaryGraph(graph.n, mutated))
                if not np.array_equal(est, base):
                    return edits - 1
    return cap


@dataclass
class StabilityRelease:
    """Outcome of a gated release.

    When released is False the labels field holds the uniform random
    stand-in the caller should use, not an estimate.
    """

    labels: np.ndarray
    released: bool
    noisy_distance: float


def _bar(budget):
    """log(1/delta)/epsilon, the noisy distance a release must clear; needs delta > 0."""
    if budget.delta <= 0.0:
        raise ValueError(f"delta={budget.delta}: the release gate's bar needs delta > 0")
    return math.log(1.0 / budget.delta) / budget.epsilon


def _gate(distance, bar, budget, rng, n, labels):
    """Publish labels() iff distance + Lap(1/epsilon) clears bar; the thunk runs only then."""
    noisy = distance + laplace(rng, 1.0 / budget.epsilon)
    if noisy > bar:
        return StabilityRelease(labels(), True, noisy)
    return StabilityRelease(random_labels(n, rng), False, noisy)


def stability_release(graph, budget, estimator, seed, cap=None):
    """Release the estimate iff the noisy instability distance clears the bar.

    Needs delta > 0 (the bar is log(1/delta)/epsilon). The distance is the
    exact enumeration above, so this form is for small n; see
    subsample_stability_release for the scalable variant.
    """
    bar = _bar(budget)
    d = distance_to_instability(graph, estimator, cap)
    rng = stream(seed, RELEASE)
    return _gate(d, bar, budget, rng, graph.n, lambda: _call_estimator(estimator, graph))


def subsample_stability_release(graph, budget, estimator, seed, max_subgraphs=None):
    """Stability gate with the distance estimated from edge subsamples.

    Draws ceil(log(n/delta)/q^2) subgraphs, each keeping every pair
    independently with probability q = epsilon/(32 log n), estimates labels
    on each, and converts the top-two vote gap into a distance surrogate
    (gap/(4 m q) - 1). max_subgraphs truncates that count for desk-scale
    runs; doing so voids the privacy guarantee and warns accordingly.
    """
    bar = _bar(budget)
    n = graph.n
    q = budget.epsilon / (32.0 * math.log(n))
    if q >= 1.0:
        raise ValueError(
            f"subsample rate q={q:.3f} >= 1; epsilon too large for n={n}"
        )
    count = math.ceil(math.log(n / budget.delta) / (q * q))
    if max_subgraphs is not None and count > max_subgraphs:
        warnings.warn(
            f"subsample count truncated {count} -> {max_subgraphs}: the release "
            f"is NOT ({budget.epsilon}, {budget.delta})-private",
            RuntimeWarning,
        )
        count = max_subgraphs
    rng = stream(seed, SUBSAMPLE)
    tally: dict[bytes, int] = {}
    pairs = n_pairs(n)
    for _ in range(count):
        mask = rng.random(pairs) < q
        sub = TernaryGraph(n, np.where(mask, graph.upper, 0).astype(np.int8))
        key = _call_estimator(estimator, sub).tobytes()
        tally[key] = tally.get(key, 0) + 1
    # most frequent labeling first; ties to the lexicographically smallest
    # byte key, where +1 (0x01) sorts before -1 (0xff)
    ordered = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    top_key, top_count = ordered[0]
    runner_up = ordered[1][1] if len(ordered) > 1 else 0
    d_hat = (top_count - runner_up) / (4.0 * count * q) - 1.0
    return _gate(
        d_hat, bar, budget, rng, n, lambda: np.frombuffer(top_key, dtype=np.int8).copy()
    )


def release_assuming_stable(graph, budget, estimator, seed, assumed_distance=None):
    """Laplace release gate with an ASSUMED instability distance.

    NOT a privacy mechanism: the distance is a configured constant, never
    computed from the graph, and the estimator runs on the raw graph. This
    exists so simulation studies can exercise the gate, the BOTTOM path,
    and the downstream detector at sizes where the exact distance is
    intractable. Default assumed distance sits 4/epsilon above the release
    bar (release probability about 0.99).
    """
    bar = _bar(budget)
    warnings.warn(
        "assumed-stability release is not differentially private",
        RuntimeWarning,
    )
    d = assumed_distance if assumed_distance is not None else bar + 4.0 / budget.epsilon
    rng = stream(seed, RELEASE)
    return _gate(d, bar, budget, rng, graph.n, lambda: _call_estimator(estimator, graph))
