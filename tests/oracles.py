"""Ground-truth helpers computed the slow, obvious way.

Everything here deliberately avoids the library's closed forms: edge
probabilities come from the three-case definition, graph probabilities from
products over pairs, divergences and optima from full enumeration. Tests
compare the fast implementations against these.
"""

import itertools
import math

import numpy as np

from cbmdetect._rng import PERTURB, SAMPLE, SOLVER, generator, stream
from cbmdetect.ldp import EPS_IDENTITY
from cbmdetect.model import FOREIGN, TernaryGraph, canonical, n_pairs, pair_indices
from cbmdetect.recovery import SHIFT, _ascend, _polish, _signs


def edge_pmf(w, prod, p, zeta):
    """P(edge symbol = w) for a pair with label product prod, by cases."""
    if w == prod:
        return p * (1.0 - zeta)
    if w == -prod:
        return p * zeta
    return 1.0 - p


def graph_log_pmf(graph, labels, p, zeta):
    """Log-probability as a plain sum of per-pair log pmfs."""
    labels = np.asarray(labels)
    i_idx, j_idx = pair_indices(graph.n)
    total = 0.0
    for i, j, w in zip(i_idx, j_idx, graph.upper):
        total += math.log(edge_pmf(int(w), int(labels[i] * labels[j]), p, zeta))
    return total


def sample_by_pairs(params, labels, seed):
    """sample_cbm rebuilt pair by pair from the same uniform draws.

    Pair k in pair_indices order takes draw u_k of random(): u_k < p(1 - zeta)
    shows the label product, p(1 - zeta) <= u_k < p the opposite sign, u_k >=
    p a 0. seed is an int or a Generator, as sample_cbm reads it.
    """
    u = stream(seed, SAMPLE).random(n_pairs(params.n))
    keep = params.p * (1.0 - params.zeta)
    out = np.zeros(n_pairs(params.n), dtype=np.int8)
    for k, (i, j) in enumerate(zip(*pair_indices(params.n))):
        prod = int(labels[i]) * int(labels[j])
        if u[k] < keep:
            out[k] = prod
        elif u[k] < params.p:
            out[k] = -prod
    return TernaryGraph(params.n, out)


def perturb_by_pairs(graph, epsilon, seed):
    """perturb_graph rebuilt pair by pair from the same uniform draws.

    Symbol x with draw u stays when u < keep = e^eps / (e^eps + 2), becomes
    FOREIGN[0][x + 1] when u < keep + switch, switch = 1 / (e^eps + 2), and
    FOREIGN[1][x + 1] otherwise. Beyond EPS_IDENTITY nothing is drawn.
    """
    if epsilon > EPS_IDENTITY:
        return TernaryGraph(graph.n, graph.upper.copy())
    w = math.exp(epsilon)
    keep, switch = w / (w + 2.0), 1.0 / (w + 2.0)
    u = generator(seed, PERTURB).random(n_pairs(graph.n))
    out = np.empty(n_pairs(graph.n), dtype=np.int8)
    for k, x in enumerate(graph.upper):
        if u[k] < keep:
            out[k] = x
        elif u[k] < keep + switch:
            out[k] = FOREIGN[0][x + 1]
        else:
            out[k] = FOREIGN[1][x + 1]
    return TernaryGraph(graph.n, out)


def dense_by_pairs(graph):
    """The symmetric float64 adjacency, one pair at a time."""
    a = np.zeros((graph.n, graph.n))
    for (i, j), w in zip(zip(*pair_indices(graph.n)), graph.upper):
        a[i, j] = a[j, i] = w
    return a


def quad_form_by_pairs(graph, labels):
    """sigma^T A sigma as twice the sum over pairs of w_ij sigma_i sigma_j."""
    i_idx, j_idx = pair_indices(graph.n)
    total = 0
    for i, j, w in zip(i_idx, j_idx, graph.upper):
        total += 2 * int(w) * int(labels[i]) * int(labels[j])
    return total


def all_graphs(n):
    """Every ternary graph on n nodes, all 3^(n choose 2) of them."""
    for combo in itertools.product((-1, 0, 1), repeat=n_pairs(n)):
        yield TernaryGraph(n, np.array(combo, dtype=np.int8))


def all_canonical_labelings(n):
    """The 2^(n-1) labelings with first entry +1, +1 sorting before -1."""
    for rest in itertools.product((1, -1), repeat=n - 1):
        yield np.array((1,) + rest, dtype=np.int8)


def brute_kl(labels_a, labels_b, p, zeta):
    """KL divergence by summing P log(P/Q) over the whole graph space."""
    n = len(labels_a)
    total = 0.0
    for g in all_graphs(n):
        lp = graph_log_pmf(g, labels_a, p, zeta)
        lq = graph_log_pmf(g, labels_b, p, zeta)
        total += math.exp(lp) * (lp - lq)
    return total


def brute_best_labels(graph):
    """First canonical labeling maximizing the quadratic form."""
    dense = graph.dense()
    best_obj = -math.inf
    best = None
    for labs in all_canonical_labelings(graph.n):
        obj = float(labs @ dense @ labs)
        if obj > best_obj:
            best_obj = obj
            best = labs
    return best, best_obj


def rr_edge_marginals(p, zeta, epsilon):
    """(p~, zeta~) by composing the CBM edge law with the response channel.

    The channel keeps a symbol with probability e^eps/(e^eps + 2) and emits
    each of the other two symbols with probability 1/(e^eps + 2). Symbols
    are tracked relative to the label product: agree, disagree, zero.
    """
    keep = math.exp(epsilon) / (math.exp(epsilon) + 2.0)
    switch = 1.0 / (math.exp(epsilon) + 2.0)
    source = {"agree": p * (1.0 - zeta), "disagree": p * zeta, "zero": 1.0 - p}
    out = {"agree": 0.0, "disagree": 0.0, "zero": 0.0}
    for sym, mass in source.items():
        for target in out:
            out[target] += mass * (keep if target == sym else switch)
    p_t = out["agree"] + out["disagree"]
    return p_t, out["disagree"] / p_t


def instability_distances(n, estimator, cap):
    """Exact gated-release distances for every graph on n nodes at once.

    Estimates all 3^(n choose 2) graphs, then for each graph takes the
    minimum pair-Hamming distance to any graph with a different canonical
    estimate, minus one, truncated at cap. This is the definition the
    incremental enumeration in the library must reproduce.
    """
    graphs = list(all_graphs(n))
    uppers = np.stack([g.upper for g in graphs]).astype(np.int16)
    codes = []
    seen = {}
    for g in graphs:
        out = estimator(g)
        key = getattr(out, "labels", out).tobytes()
        codes.append(seen.setdefault(key, len(seen)))
    codes = np.array(codes)
    out = np.empty(len(graphs), dtype=np.int64)
    for idx in range(len(graphs)):
        other = codes != codes[idx]
        if not other.any():
            out[idx] = cap
            continue
        diff = np.count_nonzero(uppers != uppers[idx], axis=1)
        dmin = int(diff[other].min())
        out[idx] = min(dmin - 1, cap)
    return graphs, out


def ascent_shift(m):
    """sdp_estimate's shift: SHIFT times the semicircle's edge 2 ||M||_F / sqrt(n)."""
    return SHIFT * 2.0 * math.sqrt(np.vdot(m, m) / len(m))


def sdp_start(m, seed, k=0):
    """sdp_estimate's rule on M from generator(seed, SOLVER, k)'s block, drawn afresh.

    Returns (objective, canonical labels, certified, steps).
    """
    n = len(m)
    rank = min(max(math.ceil(math.sqrt(2 * n)), 2), n)
    v = generator(seed, SOLVER, k).standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v, certified, steps, _, _ = _ascend(m, v, ascent_shift(m))
    labels = _polish(m, _signs(np.linalg.svd(v, full_matrices=False)[0][:, 0]))
    return float(labels @ m @ labels), canonical(labels), certified, steps


def eigvalsh_certifies(m, dual, f, bar):
    """The SDP gap test with lambda_max taken from eigvalsh.

    The weak-duality bound sum(dual) + n lambda_max(M - Diag(dual))+ - f <=
    bar with the computed top eigenvalue trusted as it is, no allowance for
    its rounding: the reference that recovery._certifies must decide alike
    wherever lambda_max is not within rounding of the bar.
    """
    return dual.sum() + len(m) * max(0.0, np.linalg.eigvalsh(m - np.diag(dual))[-1]) - f <= bar
