"""Likelihood algebra for ternary community graphs.

All quantities use the full quadratic form sigma^T A sigma (both triangles),
which is what makes the log-density sum to one over graph space and keeps
the log-ratio equal to a difference of log-likelihoods.
"""

import math
from dataclasses import dataclass

from .model import hamming, n_pairs, quad_form, validate_labels

ZETA_CLAMP = 1e-6


def flip_gap(zeta):
    """log((1 - zeta)/zeta): evidence carried by one revealed pair's sign."""
    if not 0.0 < zeta < 0.5:
        raise ValueError(f"zeta={zeta} outside (0, 0.5)")
    return math.log((1.0 - zeta) / zeta)


def log_likelihood(graph, labels, p, zeta):
    """Exact log-probability of the graph under (labels, p, zeta)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} is singular here; need 0 < p < 1")
    if not 0.0 < zeta < 0.5:
        raise ValueError(f"zeta={zeta} is singular here; need 0 < zeta < 0.5")
    labels = validate_labels(labels, graph.n)
    m = n_pairs(graph.n)
    et = graph.edge_count
    q = quad_form(graph, labels)
    edge_term = math.log(p / (1.0 - p) * math.sqrt(zeta * (1.0 - zeta)))
    return 0.25 * flip_gap(zeta) * q + m * math.log1p(-p) + et * edge_term


def log_likelihood_ratio(graph, labels_num, labels_den, p, zeta):
    """log p(graph; labels_num) - log p(graph; labels_den).

    The reveal terms cancel, leaving (1/4) log((1-zeta)/zeta) times the
    difference of quadratic forms; p need only lie in [0, 1], so a
    full-reveal law (p = 1) scores like any other.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    q_num = quad_form(graph, validate_labels(labels_num, graph.n))
    q_den = quad_form(graph, validate_labels(labels_den, graph.n))
    return 0.25 * flip_gap(zeta) * (q_num - q_den)


def disagreeing_pairs(labels_a, labels_b):
    """Pairs i < j whose label product differs: exactly one end among the h disagreeing nodes."""
    h = hamming(labels_a, labels_b)
    return h * (len(labels_a) - h)


def kl_divergence(labels_a, labels_b, p, zeta):
    """KL divergence between the graph laws of two labelings at (p, zeta).

    Equals log((1-zeta)/zeta) * p * (1-2 zeta) * (#pairs whose label product
    differs), and is symmetric in its label arguments. Finite on all of
    0 <= p <= 1; zeta must lie in (0, 1/2).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return flip_gap(zeta) * p * (1.0 - 2.0 * zeta) * disagreeing_pairs(labels_a, labels_b)


@dataclass(frozen=True)
class MleParams:
    p_hat: float
    zeta_hat: float
    degenerate: bool


def mle_params(graph, labels):
    """Closed-form ML fit of (p, zeta) given labels: mle_params_pooled on one graph."""
    return mle_params_pooled([graph], labels)


def mle_params_pooled(graphs, labels):
    """Closed-form ML fit of (p, zeta) from graphs sharing one labeling.

    p_hat is the revealed fraction; zeta_hat = 1/2 - sum sigma^T A sigma /
    (4 * edge count), clamped into [1e-6, 1/2 - 1e-6]. Graphs with no
    revealed pair cannot identify zeta: returns (0, 1/4) flagged degenerate.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    labels = validate_labels(labels, graphs[0].n)
    et = sum(g.edge_count for g in graphs)
    if et == 0:
        return MleParams(0.0, 0.25, True)
    q = sum(quad_form(g, labels) for g in graphs)
    z = 0.5 - q / (4.0 * et)
    z = min(max(z, ZETA_CLAMP), 0.5 - ZETA_CLAMP)
    return MleParams(et / (n_pairs(graphs[0].n) * len(graphs)), z, False)
