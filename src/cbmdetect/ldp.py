"""Edge-local privacy: ternary randomized response on revealed pairs.

Each unordered pair's symbol is reported truthfully with probability
e^eps / (e^eps + 2) and as each of the other two symbols with probability
1 / (e^eps + 2). Any two symbol values have likelihood ratio at most e^eps,
which is the edge-LDP guarantee.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import PERTURB, stream
from .model import FOREIGN, TernaryGraph, n_pairs

# beyond this exp(eps) overflows float64; the mechanism is numerically the
# identity long before that point
EPS_IDENTITY = 700.0

# output symbol at code * 3 + x + 1: code 0 keeps x, codes 1 and 2 emit the
# first and second foreign symbol
_RESPONSE = np.concatenate([np.array([-1, 0, 1], dtype=np.int8), *FOREIGN])


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) pair; delta 0 means pure DP."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0 or math.isnan(self.epsilon):
            raise ValueError(f"epsilon={self.epsilon} must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta={self.delta} outside [0, 1)")


@dataclass(frozen=True)
class RrProbabilities:
    """Keep/switch probabilities of the ternary randomized response."""

    keep: float
    switch: float

    def __post_init__(self):
        if not 0.0 <= self.switch <= self.keep <= 1.0:
            raise ValueError("need 0 <= switch <= keep <= 1")
        if abs(self.keep + 2.0 * self.switch - 1.0) > 1e-12:
            raise ValueError("keep + 2*switch must equal 1")

    @classmethod
    def from_epsilon(cls, epsilon):
        if not epsilon > 0:
            raise ValueError(f"epsilon={epsilon} must be positive")
        if epsilon > EPS_IDENTITY:
            return cls(keep=1.0, switch=0.0)
        w = math.exp(epsilon)
        return cls(keep=w / (w + 2.0), switch=1.0 / (w + 2.0))


def perturb_graph(graph, epsilon, seed):
    """Apply ternary randomized response to every pair of the graph.

    seed, an int or a Generator, is read as stream(seed, PERTURB).
    """
    probs = RrProbabilities.from_epsilon(epsilon)
    if probs.switch == 0.0:
        return TernaryGraph(graph.n, graph.upper.copy())
    rng = stream(seed, PERTURB)
    u = rng.random(n_pairs(graph.n))
    code = (u >= probs.keep).view(np.int8) + (u >= probs.keep + probs.switch).view(np.int8)
    return TernaryGraph(graph.n, _RESPONSE[code * 3 + graph.upper + 1])


def perturbed_params(p, zeta, epsilon):
    """(p~, zeta~): the censored-block law the perturbed graph follows.

    Randomized response maps CBM(sigma, p, zeta) to CBM(sigma, p~, zeta~)
    exactly, with p~ = (2 + p(e^eps - 1))/(e^eps + 2) and
    zeta~ = (1 + p zeta (e^eps - 1))/(2 + p(e^eps - 1)).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if not 0.0 < zeta < 0.5:
        raise ValueError(f"zeta={zeta} outside (0, 0.5)")
    if not epsilon > 0:
        raise ValueError(f"epsilon={epsilon} must be positive")
    if epsilon > EPS_IDENTITY:
        return p, zeta
    e1 = math.expm1(epsilon)
    p_t = (2.0 + p * e1) / (e1 + 3.0)
    z_t = (1.0 + p * zeta * e1) / (2.0 + p * e1)
    return p_t, z_t


def ldp_threshold_rhs(epsilon, n):
    """Exact-recovery threshold the signal a(sqrt(1-z)-sqrt(z))^2 must beat.

    Equals coth(eps/2) * sqrt(n)/(sqrt(n)-1); the coth form stays stable for
    arbitrarily large eps.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon={epsilon} must be positive")
    if n < 2:
        raise ValueError("n must be >= 2")
    rn = math.sqrt(n)
    return (rn / (rn - 1.0)) / math.tanh(epsilon / 2.0)


def ldp_recovery_margin(a, zeta, epsilon, n):
    """(signal - threshold, precondition_ok) for one-shot exact recovery.

    Positive margin predicts exact recovery from a single perturbed graph at
    p = a log(n)/n. The precondition flag reports whether a clears
    2(n^{3/2} - n)/((n-1) log n); the margin itself is evaluated for any
    epsilon > 0, and callers decide what to make of the small-eps regime.
    """
    if not 0.0 < zeta < 0.5:
        raise ValueError(f"zeta={zeta} outside (0, 0.5)")
    signal = a * (math.sqrt(1.0 - zeta) - math.sqrt(zeta)) ** 2
    rhs = ldp_threshold_rhs(epsilon, n)
    precondition_ok = a > 2.0 * (n**1.5 - n) / ((n - 1.0) * math.log(n))
    return signal - rhs, precondition_ok
