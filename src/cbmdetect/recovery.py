"""Community estimation from one or more ternary graphs.

Three estimators share the objective sigma^T M sigma with M the sum of the
input adjacencies: a low-rank factored ascent for the semidefinite
relaxation, a spectral method that takes the signs of M's top eigenvector
(Lanczos with full reorthogonalization, so its status reports whether the
eigenvector met a residual bound), and exhaustive search for small n. All
return canonical labels (first entry +1).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import SOLVER, generator
from .model import TernaryGraph, canonical, random_labels


@dataclass(frozen=True)
class SdpConfig:
    """Settings for the factored semidefinite ascent."""

    rank: int | None = None  # None picks ceil(sqrt(2 n))
    max_iters: int = 300
    grad_tol: float = 1e-7
    step_rule: str = "backtracking"  # or "fixed"
    step_size: float = 0.5  # fixed-rule step, in units of 1/lipschitz
    restarts: int = 3
    polish: bool = True

    def __post_init__(self):
        if self.rank is not None and self.rank < 2:
            raise ValueError("rank must be >= 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.step_rule not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step_rule {self.step_rule!r}")
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class RecoveryResult:
    labels: np.ndarray
    objective: float
    status: str  # converged | max_iters | degenerate


def stack_dense(graphs):
    """(n, M) with M the float64 sum of the given graphs' adjacencies."""
    if isinstance(graphs, TernaryGraph):
        graphs = [graphs]
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    m = np.zeros((n, n))
    for g in graphs:
        if g.n != n:
            raise ValueError("graphs must share n")
        m += g.dense()
    return n, m


def _row_normalize(v):
    norms = np.sqrt(np.sum(v * v, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return v / norms


def _objective(m, v):
    return float(np.sum((m @ v) * v))


def _ascend(m, v, cfg):
    """Projected gradient ascent of tr(V^T M V) over unit rows of V."""
    lip = max(1.0, float(np.abs(m).sum(axis=1).max()))
    fv = _objective(m, v)
    for _ in range(cfg.max_iters):
        grad = 2.0 * (m @ v)
        tangent = grad - np.sum(grad * v, axis=1, keepdims=True) * v
        gnorm2 = float(np.sum(tangent * tangent))
        if math.sqrt(gnorm2) <= cfg.grad_tol * (1.0 + abs(fv)):
            return v, True
        if cfg.step_rule == "fixed":
            v = _row_normalize(v + (cfg.step_size / lip) * tangent)
            fv = _objective(m, v)
            continue
        step = 1.0 / lip
        accepted = False
        for _ in range(40):
            cand = _row_normalize(v + step * tangent)
            fc = _objective(m, cand)
            if fc >= fv + 1e-4 * step * gnorm2:
                v, fv = cand, fc
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no usable ascent direction left at float precision
            return v, True
    return v, False


RITZ_TOL = 1e-10  # Ritz residual bound, relative to max(1, |theta|)
RITZ_EVERY = 5  # Lanczos steps between Ritz-pair checks


def _top_eigenvector(m, start):
    """(x, converged): unit eigenvector for the largest eigenvalue of symmetric m.

    Lanczos on m itself, started from `start`, with every new basis vector
    orthogonalized twice against all earlier ones (full reorthogonalization,
    Saad, Numerical Methods for Large Eigenvalue Problems, ch. 6). Every few
    steps the top Ritz pair of the k x k tridiagonal is formed; it is returned
    once its residual ||m x - theta x|| = beta_k |s_k| is at most
    RITZ_TOL * max(1, |theta|), or when the Krylov space is exhausted
    (k = n). `converged` says whether the residual bound held; the work is
    at most n matrix-vector products.
    """
    n = len(start)
    basis = np.empty((n, n))
    alpha = np.empty(n)
    beta = np.empty(n)
    q = start / np.linalg.norm(start)
    for k in range(n):
        basis[k] = q
        w = m @ q
        alpha[k] = q @ w
        w -= alpha[k] * q
        if k:
            w -= beta[k - 1] * basis[k - 1]
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        # beta_k <= RITZ_TOL meets the residual bound whatever s_k is, so
        # the Krylov space closing early always ends here
        last = k + 1 == n
        if last or beta[k] <= RITZ_TOL or (k + 1) % RITZ_EVERY == 0:
            t = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, s = np.linalg.eigh(t)
            converged = beta[k] * abs(s[-1, -1]) <= RITZ_TOL * max(1.0, abs(theta[-1]))
            if converged or last:
                return basis[: k + 1].T @ s[:, -1], bool(converged)
        q = w / beta[k]


def _signs(x):
    """Entrywise sign with zeros resolved to +1."""
    return np.where(x < 0.0, -1, 1).astype(np.int8)


def _polish(m, labels):
    """Greedy single-flip ascent on sigma^T M sigma; deterministic.

    Flipping node k changes the objective by -4 s_k (M s)_k (zero diagonal),
    so repeatedly flip the best strictly-improving node, first index on ties.
    """
    s = labels.astype(np.float64)
    h = m @ s
    for _ in range(100 * len(s)):
        gains = -4.0 * s * h
        k = int(np.argmax(gains))
        if gains[k] <= 1e-9:
            break
        s[k] = -s[k]
        h += 2.0 * s[k] * m[:, k]
    return s.astype(np.int8)


def sdp_estimate(graphs, cfg=None, seed=0):
    """Factored ascent for max tr(M Y), Y PSD with unit diagonal.

    V has unit rows and rank ceil(sqrt(2n)) by default; each restart ascends
    from a random V, rounds by the sign of the top left singular vector of V
    (the top eigenvector of V V^T), and (by default) polishes with single
    flips. Best rounded objective wins, earliest restart on ties.
    """
    cfg = cfg or SdpConfig()
    n, m = stack_dense(graphs)
    if not m.any():
        labels = random_labels(n, generator(seed, SOLVER, 0))
        return RecoveryResult(canonical(labels), 0.0, "degenerate")
    rank = cfg.rank if cfg.rank is not None else math.ceil(math.sqrt(2 * n))
    rank = min(max(rank, 2), n)
    best = None
    for k in range(cfg.restarts):
        rng = generator(seed, SOLVER, k)
        v = _row_normalize(rng.standard_normal((n, rank)))
        v, converged = _ascend(m, v, cfg)
        labels = _signs(np.linalg.svd(v, full_matrices=False)[0][:, 0])
        if cfg.polish:
            labels = _polish(m, labels)
        obj = float(labels @ m @ labels)
        if best is None or obj > best[0]:
            best = (obj, labels, converged)
    obj, labels, converged = best
    return RecoveryResult(canonical(labels), obj, "converged" if converged else "max_iters")


def spectral_estimate(graphs, seed=0):
    """Signs of the eigenvector for the largest eigenvalue of M.

    The eigenvector comes from Lanczos on M from a seeded Gaussian start;
    status is "converged" when its Ritz residual met the bound, "max_iters"
    when n steps did not meet it. A zero M is flagged degenerate and yields
    random labels.
    """
    n, m = stack_dense(graphs)
    rng = generator(seed, SOLVER, 0)
    if not m.any():
        return RecoveryResult(canonical(random_labels(n, rng)), 0.0, "degenerate")
    x, converged = _top_eigenvector(m, rng.standard_normal(n))
    labels = _signs(x)
    obj = float(labels @ m @ labels)
    return RecoveryResult(canonical(labels), obj, "converged" if converged else "max_iters")


def ml_exhaustive(graph):
    """Globally optimal labeling by enumerating all 2^(n-1) classes (n <= 16).

    Ties go to the first optimum in the enumeration, which lists labelings
    in lexicographic order with +1 sorting before -1.
    """
    n = graph.n
    if n > 16:
        raise ValueError(f"exhaustive search capped at n=16, got n={n}")
    m = graph.dense()
    count = 1 << (n - 1)
    shifts = np.arange(n - 2, -1, -1)
    bits = (np.arange(count)[:, None] >> shifts[None, :]) & 1
    labs = np.empty((count, n))
    labs[:, 0] = 1.0
    labs[:, 1:] = 1.0 - 2.0 * bits
    obj = np.einsum("ki,ij,kj->k", labs, m, labs)
    best = int(np.argmax(obj))
    return RecoveryResult(labs[best].astype(np.int8), float(obj[best]), "converged")
