"""Community estimation from one or more ternary graphs.

Three estimators share the objective sigma^T M sigma, M the sum of the input
adjacencies: a factored ascent for the semidefinite relaxation stopped by a
duality-gap certificate (seeded restarts run in turn until one is
certified), the signs of M's top eigenvector, and exhaustive search for
small n. The eigenvector comes from one dense `eigh` call up to
n = EIGH_MAX_N, where that is faster, and from Lanczos above it. Each status
says whether its solver met its bound. All return canonical labels (first
entry +1). The solvers' settings are the module constants GAP_TOL,
MAX_ITERS, RESTARTS, EIGH_MAX_N and RITZ_TOL.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import SOLVER, generator
from .model import TernaryGraph, canonical, random_labels


@dataclass
class RecoveryResult:
    labels: np.ndarray
    objective: float
    status: str  # converged | max_iters | degenerate
    # solver steps: SDP ascent steps summed over the restarts run, or Lanczos; 0 for eigh and ML
    iterations: int = 0


def stack_dense(graphs):
    """(n, M), M the float64 sum of the adjacencies; one graph's is its read-only dense()."""
    graphs = [graphs] if isinstance(graphs, TernaryGraph) else list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("graphs must share n")
    m = graphs[0].dense()
    if len(graphs) > 1:
        m = m.copy()
        for g in graphs[1:]:
            m += g.dense()
    return n, m


GAP_EVERY = 10  # ascent steps between duality-gap checks
GAP_TOL = 1e-4  # certified duality gap, relative to 1 + |objective|
MAX_ITERS = 300  # ascent steps per restart before giving up uncertified
RESTARTS = 3  # seeded restarts, run in turn until one is certified


def _power_step(v, mv, y, lam_min):
    """V <- rownormalize((M + s I) V); rows with a zero image stay.

    tr(V^T M V) rises by <M D, D> + sum_i (s + |a_i|) |D_i|^2 (D = V' - V, a_i
    rows of (M + s I) V): >= 0 for s = -lam_min (Journee, Nesterov, Richtarik &
    Sepulchre, JMLR 2010) and, as |a_i| >= y_i + s, for 2 s >= -lam_min - min y.
    s is the smaller of the two, at least 0.
    """
    w = mv + min(max((-lam_min - y.min()) / 2.0, 0.0), -lam_min) * v
    norms = np.sqrt(np.einsum("ir,ir->i", w, w))[:, None]
    return np.divide(w, norms, out=v.copy(), where=norms > 0.0)


def _ascend(m, v, lam_min):
    """(V, certified, steps): shifted power ascent of the n x rank block V.

    With y_i = <(M V)_i, v_i> it stops once n lambda_max(M - Diag(y))+ <=
    GAP_TOL (1 + |sum y|), the weak-duality bound on its distance from the
    SDP optimum. This O(n^3) check runs every GAP_EVERY steps once the
    Riemannian gradient meets the same bar; each failure doubles the wait
    before the next one. lam_min is M's smallest eigenvalue.
    """
    n = len(v)
    due, wait = 0, GAP_EVERY
    for it in range(MAX_ITERS + 1):
        mv = m @ v
        y = np.einsum("ir,ir->i", mv, v)
        if it % GAP_EVERY == 0 and it >= due:
            bar = GAP_TOL * (1.0 + abs(y.sum()))
            if 2.0 * np.linalg.norm(mv - y[:, None] * v) <= bar:
                if n * max(0.0, np.linalg.eigvalsh(m - np.diag(y))[-1]) <= bar:
                    return v, True, it
                wait *= 2
                due = it + wait
        if it == MAX_ITERS:
            return v, False, it
        v = _power_step(v, mv, y, lam_min)


EIGH_MAX_N = 128  # largest n whose top eigenvector comes from one eigh call
RITZ_TOL = 1e-10  # Ritz residual bound, relative to max(1, |theta|)
RITZ_EVERY = 5  # Lanczos steps between Ritz-pair checks


def _top_eigenvector(m, start):
    """(x, converged, steps): unit top eigenvector of symmetric m by Lanczos.

    Lanczos on m itself from `start`, each new basis vector orthogonalized
    twice against all earlier ones (full reorthogonalization; Saad, Numerical
    Methods for Large Eigenvalue Problems, ch. 6). Every RITZ_EVERY steps the
    top Ritz pair of the tridiagonal is formed and returned once its residual
    beta_k |s_k| is at most RITZ_TOL * max(1, |theta|), or when k = n.
    `converged` says whether the bound held; steps (matvecs) is at most n.
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
                return basis[: k + 1].T @ s[:, -1], bool(converged), k + 1
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


def sdp_estimate(graphs, seed=0):
    """Factored ascent for max tr(M Y), Y PSD with unit diagonal.

    Restart k ascends an n x rank block V (rank ceil(sqrt(2n)), at most n;
    Boumal, Voroninski & Bandeira, arXiv:1606.04970) from generator(seed,
    SOLVER, k). Restarts run in seed order and stop at the first certified
    one, whose certificate already bounds its gap to the SDP optimum. Each
    rounds by the sign of its top left singular vector and polishes with
    single flips; among the restarts that ran the best objective wins,
    earliest on ties, "converged" if it was certified. `iterations` sums the
    ascent steps of the restarts that ran.
    """
    n, m = stack_dense(graphs)
    if not m.any():
        labels = random_labels(n, generator(seed, SOLVER, 0))
        return RecoveryResult(canonical(labels), 0.0, "degenerate")
    rank = min(max(math.ceil(math.sqrt(2 * n)), 2), n)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    best, steps = None, 0
    for k in range(RESTARTS):
        v = generator(seed, SOLVER, k).standard_normal((n, rank))
        v, certified, it = _ascend(m, v / np.linalg.norm(v, axis=1, keepdims=True), lam_min)
        steps += it
        labels = _polish(m, _signs(np.linalg.svd(v, full_matrices=False)[0][:, 0]))
        obj = float(labels @ m @ labels)
        if best is None or obj > best[0]:  # first maximum
            best = (obj, labels, certified)
        if certified:
            break
    obj, labels, certified = best
    return RecoveryResult(canonical(labels), obj, "converged" if certified else "max_iters", steps)


def spectral_estimate(graphs, seed=0):
    """Signs of the eigenvector for the largest eigenvalue of M.

    Up to n = EIGH_MAX_N the eigenvector is the last column of one
    `np.linalg.eigh(M)` call: status "converged" (LAPACK raises if it
    fails), 0 iterations, and no random draw. Above it, Lanczos runs on M
    from a seeded Gaussian start; status is "converged" when its Ritz
    residual met the bound, "max_iters" when n steps did not meet it. A zero
    M is flagged degenerate and yields random labels.
    """
    n, m = stack_dense(graphs)
    if not m.any():
        labels = random_labels(n, generator(seed, SOLVER, 0))
        return RecoveryResult(canonical(labels), 0.0, "degenerate")
    if n <= EIGH_MAX_N:
        x, converged, steps = np.linalg.eigh(m)[1][:, -1], True, 0
    else:
        start = generator(seed, SOLVER, 0).standard_normal(n)
        x, converged, steps = _top_eigenvector(m, start)
    labels = _signs(x)
    obj = float(labels @ m @ labels)
    return RecoveryResult(canonical(labels), obj, "converged" if converged else "max_iters", steps)


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
