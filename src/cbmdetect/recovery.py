"""Community estimation from one or more ternary graphs.

Three estimators share the objective sigma^T M sigma, M the sum of the input
adjacencies: a factored ascent for the semidefinite relaxation from one
seeded start, stopped by a duality-gap certificate, the signs of M's top
eigenvector, and exhaustive search for small n. The ascent runs no
eigensolver: its power steps multiply by M plus one shift per call, SHIFT
times the semicircle's edge 2 ||M||_F / sqrt(n), and from the first gap
check on add a heavy-ball term; neither bears on the certificate, only on
how soon it passes. Both proofs in the module
rest on one helper (_proves_psd): one Cholesky factorization, its diagonal
shifted to cover its rounding and the caller's (Rump), proves a matrix
positive semidefinite in exact arithmetic. The gap certificate is weak
duality at a dual extrapolated from the ascent's recent steps, which proves
the gap long before the ascent's own first-order dual can; the helper
proves the bound's lambda_max. Up to n = EIGH_MAX_N the eigenvector's
signs are proved: a Davis-Kahan bound turns a proved gap below a candidate
vector's Rayleigh quotient into its signs, and the helper proves the gap
from a rank-one deflation of M. The candidates are rows of a few squarings
of M^2; `eigh` decides where none is proved. Above EIGH_MAX_N the vector
comes from Lanczos, started from a seeded Gaussian or, given a `start` such
as a detector's running estimate, from it plus a hundredth of that
Gaussian. Lanczos runs in two phases: on an exact float32 copy of
M to the residual float32 can reach, then on M itself in float64 from that
vector to RITZ_TOL, so its status is a float64 bound. Its basis grows with
the steps taken; no call allocates a fresh n x n float64 array. The proofs
bound float64 rounding and refuse any other dtype. Seeded starts are drawn
once per (seed, purpose index, shape) and cached read-only, as a detector
passes one solver seed at every step. Each status says whether its solver
met its bound. All return canonical labels (first entry +1). The solvers'
settings are the module constants GAP_EVERY, GAP_TOL, MAX_ITERS, MOMENTUM,
SHIFT, EIGH_MAX_N, RITZ_TOL, RITZ_EVERY, RITZ_TOL32, F32_STEPS_DIVISOR,
LANCZOS_BLOCK, SIGN_TRIES and SIGN_GAP.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._rng import SOLVER, generator
from .model import TernaryGraph, canonical, random_labels


@dataclass
class RecoveryResult:
    labels: np.ndarray
    objective: float
    status: str  # converged | max_iters | degenerate
    # solver steps: SDP ascent steps (up to the check that certified it, or
    # MAX_ITERS), or Lanczos steps of both phases; 0 for the dense spectral
    # path and ML
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


def _objective(graphs):
    """(n, M, zero): stack_dense(graphs) and whether M is all zero.

    One graph answers from its int8 upper triangle, a sixteenth of the bytes
    of M; a window's M is read, as its +-1 entries can cancel.
    """
    graphs = [graphs] if isinstance(graphs, TernaryGraph) else list(graphs)
    n, m = stack_dense(graphs)
    return n, m, not (graphs[0].upper.any() if len(graphs) == 1 else m.any())


@functools.lru_cache(maxsize=16)
def _solver_start(seed, k, shape):
    """generator(seed, SOLVER, k)'s standard normal block of `shape`, rows scaled to unit length.

    Read-only and cached: every step of a trial passes the same solver
    seed, so each would otherwise draw the same block again.
    """
    v = generator(seed, SOLVER, k).standard_normal(shape)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v.flags.writeable = False
    return v


GAP_EVERY = 10  # ascent steps between duality-gap checks
MOMENTUM = 0.5  # heavy-ball weight of the ascent's steps from the first gap check on
GAP_TOL = 1e-4  # certified duality gap, relative to 1 + |objective|
MAX_ITERS = 300  # ascent steps before giving up uncertified
SHIFT = 0.10  # the ascent's shift, as a share of the semicircle edge 2 ||M||_F / sqrt(n)


def _rownormalize(w, v):
    """w divided in place to unit rows; with a zero row, a copy where that row takes v's."""
    norms = np.sqrt(np.vecdot(w, w))[:, None]
    if norms.all():
        w /= norms
        return w
    return np.divide(w, norms, out=v.copy(), where=norms > 0.0)


def _power_step(v, mv, y, prev=None):
    """V <- rownormalize(mv + MOMENTUM y o (V - prev)); rows with a zero image stay.

    mv = (M + s I) V for the caller's shift s, and y its row products y_i =
    <mv_i, v_i>, the rows' scales. With s >= -lambda_min(M) and no previous
    block it is the step of Journee, Nesterov, Richtarik & Sepulchre (JMLR
    2010), which cannot lower tr(V^T M V). Given a previous block, each row
    also moves on along its last step, weighted by its own scale: Polyak's
    heavy ball (USSR Comput. Math. Math. Phys. 4(5), 1964), as in Xu et
    al.'s accelerated power iteration (AISTATS 2018). The ascent passes a
    smaller s and the heavy ball, so its objective need not rise at every
    step; only the gap certificate stops it. mv is overwritten.
    """
    if prev is not None:
        mv += (MOMENTUM * y)[:, None] * (v - prev)
    return _rownormalize(mv, v)


def _extrapolate(xs):
    """Weights g, summing to 1, with g @ xs[:-1] the MPE limit of the rows of xs; or None.

    Minimal polynomial extrapolation (Sidi, Ford & Smith, SIAM J. Numer.
    Anal. 23(1), 1986): with u_j = xs[j + 1] - xs[j], c minimizes
    ||sum_j c_j u_j|| in least squares with its last entry fixed at 1, and
    g = c / sum c. Exact when xs[j] - x is a sum of at most len(xs) - 2
    geometric modes. None when the u_j are all zero or sum c is.
    """
    u = np.diff(xs, axis=0)
    if not u.any():
        return None
    c = np.append(np.linalg.lstsq(u[:-1].T, -u[-1], rcond=None)[0], 1.0)
    total = c.sum()
    return None if total == 0.0 else c / total


EPS = np.finfo(np.float64).eps
ETA = 2.0**-1074  # the smallest subnormal


def _float64_only(*arrays):
    """Raise ValueError unless every array is float64, the rounding EPS and ETA bound."""
    for a in arrays:
        if a.dtype != EPS.dtype:
            raise ValueError("the proofs bound float64 rounding; cast the input to float64")


def _proves_psd(b, err):
    """True only if every symmetric T with ||T - b||_2 <= err is proved PSD.

    b, overwritten, is a caller's rounded T, of which only the lower
    triangle and the diagonal are read; err bounds the distance of that
    symmetric matrix to T, rounding and any slack the caller adds. One
    Cholesky factorization decides. If it completes on the floating-point
    B = fl(b - s I), then B + E is positive semidefinite for some E with
    ||E||_2 <= gamma_{n+1} / (1 - gamma_{n+1}) tr B, gamma_k = k u / (1 - k
    u), u = eps / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 10); Rump (Verification of positive definiteness, BIT 46, 2006)
    shifts the diagonal by such a bound to make a completed factorization a
    proof. With t = sum_i |b_ii|, the shift

        s = 2 err + (n + 2) eps t + 8 (n + 1) (2 (n + 1) + t) eta,

    eta the smallest subnormal, is at least ||E|| + ||b - s I - B|| + err
    (the subtraction rounds each diagonal entry by at most u (|b_ii| + s)),
    so T = (B + E) + (s I - E + (b - s I - B) - (b - T)) is PSD. The eta
    term is Rump's allowance for underflow, doubled like err, with t for
    his max_i |b_ii|. A zero b never passes, nor does one with a NaN or an
    infinite entry. b must be float64 (ValueError otherwise).
    """
    _float64_only(b)
    n = len(b)
    t = np.abs(b.diagonal()).sum()
    b.flat[:: n + 1] -= 2.0 * err + (n + 2) * EPS * t + 8 * (n + 1) * (2 * (n + 1) + t) * ETA
    try:
        np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return False
    return True


def _certifies(m, dual, f, bar):
    """True only if sum(dual) + n lambda_max(M - Diag(dual))+ - f <= bar is proved.

    With mu = (bar + f - sum dual) / n that is mu >= 0 and Diag(mu + dual) -
    M PSD. With S = sum_i (|dual_i| + |M_ii|), the computed mu is within e =
    (n + 3) eps (|mu| + (|bar| + |f| + S) / n) of the exact one (the sum's
    rounding is at most (n - 1) u sum |dual|, each of three operations adds
    u), so a computed mu >= e proves the exact mu >= 0, and _proves_psd
    proves Diag(mu - e + dual) - M PSD from its rounded Diag(mu + dual) - M,
    whose two rounded additions on the diagonal are each within u of their
    sum: err = e + eps (|mu| + S). A mu that is not finite is no proof.
    m and dual must be float64 (ValueError otherwise).
    """
    _float64_only(m, dual)
    n = len(m)
    scale = np.abs(dual).sum() + np.abs(np.diagonal(m)).sum()
    mu = (bar + f - dual.sum()) / n
    if not math.isfinite(mu):
        return False
    e = (n + 3) * EPS * (abs(mu) + (abs(bar) + abs(f) + scale) / n)
    if not mu >= e:
        return False
    b = -m
    b.flat[:: n + 1] += mu + dual
    return _proves_psd(b, e + EPS * (abs(mu) + scale))


def _ascend(m, v, shift):
    """(V, certified, steps, y, f): power ascent of the n x rank block V on M + shift I.

    Every GAP_EVERY steps from step GAP_EVERY on, it tries to prove f = sum
    y, with y_i = <(M V)_i, v_i>, within GAP_TOL (1 + |f|) of the SDP
    optimum. For every dual y' and every feasible Y, tr(M Y) <= sum y' + n
    lambda_max(M - Diag(y'))+, so it stops once that bound is within the bar
    of f. y is accurate to first order only, so y' is the MPE extrapolation
    (_extrapolate) of y over the last GAP_EVERY + 1 steps, which is much
    closer to the optimal dual; it is tried once the Riemannian gradient
    meets the bar or an Aitken estimate of f's remaining rise is within it.
    The bound is proved, not computed: at most one Cholesky factorization
    (_certifies) runs per check, about a quarter of an eigvalsh, and it
    passes only if the bound holds in exact arithmetic for the computed y'
    and f. A certified block is the same extrapolation of V, rows
    renormalized, returned with y' and f; an uncertified one is the current
    block with the current y and f. The steps (_power_step) multiply by one
    shifted copy of M made per call, so the rows' history is kept as y +
    shift, their scales; shift comes off at a gap check and in the y
    returned. From step GAP_EVERY on the steps carry the heavy-ball term, so
    a block certified at the first check has taken plain shifted steps only.
    """
    n = len(m)
    ms = m.copy()
    ms.flat[:: n + 1] += shift
    ys, vs = deque(maxlen=GAP_EVERY + 1), deque(maxlen=GAP_EVERY + 1)
    for it in range(MAX_ITERS + 1):
        mv = ms @ v
        y = np.vecdot(mv, v)
        ys.append(y)
        vs.append(v)
        if it % GAP_EVERY == 0 and len(ys) == ys.maxlen:
            f = (y - shift).sum()
            bar = GAP_TOL * (1.0 + abs(f))
            rise, last = ys[-2].sum() - ys[-3].sum(), y.sum() - ys[-2].sum()
            # Aitken: a rise shrinking by last / rise per step has last^2 / (rise - last) to go
            aitken = last <= 0.0 or (last < rise and last * last <= bar * (rise - last))
            if aitken or 2.0 * np.linalg.norm(mv - y[:, None] * v) <= bar:
                xs = np.array(ys)
                g = _extrapolate(xs)
                if g is not None:
                    dual = g @ xs[:-1] - shift
                    if _certifies(m, dual, f, bar):
                        v = _rownormalize(sum(gj * vj for gj, vj in zip(g, vs)), v)
                        return v, True, it, dual, f
        if it == MAX_ITERS:
            y = y - shift
            return v, False, it, y, y.sum()
        v = _power_step(v, mv, y, vs[-2] if it >= GAP_EVERY else None)


EIGH_MAX_N = 128  # largest n whose top eigenvector is found densely; Lanczos above it
RITZ_TOL = 1e-10  # Lanczos's Ritz residual bound, relative to max(1, |theta|)
RITZ_EVERY = 5  # Lanczos steps between Ritz-pair checks
RITZ_TOL32 = 1e-6  # the float32 Lanczos phase's Ritz residual bound, relative as RITZ_TOL
F32_STEPS_DIVISOR = 4  # the float32 phase takes at most n // F32_STEPS_DIVISOR steps
LANCZOS_BLOCK = 32  # Lanczos basis rows allocated first; the basis doubles as it fills
SIGN_TRIES = (3, 5, 7)  # squarings of M^2 after which the sign proof is tried
SIGN_GAP = 0.05  # a try factors only if the gap it must prove is below this share of tau


def _sign_proof(m, x, norm_m):
    """mu if the signs of x are proved to be those of m's top eigenvector v, else None.

    m is symmetric with ||m||_F <= norm_m, x of unit length up to rounding,
    tau = x^T m x as computed. If tau > lambda_2, Davis & Kahan (SIAM J.
    Numer. Anal. 7(1), 1970) bound the angle between x and v: its sine is at
    most ||m x - tau x|| / ((tau - lambda_2) ||x||). Unit vectors at an
    angle below arcsin(|x_i| / ||x||) from x share the sign of their i-th
    entry with x (the nearest unit vector with a zero there is at that
    angle), so once

        ||m x - tau x|| < (tau - lambda_2) min_i |x_i|,

    x has v's signs up to a global flip, and no entry of v is zero. res
    bounds the exact residual of the stored x and tau: the computed norm
    padded by (n + 2) eps, plus (n + 2) eps (norm_m + |tau|) for the
    rounding of m x and tau x, about twice what either needs. The gap is
    proved, not computed: with mu = tau - 1.125 res / min |x_i|, one
    Cholesky factorization (_proves_psd) of mu I - m + tau x x^T proves
    lambda_2 <= mu, as lambda_1(m - c x x^T) >= lambda_2(m) for any c >= 0
    (interlacing). The rank-one term takes lambda_1 out of the way, so the
    factorization needs only mu > lambda_2. Forming that matrix rounds each
    entry by at most 4 u tau |x_i x_j| + 2 u |m_ij| + u mu [i = j], which
    eps (3 tau + norm_m) bounds in 2-norm. The factorization runs only if
    the gap it must prove is below SIGN_GAP tau; a larger one rarely holds.
    As SIGN_GAP < 1/2, mu > tau / 2, so tau - mu is exact (Sterbenz), and
    the eighth of room above the least gap covers the rounding of mu and of
    the comparison. m and x must be float64 (ValueError otherwise).
    """
    _float64_only(m, x)
    n = len(m)
    mx = m @ x
    tau = x @ mx
    mx -= tau * x
    res = (1.0 + (n + 2) * EPS) * math.sqrt(mx @ mx) + (n + 2) * EPS * (norm_m + abs(tau))
    xmin = abs(x).min()
    if not 1.125 * res < SIGN_GAP * tau * xmin:
        return None
    mu = tau - 1.125 * res / xmin
    if not res < (tau - mu) * xmin:
        return None
    b = np.multiply.outer(tau * x, x)
    b -= m
    b.flat[:: n + 1] += mu
    return mu if _proves_psd(b, EPS * (3.0 * tau + norm_m)) else None


def _dense_candidates(m):
    """(x, norm_m): unit vectors for _sign_proof, cheapest first, with norm_m >= ||m||_F.

    Repeated squaring of m^2 / ||m||_F^2, each square divided by its trace,
    gives m^(2^(k + 1)) up to scale after k squarings: a power iteration
    whose every step squares the ratio |lambda_i| / max |lambda|. Its row
    with the largest diagonal entry is a candidate after each count of
    squarings in SIGN_TRIES; nothing is drawn. norm_m is sqrt(tr m^2),
    padded by n eps, above the relative rounding error of the trace. A zero
    m yields none.
    """
    n = len(m)
    b = m @ m
    trace = b.trace()
    if trace == 0.0:
        return
    norm_m = math.sqrt(trace) * (1.0 + n * EPS)
    b *= 1.0 / trace
    for k in range(1, SIGN_TRIES[-1] + 1):
        b = b @ b
        b *= 1.0 / b.trace()
        if k in SIGN_TRIES:
            x = b[b.diagonal().argmax()]
            yield x * (1.0 / math.sqrt(x @ x)), norm_m


def _dense_top_eigenvector(m):
    """Vector with the entrywise signs of symmetric m's top eigenvector v.

    The first of _dense_candidates whose signs _sign_proof proves, else the
    last column of eigh(m), as where lambda_1 is repeated, |lambda_n| =
    lambda_1, or an entry of v is at or near zero. An isolated node is an
    exact zero of v whenever lambda_1 > 0, and of every squared row, so no
    proof passes there.
    """
    for x, norm_m in _dense_candidates(m):
        if _sign_proof(m, x, norm_m) is not None:
            return x
    return np.linalg.eigh(m)[1][:, -1]


def _lanczos(m, start, tol, steps):
    """(x, converged, k): unit top Ritz vector of symmetric m after k <= steps Lanczos steps.

    Lanczos on m itself from `start`, in m's dtype, each new basis vector
    orthogonalized twice against all earlier ones (full
    reorthogonalization; Saad, Numerical Methods for Large Eigenvalue
    Problems, ch. 6). The basis is allocated LANCZOS_BLOCK rows at a time,
    doubling as it fills, so a call that stops early never touches an
    n x n array. Every RITZ_EVERY steps the top Ritz pair of the
    tridiagonal is formed in float64 and returned once its residual
    beta_k |s_k| is at most tol * max(1, |theta|), or when k = steps.
    `converged` says whether the bound held.
    """
    n = len(start)
    basis = np.empty((min(steps, LANCZOS_BLOCK), n), dtype=m.dtype)
    alpha = np.empty(steps)
    beta = np.empty(steps)
    q = (start / np.linalg.norm(start)).astype(m.dtype)
    for k in range(steps):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, steps - k), n), dtype=m.dtype)])
        basis[k] = q
        w = m @ q
        # Python floats keep float32 arithmetic in float32
        a = alpha[k] = float(q @ w)
        w -= a * q
        if k:
            w -= float(beta[k - 1]) * basis[k - 1]
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        b = beta[k] = float(np.linalg.norm(w))
        # beta_k <= tol meets the residual bound whatever s_k is, so
        # the Krylov space closing early always ends here
        last = k + 1 == steps
        if last or b <= tol or (k + 1) % RITZ_EVERY == 0:
            t = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, s = np.linalg.eigh(t)
            converged = b * abs(s[-1, -1]) <= tol * max(1.0, abs(theta[-1]))
            if converged or last:
                return basis[: k + 1].T @ s[:, -1].astype(m.dtype), bool(converged), k + 1
        q = w / b


def _top_eigenvector(m, start):
    """(x, converged, steps): unit top eigenvector of symmetric float64 m by two Lanczos phases.

    m's entries are small integers, so its float32 copy is exact, and a
    float32 matvec moves half the bytes. Lanczos (_lanczos) runs on that
    copy first, for at most n // F32_STEPS_DIVISOR steps, to the residual
    RITZ_TOL32 that float32 rounding can reach; then on m in float64 from
    that vector to RITZ_TOL, for at most the n - k steps left, so
    `converged` is the float64 bound on m itself (mixed-precision
    refinement; Higham & Mary, Acta Numerica 31, 2022). steps counts the
    matvecs of both phases, at most n. For the n above EIGH_MAX_N that
    spectral_estimate sends here: each phase then has 32 steps or more.
    """
    n = len(start)
    x, _, head = _lanczos(m.astype(np.float32), start, RITZ_TOL32, n // F32_STEPS_DIVISOR)
    x, converged, tail = _lanczos(m, x.astype(np.float64), RITZ_TOL, n - head)
    return x, converged, head + tail


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

    It ascends an n x rank block V (rank ceil(sqrt(2n)), at most n; Boumal,
    Voroninski & Bandeira, arXiv:1606.04970) from generator(seed, SOLVER, 0)
    until its certificate (see _ascend: weak duality at a dual extrapolated
    from its recent steps) passes or MAX_ITERS steps have run, then rounds
    by the sign of the top left singular vector of the block (the same
    extrapolation of the ascent's blocks where it certified) and polishes
    with single flips. A certified ascent value f is proved, rounding
    included (see _certifies), to be within GAP_TOL (1 + |f|) of the SDP
    optimum, which bounds every labeling's objective; status "converged".
    An uncertified start returns "max_iters". `iterations` counts its
    ascent steps. No eigensolver runs: the steps' one shift is SHIFT times
    2 ||M||_F / sqrt(n), the edge of the semicircle that the spectrum of a
    random M's noise fills (Furedi & Komlos, Combinatorica 1(3), 1981). It
    need not make M + shift I positive semidefinite; a poor shift costs
    steps, not correctness.
    """
    n, m, zero = _objective(graphs)
    if zero:
        labels = random_labels(n, generator(seed, SOLVER, 0))
        return RecoveryResult(canonical(labels), 0.0, "degenerate")
    rank = min(max(math.ceil(math.sqrt(2 * n)), 2), n)
    shift = SHIFT * 2.0 * math.sqrt(np.vdot(m, m) / n)
    v, certified, steps, _, _ = _ascend(m, _solver_start(seed, 0, (n, rank)), shift)
    labels = _polish(m, _signs(np.linalg.svd(v, full_matrices=False)[0][:, 0]))
    obj = float(labels @ m @ labels)
    return RecoveryResult(canonical(labels), obj, "converged" if certified else "max_iters", steps)


def spectral_estimate(graphs, seed=0, start=None):
    """Signs of the eigenvector for the largest eigenvalue of M.

    Up to n = EIGH_MAX_N they are those of the first candidate vector whose
    signs one Cholesky factorization proves (rows of repeated squarings of
    M^2), or of `np.linalg.eigh(M)` where none is proved (see
    _dense_top_eigenvector): status "converged" (LAPACK raises if it
    fails), iterations 0, and nothing is drawn. Above EIGH_MAX_N, Lanczos
    runs from a seeded Gaussian start, first on a float32 copy of M, then on
    M in float64 from the float32 phase's vector (_top_eigenvector); status
    is "converged" when the float64 Ritz residual met RITZ_TOL, "max_iters"
    when the n steps of both phases did not meet it, and iterations counts
    the steps of both. A zero M is flagged degenerate and yields random
    labels.

    `start`, a nonzero finite vector of length n such as the previous
    estimate, is checked at every n but moves only the Lanczos start: to
    start / ||start|| plus a hundredth of the unit seeded Gaussian, which
    has a component along every eigenvector (almost surely), so no start
    lies in an invariant subspace that misses the top one. The stop rule
    does not depend on the start; a start near the top eigenvector meets it
    in fewer steps.
    """
    n, m, zero = _objective(graphs)
    if start is not None:
        norm = np.linalg.norm(start)
        if np.shape(start) != (n,) or not 0.0 < norm < math.inf:
            raise ValueError(f"start must be a nonzero finite vector of length {n}")
    if zero:
        labels = random_labels(n, generator(seed, SOLVER, 0))
        return RecoveryResult(canonical(labels), 0.0, "degenerate")
    if n <= EIGH_MAX_N:
        x, converged, steps = _dense_top_eigenvector(m), True, 0
    else:
        q = _solver_start(seed, 0, (1, n))[0]
        if start is not None:
            q = start / norm + 0.01 * q
        x, converged, steps = _top_eigenvector(m, q)
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
