"""Sequential change detection with running community re-estimation.

The statistic accumulates log-likelihood ratios of each incoming graph under
the latest community estimate versus the known pre-change labels, rectified
at zero. Estimates are always formed from strictly earlier samples: the
first graph a detector sees only initializes the estimate (no statistic is
scored), so time index t counts scored statistics.

Local-privacy flavor: graphs arrive already perturbed and the ratio is
evaluated at the perturbed-law parameters. Central flavor: graphs arrive
raw, estimates pass through a gated release mechanism, and the reported
statistic carries Laplace noise against a noisy threshold.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._rng import LAPLACE, PERTURB, RELEASE, THRESHOLD, laplace, stream
from .cdp import stability_release
from .ldp import perturb_graph
from .likelihood import (
    ZETA_CLAMP,
    log_likelihood,
    log_likelihood_ratio,
    mle_params,
    mle_params_pooled,
    sensitivity_constant,
)
from .model import canonical
from .recovery import ml_exhaustive, sdp_estimate, spectral_estimate


@dataclass(frozen=True)
class DetectorConfig:
    """How the running community estimate is formed."""

    estimator: str = "sdp"  # sdp | spectral | fixed
    window: int = 1  # estimate from the last `window` graphs
    # solver randomness, one seed for every step of a trial: an all-zero window
    # gets the same fallback labels at every step
    seed: int = 0

    def __post_init__(self):
        if self.estimator not in ("sdp", "spectral", "fixed"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True)
class StoppingRule:
    """Threshold(s) for declaring a change.

    b is the deterministic bar for the rectified statistic. CDP rules also
    carry b_tilde (the noisy bar), the per-step sensitivity, and a flag for
    whether epsilon exceeds 4x the sensitivity (the regime where run-length
    guarantees hold; smaller epsilon is allowed but flagged).
    """

    b: float
    b_tilde: float | None = None
    sensitivity: float | None = None
    eps_gt_4c: bool | None = None

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"threshold b={self.b} must be positive")


@dataclass
class DetectorState:
    """Everything a detector carries between samples."""

    sigma_hat: np.ndarray
    stat: float = 0.0
    noisy_stat: float | None = None
    t: int = 0  # number of scored statistics so far
    buffer: tuple = ()
    p_hat: float | None = None
    zeta_hat: float | None = None
    degenerate_steps: int = 0


def init_detector(pre_labels):
    """Fresh state: estimate starts at the pre-change labels, t = 0."""
    return DetectorState(sigma_hat=canonical(pre_labels))


def _estimate(buffer, cfg, current):
    """Labels from the buffered graphs by cfg's estimator; current is the running estimate or None.

    The spectral estimator starts Lanczos from `current` (it moves only
    where the iteration starts, see spectral_estimate), which meets the
    same stop rule in fewer steps while the communities hold still.
    """
    if cfg.estimator == "fixed":
        if current is None:
            raise ValueError("fixed estimator needs a current estimate")
        return current
    if cfg.estimator == "sdp":
        return sdp_estimate(list(buffer), seed=cfg.seed).labels
    return spectral_estimate(list(buffer), seed=cfg.seed, start=current).labels


def _is_fresh(state):
    return state.t == 0 and not state.buffer


def _advance(state, graph, cfg, score):
    """Score unless seeding, then re-estimate sigma_hat from the last `window` graphs.

    A scored step sets stat <- max(stat + score(), 0) and t <- t + 1. score is
    a thunk, so the seed-only first step (a fresh state) never evaluates it
    and leaves stat and t alone.
    """
    if not _is_fresh(state):
        state = replace(state, stat=max(state.stat + score(), 0.0), t=state.t + 1)
    buffer = (state.buffer + (graph,))[-cfg.window :]
    return replace(state, sigma_hat=_estimate(buffer, cfg, state.sigma_hat), buffer=buffer)


def ldp_step(state, new_graph, pre_labels, p_tilde, zeta_tilde, cfg=None):
    """Advance the local-privacy detector by one perturbed graph.

    Scores the log-ratio of the new graph under sigma_hat versus the
    pre-change labels at the perturbed-law parameters, rectifies at zero,
    then re-estimates sigma_hat from the last `window` graphs. The very
    first graph is only absorbed into the estimate; nothing is scored and t
    stays 0. pre_labels are checked where they are scored, by the log-ratio,
    whose value does not depend on their global sign.
    """
    return _advance(
        state,
        new_graph,
        cfg or DetectorConfig(),
        lambda: log_likelihood_ratio(new_graph, state.sigma_hat, pre_labels, p_tilde, zeta_tilde),
    )


def ldp_stop(state, rule):
    """True once the rectified statistic reaches b (inclusive)."""
    return state.t > 0 and state.stat >= rule.b


def cdp_threshold(b, zeta, epsilon, seed):
    """Stopping rule with a Laplace-noised bar for the central setting.

    b_tilde = b + Lap(2 C / epsilon) with C the per-edge sensitivity; drawn
    once per detection run, from stream(seed, THRESHOLD) (seed an int or a
    Generator). epsilon <= 4C is flagged, not rejected.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon={epsilon} must be positive")
    c = sensitivity_constant(zeta)
    bt = b + laplace(stream(seed, THRESHOLD), 2.0 * c / epsilon)
    return StoppingRule(b=b, b_tilde=bt, sensitivity=c, eps_gt_4c=epsilon > 4.0 * c)


def cdp_step(state, raw_graph, pre_labels, p, zeta, budget, mechanism, seed):
    """Advance the central-privacy detector by one raw graph.

    The scored ratio uses the raw graph at the raw (p, zeta); sigma_hat
    comes from `mechanism(graph, budget, rng) -> StabilityRelease` applied
    to the previous sample, so the estimate never sees the sample it scores.
    noisy_stat = (pre-rectified sum) + Lap(4 C / epsilon) is what the
    stopping rule reads. The first graph only seeds the estimate. The noise,
    then the release, draw from stream(seed, LAPLACE) (seed an int or a Generator).
    The mechanism's labels are checked and made canonical here, where they
    enter; pre_labels are checked where they are scored, by the log-ratio,
    whose value does not depend on their global sign.
    """
    rng = stream(seed, LAPLACE)
    if _is_fresh(state):
        rel = mechanism(raw_graph, budget, rng)
        return replace(state, sigma_hat=canonical(rel.labels, raw_graph.n), buffer=(raw_graph,))
    inc = log_likelihood_ratio(raw_graph, state.sigma_hat, pre_labels, p, zeta)
    raw_sum = state.stat + inc
    c = sensitivity_constant(zeta)
    noise = laplace(rng, 4.0 * c / budget.epsilon)
    rel = mechanism(raw_graph, budget, rng)
    return replace(
        state,
        stat=max(raw_sum, 0.0),
        noisy_stat=raw_sum + noise,
        sigma_hat=canonical(rel.labels, raw_graph.n),
        buffer=(raw_graph,),
        t=state.t + 1,
    )


def cdp_stop(state, rule):
    """True once the noisy statistic reaches the noisy bar (inclusive)."""
    if rule.b_tilde is None:
        raise ValueError("rule has no noisy threshold; build it with cdp_threshold")
    return state.t > 0 and state.noisy_stat is not None and state.noisy_stat >= rule.b_tilde


def _clamp_p(p):
    return min(max(p, ZETA_CLAMP), 1.0 - ZETA_CLAMP)


def adaptive_step_unknown_params(state, new_graph, pre_labels, p_pre, zeta_pre, cfg=None):
    """Variant for drifting (p, zeta): score against jointly refit parameters.

    The numerator uses sigma_hat with (p_hat, zeta_hat) ML-fit on the
    previous sample; the denominator is the pre-change triple. A sample with
    no revealed pair cannot be fit: the next score is 0 and
    degenerate_steps counts the occurrence. pre_labels are checked where
    they are scored, by the log-likelihood, whose value does not depend on
    their global sign.
    """

    def score():
        if state.p_hat is None:
            return 0.0
        num = log_likelihood(new_graph, state.sigma_hat, _clamp_p(state.p_hat), state.zeta_hat)
        return num - log_likelihood(new_graph, pre_labels, p_pre, zeta_pre)

    nxt = _advance(state, new_graph, cfg or DetectorConfig(), score)
    fit = mle_params(new_graph, nxt.sigma_hat)
    if fit.degenerate:
        return replace(nxt, p_hat=None, zeta_hat=None, degenerate_steps=nxt.degenerate_steps + 1)
    return replace(nxt, p_hat=fit.p_hat, zeta_hat=fit.zeta_hat)


@dataclass(frozen=True)
class PrechangeEstimate:
    labels: np.ndarray
    p_hat: float
    zeta_hat: float
    degenerate: bool


def _majority(label_list):
    """Entrywise majority after aligning each vector to the first."""
    ref = label_list[0].astype(np.int64)
    total = np.zeros_like(ref)
    for lab in label_list:
        lab = lab.astype(np.int64)
        total += lab if int(lab @ ref) >= 0 else -lab
    return canonical(np.where(total >= 0, 1, -1).astype(np.int8))


def estimate_prechange_ldp(historical, epsilon, seed):
    """Fit the pre-change labels and perturbed-law parameters, privately.

    Each historical graph is perturbed (edge randomized response), labels
    are estimated per perturbed graph and majority-voted, and (p, zeta) are
    ML-fit on the pooled perturbed graphs. Returned parameters describe the
    perturbed law, which is what the LDP detector scores against. Labels
    come from the default (SDP) estimator. The perturbations draw in graph
    order from one stream, stream(seed, PERTURB).
    """
    graphs = list(historical)
    if not graphs:
        raise ValueError("need at least one historical graph")
    rng = stream(seed, PERTURB)
    perturbed = [perturb_graph(g, epsilon, rng) for g in graphs]
    labs = [_estimate((g,), DetectorConfig(), None) for g in perturbed]
    maj = _majority(labs)
    fit = mle_params_pooled(perturbed, maj)
    return PrechangeEstimate(maj, fit.p_hat, fit.zeta_hat, fit.degenerate)


def estimate_prechange_cdp(historical, budget, seed, mechanism=None):
    """Fit the pre-change labels and parameters under a central budget.

    Labels go through the stability-gated release per graph and are
    majority-voted (falling back to the random stand-ins if nothing was
    released). The pooled (p, zeta) ML fit gets Lap(1/epsilon) noise on
    each coordinate, then both are clamped back into their domains. The
    releases draw in graph order from stream(seed, RELEASE), the parameter
    noise from stream(seed, LAPLACE).
    """
    graphs = list(historical)
    if not graphs:
        raise ValueError("need at least one historical graph")
    if mechanism is None:
        mechanism = lambda g, b, s: stability_release(g, b, ml_exhaustive, s)
    rng = stream(seed, RELEASE)
    rels = [mechanism(g, budget, rng) for g in graphs]
    released = [r.labels for r in rels if r.released]
    maj = _majority(released if released else [r.labels for r in rels])
    fit = mle_params_pooled(graphs, maj)
    rng = stream(seed, LAPLACE)
    p_hat = _clamp_p(fit.p_hat + laplace(rng, 1.0 / budget.epsilon))
    z_hat = fit.zeta_hat + laplace(rng, 1.0 / budget.epsilon)
    z_hat = min(max(z_hat, ZETA_CLAMP), 0.5 - ZETA_CLAMP)
    return PrechangeEstimate(maj, p_hat, z_hat, fit.degenerate)
