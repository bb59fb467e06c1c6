"""Closed-form performance characterizations.

Information numbers for the detection problem, run-length and delay
predictions for both privacy settings, the converse bound on the privacy
budget, and recovery-threshold reports. Everything here is arithmetic on
the model formulas; nothing simulates.
"""

import json
import math
from dataclasses import dataclass

from .likelihood import disagreeing_pairs, flip_gap, kl_divergence
from .ldp import ldp_recovery_margin, ldp_threshold_rhs, perturbed_params
from .model import n_pairs


@dataclass(frozen=True)
class InfoNumbers:
    """KL divergences driving detection delay: raw (i0) and perturbed (i0_tilde)."""

    i0: float
    i0_tilde: float


@dataclass(frozen=True)
class BoundReport:
    """One named bound with the inputs that produced it."""

    name: str
    value: float
    inputs: dict

    def to_json(self):
        return json.dumps(
            {"name": self.name, "value": self.value, "inputs": self.inputs},
            sort_keys=True,
        )


def info_numbers(pre, post, p, zeta, epsilon=None):
    """Post-vs-pre KL at the raw law and (if epsilon given) the perturbed law.

    Without epsilon the perturbed number equals the raw one (no mechanism).
    """
    i0 = kl_divergence(pre, post, p, zeta)
    if epsilon is None:
        return InfoNumbers(i0=i0, i0_tilde=i0)
    p_t, z_t = perturbed_params(p, zeta, epsilon)
    return InfoNumbers(i0=i0, i0_tilde=kl_divergence(pre, post, p_t, z_t))


def wadd_prediction(gamma, info):
    """First-order delay prediction log(gamma)/info; inf when info is 0."""
    if not gamma > 1:
        raise ValueError("gamma must exceed 1")
    if info < 0:
        raise ValueError("info must be nonnegative")
    if info == 0.0:
        return math.inf
    return math.log(gamma) / info


def arl_lower_ldp(b):
    """Run-length floor e^b for the rectified recursion under no change."""
    if not b > 0:
        raise ValueError("b must be positive")
    return math.exp(b)


def _cdp_factor(zeta, epsilon):
    c = 2.0 * flip_gap(zeta)
    if epsilon <= 4.0 * c:
        return None
    r2 = (2.0 * c / epsilon) ** 2
    r4 = (4.0 * c / epsilon) ** 2
    return (1.0 - r4) / (1.0 - r2)


def arl_lower_cdp(b, zeta, epsilon):
    """(bound, feasible): run-length floor factor * e^b for the noisy test.

    The factor (1-(4C/eps)^2)/(1-(2C/eps)^2) needs epsilon > 4C; otherwise
    the bound degenerates and (nan, False) is returned.
    """
    if not b > 0:
        raise ValueError("b must be positive")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    factor = _cdp_factor(zeta, epsilon)
    if factor is None:
        return math.nan, False
    return factor * math.exp(b), True


def cdp_threshold_for_arl(gamma, zeta, epsilon):
    """(b, feasible): bar whose noisy test still meets run length gamma.

    b = log(gamma) - log(factor), compensating the factor lost to threshold
    and statistic noise. Infeasible when epsilon <= 4C.
    """
    if not gamma > 1:
        raise ValueError("gamma must exceed 1")
    factor = _cdp_factor(zeta, epsilon)
    if factor is None:
        return math.nan, False
    return math.log(gamma) - math.log(factor), True


def converse_epsilon_lower(n, a, zeta):
    """Smallest budget any edge-LDP mechanism needs for exact recovery.

    Defined for n >= 9 at p = a log(n)/n <= 1. The inner expression is
    (2 log n - log(8e)) / (p'(4n - 32)) with
    p' = 2 p^2 zeta(zeta - 1) - (p - 1)^2 + 1.
    """
    if n < 9:
        raise ValueError("defined for n >= 9")
    if not 0.0 < zeta < 0.5:
        raise ValueError(f"zeta={zeta} outside (0, 0.5)")
    p = a * math.log(n) / n
    if not 0.0 < p <= 1.0:
        raise ValueError(f"a={a} gives p={p} outside (0, 1]")
    p_prime = 2.0 * p * p * zeta * (zeta - 1.0) - (p - 1.0) ** 2 + 1.0
    inner = (2.0 * math.log(n) - math.log(8.0 * math.e)) / (p_prime * (4.0 * n - 32.0))
    return 0.5 * math.log1p(inner)


def ldp_kl_upper(pre, post, p, zeta, epsilon):
    """Data-processing ceiling on the perturbed KL, any edge-LDP mechanism.

    min{4, e^(2 eps)} * (e^eps - 1)^2 * p^2 (1-2 zeta)^2 * (pair term), the
    pair term being twice the number of pairs whose label product differs.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pair_term = 2 * disagreeing_pairs(pre, post)
    if epsilon > 350.0:
        return math.inf
    c_eps = 4.0 if epsilon >= math.log(2.0) else math.exp(2.0 * epsilon)
    return c_eps * math.expm1(epsilon) ** 2 * p * p * (1.0 - 2.0 * zeta) ** 2 * pair_term


def cdp_delay_lower(gamma, epsilon, delta, n, kl, alpha0):
    """Minimax delay floor under an (epsilon, delta) central constraint.

    log(gamma) / [(1/alpha0) tanh^2(R eps / 2) (1 + 2 delta/(e^eps - 1))^2 kl]
    with R = 2^(n choose 2), evaluated in log space; tanh^2 saturates to 1
    once R*eps > 40.
    """
    if not gamma > 1:
        raise ValueError("gamma must exceed 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not 0.0 < alpha0 <= 1.0:
        raise ValueError("alpha0 must lie in (0, 1]")
    if kl < 0:
        raise ValueError("kl must be nonnegative")
    if kl == 0.0:
        return math.inf
    log_r_eps = n_pairs(n) * math.log(2.0) + math.log(epsilon)
    if log_r_eps > math.log(40.0):
        tanh2 = 1.0
    else:
        tanh2 = math.tanh(math.exp(log_r_eps) / 2.0) ** 2
    denom = (1.0 / alpha0) * tanh2 * (1.0 + 2.0 * delta / math.expm1(epsilon)) ** 2 * kl
    return math.log(gamma) / denom


def min_window_terms(n, epsilon):
    """(privacy term, recovery term) of the window-size requirement.

    (1 - 1/n) e^eps/(e^eps - 1) and 4(1 - 1/n)/(1 - 2/n)^2 * log n. The
    second is undefined at n = 2 (zero denominator).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    c1 = 1.0 - 1.0 / n
    privacy = c1 / -math.expm1(-epsilon)  # e^eps/(e^eps-1) = 1/(1-e^-eps)
    if n == 2:
        return privacy, math.inf
    c2 = 4.0 * (1.0 - 1.0 / n) / (1.0 - 2.0 / n) ** 2
    return privacy, c2 * math.log(n)


def min_window(n, epsilon):
    """(window floor, degenerate flag): samples needed per estimate.

    max of the privacy and recovery terms; n = 2 makes the recovery term
    blow up and is flagged.
    """
    privacy, recov = min_window_terms(n, epsilon)
    if math.isinf(recov):
        return math.inf, True
    return max(privacy, recov), False


def window_crossover_epsilon(n):
    """Budget where the privacy and recovery window terms tie.

    (1 - 1/n)/(1 - e^-eps) = R, R the recovery term, gives
    eps = -log(1 - (1 - 1/n)/R). No tie at n = 2, where R is undefined.
    """
    recov = min_window_terms(n, 1.0)[1]  # R does not depend on eps
    if math.isinf(recov):
        raise ValueError("no crossover at n=2: the recovery term is undefined")
    return -math.log1p(-(1.0 - 1.0 / n) / recov)


def subsampled_stability_rhs(n, epsilon):
    """Signal the subsampled stability release needs: max(32 log n / eps, 1)."""
    return max(32.0 * math.log(n) / epsilon, 1.0)


def recovery_thresholds(a, zeta, epsilon, n):
    """Threshold reports for the three recovery mechanisms at (a, zeta, eps, n).

    Each report compares the signal a(sqrt(1-zeta)-sqrt(zeta))^2 against the
    mechanism's requirement and carries side conditions in `inputs`.
    """
    if not 0.0 < zeta < 0.5:
        raise ValueError(f"zeta={zeta} outside (0, 0.5)")
    if n < 2:
        raise ValueError("n must be >= 2")
    signal = a * (math.sqrt(1.0 - zeta) - math.sqrt(zeta)) ** 2
    base = {"a": a, "zeta": zeta, "epsilon": epsilon, "n": n, "signal": signal}
    margin, precondition_ok = ldp_recovery_margin(a, zeta, epsilon, n)
    rhs = ldp_threshold_rhs(epsilon, n)
    sub_rhs = subsampled_stability_rhs(n, epsilon)
    reports = [
        BoundReport(
            "graph-perturbation",
            rhs,
            dict(
                base,
                margin=margin,
                precondition_ok=precondition_ok,
                eps_at_least_log_n=epsilon >= math.log(n),
            ),
        ),
        BoundReport(
            "stability-release",
            1.0,
            dict(base, margin=signal - 1.0, side_condition_ok=a > 3.0 / epsilon),
        ),
        BoundReport("subsampled-stability", sub_rhs, dict(base, margin=signal - sub_rhs)),
    ]
    return reports
