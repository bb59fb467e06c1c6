import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbmdetect.likelihood import kl_divergence
from cbmdetect.ldp import ldp_recovery_margin, ldp_threshold_rhs, perturbed_params
from cbmdetect.model import CbmParams
from cbmdetect.theory import (
    BoundReport,
    arl_lower_cdp,
    arl_lower_ldp,
    cdp_delay_lower,
    cdp_threshold_for_arl,
    converse_epsilon_lower,
    info_numbers,
    ldp_kl_upper,
    min_window,
    min_window_terms,
    recovery_thresholds,
    theorem_boundary_a,
    wadd_prediction,
    window_crossover_epsilon,
)

PRE50 = np.array([1] * 25 + [-1] * 25, dtype=np.int8)
POST50 = PRE50.copy()
POST50[[0, 1]] = -1


def test_info_numbers_reference_point():
    params = CbmParams.from_scale(50, 5.0, 0.1)
    info = info_numbers(PRE50, POST50, params.p, params.zeta, epsilon=1.5)
    np.testing.assert_allclose(info.i0, 66.01415496676935, rtol=1e-12)
    np.testing.assert_allclose(info.i0_tilde, 10.85222345038724, rtol=1e-12)
    plain = info_numbers(PRE50, POST50, params.p, params.zeta)
    assert plain.i0_tilde == plain.i0


def test_info_numbers_finite_at_full_reveal():
    # the KL closed form is finite at p = 1; only zeta must be interior
    info = info_numbers(PRE50, POST50, 1.0, 0.1, 1.5)
    assert 0.0 < info.i0_tilde < info.i0 < math.inf
    np.testing.assert_allclose(
        kl_divergence(PRE50, POST50, 1.0, 0.1),
        kl_divergence(PRE50, POST50, 1.0 - 1e-12, 0.1),
        rtol=1e-9,
    )
    assert kl_divergence(PRE50, POST50, 0.0, 0.1) == 0.0
    for p, zeta in ((1.5, 0.1), (-0.1, 0.1), (0.5, 0.0), (0.5, 0.5)):
        with pytest.raises(ValueError):
            kl_divergence(PRE50, POST50, p, zeta)


def test_info_numbers_perturbation_contracts():
    params = CbmParams.from_scale(50, 5.0, 0.1)
    for eps in (0.5, 1.0, 2.0, 5.0):
        info = info_numbers(PRE50, POST50, params.p, params.zeta, epsilon=eps)
        assert info.i0_tilde <= info.i0


def test_wadd_prediction():
    np.testing.assert_allclose(wadd_prediction(1e3, 5.0), 1.38155, atol=1e-5)
    assert wadd_prediction(10.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        wadd_prediction(1.0, 5.0)
    with pytest.raises(ValueError):
        wadd_prediction(10.0, -1.0)


def test_arl_lower_ldp():
    np.testing.assert_allclose(arl_lower_ldp(2.0), math.exp(2.0))
    with pytest.raises(ValueError):
        arl_lower_ldp(0.0)


def test_arl_lower_cdp_reference_point():
    bound, feasible = arl_lower_cdp(3.0, 0.1, 40.0)
    assert feasible
    np.testing.assert_allclose(bound / math.exp(3.0), 0.8478191436451686, rtol=1e-12)
    degenerate, ok = arl_lower_cdp(3.0, 0.1, 10.0)
    assert not ok and math.isnan(degenerate)


@given(
    st.floats(min_value=2.0, max_value=1e6),
    st.floats(min_value=0.05, max_value=0.45),
    st.floats(min_value=50.0, max_value=500.0),
)
def test_threshold_for_arl_inverts_the_bound(gamma, zeta, epsilon):
    b, feasible = cdp_threshold_for_arl(gamma, zeta, epsilon)
    if not feasible:
        return
    bound, ok = arl_lower_cdp(b, zeta, epsilon)
    assert ok
    np.testing.assert_allclose(bound, gamma, rtol=1e-9)


def test_converse_epsilon_lower():
    np.testing.assert_allclose(
        converse_epsilon_lower(100, 5.0, 0.1), 0.0205058034622513, rtol=1e-12
    )
    with pytest.raises(ValueError):
        converse_epsilon_lower(8, 5.0, 0.1)
    with pytest.raises(ValueError):
        converse_epsilon_lower(10, 9.0, 0.1)  # p would top 1


def test_converse_scaling_at_constant_p():
    # holding p fixed, the required budget tracks log(n)/n within constants
    ratios = []
    for n in (100, 1000, 10_000, 100_000):
        a = 0.5 * n / math.log(n)
        ratios.append(converse_epsilon_lower(n, a, 0.1) / (math.log(n) / n))
    assert all(0.25 <= r <= 0.32 for r in ratios)


@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.02, max_value=0.48),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_ldp_kl_upper_dominates_perturbed_kl(epsilon, zeta, p):
    p_t, z_t = perturbed_params(p, zeta, epsilon)
    actual = kl_divergence(PRE50, POST50, p_t, z_t)
    ceiling = ldp_kl_upper(PRE50, POST50, p, zeta, epsilon)
    assert ceiling >= actual


def test_ldp_kl_upper_extremes():
    assert ldp_kl_upper(PRE50, POST50, 0.5, 0.1, 400.0) == math.inf
    with pytest.raises(ValueError):
        ldp_kl_upper(PRE50, POST50, 0.5, 0.1, 0.0)


def test_cdp_delay_lower_small_and_saturated():
    val = cdp_delay_lower(math.e, 0.01, 0.0, 3, 1.0, 1.0)
    np.testing.assert_allclose(val, 1.0 / math.tanh(0.04) ** 2, rtol=1e-12)
    # R eps is astronomically large here, so tanh^2 saturates to 1
    sat = cdp_delay_lower(math.e ** 2, 1.0, 0.0, 50, 2.0, 1.0)
    np.testing.assert_allclose(sat, 1.0, rtol=1e-12)
    assert cdp_delay_lower(10.0, 1.0, 0.0, 5, 0.0, 0.5) == math.inf


def test_cdp_delay_lower_delta_discount():
    base = cdp_delay_lower(10.0, 1.0, 0.0, 50, 1.0, 1.0)
    slack = cdp_delay_lower(10.0, 1.0, 0.2, 50, 1.0, 1.0)
    assert slack < base


def test_cdp_delay_lower_validation():
    for kwargs in (
        dict(gamma=1.0, epsilon=1.0, delta=0.0, n=5, kl=1.0, alpha0=1.0),
        dict(gamma=2.0, epsilon=0.0, delta=0.0, n=5, kl=1.0, alpha0=1.0),
        dict(gamma=2.0, epsilon=1.0, delta=-0.1, n=5, kl=1.0, alpha0=1.0),
        dict(gamma=2.0, epsilon=1.0, delta=0.0, n=5, kl=1.0, alpha0=1.5),
        dict(gamma=2.0, epsilon=1.0, delta=0.0, n=5, kl=-1.0, alpha0=1.0),
    ):
        with pytest.raises(ValueError):
            cdp_delay_lower(**kwargs)


def test_min_window_crossover():
    eps_star = window_crossover_epsilon(100)
    np.testing.assert_allclose(eps_star, 0.05354535739847109, atol=1e-9)
    below = min_window_terms(100, eps_star / 2.0)
    above = min_window_terms(100, eps_star * 2.0)
    assert below[0] > below[1]  # privacy term dominates at small budgets
    assert above[0] < above[1]
    window, flagged = min_window(100, eps_star * 2.0)
    assert window == above[1] and not flagged
    # the closed form ties the two terms exactly
    for n in (3, 100, 1000):
        privacy, recov = min_window_terms(n, window_crossover_epsilon(n))
        np.testing.assert_allclose(privacy, recov, rtol=1e-12)
    with pytest.raises(ValueError):
        window_crossover_epsilon(2)


def test_min_window_degenerate_n2():
    window, flagged = min_window(2, 1.0)
    assert flagged and window == math.inf


def test_recovery_thresholds_reports():
    reports = recovery_thresholds(5.0, 0.1, math.log(50), 50)
    by_name = {r.name: r for r in reports}
    assert set(by_name) == {
        "graph-perturbation",
        "stability-release",
        "subsampled-stability",
    }
    signal = by_name["stability-release"].inputs["signal"]
    np.testing.assert_allclose(signal, 2.0, rtol=1e-12)
    np.testing.assert_allclose(
        by_name["stability-release"].inputs["margin"], 1.0, rtol=1e-12
    )
    assert by_name["stability-release"].inputs["side_condition_ok"]
    sub = by_name["subsampled-stability"]
    np.testing.assert_allclose(sub.value, 32.0 * math.log(50) / math.log(50))
    assert by_name["graph-perturbation"].inputs["eps_at_least_log_n"]


def test_bound_report_json_round_trip():
    report = recovery_thresholds(5.0, 0.1, 2.0, 50)[0]
    payload = json.loads(report.to_json())
    assert payload["name"] == report.name
    assert payload["value"] == report.value
    assert payload["inputs"]["n"] == 50


def test_theorem_boundary_matches_margin_root():
    a_star = theorem_boundary_a(0.1, math.log(50), 50)
    np.testing.assert_allclose(a_star, 3.0306372644940502, atol=1e-5)
    for zeta, eps, n in ((0.1, math.log(50), 50), (0.01, 0.3, 7), (0.3, 5.0, 1000), (0.45, 1.5, 2)):
        a_star = theorem_boundary_a(zeta, eps, n)
        margin, _ = ldp_recovery_margin(a_star, zeta, eps, n)
        assert abs(margin) <= 1e-12 * ldp_threshold_rhs(eps, n)
    for zeta, eps, n in ((0.0, 1.0, 50), (0.5, 1.0, 50), (0.1, 0.0, 50), (0.1, 1.0, 1)):
        with pytest.raises(ValueError):
            theorem_boundary_a(zeta, eps, n)
