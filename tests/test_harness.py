import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cbmdetect
from cbmdetect import detect, harness
from cbmdetect._rng import PERTURB, SOLVER, TRIAL, derive_seed, generator
from cbmdetect.detect import DetectorConfig, init_detector, ldp_step
from cbmdetect.harness import (
    ExperimentConfig,
    make_runner,
    phase_grid,
    phase_grid_to_csv,
    recovery_comparison,
    recovery_comparison_eps,
    comparison_to_csv,
    run_arl_trials,
    run_delay_trials,
    run_trajectory,
    theorem_boundary_a,
)
from cbmdetect.ldp import ldp_recovery_margin, ldp_threshold_rhs, perturb_graph, perturbed_params
from cbmdetect.model import CbmParams, ChangeScenario, TernaryGraph, pair_indices, sample_cbm


def _scenario(n=6, p=0.8, zeta=0.1, nu=1, flips=(0,)):
    pre = np.ones(n, dtype=np.int8)
    pre[n // 2 :] = -1
    post = pre.copy()
    for idx in flips:
        post[idx] = -post[idx]
    params = CbmParams(n=n, p=p, zeta=zeta)
    return ChangeScenario(pre=pre, post=post, nu=nu, params_pre=params, params_post=params)


class StopAtThree:
    """Detector stand-in that alarms on its third sample, whatever the data."""

    def __init__(self, scenario, trial_seed):
        self.state = SimpleNamespace(sigma_hat=None, t=0, stat=0.0, noisy_stat=None)

    def step(self, raw, k):
        self.state.t += 1
        self.state.stat = float(self.state.t)
        return self.state.t >= 3


class NeverStops(StopAtThree):
    def step(self, raw, k):
        super().step(raw, k)
        return False


class RecordsUppers(NeverStops):
    seen: list = []

    def __init__(self, scenario, trial_seed):
        super().__init__(scenario, trial_seed)
        type(self).seen = []

    def step(self, raw, k):
        type(self).seen.append(raw.upper.copy())
        return super().step(raw, k)


def _carrying(labels):
    """Factory for a StopAtThree whose state carries a fixed estimate, checked or not."""

    def make(scenario, trial_seed):
        runner = StopAtThree(scenario, trial_seed)
        runner.state.sigma_hat = labels
        return runner

    return make


@pytest.mark.parametrize(
    "labels, errors",
    [
        (np.array([-1, -1, -1, 1, 1, 1], np.int8), [1, 1, 1]),  # one node off _scenario's post
        (np.array([1, 1, 1, -1, -1], np.int8), None),
        (np.array([1, 1, 0, -1, -1, -1], np.int8), None),
    ],
    ids=["valid", "short", "zero entry"],
)
def test_runner_estimates_are_checked_at_every_step(labels, errors):
    sc = _scenario(nu=1)
    cfg = ExperimentConfig(scenario=sc, detector=_carrying(labels), trials=1, truncation=10)
    if errors is None:
        with pytest.raises(ValueError):
            run_delay_trials(cfg)
        with pytest.raises(ValueError):
            run_trajectory(sc, _carrying(labels), 10, seed=0)
        return
    assert run_delay_trials(cfg).rows[0]["errors"] == errors
    rows = run_trajectory(sc, _carrying(labels), 10, seed=0)
    assert [r["hamming_est_vs_post"] for r in rows] == errors


def test_config_validation():
    sc = _scenario()
    for kwargs in (dict(trials=0), dict(truncation=0), dict(parallelism=0)):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario=sc, detector=StopAtThree, **kwargs)


def test_stub_delay_is_exactly_three():
    cfg = ExperimentConfig(scenario=_scenario(nu=1), detector=StopAtThree, trials=4, truncation=10)
    report = run_delay_trials(cfg)
    assert report.mean_delay == 3.0
    assert report.censored_fraction == 0.0
    assert [r["delay"] for r in report.rows] == [3, 3, 3, 3]
    assert [r["samples"] for r in report.rows] == [3, 3, 3, 3]


def test_single_trial_ci_collapses():
    cfg = ExperimentConfig(scenario=_scenario(nu=1), detector=StopAtThree, trials=1, truncation=10)
    report = run_delay_trials(cfg)
    assert report.delay_ci == (3.0, 3.0)


def test_never_stopping_run_is_censored():
    cfg = ExperimentConfig(scenario=_scenario(nu=1), detector=NeverStops, trials=3, truncation=7)
    report = run_delay_trials(cfg)
    assert report.censored_fraction == 1.0
    assert report.mean_delay == 7.0


def test_delay_requires_finite_change_time():
    cfg = ExperimentConfig(scenario=_scenario(nu=math.inf), detector=StopAtThree, trials=2)
    with pytest.raises(ValueError):
        run_delay_trials(cfg)


def test_arl_counts_scored_steps():
    cfg = ExperimentConfig(
        scenario=_scenario(nu=math.inf), detector=StopAtThree, trials=5, truncation=9
    )
    report = run_arl_trials(cfg)
    assert report.arl_estimate == 3.0
    assert report.censored_fraction == 0.0


def test_arl_trials_never_leave_the_prechange_law():
    # nu=2 with a change everywhere, but the no-change campaign must ignore it
    sc = _scenario(n=6, p=1.0, zeta=1e-9, nu=2, flips=(0, 1, 2))
    cfg = ExperimentConfig(scenario=sc, detector=RecordsUppers, trials=1, truncation=5)
    run_arl_trials(cfg)
    i, j = pair_indices(6)
    expected = (sc.pre[i] * sc.pre[j]).astype(np.int8)
    assert len(RecordsUppers.seen) == 5
    assert all(np.array_equal(u, expected) for u in RecordsUppers.seen)


def test_make_runner_kinds():
    sc = _scenario()
    for kind in ("LDP", "LDP-adaptive"):
        runner = make_runner(sc, {"kind": kind, "b": 1.0, "epsilon": 2.0}, trial_seed=0)
        assert runner.state.t == 0
    cdp = make_runner(
        sc, {"kind": "CDP", "b": 1.0, "epsilon": 2.0, "release": "assumed"}, trial_seed=0
    )
    assert cdp.rule.b_tilde is not None
    with pytest.raises(ValueError):
        make_runner(sc, {"kind": "GDP", "b": 1.0, "epsilon": 2.0}, trial_seed=0)
    assert isinstance(make_runner(sc, StopAtThree, trial_seed=0), StopAtThree)


def test_make_runner_rejects_unknown_descriptor_keys():
    base = {"kind": "LDP", "b": 1.0, "epsilon": 2.0}
    with pytest.raises(ValueError, match="windw"):
        make_runner(_scenario(), {**base, "windw": 17}, trial_seed=0)
    with pytest.raises(ValueError, match="seed_first"):
        make_runner(_scenario(), {**base, "seed_first": False}, trial_seed=0)
    # solver settings are constants and the assumed release always assumes stability
    for key, value in (("rank", 4), ("restarts", 2), ("max_iters", 50), ("assumed_distance", 0.0)):
        with pytest.raises(ValueError, match=key):
            make_runner(_scenario(), {**base, key: value}, trial_seed=0)


@pytest.mark.parametrize(
    "release, warning",
    [
        ({"release": "stability", "release_estimator": "ml", "distance_cap": 1}, None),
        ({"release": "subsample", "max_subgraphs": 5}, "NOT"),
        ({"release": "assumed", "release_estimator": "sdp"}, "not differentially private"),
    ],
    ids=["stability", "subsample", "assumed-sdp"],
)
def test_cdp_release_routes_run_a_campaign(release, warning):
    detector = {"kind": "CDP", "b": 1.0, "epsilon": 2.0, "delta": 0.05, **release}
    cfg = ExperimentConfig(
        scenario=_scenario(n=4, nu=1), detector=detector, trials=4, truncation=8, seed=0
    )
    if warning is not None:
        with pytest.warns(RuntimeWarning, match=warning):
            first = run_delay_trials(cfg)
        with pytest.warns(RuntimeWarning):
            second = run_delay_trials(cfg)
    else:
        first, second = run_delay_trials(cfg), run_delay_trials(cfg)
    assert first.rows == second.rows
    assert first.censored_fraction == 0.0


def test_default_truncation_from_threshold():
    # no explicit truncation: the horizon is ceil(50 e^b) samples
    detector = {"kind": "LDP", "b": 0.01, "epsilon": 2.0, "estimator": "fixed"}
    cfg = ExperimentConfig(scenario=_scenario(nu=1), detector=detector, trials=1)
    report = run_delay_trials(cfg)
    assert report.rows[0]["samples"] == math.ceil(50.0 * math.exp(0.01))
    assert report.censored_fraction == 1.0


@pytest.mark.parametrize(
    "detector",
    [
        {"kind": "LDP", "b": 1.0, "epsilon": 2.0, "estimator": "spectral"},
        {"kind": "LDP-adaptive", "b": 1.0, "epsilon": 2.0, "estimator": "spectral"},
        {"kind": "CDP", "b": 1.0, "epsilon": 2.0, "release": "assumed"},
    ],
    ids=["LDP", "LDP-adaptive", "CDP"],
)
def test_parallel_matches_serial(detector):
    sc = _scenario(n=10, nu=1, flips=(0, 1))
    serial = run_delay_trials(
        ExperimentConfig(scenario=sc, detector=detector, trials=4, truncation=8, seed=3)
    )
    parallel = run_delay_trials(
        ExperimentConfig(
            scenario=sc, detector=detector, trials=4, truncation=8, seed=3, parallelism=2
        )
    )
    assert serial.mean_delay == parallel.mean_delay
    for a, b in zip(serial.rows, parallel.rows):
        assert a["delay"] == b["delay"]
        assert a["stat"] == b["stat"]
        assert a["errors"] == b["errors"]


def test_trajectory_matches_trial_zero():
    detector = {"kind": "LDP", "b": 1.0, "epsilon": 2.0, "estimator": "spectral"}
    sc = _scenario(n=10, nu=2, flips=(0, 1))
    cfg = ExperimentConfig(scenario=sc, detector=detector, trials=2, truncation=12, seed=5)
    row = run_delay_trials(cfg).rows[0]
    traj = run_trajectory(sc, detector, truncation=12, seed=5)
    assert len(traj) == row["samples"]
    assert traj[-1]["t"] == row["steps"]
    assert traj[-1]["stat"] == row["stat"]
    assert traj[-1]["stopped"] == row["stopped"]
    assert [r["hamming_est_vs_post"] for r in traj] == row["errors"]


def test_delay_reproducible_and_error_series_present():
    detector = {"kind": "LDP", "b": 1.0, "epsilon": 2.0, "estimator": "spectral"}
    sc = _scenario(n=10, nu=1, flips=(0, 1))
    cfg = ExperimentConfig(scenario=sc, detector=detector, trials=3, truncation=6, seed=1)
    r1, r2 = run_delay_trials(cfg), run_delay_trials(cfg)
    assert r1.mean_delay == r2.mean_delay
    assert r1.recovery_error_series == r2.recovery_error_series
    assert len(r1.recovery_error_series) >= 1


def test_run_trajectory_schema():
    detector = {"kind": "LDP", "b": 0.5, "epsilon": 2.0, "estimator": "spectral"}
    sc = _scenario(n=10, nu=1, flips=(0, 1))
    rows = run_trajectory(sc, detector, truncation=8, seed=0)
    ts = [r["t"] for r in rows]
    assert ts == sorted(ts)
    assert all(r["stat"] >= 0.0 for r in rows)
    assert all(r["hamming_est_vs_post"] >= 0 for r in rows)
    if rows[-1]["stopped"]:
        assert all(not r["stopped"] for r in rows[:-1])


def test_run_trajectory_stream_mode():
    sc = _scenario(n=6, nu=1)
    i, j = pair_indices(6)
    post_pattern = (sc.post[i] * sc.post[j]).astype(np.int8)
    stream = [TernaryGraph(6, post_pattern.copy()) for _ in range(3)]
    detector = {"kind": "LDP", "b": 1e6, "epsilon": 1e6, "estimator": "sdp"}
    rows = run_trajectory(sc, detector, truncation=99, seed=0, stream=stream)
    assert len(rows) == 3
    assert all(r["hamming_est_vs_post"] == -1 for r in rows)
    # noiseless post-change stream through an identity channel: the statistic
    # climbs strictly once the estimate is seeded
    stats = [r["stat"] for r in rows]
    assert stats[0] == 0.0
    assert stats[1] > 0.0 and stats[2] > stats[1]


def test_run_trajectory_stream_stops_at_truncation():
    sc = _scenario(n=6, nu=1)
    i, j = pair_indices(6)
    post_pattern = (sc.post[i] * sc.post[j]).astype(np.int8)
    stream = [TernaryGraph(6, post_pattern.copy()) for _ in range(5)]
    detector = {"kind": "LDP", "b": 1e6, "epsilon": 1e6, "estimator": "spectral"}
    rows = run_trajectory(sc, detector, truncation=2, seed=0, stream=stream)
    assert len(rows) == 2
    assert not any(r["stopped"] for r in rows)


def test_run_trajectory_stream_is_perturbed_at_finite_epsilon():
    # a replayed stream holds raw graphs; the LDP runner perturbs them in step
    # order from one generator(trial seed, PERTURB), exactly as a hand-written
    # fold does, and every estimate reuses the solver seed
    sc = _scenario(n=12, p=0.9, nu=1, flips=(0, 1))
    stream = [sample_cbm(sc.params_pre, sc.post, 40 + k) for k in range(1, 11)]
    spec = {"kind": "LDP", "b": 1e6, "epsilon": 1.5, "estimator": "spectral"}
    rows = run_trajectory(sc, spec, truncation=99, seed=2, stream=stream)
    trial_seed = derive_seed(2, TRIAL, 0)
    cfg = DetectorConfig(estimator="spectral", seed=derive_seed(trial_seed, SOLVER))
    p_t, z_t = perturbed_params(sc.params_pre.p, sc.params_pre.zeta, 1.5)
    state = init_detector(sc.pre, "LDP")
    stats = []
    rng = generator(trial_seed, PERTURB)
    for raw in stream:
        fed = perturb_graph(raw, 1.5, rng)
        state = ldp_step(state, fed, sc.pre, p_t, z_t, cfg)
        stats.append(state.stat)
    assert [r["stat"] for r in rows] == stats
    # the statistic moves, so a fold over the unperturbed stream would differ
    assert len(set(stats)) > 2


def _count_seed_hashes(monkeypatch):
    """Patch numpy's SeedSequence with a subclass that counts its constructions."""
    made = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    return made


def _campaign(kind, **spec):
    # a bar no statistic reaches, so every trial runs to its horizon
    spec = {"kind": kind, "b": 1e6, "epsilon": 1.5, **spec}
    return lambda sc, stream, horizon: run_arl_trials(
        ExperimentConfig(scenario=sc, detector=spec, trials=2, truncation=horizon, seed=1)
    )


# (run of a given horizon, its trials, whether its detector calls sdp_estimate)
SEEDING_RUNS = {
    "cdp-campaign": (_campaign("CDP", release="assumed", release_estimator="spectral"), 2, False),
    "ldp-sdp-campaign": (_campaign("LDP", estimator="sdp"), 2, True),
    "replayed-trajectory": (
        lambda sc, stream, horizon: run_trajectory(
            sc, {"kind": "LDP", "b": 1e6, "epsilon": 1.5, "estimator": "sdp"}, horizon, 1, stream
        ),
        1,
        True,
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("run", SEEDING_RUNS)
def test_seed_hashes_per_trial_do_not_grow_with_steps(monkeypatch, run):
    # a trial hashes the same number of seeds however many steps it runs, and
    # every estimate in a trial gets the trial's one solver seed
    sc = _scenario(n=8, nu=math.inf)
    stream = [sample_cbm(sc.params_pre, sc.post, 40 + k) for k in range(12)]
    fn, trials, uses_sdp = SEEDING_RUNS[run]
    solver_seeds = [derive_seed(derive_seed(1, TRIAL, t), SOLVER) for t in range(trials)]
    seen = []

    def sdp_stub(graphs, seed):
        seen.append(seed)
        return SimpleNamespace(labels=np.ones(graphs[0].n, dtype=np.int8))

    monkeypatch.setattr(detect, "sdp_estimate", sdp_stub)
    hashes = []
    for horizon in (3, 12):
        made = _count_seed_hashes(monkeypatch)
        seen.clear()
        fn(sc, stream, horizon)
        hashes.append(len(made))
        expected = [s for s in solver_seeds for _ in range(horizon)] if uses_sdp else []
        assert seen == expected
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("p", [0.5, 0.0])
def test_ldp_trials_draw_the_perturbed_law(monkeypatch, p):
    # criterion 01's setting: the graphs an LDP runner is fed follow
    # CBM(p~, zeta~) pair by pair, within the same +-0.003; at p = 0 that
    # law has zeta~ = 1/2, outside what CbmParams accepts
    n = 1415
    labels = np.ones(n, dtype=np.int8)
    labels[n // 2 :] = -1
    params = CbmParams(n=n, p=p, zeta=0.1)
    sc = ChangeScenario(pre=labels, post=labels, nu=math.inf, params_pre=params, params_post=params)
    fed = []
    monkeypatch.setattr(harness, "ldp_step", lambda state, graph, *rest: fed.append(graph) or state)
    spec = {"kind": "LDP", "b": 1.0, "epsilon": 1.0, "estimator": "fixed"}
    run_trajectory(sc, spec, truncation=1, seed=0)
    (graph,) = fed
    i, j = pair_indices(n)
    revealed = graph.upper != 0
    disagree = graph.upper[revealed] == -(labels[i] * labels[j])[revealed]
    p_t, z_t = perturbed_params(p, 0.1, 1.0)
    np.testing.assert_allclose([revealed.mean(), disagree.mean()], [p_t, z_t], atol=3e-3)


@pytest.mark.parametrize("kind", ["LDP", "LDP-adaptive"])
def test_ldp_campaign_runs_on_into_an_empty_post_change_law(kind):
    # p = 0 after the change is a valid scenario; its perturbed law
    # (zeta~ = 1/2) must be drawn, not refused at the first post-change sample
    sc = _scenario(n=10, nu=3)
    post = CbmParams(n=10, p=0.0, zeta=0.1)
    sc = ChangeScenario(sc.pre, sc.post, sc.nu, sc.params_pre, post)
    spec = {"kind": kind, "b": 2.0, "epsilon": 1.5, "estimator": "spectral"}
    cfg = ExperimentConfig(scenario=sc, detector=spec, trials=4, truncation=8)
    report = run_delay_trials(cfg)
    assert len(report.rows) == 4
    assert max(r["samples"] for r in report.rows) > 3


def test_drawn_ldp_campaign_samples_once_per_step(monkeypatch):
    calls = {"sample_cbm": 0, "perturb_graph": 0}

    def counting(name):
        original = getattr(harness, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    spec = {"kind": "LDP", "b": 1.0, "epsilon": 1.5, "estimator": "spectral"}
    cfg = ExperimentConfig(scenario=_scenario(n=10, nu=2), detector=spec, trials=5, truncation=9)
    report = run_delay_trials(cfg)
    assert calls == {"sample_cbm": sum(r["samples"] for r in report.rows), "perturb_graph": 0}


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


def test_phase_grid_shape_and_csv(tmp_path):
    grid = phase_grid(
        [1.0, 4.0], [0.05, 0.1, 0.2], epsilon=2.0, n=12, trials=2,
        estimator="spectral", seed=1,
    )
    assert grid.rates.shape == (2, 3)
    assert ((grid.rates >= 0.0) & (grid.rates <= 1.0)).all()
    assert len(grid.boundary) == 3
    path = tmp_path / "grid.csv"
    phase_grid_to_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,zeta,exact_rate,boundary_a"
    assert len(lines) == 7
    with pytest.raises(ValueError):
        phase_grid([], [0.1], epsilon=2.0, n=12, trials=2)
    with pytest.raises(ValueError, match="spektral"):
        phase_grid([1.0], [0.1], epsilon=2.0, n=12, trials=1, estimator="spektral")


def test_recovery_comparison_rows(tmp_path):
    rows = recovery_comparison([8, 10], p=0.8, zeta=0.1, epsilon=2.0, reps=2, seed=4)
    assert [r["n"] for r in rows] == [8, 10]
    for row in rows:
        assert set(row) == {"n", "p", "zeta", "epsilon", "reps", "sdp_err", "spectral_err", "gap"}
        np.testing.assert_allclose(row["gap"], abs(row["sdp_err"] - row["spectral_err"]))
    again = recovery_comparison([8, 10], p=0.8, zeta=0.1, epsilon=2.0, reps=2, seed=4)
    assert rows == again
    path = tmp_path / "cmp.csv"
    comparison_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,p,zeta,epsilon,reps,sdp_err,spectral_err,gap"
    assert len(lines) == 3


def test_recovery_comparison_eps_sweep():
    rows = recovery_comparison_eps([0.5, 4.0], n=10, p=0.8, zeta=0.1, reps=2, seed=4)
    assert [r["epsilon"] for r in rows] == [0.5, 4.0]
    assert all(r["n"] == 10 for r in rows)


def _force_prefetch(monkeypatch, on):
    """Draw ahead at every graph size (on) or at none (off), as on a two-CPU host."""
    monkeypatch.setattr(harness, "PREFETCH_MIN_N", 1 if on else math.inf)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _count_thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _spec(**kw):
    return {"kind": "LDP", "b": 1.0, "epsilon": 2.0, "estimator": "spectral", **kw}


def _replayed(sc, spec):
    stream = [sample_cbm(sc.params_pre, sc.post, 60 + k) for k in range(8)]
    return run_trajectory(sc, spec, truncation=8, seed=4, stream=stream)


def _drawn_rows(sc, spec, parallelism=1):
    cfg = ExperimentConfig(sc, spec, trials=4, truncation=8, seed=3, parallelism=parallelism)
    return run_delay_trials(cfg).rows


# each gives its rows for a scenario
PREFETCH_RUNS = {
    "ldp-sdp": lambda sc: _drawn_rows(sc, _spec(estimator="sdp")),
    "ldp-spectral": lambda sc: _drawn_rows(sc, _spec()),
    "ldp-replayed": lambda sc: _replayed(sc, _spec(b=0.5)),
    "cdp-assumed": lambda sc: _drawn_rows(sc, {"kind": "CDP", "b": 1.0, "epsilon": 2.0, "release": "assumed"}),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("run", PREFETCH_RUNS)
def test_prefetch_leaves_rows_unchanged(monkeypatch, run):
    sc = _scenario(n=10, nu=2, flips=(0, 1))
    rows = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        for on in (False, True):
            _force_prefetch(monkeypatch, on)
            started = _count_thread_starts(monkeypatch)
            rows[on] = PREFETCH_RUNS[run](sc)
            assert bool(started) == on
    finally:
        sys.setswitchinterval(interval)
    assert rows[True] == rows[False]
    # a stop leaves one graph drawn past it
    assert any(r["stopped"] for r in rows[True])


def test_prefetch_at_the_real_threshold_leaves_rows_unchanged(monkeypatch):
    # the unforced path, at the smallest n that prefetches
    n = harness.PREFETCH_MIN_N
    pre = np.array([1] * (n // 2) + [-1] * (n - n // 2), dtype=np.int8)
    post = pre.copy()
    post[:2] *= -1
    params = CbmParams.from_scale(n, 20.0, 0.1)
    sc = ChangeScenario(pre=pre, post=post, nu=1, params_pre=params, params_post=params)
    cfg = ExperimentConfig(sc, _spec(b=2.0), trials=2, truncation=4, seed=5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = _count_thread_starts(monkeypatch)
    ahead = run_delay_trials(cfg).rows
    assert started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_delay_trials(cfg).rows == ahead


def test_pool_workers_match_a_prefetching_serial_run(monkeypatch):
    _force_prefetch(monkeypatch, True)
    sc = _scenario(n=10, nu=2, flips=(0, 1))
    started = _count_thread_starts(monkeypatch)
    serial = _drawn_rows(sc, _spec())
    assert started
    assert _drawn_rows(sc, _spec(), parallelism=2) == serial


@pytest.mark.parametrize("on", [False, True], ids=["inline", "prefetch"])
def test_prefetch_draws_one_graph_past_a_stop_and_none_past_the_horizon(monkeypatch, on):
    _force_prefetch(monkeypatch, on)
    drawn = []
    draw = harness.sample_cbm
    monkeypatch.setattr(harness, "sample_cbm", lambda *args: drawn.append(1) or draw(*args))
    sc = _scenario(n=10, nu=2, flips=(0, 1))
    ends = set()
    for b, horizon in ((1.0, 30), (1e6, 4)):
        for trial in range(4):
            drawn.clear()
            for samples, stopped, _ in harness._steps(sc, _spec(b=b), trial, horizon):
                pass
            ends.add(stopped)
            assert len(drawn) == samples + (on and stopped and samples < horizon)
            assert stopped or samples == horizon
    assert ends == {False, True}


class RaisesAtTwo(NeverStops):
    def step(self, raw, k):
        if k == 2:
            raise RuntimeError("runner failed at step 2")
        return super().step(raw, k)


class StopsAtOne(StopAtThree):
    def step(self, raw, k):
        super().step(raw, k)
        return True


@pytest.mark.parametrize("on", [False, True], ids=["inline", "prefetch"])
def test_a_stream_error_surfaces_at_its_own_step(monkeypatch, on):
    _force_prefetch(monkeypatch, on)
    sc = _scenario(n=10, nu=1)

    def stream():
        for k in range(2):
            yield sample_cbm(sc.params_pre, sc.pre, k)
        raise ValueError("snapshot 3 is unreadable")

    steps = []
    with pytest.raises(ValueError, match="snapshot 3"):
        for k, _, _ in harness._steps(sc, NeverStops, 0, 10, stream()):
            steps.append(k)
    assert steps == [1, 2]


@pytest.mark.parametrize(
    "runner, raises",
    [(StopsAtOne, None), (NeverStops, None), (RaisesAtTwo, RuntimeError)],
    ids=["stops-at-step-1", "truncated", "runner-raises"],
)
def test_no_prefetch_thread_outlives_a_campaign(monkeypatch, runner, raises):
    _force_prefetch(monkeypatch, True)
    started = _count_thread_starts(monkeypatch)
    draw = harness.sample_cbm
    # slow draws, so a worker left unjoined would still be running at the end
    monkeypatch.setattr(harness, "sample_cbm", lambda *args: time.sleep(0.02) or draw(*args))
    before = threading.active_count()
    cfg = ExperimentConfig(_scenario(n=10, nu=1), runner, trials=3, truncation=4)
    if raises is None:
        run_delay_trials(cfg)
    else:
        with pytest.raises(raises):
            run_delay_trials(cfg)
    assert started
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "min_n, cpus, ahead",
    [(10, {0, 1}, True), (11, {0, 1}, False), (1, {0}, False)],
    ids=["at-min-n", "below-min-n", "one-cpu"],
)
def test_prefetch_needs_min_n_and_two_cpus(monkeypatch, min_n, cpus, ahead):
    monkeypatch.setattr(harness, "PREFETCH_MIN_N", min_n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    started = _count_thread_starts(monkeypatch)
    run_delay_trials(ExperimentConfig(_scenario(n=10, nu=1), StopAtThree, trials=2, truncation=5))
    assert bool(started) == ahead


# one trial of each privacy flavor, each estimator, one at n = 200, one that
# prefetches, then the modules loaded
_ONE_TRIAL_CAMPAIGNS = """
import sys
import numpy as np
import cbmdetect
from cbmdetect import CbmParams, ChangeScenario, ExperimentConfig, run_delay_trials
pre = np.array([1] * 25 + [-1] * 25, dtype=np.int8)
post = pre.copy()
post[:2] *= -1
params = CbmParams.from_scale(50, 5.0, 0.1)
scenario = ChangeScenario(pre=pre, post=post, nu=1, params_pre=params, params_post=params)
for detector in (
    {"kind": "LDP", "b": 6.9, "epsilon": 1.5, "estimator": "sdp"},
    {"kind": "LDP", "b": 6.9, "epsilon": 1.5, "estimator": "spectral"},
    {"kind": "CDP", "b": 6.9, "epsilon": 1.5, "release": "assumed"},
):
    run_delay_trials(ExperimentConfig(scenario, detector, trials=1, truncation=20))
# n = 200 runs Lanczos, warm-started from the running estimate
pre = np.array([1] * 100 + [-1] * 100, dtype=np.int8)
post = pre.copy()
post[:2] *= -1
params = CbmParams.from_scale(200, 5.0, 0.1)
scenario = ChangeScenario(pre=pre, post=post, nu=1, params_pre=params, params_post=params)
detector = {"kind": "LDP", "b": 6.9, "epsilon": 1.5, "estimator": "spectral"}
run_delay_trials(ExperimentConfig(scenario, detector, trials=1, truncation=20))
# from PREFETCH_MIN_N on, each next graph is drawn on a worker thread
n = cbmdetect.harness.PREFETCH_MIN_N
pre = np.array([1] * (n // 2) + [-1] * (n - n // 2), dtype=np.int8)
post = pre.copy()
post[:2] *= -1
params = CbmParams.from_scale(n, 5.0, 0.1)
scenario = ChangeScenario(pre=pre, post=post, nu=1, params_pre=params, params_post=params)
run_delay_trials(ExperimentConfig(scenario, detector, trials=1, truncation=3))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))))
"""


def test_campaigns_never_import_scipy():
    # scipy is a test-only dependency; importing scipy.linalg alone costs
    # more than a benchmark workload's whole set-up, and concurrent.futures
    # (process pools only) adds several ms to it
    src = str(Path(cbmdetect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _ONE_TRIAL_CAMPAIGNS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == ""
