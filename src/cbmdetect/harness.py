"""Simulation drivers: delay and run-length trials, the one-shot recovery sweep.

One loop runs every detection trial: `_steps` feeds a trial's graphs (drawn
from the scenario, or replayed from a stream) to the runner that make_runner
builds, one step per graph, until the runner stops, and yields one record
per step. A campaign's rows and the trajectory are folds over those
records, and both campaigns build their report the same way; a run-length
campaign is a delay campaign whose change never comes (nu = inf). Every
entry point takes one ExperimentConfig, and the trajectory is trial 0 of
the campaign its config describes: that trial's seed, and the one horizon
rule, `_default_truncation`.
`one_shot_sweep` is the other experiment: both estimators on one perturbed
graph per draw, over a list of (params, epsilon) cells.

Trials are reproducible regardless of scheduling. A trial's seed derives
from (experiment seed, trial index) and owns one Philox stream per purpose,
read in step order: SAMPLE for drawn graphs, PERTURB for replayed ones and
LAPLACE for a central trial's bar, step noise and releases. Every estimate
reuses one solver seed, derive_seed(trial seed, SOLVER). No seed depends on
a step, so a parallel run and a serial run produce identical reports. A
sweep draw is seeded the same way, from (experiment seed, cell index, rep).

Drawn graphs follow the law the runner observes: an LDP runner reads
randomized-response output, which is CBM(sigma, p~, zeta~) exactly
(`perturbed_params`), so its graphs are drawn from that law in one pass.
Replayed streams hold raw graphs, and the LDP runner perturbs each one.

From n = PREFETCH_MIN_N on, a serial trial on a process allowed two or more
CPUs keeps one graph ahead: while the runner steps on graph k, a worker
thread draws graph k + 1 (or takes and observes the stream's next one) and
builds its dense matrix. The draw reads only the trial's own stream, never
the runner's state, and draws stay one at a time in step order, so seeds
and rows are the same with or without it. Trials in a process pool skip it,
as the pool already keeps the CPUs busy.

Time accounting: detector states count scored statistics. Runners report
delays as scored statistics from the first post-change one; the sample a
detector absorbs to initialize its estimate is not scored.
"""

import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._rng import LAPLACE, PERTURB, SAMPLE, SOLVER, TRIAL, derive_seed, generator
from .cdp import release_assuming_stable, stability_release, subsample_stability_release
from .detect import (
    ESTIMATORS,
    DetectorConfig,
    StoppingRule,
    adaptive_step_unknown_params,
    cdp_step,
    cdp_stop,
    cdp_threshold,
    estimate,
    init_detector,
    ldp_step,
    ldp_stop,
)
from .io import CDP_DESCRIPTOR, COUNTS, LDP_DESCRIPTOR, checked
from .ldp import PrivacyBudget, perturb_graph, perturbed_params
from .model import ChangeScenario, err, random_labels, sample_cbm, validate_labels
from .recovery import sdp_estimate, spectral_estimate
from .theory import theorem_boundary_a

__all__ = [
    "ExperimentConfig",
    "SimReport",
    "run_delay_trials",
    "run_arl_trials",
    "run_trajectory",
    "one_shot_sweep",
    "make_runner",
]

# Smallest graph size at which a trial draws its next graph on a worker
# thread (`_steps`). Measured with one BLAS thread on a 2-core Xeon with a
# 4 MiB L2 per core, a = 20 spectral campaigns ran 1.1-1.4x slower with the
# worker at n = 400-700 and 5-20% faster from n = 750-800 on, where the
# dense matrix outgrows the L2; SDP campaigns were within noise from n = 700.
PREFETCH_MIN_N = 800


@dataclass
class ExperimentConfig:
    """One simulation campaign, whose trial 0 is also `run_trajectory`'s run.

    detector is either a descriptor dict (see make_runner) or a factory
    callable (scenario, trial_seed) -> runner, for stubs and custom rigs.
    truncation None picks ceil(50 * e^b) from the descriptor's bar; a
    factory has no bar to read, so it names its truncation.
    """

    scenario: ChangeScenario
    detector: object
    trials: int = 200
    truncation: int | None = None
    seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        checked("experiment", {name: getattr(self, name) for name in COUNTS}, COUNTS)


@dataclass
class SimReport:
    """Campaign summary plus per-trial rows (dicts, one per trial)."""

    mean_delay: float | None = None
    delay_ci: tuple | None = None
    arl_estimate: float | None = None
    censored_fraction: float = 0.0
    recovery_error_series: list = field(default_factory=list)
    rows: list = field(default_factory=list)


def _mean_ci(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, (mean, mean)
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, (mean - half, mean + half)


def _detector_cfg(spec, trial_seed):
    # only the keys the descriptor gives: the defaults are DetectorConfig's
    given = {key: spec[key] for key in ("estimator", "window") if key in spec}
    return DetectorConfig(seed=derive_seed(trial_seed, SOLVER), **given)


def _mechanism(spec):
    kind = spec.get("release", "assumed")
    name = spec.get("release_estimator", "spectral")
    if name not in ESTIMATORS:
        raise ValueError(f"unknown release estimator {name!r}, expected one of {ESTIMATORS}")
    est = functools.partial(estimate, name)
    if kind == "assumed":
        return lambda g, b, s: release_assuming_stable(g, b, est, s)
    if kind == "stability":
        cap = spec.get("distance_cap")
        return lambda g, b, s: stability_release(g, b, est, s, cap=cap)
    if kind == "subsample":
        cap = spec.get("max_subgraphs")
        return lambda g, b, s: subsample_stability_release(g, b, est, s, max_subgraphs=cap)
    raise ValueError(f"unknown release mechanism {kind!r}")


@dataclass(frozen=True)
class _Law:
    """A CBM law as `sample_cbm` reads it, without `CbmParams`' checks.

    Randomized response on a graph with p = 0 reveals pairs with random
    signs, CBM(p~, 1/2), which `CbmParams` refuses (zeta must stay below 1/2
    for the labels to be identifiable) but `sample_cbm` draws exactly.
    """

    n: int
    p: float
    zeta: float


class _LdpRunner:
    """Scores randomized-response graphs at the perturbed-law parameters.

    `law` and `observe` say what it reads: drawn graphs come straight from
    the perturbed law, and a raw graph (a replayed stream's) is perturbed
    first. A runner without them reads raw graphs.
    """

    def __init__(self, scenario, spec, trial_seed):
        self.scenario = scenario
        self.kind = spec["kind"]
        self.epsilon = spec["epsilon"]
        self._laws = {}
        observed = self.law(scenario.params_pre)
        self.p_t, self.z_t = observed.p, observed.zeta
        self.cfg = _detector_cfg(spec, trial_seed)
        self.state = init_detector(scenario.pre)
        self.rule = StoppingRule(b=spec["b"])
        self.trial_seed = trial_seed

    def law(self, params):
        """CBM(p~, zeta~): params' law after randomized response, built once per regime."""
        if params not in self._laws:
            p_t, z_t = perturbed_params(params.p, params.zeta, self.epsilon)
            self._laws[params] = _Law(params.n, p_t, z_t)
        return self._laws[params]

    @functools.cached_property
    def _perturb_rng(self):
        # built on the first replayed graph; drawn trials never perturb
        return generator(self.trial_seed, PERTURB)

    def observe(self, raw_graph):
        """Randomized response on the next raw graph, from the trial's PERTURB stream."""
        return perturb_graph(raw_graph, self.epsilon, self._perturb_rng)

    def step(self, graph, k):
        step = ldp_step if self.kind == "LDP" else adaptive_step_unknown_params
        self.state = step(self.state, graph, self.scenario.pre, self.p_t, self.z_t, self.cfg)
        return ldp_stop(self.state, self.rule)


class _CdpRunner:
    def __init__(self, scenario, spec, trial_seed):
        self.pre = scenario.pre
        self.budget = PrivacyBudget(spec["epsilon"], spec.get("delta", 0.05))
        self.p, self.zeta = scenario.params_pre.p, scenario.params_pre.zeta
        self.mech = _mechanism(spec)
        self.state = init_detector(scenario.pre)
        # the noisy bar, then every step's noise and release, in order
        self.rng = generator(trial_seed, LAPLACE)
        self.rule = cdp_threshold(spec["b"], self.zeta, spec["epsilon"], self.rng)

    def step(self, raw_graph, k):
        self.state = cdp_step(
            self.state, raw_graph, self.pre, self.p, self.zeta, self.budget, self.mech, self.rng
        )
        return cdp_stop(self.state, self.rule)


# kind -> (runner, the table its descriptors are read by)
_RUNNERS = {
    "LDP": (_LdpRunner, LDP_DESCRIPTOR),
    "LDP-adaptive": (_LdpRunner, LDP_DESCRIPTOR),
    "CDP": (_CdpRunner, CDP_DESCRIPTOR),
}


def make_runner(scenario, detector, trial_seed):
    """Instantiate the stepping object for one trial: detector is a factory (see
    ExperimentConfig) or a descriptor dict, which its kind's table in io reads."""
    if callable(detector):
        return detector(scenario, trial_seed)
    return _runner_class(detector)(scenario, detector, trial_seed)


def _runner_class(detector):
    """The runner class for a descriptor, once its kind's table has read it."""
    kind = detector.get("kind")
    try:
        runner, table = _RUNNERS[kind]
    except (KeyError, TypeError):  # TypeError: a kind that cannot be a key
        raise ValueError(f"detector kind must be one of {sorted(_RUNNERS)}, got {kind!r}") from None
    checked(f"{kind} descriptor", detector, table)
    return runner


def _default_truncation(cfg):
    """A trial's horizon: cfg.truncation, else ceil(50 e^b) from the descriptor's bar."""
    if cfg.truncation is not None:
        return cfg.truncation
    if callable(cfg.detector):
        raise ValueError("a detector factory has no bar to read; give an explicit truncation")
    _runner_class(cfg.detector)  # make_runner's check, before b is read
    b = cfg.detector["b"]
    try:
        return math.ceil(50.0 * math.exp(b))
    except OverflowError:
        raise ValueError(
            f"b = {b} puts the default truncation ceil(50 e^b) out of range; "
            "give an explicit truncation"
        ) from None


def _drawn(scenario, trial_seed, horizon, law):
    """Graphs for samples 1..horizon at law(regime params), each drawn when asked for.

    All of a trial's draws come from one stream, consumed in step order.
    Where `_steps` prefetches, the draw of sample k + 1 runs on its worker
    thread while the runner steps on sample k; the stream is still read by
    one thread at a time, in the same order, so the graphs are the same.
    """
    rng = generator(trial_seed, SAMPLE)
    for k in range(1, horizon + 1):
        labels, params = scenario.regime_at(k)
        yield sample_cbm(law(params), labels, rng)


def _prefetches(n):
    """Whether a trial at graph size n draws ahead: n >= PREFETCH_MIN_N and two CPUs or more."""
    if n < PREFETCH_MIN_N:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _ahead(graphs):
    """Yield graphs' graphs in order, each taken one step early on a worker thread.

    The first graph is taken here. Before each graph is yielded, a worker
    starts taking the next and building its dense matrix, so that runs while
    the consumer works on this one; one worker runs at a time. An exception
    from taking a graph is raised when that graph is asked for. However this
    ends, the worker is joined before graphs is closed.
    """

    def take(box):
        try:
            graph = next(graphs, None)
            if graph is not None:
                graph.dense()
            box.append(graph)
        except Exception as exc:  # raised again at the step it belongs to
            box.append(exc)

    worker = None
    try:
        graph = next(graphs, None)
        while graph is not None:
            box = []
            worker = threading.Thread(target=take, args=(box,), name="cbmdetect-prefetch")
            worker.start()
            yield graph
            worker.join()
            (graph,) = box
            if isinstance(graph, Exception):
                raise graph
    finally:
        if worker is not None:
            worker.join()
        graphs.close()


class _Step(NamedTuple):
    """What a runner's state reads after one step; error is None without one to score."""

    t: int
    stat: float
    noisy_stat: float | None
    error: int | None


def _steps(scenario, detector, trial_seed, horizon, stream=None, ahead=True):
    """Feed one trial's runner up to horizon graphs; yield (samples, stopped, step) until it stops.

    step is a `_Step` read from the runner's state. Its error is
    err(estimate, scenario.post), or None on a replayed stream, whose post
    labels are unknowable, and for a runner whose state carries no estimate
    (stubs, fixed-label rigs). Graphs are drawn from the scenario at the
    law the runner observes, or taken from a stream of raw graphs and
    passed through its `observe`.
    With ahead (pool workers pass False), from n = PREFETCH_MIN_N on and on
    a process allowed two or more CPUs, graph k + 1 is drawn (or taken and
    observed) and densified on a worker thread while the runner steps on
    graph k (`_ahead`); the array work on both threads runs outside the
    interpreter lock. So a runner's `law` and `observe` run beside its
    `step` and must not touch what `step` reads. Draws stay in order, one
    at a time, and read only their own stream, so every seeded row is the
    same either way. A stop leaves at most one graph drawn past it, and
    none is drawn past horizon. The source is closed, and the worker
    joined, before this returns or raises.
    """
    runner = make_runner(scenario, detector, trial_seed)
    if stream is None:
        law = getattr(runner, "law", lambda params: params)
        graphs = _drawn(scenario, trial_seed, horizon, law)
    else:
        observe = getattr(runner, "observe", lambda raw: raw)
        graphs = (observe(raw) for raw in itertools.islice(stream, horizon))
    if ahead and _prefetches(scenario.params_pre.n):
        graphs = _ahead(graphs)
    post = scenario.post if stream is None else None
    try:
        for samples, graph in enumerate(graphs, 1):
            stopped = runner.step(graph, samples)
            state = runner.state
            sigma = getattr(state, "sigma_hat", None)
            error = None if post is None or sigma is None else _post_error(sigma, post)
            yield samples, stopped, _Step(state.t, state.stat, state.noisy_stat, error)
            if stopped:
                return
    finally:
        graphs.close()


def _post_error(sigma, post):
    """err(sigma, post), checking sigma only: a scenario's post is canonical already."""
    d = int(np.count_nonzero(validate_labels(sigma, len(post)) != post))
    return min(d, len(post) - d)


def _run_one_trial(cfg, truncation, trial, ahead=True):
    scenario, trial_seed = cfg.scenario, derive_seed(cfg.seed, TRIAL, trial)
    steps = _steps(scenario, cfg.detector, trial_seed, truncation, ahead=ahead)
    errors = []
    for samples, stopped, step in steps:
        if step.error is not None:
            errors.append(step.error)
    # scored statistics lag samples by one when the first sample only seeded
    offset = samples - step.t
    pre_stats = max(int(scenario.nu) - 1 - offset, 0) if scenario.nu != math.inf else 0
    return {
        "trial": trial,
        "stopped": stopped,
        "censored": not stopped,
        "steps": step.t,
        "samples": samples,
        "delay": step.t - pre_stats,
        "stat": step.stat,
        "noisy_stat": step.noisy_stat,
        "errors": errors,
    }


def _run_trials(cfg):
    truncation = _default_truncation(cfg)
    if cfg.parallelism > 1:
        # imported here: the module costs tens of ms and serial runs never need it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            # the pool's processes already keep the CPUs busy: no prefetch there
            run = functools.partial(_run_one_trial, cfg, truncation, ahead=False)
            return list(pool.map(run, range(cfg.trials)))
    return [_run_one_trial(cfg, truncation, trial) for trial in range(cfg.trials)]


def _report(rows, **figures):
    """SimReport over trial rows: the censored share, the mean error at each sample, figures."""
    errors = [r["errors"] for r in rows]
    longest = max(map(len, errors), default=0)
    series = [float(np.mean([e[s] for e in errors if len(e) > s])) for s in range(longest)]
    censored = sum(r["censored"] for r in rows) / len(rows)
    return SimReport(
        censored_fraction=censored, recovery_error_series=series, rows=rows, **figures
    )


def run_delay_trials(cfg):
    """Detection delay under a change at scenario.nu (finite).

    Delay counts scored statistics starting at the first post-change one;
    censored trials contribute their truncated count, so the mean is a
    lower bound when censoring occurred (see censored_fraction).
    """
    if cfg.scenario.nu == math.inf:
        raise ValueError("delay trials need a finite change time nu")
    rows = _run_trials(cfg)
    mean, ci = _mean_ci([r["delay"] for r in rows])
    return _report(rows, mean_delay=mean, delay_ci=ci)


def run_arl_trials(cfg):
    """Run length to false alarm with no change ever (pre-change forever).

    Censored runs count at the truncation horizon, making the estimate a
    lower bound on the true average run length.
    """
    rows = _run_trials(replace(cfg, scenario=replace(cfg.scenario, nu=math.inf)))
    return _report(rows, arl_estimate=float(np.mean([r["steps"] for r in rows])))


def run_trajectory(cfg, stream=None):
    """Trial 0 of cfg's campaign, recorded step by step for trajectory CSV output.

    Its seed and horizon are the campaign's trial 0's, so the rows fold to
    that trial's row. With a stream (raw graphs), samples come from its
    first horizon graphs and the hamming column is -1 (true post labels
    unknowable); otherwise samples are drawn from the scenario.
    """
    trial_seed = derive_seed(cfg.seed, TRIAL, 0)
    steps = _steps(cfg.scenario, cfg.detector, trial_seed, _default_truncation(cfg), stream)
    return [
        {
            "t": step.t,
            "stat": step.stat,
            "noisy_stat": step.noisy_stat,
            "stopped": stopped,
            "hamming_est_vs_post": -1 if step.error is None else step.error,
        }
        for _, stopped, step in steps
    ]


def one_shot_sweep(cells, reps, seed=0):
    """Exact recovery from one perturbed graph per draw, for each (CbmParams, epsilon) cell.

    A draw is seeded as a trial is: rep_seed = derive_seed(seed, TRIAL,
    cell index, rep); labels, then the raw graph, come from its SAMPLE
    stream, randomized response from its PERTURB stream, and both the SDP
    and the spectral estimator run on the perturbed graph with the seed
    derive_seed(rep_seed, SOLVER). So a row depends on its own cell and its
    place in cells, never on the other cells.

    One row per cell: n, p, zeta, epsilon, reps, each estimator's mean error
    as a fraction of n (sdp_err, spectral_err) and exact-recovery rate
    (sdp_exact, spectral_exact), the theorem's boundary_a, and
    eps_at_least_log_n, whether epsilon lies in the regime where that
    boundary is a prediction.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("need at least one cell")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    # computed before any draw, so a bad epsilon in any cell fails at once
    boundaries = [theorem_boundary_a(params.zeta, epsilon, params.n) for params, epsilon in cells]
    rows = []
    for index, ((params, epsilon), boundary) in enumerate(zip(cells, boundaries)):
        sdp, spectral = [], []
        for rep in range(reps):
            rep_seed = derive_seed(seed, TRIAL, index, rep)
            rng = generator(rep_seed, SAMPLE)
            labels = random_labels(params.n, rng)
            raw = sample_cbm(params, labels, rng)
            fed = perturb_graph(raw, epsilon, generator(rep_seed, PERTURB))
            solver_seed = derive_seed(rep_seed, SOLVER)
            sdp.append(err(sdp_estimate(fed, seed=solver_seed).labels, labels))
            spectral.append(err(spectral_estimate(fed, seed=solver_seed).labels, labels))
        rows.append(
            {
                "n": params.n,
                "p": params.p,
                "zeta": params.zeta,
                "epsilon": epsilon,
                "reps": reps,
                "sdp_err": sum(sdp) / (reps * params.n),
                "spectral_err": sum(spectral) / (reps * params.n),
                "sdp_exact": sdp.count(0) / reps,
                "spectral_exact": spectral.count(0) / reps,
                "boundary_a": boundary,
                "eps_at_least_log_n": epsilon >= math.log(params.n),
            }
        )
    return rows
