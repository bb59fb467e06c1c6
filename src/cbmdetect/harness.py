"""Simulation drivers: delay and run-length trials, phase grids, comparisons.

One loop runs every detection trial: `_steps` feeds a trial's graphs (drawn
from the scenario, or replayed from a stream) to the runner that make_runner
builds, one step per graph, until the runner stops. Campaign rows and the
trajectory are folds over it; a run-length campaign is a delay campaign
whose change never comes (nu = inf). The one-shot sweeps (phase grid, the
SDP-vs-spectral comparisons) share one seeded draw, `_one_shot`.

Trials are reproducible regardless of scheduling. A trial's seed derives
from (experiment seed, trial index) and owns one Philox stream per purpose,
read in step order: SAMPLE for drawn graphs, PERTURB for replayed ones and
LAPLACE for a central trial's bar, step noise and releases. Every estimate
reuses one solver seed, derive_seed(trial seed, SOLVER). No seed depends on
a step, so a parallel run and a serial run produce identical reports.

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

import numpy as np

from ._rng import LAPLACE, PERTURB, SAMPLE, SOLVER, TRIAL, derive_seed, generator
from .cdp import release_assuming_stable, stability_release, subsample_stability_release
from .detect import (
    DetectorConfig,
    StoppingRule,
    adaptive_step_unknown_params,
    cdp_step,
    cdp_stop,
    cdp_threshold,
    init_detector,
    ldp_step,
    ldp_stop,
)
from .ldp import PrivacyBudget, ldp_recovery_margin, perturb_graph, perturbed_params
from .model import CbmParams, ChangeScenario, err, random_labels, sample_cbm, validate_labels
from .recovery import ml_exhaustive, sdp_estimate, spectral_estimate

__all__ = [
    "ExperimentConfig",
    "SimReport",
    "PhaseGrid",
    "run_delay_trials",
    "run_arl_trials",
    "run_trajectory",
    "phase_grid",
    "phase_grid_to_csv",
    "recovery_comparison",
    "recovery_comparison_eps",
    "comparison_to_csv",
    "theorem_boundary_a",
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
    """One simulation campaign: a scenario, a detector, trial bookkeeping.

    detector is either a descriptor dict (see make_runner) or a factory
    callable (scenario, trial_seed) -> runner, for stubs and custom rigs.
    truncation None picks ceil(50 * e^b) from the descriptor's threshold.
    """

    scenario: ChangeScenario
    detector: object
    trials: int = 200
    truncation: int | None = None
    seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


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
    return DetectorConfig(
        estimator=spec.get("estimator", "sdp"),
        window=spec.get("window", 1),
        seed=derive_seed(trial_seed, SOLVER),
    )


def _release_estimator(spec):
    name = spec.get("release_estimator", "spectral")
    if name == "ml":
        return ml_exhaustive
    if name == "sdp":
        return lambda g: sdp_estimate(g, seed=0)
    if name == "spectral":
        return lambda g: spectral_estimate(g, seed=0)
    raise ValueError(f"unknown release estimator {name!r}")


def _mechanism(spec):
    kind = spec.get("release", "assumed")
    est = _release_estimator(spec)
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
        self.state = init_detector(scenario.pre, self.kind)
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
        self.state = init_detector(scenario.pre, "CDP")
        # the noisy bar, then every step's noise and release, in order
        self.rng = generator(trial_seed, LAPLACE)
        self.rule = cdp_threshold(spec["b"], self.zeta, spec["epsilon"], self.rng)

    def step(self, raw_graph, k):
        self.state = cdp_step(
            self.state, raw_graph, self.pre, self.p, self.zeta, self.budget, self.mech, self.rng
        )
        return cdp_stop(self.state, self.rule)


_RUNNERS = {
    "LDP": _LdpRunner,
    "LDP-adaptive": _LdpRunner,
    "CDP": _CdpRunner,
}

# every key a descriptor may carry, for any kind
_DESCRIPTOR_KEYS = {
    "kind", "b", "epsilon", "estimator", "window",
    "delta", "release", "release_estimator", "distance_cap", "max_subgraphs",
}


def make_runner(scenario, detector, trial_seed):
    """Instantiate the stepping object for one trial.

    Descriptor dicts need kind (LDP | LDP-adaptive | CDP), b, epsilon, and
    accept estimator/window plus, for CDP, delta and release = assumed |
    stability | subsample with release_estimator, distance_cap,
    max_subgraphs. SDP solves use recovery's fixed settings. Any other key
    raises ValueError, so a misspelt key cannot fall back to a default.
    """
    if callable(detector):
        return detector(scenario, trial_seed)
    unknown = sorted(set(detector) - _DESCRIPTOR_KEYS)
    if unknown:
        raise ValueError(f"unknown detector descriptor keys {unknown}")
    kind = detector["kind"]
    if kind not in _RUNNERS:
        raise ValueError(f"unknown detector kind {kind!r}")
    return _RUNNERS[kind](scenario, detector, trial_seed)


def _default_truncation(cfg):
    if cfg.truncation is not None:
        return cfg.truncation
    if isinstance(cfg.detector, dict) and "b" in cfg.detector:
        return math.ceil(50.0 * math.exp(cfg.detector["b"]))
    return 1000


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


def _steps(scenario, detector, trial_seed, horizon, stream=None, ahead=True):
    """Feed one trial's runner up to horizon graphs; yield (k, stopped, state) until it stops.

    Graphs are drawn from the scenario at the law the runner observes, or
    taken from a stream of raw graphs and passed through its `observe`.
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
    try:
        for k, graph in enumerate(graphs, 1):
            stopped = runner.step(graph, k)
            yield k, stopped, runner.state
            if stopped:
                return
    finally:
        graphs.close()


def _post_error(sigma, post):
    """err(sigma, post), checking sigma only: a scenario's post is canonical already."""
    d = int(np.count_nonzero(validate_labels(sigma, len(post)) != post))
    return min(d, len(post) - d)


def _run_one_trial(scenario, detector, seed, truncation, trial, ahead=True):
    trial_seed = derive_seed(seed, TRIAL, trial)
    errors = []
    for samples, stopped, state in _steps(scenario, detector, trial_seed, truncation, ahead=ahead):
        # runner factories (stubs, fixed-label rigs) may carry no estimate
        sigma = getattr(state, "sigma_hat", None)
        if sigma is not None:
            errors.append(_post_error(sigma, scenario.post))
    # scored statistics lag samples by one when the first sample only seeded
    offset = samples - state.t
    pre_stats = max(int(scenario.nu) - 1 - offset, 0) if scenario.nu != math.inf else 0
    return {
        "trial": trial,
        "stopped": stopped,
        "censored": not stopped,
        "steps": state.t,
        "samples": samples,
        "delay": state.t - pre_stats,
        "stat": state.stat,
        "noisy_stat": state.noisy_stat,
        "errors": errors,
    }


def _run_trials(cfg, scenario):
    truncation = _default_truncation(cfg)
    jobs = [(scenario, cfg.detector, cfg.seed, truncation, trial) for trial in range(cfg.trials)]
    if cfg.parallelism > 1:
        # imported here: the module costs tens of ms and serial runs never need it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            # the pool's processes already keep the CPUs busy: no prefetch there
            run = functools.partial(_run_one_trial, ahead=False)
            return list(pool.map(run, *zip(*jobs)))
    return [_run_one_trial(*job) for job in jobs]


def _error_series(rows):
    longest = max((len(r["errors"]) for r in rows), default=0)
    series = []
    for s in range(longest):
        vals = [r["errors"][s] for r in rows if len(r["errors"]) > s]
        series.append(float(np.mean(vals)))
    return series


def run_delay_trials(cfg):
    """Detection delay under a change at scenario.nu (finite).

    Delay counts scored statistics starting at the first post-change one;
    censored trials contribute their truncated count, so the mean is a
    lower bound when censoring occurred (see censored_fraction).
    """
    if cfg.scenario.nu == math.inf:
        raise ValueError("delay trials need a finite change time nu")
    rows = _run_trials(cfg, cfg.scenario)
    mean, ci = _mean_ci([r["delay"] for r in rows])
    return SimReport(
        mean_delay=mean,
        delay_ci=ci,
        censored_fraction=sum(r["censored"] for r in rows) / len(rows),
        recovery_error_series=_error_series(rows),
        rows=rows,
    )


def run_arl_trials(cfg):
    """Run length to false alarm with no change ever (pre-change forever).

    Censored runs count at the truncation horizon, making the estimate a
    lower bound on the true average run length.
    """
    rows = _run_trials(cfg, replace(cfg.scenario, nu=math.inf))
    lengths = [r["steps"] for r in rows]
    return SimReport(
        arl_estimate=float(np.mean(lengths)),
        censored_fraction=sum(r["censored"] for r in rows) / len(rows),
        recovery_error_series=_error_series(rows),
        rows=rows,
    )


def run_trajectory(scenario, detector, truncation, seed, stream=None):
    """One run, recorded step by step for trajectory CSV output.

    With a stream (list of graphs), samples come from its first
    `truncation` graphs and the hamming column is -1 (true post labels
    unknowable); otherwise samples are drawn from the scenario.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    trial_seed = derive_seed(seed, TRIAL, 0)
    rows = []
    for _, stopped, state in _steps(scenario, detector, trial_seed, truncation, stream):
        sigma = getattr(state, "sigma_hat", None)
        ham = -1 if stream is not None or sigma is None else _post_error(sigma, scenario.post)
        rows.append(
            {
                "t": state.t,
                "stat": state.stat,
                "noisy_stat": state.noisy_stat,
                "stopped": stopped,
                "hamming_est_vs_post": ham,
            }
        )
    return rows


def theorem_boundary_a(zeta, epsilon, n):
    """Signal strength a where the one-shot recovery margin crosses zero.

    The margin a (sqrt(1-zeta) - sqrt(zeta))^2 - rhs(eps, n) is linear in a,
    so its root is -margin(0) over the slope.
    """
    margin_at_zero = ldp_recovery_margin(0.0, zeta, epsilon, n)[0]
    return -margin_at_zero / (math.sqrt(1.0 - zeta) - math.sqrt(zeta)) ** 2


@dataclass
class PhaseGrid:
    """Exact-recovery rates over (a, zeta) with the predicted boundary."""

    a_values: list
    zeta_values: list
    epsilon: float
    n: int
    rates: np.ndarray  # shape (len(a_values), len(zeta_values))
    boundary: list  # boundary a per zeta


def _one_shot(params, epsilon, child):
    """(planted labels, perturbed graph): one seeded draw for the one-shot sweeps."""
    labels = random_labels(params.n, generator(child, 0))
    raw = sample_cbm(params, labels, derive_seed(child, 1))
    return labels, perturb_graph(raw, epsilon, derive_seed(child, 2))


def phase_grid(a_values, zeta_values, epsilon, n, trials, estimator="sdp", seed=0):
    """One-shot recovery rate from a single perturbed graph per cell (estimator sdp | spectral)."""
    a_values = list(a_values)
    zeta_values = list(zeta_values)
    if not a_values or not zeta_values:
        raise ValueError("both grids must be nonempty")
    if estimator not in ("sdp", "spectral"):
        raise ValueError(f"unknown estimator {estimator!r}")
    solve = sdp_estimate if estimator == "sdp" else spectral_estimate
    rates = np.zeros((len(a_values), len(zeta_values)))
    for ai, a in enumerate(a_values):
        for zi, zeta in enumerate(zeta_values):
            params = CbmParams.from_scale(n, a, zeta)
            hits = 0
            for rep in range(trials):
                child = derive_seed(seed, 11, zi, ai, rep)
                labels, fed = _one_shot(params, epsilon, child)
                est = solve(fed, seed=derive_seed(child, 3)).labels
                hits += err(est, labels) == 0
            rates[ai, zi] = hits / trials
    boundary = [theorem_boundary_a(zeta, epsilon, n) for zeta in zeta_values]
    return PhaseGrid(a_values, zeta_values, epsilon, n, rates, boundary)


def phase_grid_to_csv(grid, path):
    with open(path, "w") as fh:
        fh.write("a,zeta,exact_rate,boundary_a\n")
        for ai, a in enumerate(grid.a_values):
            for zi, zeta in enumerate(grid.zeta_values):
                fh.write(f"{a:.10g},{zeta:.10g},{grid.rates[ai, zi]:.10g},{grid.boundary[zi]:.10g}\n")


def _comparison_row(params, epsilon, reps, tag):
    """Mean SDP and spectral error fractions over reps draws, both estimators on each."""
    sdp_errs = []
    spec_errs = []
    for rep in range(reps):
        child = derive_seed(*tag, rep)
        labels, fed = _one_shot(params, epsilon, child)
        sdp_errs.append(err(sdp_estimate(fed, seed=derive_seed(child, 3)).labels, labels) / params.n)
        spec_errs.append(err(spectral_estimate(fed, seed=derive_seed(child, 4)).labels, labels) / params.n)
    return {
        "n": params.n,
        "p": params.p,
        "zeta": params.zeta,
        "epsilon": epsilon,
        "reps": reps,
        "sdp_err": float(np.mean(sdp_errs)),
        "spectral_err": float(np.mean(spec_errs)),
        "gap": float(abs(np.mean(sdp_errs) - np.mean(spec_errs))),
    }


def recovery_comparison(n_values, p, zeta, epsilon, reps, seed=0):
    """Paired error rates of the factored-SDP and spectral estimators.

    Per rep both estimators see the same single perturbed graph; errors are
    reported as fractions of n so sizes are comparable.
    """
    return [
        _comparison_row(CbmParams(n=n, p=p, zeta=zeta), epsilon, reps, (seed, 12, ni))
        for ni, n in enumerate(n_values)
    ]


def recovery_comparison_eps(eps_values, n, p, zeta, reps, seed=0):
    """Same paired comparison swept over the privacy level at fixed n."""
    params = CbmParams(n=n, p=p, zeta=zeta)
    return [
        _comparison_row(params, epsilon, reps, (seed, 13, ei))
        for ei, epsilon in enumerate(eps_values)
    ]


def comparison_to_csv(rows, path):
    cols = ["n", "p", "zeta", "epsilon", "reps", "sdp_err", "spectral_err", "gap"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(f"{row[c]:.10g}" for c in cols) + "\n")
