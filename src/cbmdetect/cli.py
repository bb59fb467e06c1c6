"""Command-line front end.

Verbs: generate, perturb, recover, detect, simulate, sweep, threshold,
ingest.
Every stochastic verb requires --seed, and the same argv always produces
byte-identical output files. Each input is read by one rule: a and p by
`io.params_from_config`, --eps by `_resolve_eps`, each JSON object by its
table in `io` (README lists them). detect and simulate run one value,
`_experiment`'s ExperimentConfig: detect's trajectory is trial 0 of the
campaign simulate runs on the same config and seed, with the same horizon.
Exit codes: 0 success, 1 statistical failure (no alarm, degenerate
estimate, fully censored campaign), 2 bad configuration or input.
"""

import argparse
import itertools
import json
import math
import sys

from .harness import (
    ExperimentConfig,
    one_shot_sweep,
    run_arl_trials,
    run_delay_trials,
    run_trajectory,
)
from .io import (
    ingest_stream,
    labels_from_config,
    load_experiment_json,
    params_from_config,
    read_graph_csv,
    scenario_from_config,
    write_graph_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .ldp import ldp_threshold_rhs, perturb_graph
from .model import format_labels
from .recovery import ml_exhaustive, sdp_estimate, spectral_estimate
from .theory import (
    BoundReport,
    cdp_threshold_for_arl,
    converse_epsilon_lower,
    info_numbers,
    min_window,
    subsampled_stability_rhs,
)

_MODE_NAMES = {"ldp": "LDP", "cdp": "CDP", "ldp-adaptive": "LDP-adaptive"}


def _resolve_eps(args, n):
    """--eps as given, ln(n) under --eps-log-n, or None without either."""
    if args.eps_log_n and args.eps is not None:
        raise ValueError("give --eps or --eps-log-n, not both")
    if args.eps_log_n:
        if n is None:
            raise ValueError("--eps-log-n needs --n")
        return math.log(n)
    return args.eps


def _cmd_generate(args):
    from .model import sample_cbm

    params = params_from_config(args.n, args.zeta, args.a, args.p)
    labels = labels_from_config(args.labels, n=args.n)
    if labels.size != args.n:
        raise ValueError(f"labels have {labels.size} entries, expected n={args.n}")
    graph = sample_cbm(params, labels, args.seed)
    write_graph_csv(graph, args.out)
    print(f"wrote {args.out}: n={graph.n} edges={graph.edge_count}")
    return 0


def _cmd_perturb(args):
    graph = read_graph_csv(args.infile)
    eps = _resolve_eps(args, graph.n)
    if eps is None:
        raise ValueError("perturb needs --eps or --eps-log-n")
    noisy = perturb_graph(graph, eps, args.seed)
    write_graph_csv(noisy, args.out)
    print(f"wrote {args.out}: n={noisy.n} edges={noisy.edge_count}")
    return 0


_ESTIMATORS = {
    "sdp": sdp_estimate,
    "spectral": spectral_estimate,
    "ml": lambda graph, seed: ml_exhaustive(graph),
}


def _cmd_recover(args):
    result = _ESTIMATORS[args.estimator](read_graph_csv(args.infile), seed=args.seed)
    print(format_labels(result.labels))
    print(
        f"objective={result.objective:.10g} status={result.status} "
        f"iterations={result.iterations}"
    )
    return 1 if result.status == "degenerate" else 0


def _detector_from_config(payload, args, n):
    """The config's descriptor with each given flag in place of its key; make_runner checks it."""
    detector = dict(payload.get("detector", {}))
    flags = {"b": args.b, "epsilon": _resolve_eps(args, n), "delta": args.delta, "window": args.w}
    if args.mode is not None:
        flags["kind"] = _MODE_NAMES[args.mode.lower()]
    detector.update((key, value) for key, value in flags.items() if value is not None)
    return detector


def _experiment(args):
    """The ExperimentConfig detect and simulate run: each field from its flag, else
    the file, else ExperimentConfig's default, which so lives in one place."""
    payload = load_experiment_json(args.config)
    scenario = scenario_from_config(payload["scenario"])
    detector = _detector_from_config(payload, args, scenario.params_pre.n)
    given = {key: payload[key] for key in ("trials", "truncation") if key in payload}
    flags = {key: getattr(args, key, None) for key in ("trials", "truncation", "parallelism")}
    given.update((key, value) for key, value in flags.items() if value is not None)
    return ExperimentConfig(scenario=scenario, detector=detector, seed=args.seed, **given)


def _cmd_detect(args):
    cfg = _experiment(args)
    rows = run_trajectory(cfg, stream=ingest_stream(args.stream) if args.stream else None)
    if args.out:
        write_trajectory_csv(rows, args.out)
    stopped = bool(rows) and rows[-1]["stopped"]
    last_t = rows[-1]["t"] if rows else 0
    last_stat = rows[-1]["stat"] if rows else 0.0
    print(f"stopped={stopped} t={last_t} stat={last_stat:.10g}")
    return 0 if stopped else 1


def _cmd_simulate(args):
    cfg = _experiment(args)
    scenario, detector = cfg.scenario, cfg.detector
    if scenario.nu == math.inf:
        report = run_arl_trials(cfg)
        summary = {
            "arl_estimate": report.arl_estimate,
            "censored_fraction": report.censored_fraction,
            "trials": cfg.trials,
        }
    else:
        report = run_delay_trials(cfg)
        # stationary delay 2 b / I, I the post-vs-pre KL at the law the detector
        # scores: the raw law for CDP, the perturbed law for LDP
        eps = None if detector["kind"] == "CDP" else detector["epsilon"]
        pre = scenario.params_pre
        kl = info_numbers(scenario.pre, scenario.post, pre.p, pre.zeta, eps).i0_tilde
        summary = {
            "censored_fraction": report.censored_fraction,
            "delay_ci": list(report.delay_ci),
            "mean_delay": report.mean_delay,
            "stationary_delay": 2.0 * detector["b"] / kl if kl > 0 else None,
            "trials": cfg.trials,
        }
    print(json.dumps(summary, sort_keys=True))
    return 1 if report.censored_fraction >= 1.0 else 0


def _cmd_sweep(args):
    cells = []
    for n, a, p, zeta in itertools.product(args.n, args.a or [None], args.p or [None], args.zeta):
        params = params_from_config(n, zeta, a, p)
        eps = _resolve_eps(args, n)
        if eps is None:
            raise ValueError("sweep needs --eps or --eps-log-n")
        cells += [(params, epsilon) for epsilon in ([eps] if args.eps_log_n else eps)]
    rows = one_shot_sweep(cells, args.reps, seed=args.seed)
    write_sweep_csv(rows, args.out)
    print(f"wrote {args.out}: rows={len(rows)}")
    return 0


# --thm -> (report name, the inputs the bound takes, in order, the bound)
_BOUNDS = {
    1: ("one-shot-recovery-rhs", ("epsilon", "n"), ldp_threshold_rhs),
    2: ("cdp-threshold-for-arl", ("gamma", "zeta", "epsilon"), cdp_threshold_for_arl),
    3: ("subsampled-stability-rhs", ("n", "epsilon"), subsampled_stability_rhs),
    5: ("privacy-converse-lower", ("n", "a", "zeta"), converse_epsilon_lower),
    7: ("minimum-window", ("n", "epsilon"), min_window),
}


def _cmd_threshold(args):
    name, needs, bound = _BOUNDS[args.thm]
    eps = _resolve_eps(args, args.n)
    inputs = {"n": args.n, "a": args.a, "zeta": args.zeta, "gamma": args.gamma, "epsilon": eps}
    missing = [key for key in needs if inputs[key] is None]
    if missing:
        flags = ["--eps/--eps-log-n" if key == "epsilon" else f"--{key}" for key in missing]
        raise ValueError(f"--thm {args.thm} needs {', '.join(flags)}")
    value = bound(*(inputs[key] for key in needs))
    if args.thm == 2:
        value, feasible = value
        if not feasible:
            print("infeasible: epsilon too small for this zeta", file=sys.stderr)
            return 1
    elif args.thm == 7:
        value, flagged = value
        if flagged:
            print("note: window bound undefined at this n", file=sys.stderr)
    if args.json:
        given = {k: v for k, v in inputs.items() if v is not None}
        print(BoundReport(name, value, given).to_json())
    else:
        print(f"{value:.10g}")
    return 0


def _cmd_ingest(args):
    graphs = ingest_stream(args.infile)
    if not graphs:
        print("graphs=0")
        return 0
    n = graphs[0].n
    edges = sum(g.edge_count for g in graphs)
    print(f"graphs={len(graphs)} n={n} edges={edges}")
    return 0


VERB_MAP = {
    "generate": _cmd_generate,
    "perturb": _cmd_perturb,
    "recover": _cmd_recover,
    "detect": _cmd_detect,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "ingest": _cmd_ingest,
}


def _add_eps(p, nargs=None):
    p.add_argument("--eps", type=float, nargs=nargs, default=None, help="privacy parameter")
    p.add_argument(
        "--eps-log-n", action="store_true", dest="eps_log_n", help="set eps = ln(n)"
    )


def _add_mode(p):
    p.add_argument(
        "--mode",
        choices=tuple(_MODE_NAMES) + tuple(_MODE_NAMES.values()),
        default=None,
        help="detector kind, overriding the config",
    )


def _add_detector_args(p):
    """The experiment config and the flags that override its detector descriptor."""
    p.add_argument("--config", required=True, help="experiment JSON path")
    _add_mode(p)
    p.add_argument("--b", type=float, default=None, help="stopping threshold")
    _add_eps(p)
    p.add_argument("--delta", type=float, default=None, help="privacy failure probability")
    p.add_argument("--w", type=int, default=None, help="estimation window size")


def build_parser():
    parser = argparse.ArgumentParser(prog="cbmdetect")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="sample one censored block-model graph")
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--a", type=float, default=None, help="signal scale, p = a ln(n)/n")
    p.add_argument("--p", type=float, default=None, help="edge observation probability")
    p.add_argument("--zeta", type=float, required=True, help="sign flip probability")
    p.add_argument("--labels", default="balanced", help="'balanced' or a +- string")
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.add_argument("--out", required=True, help="output graph CSV path")

    p = sub.add_parser("perturb", help="randomized response on a graph file")
    p.add_argument("--in", dest="infile", required=True, help="input graph CSV path")
    _add_eps(p)
    p.add_argument("--seed", type=int, required=True, help="perturbation seed")
    p.add_argument("--out", required=True, help="output graph CSV path")

    p = sub.add_parser("recover", help="estimate community labels from a graph file")
    p.add_argument("--in", dest="infile", required=True, help="input graph CSV path")
    p.add_argument(
        "--estimator", choices=("sdp", "spectral", "ml"), default="sdp",
        help="label estimator",
    )
    p.add_argument("--seed", type=int, required=True, help="solver seed")

    p = sub.add_parser("detect", help="run one detector trajectory")
    _add_detector_args(p)
    p.add_argument("--truncation", type=int, default=None, help="max steps before giving up")
    p.add_argument("--stream", default=None, help="t,i,j,w CSV replacing sampling")
    p.add_argument("--seed", type=int, required=True, help="run seed")
    p.add_argument("--out", default=None, help="trajectory CSV path")

    p = sub.add_parser("simulate", help="delay or run-length campaign")
    _add_detector_args(p)
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    p.add_argument("--truncation", type=int, default=None, help="max steps per trial")
    p.add_argument("--parallelism", type=int, default=None, help="worker processes")
    p.add_argument("--seed", type=int, required=True, help="campaign seed")

    p = sub.add_parser("sweep", help="one-shot SDP and spectral recovery over a grid of cells")
    p.add_argument("--n", type=int, nargs="+", required=True, help="numbers of nodes")
    p.add_argument("--a", type=float, nargs="+", default=None, help="signal scales, p = a ln(n)/n")
    p.add_argument(
        "--p", type=float, nargs="+", default=None, help="edge observation probabilities"
    )
    p.add_argument("--zeta", type=float, nargs="+", required=True, help="sign flip probabilities")
    _add_eps(p, nargs="+")
    p.add_argument("--reps", type=int, default=50, help="draws per cell")
    p.add_argument("--seed", type=int, required=True, help="sweep seed")
    p.add_argument("--out", required=True, help="output sweep CSV path")

    p = sub.add_parser("threshold", help="closed-form bounds and thresholds")
    p.add_argument(
        "--thm", type=int, required=True, choices=(1, 2, 3, 5, 7),
        help="which bound: 1 recovery RHS, 2 run-length threshold, "
        "3 subsampling RHS, 5 privacy converse, 7 minimum window",
    )
    p.add_argument("--n", type=int, default=None, help="number of nodes")
    p.add_argument("--a", type=float, default=None, help="signal scale, p = a ln(n)/n")
    p.add_argument("--zeta", type=float, default=None, help="sign flip probability")
    p.add_argument("--gamma", type=float, default=None, help="target run length")
    _add_eps(p)
    p.add_argument("--json", action="store_true", help="emit a JSON bound report")

    p = sub.add_parser("ingest", help="validate and summarize a stream file")
    p.add_argument("--in", dest="infile", required=True, help="t,i,j,w CSV path")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return VERB_MAP[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
