"""Command-line front end.

Verbs: generate, perturb, recover, detect, simulate, threshold, ingest.
Every stochastic verb requires --seed, and the same argv always produces
byte-identical output files. Exit codes: 0 success, 1 statistical failure
(no alarm, degenerate estimate, fully censored campaign), 2 bad
configuration or input.
"""

import argparse
import json
import math
import sys

from .harness import (
    ExperimentConfig,
    run_arl_trials,
    run_delay_trials,
    run_trajectory,
)
from .io import (
    ingest_stream,
    labels_from_config,
    load_experiment_json,
    read_graph_csv,
    scenario_from_config,
    write_graph_csv,
    write_trajectory_csv,
)
from .ldp import ldp_threshold_rhs, perturb_graph
from .model import CbmParams, format_labels
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


def _resolve_eps(args, n=None):
    log_n = getattr(args, "eps_log_n", False)
    eps = getattr(args, "eps", None)
    if log_n and eps is not None:
        raise ValueError("give --eps or --eps-log-n, not both")
    if log_n:
        if n is None:
            raise ValueError("--eps-log-n needs --n")
        return math.log(n)
    return eps


def _params_from_args(args):
    if (args.a is None) == (args.p is None):
        raise ValueError("give exactly one of --a or --p")
    if args.a is not None:
        return CbmParams.from_scale(args.n, args.a, args.zeta)
    return CbmParams(n=args.n, p=args.p, zeta=args.zeta)


def _cmd_generate(args):
    from .model import sample_cbm

    params = _params_from_args(args)
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


def _cmd_recover(args):
    graph = read_graph_csv(args.infile)
    if args.estimator == "sdp":
        result = sdp_estimate(graph, seed=args.seed)
    elif args.estimator == "spectral":
        result = spectral_estimate(graph, seed=args.seed)
    elif args.estimator == "ml":
        result = ml_exhaustive(graph)
    else:
        raise ValueError(f"unknown estimator {args.estimator!r}")
    print(format_labels(result.labels))
    print(
        f"objective={result.objective:.10g} status={result.status} "
        f"iterations={result.iterations}"
    )
    return 1 if result.status == "degenerate" else 0


def _detector_from_config(payload, args):
    detector = dict(payload.get("detector", {}))
    if args.mode is not None:
        detector["kind"] = _MODE_NAMES[args.mode.lower()]
    for flag, key in (("b", "b"), ("eps", "epsilon"), ("delta", "delta"), ("w", "window")):
        if getattr(args, flag) is not None:
            detector[key] = getattr(args, flag)
    if "kind" not in detector:
        raise ValueError("detector kind missing: set it in the config or pass --mode")
    for key in ("b", "epsilon"):
        if key not in detector:
            raise ValueError(f"detector {key!r} missing from config and flags")
    return detector


def _cmd_detect(args):
    payload = load_experiment_json(args.config)
    scenario = scenario_from_config(payload["scenario"])
    detector = _detector_from_config(payload, args)
    truncation = args.truncation if args.truncation is not None else payload.get("truncation", 200)
    stream = ingest_stream(args.stream) if args.stream else None
    rows = run_trajectory(scenario, detector, truncation, args.seed, stream=stream)
    if args.out:
        write_trajectory_csv(rows, args.out)
    stopped = bool(rows) and rows[-1]["stopped"]
    last_t = rows[-1]["t"] if rows else 0
    last_stat = rows[-1]["stat"] if rows else 0.0
    print(f"stopped={stopped} t={last_t} stat={last_stat:.10g}")
    return 0 if stopped else 1


def _cmd_simulate(args):
    payload = load_experiment_json(args.config)
    scenario = scenario_from_config(payload["scenario"])
    detector = _detector_from_config(payload, args)
    cfg = ExperimentConfig(
        scenario=scenario,
        detector=detector,
        trials=args.trials if args.trials is not None else payload.get("trials", 100),
        truncation=args.truncation if args.truncation is not None else payload.get("truncation"),
        seed=args.seed,
        parallelism=args.parallelism,
    )
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


def _cmd_threshold(args):
    eps = _resolve_eps(args, args.n)
    if args.thm == 1:
        if eps is None or args.n is None:
            raise ValueError("--thm 1 needs --n and --eps/--eps-log-n")
        name = "one-shot-recovery-rhs"
        value = ldp_threshold_rhs(eps, args.n)
    elif args.thm == 2:
        if args.gamma is None or args.zeta is None or eps is None:
            raise ValueError("--thm 2 needs --gamma, --zeta, and --eps")
        name = "cdp-threshold-for-arl"
        value, feasible = cdp_threshold_for_arl(args.gamma, args.zeta, eps)
        if not feasible:
            print("infeasible: epsilon too small for this zeta", file=sys.stderr)
            return 1
    elif args.thm == 3:
        if eps is None or args.n is None:
            raise ValueError("--thm 3 needs --n and --eps/--eps-log-n")
        name = "subsampled-stability-rhs"
        value = subsampled_stability_rhs(args.n, eps)
    elif args.thm == 5:
        if args.n is None or args.a is None or args.zeta is None:
            raise ValueError("--thm 5 needs --n, --a, and --zeta")
        name = "privacy-converse-lower"
        value = converse_epsilon_lower(args.n, args.a, args.zeta)
    elif args.thm == 7:
        if eps is None or args.n is None:
            raise ValueError("--thm 7 needs --n and --eps/--eps-log-n")
        name = "minimum-window"
        value, flagged = min_window(args.n, eps)
        if flagged:
            print("note: window bound undefined at this n", file=sys.stderr)
    else:
        raise ValueError(f"unknown theorem selector {args.thm}")
    if args.json:
        inputs = {
            k: v
            for k, v in (
                ("n", args.n),
                ("a", args.a),
                ("zeta", args.zeta),
                ("gamma", args.gamma),
                ("epsilon", eps),
            )
            if v is not None
        }
        print(BoundReport(name, value, inputs).to_json())
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
    "threshold": _cmd_threshold,
    "ingest": _cmd_ingest,
}


def _add_eps(p):
    p.add_argument("--eps", type=float, default=None, help="privacy parameter")
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
    p.add_argument("--parallelism", type=int, default=1, help="worker processes")
    p.add_argument("--seed", type=int, required=True, help="campaign seed")

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
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
