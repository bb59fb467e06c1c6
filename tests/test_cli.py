import json
import math

import numpy as np
import pytest

from cbmdetect import cli
from cbmdetect.cli import VERB_MAP, build_parser, main
from cbmdetect.harness import ExperimentConfig, one_shot_sweep, run_arl_trials
from cbmdetect.io import read_graph_csv, scenario_from_config, write_stream_csv, write_sweep_csv
from cbmdetect.model import CbmParams, TernaryGraph, pair_indices, parse_labels
from cbmdetect.theory import info_numbers

POST_CONFIG = {
    "scenario": {
        "n": 10,
        "p": 0.8,
        "zeta": 0.1,
        "pre": "balanced",
        "post": {"flip": [0, 1]},
        "nu": 1,
    },
    "detector": {"kind": "LDP", "b": 1.0, "epsilon": 2.0, "estimator": "spectral"},
    "truncation": 6,
    "trials": 2,
}


def _write_config(tmp_path, payload=None):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload or POST_CONFIG))
    return str(path)


def _post_stream(tmp_path, n=6, count=3):
    labels = parse_labels("+" * (n // 2) + "-" * (n - n // 2))
    labels[0] = -1
    i, j = pair_indices(n)
    pattern = (labels[i] * labels[j]).astype(np.int8)
    graphs = [TernaryGraph(n, pattern.copy()) for _ in range(count)]
    path = tmp_path / "stream.csv"
    write_stream_csv(graphs, path)
    return str(path)


def test_verbs_registered():
    assert set(VERB_MAP) == {
        "generate", "perturb", "recover", "detect", "simulate", "sweep", "threshold", "ingest",
    }


def test_generate_writes_graph(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(
        ["generate", "--n", "8", "--p", "0.7", "--zeta", "0.1", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    graph = read_graph_csv(out)
    assert graph.n == 8
    text = capsys.readouterr().out
    assert text.startswith(f"wrote {out}: n=8 edges=")
    assert f"edges={graph.edge_count}" in text


def test_generate_reruns_byte_identical(tmp_path):
    args = ["generate", "--n", "12", "--a", "3.0", "--zeta", "0.2", "--seed", "9"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_flag_validation(tmp_path, capsys):
    out = str(tmp_path / "g.csv")
    base = ["generate", "--n", "8", "--zeta", "0.1", "--seed", "1", "--out", out]
    assert main(base) == 2  # neither --a nor --p
    assert main(base + ["--a", "2", "--p", "0.5"]) == 2
    assert main(base + ["--p", "0.5", "--labels", "++-"]) == 2
    assert "error:" in capsys.readouterr().err


SWEEP_HEADER = (
    "n,p,zeta,epsilon,reps,sdp_err,spectral_err,sdp_exact,spectral_exact,"
    "boundary_a,eps_at_least_log_n"
)


@pytest.mark.parametrize(
    "grid, cells",
    [
        (["--n", "10", "--a", "1", "4", "--zeta", "0.1", "--eps", "2"], 2),
        (["--n", "8", "12", "--p", "0.8", "--zeta", "0.1", "--eps", "2"], 2),
        (["--n", "10", "--p", "0.8", "--zeta", "0.1", "--eps", "0.5", "2"], 2),
    ],
    ids=["a", "n", "eps"],
)
def test_sweep_writes_one_row_per_cell(tmp_path, capsys, grid, cells):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *grid, "--reps", "2", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + cells
    assert capsys.readouterr().out == f"wrote {out}: rows={cells}\n"


def test_sweep_rows_follow_the_flag_product(tmp_path):
    out, expected = tmp_path / "sweep.csv", tmp_path / "expected.csv"
    argv = ["sweep", "--n", "8", "10", "--a", "2", "--zeta", "0.1", "0.2", "--eps-log-n",
            "--reps", "2", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    cells = [
        (CbmParams.from_scale(n, 2.0, zeta), math.log(n))
        for n in (8, 10) for zeta in (0.1, 0.2)
    ]
    write_sweep_csv(one_shot_sweep(cells, reps=2, seed=5), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_sweep_reruns_byte_identical(tmp_path):
    args = ["sweep", "--n", "10", "--p", "0.8", "--zeta", "0.1", "--eps", "1", "3",
            "--reps", "3", "--seed", "9"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_flag_validation(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    base = ["sweep", "--zeta", "0.1", "--seed", "1", "--out", str(out)]
    assert main(base + ["--n", "8", "--a", "2", "--p", "0.5", "--eps", "1"]) == 2
    assert main(base + ["--n", "8", "--p", "0.5"]) == 2  # neither eps flag
    assert main(base + ["--n", "8", "--p", "0.5", "--eps", "1", "--eps-log-n"]) == 2
    assert main(base + ["--n", "8", "--p", "0.5", "--eps", "1", "--reps", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(base + ["--n", "10.7", "--p", "0.5", "--eps", "1"]) == 2
    assert "invalid int value: '10.7'" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_generate_perturb_recover(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    noisy = tmp_path / "noisy.csv"
    labels = "++++----"
    assert (
        main(
            [
                "generate", "--n", "8", "--p", "1.0", "--zeta", "1e-9",
                "--labels", labels, "--seed", "0", "--out", str(raw),
            ]
        )
        == 0
    )
    assert (
        main(["perturb", "--in", str(raw), "--eps-log-n", "--seed", "1", "--out", str(noisy)])
        == 0
    )
    capsys.readouterr()
    assert main(["recover", "--in", str(noisy), "--estimator", "ml", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == labels
    assert lines[1].startswith("objective=") and "status=converged iterations=0" in lines[1]


def test_recover_degenerate_graph_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("n=6\n")
    assert main(["recover", "--in", str(empty), "--seed", "0"]) == 1
    assert "status=degenerate" in capsys.readouterr().out


def test_perturb_requires_epsilon(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("n=3\n0,1,1\n")
    out = str(tmp_path / "noisy.csv")
    assert main(["perturb", "--in", str(raw), "--seed", "1", "--out", out]) == 2
    assert (
        main(
            ["perturb", "--in", str(raw), "--eps", "1", "--eps-log-n", "--seed", "1", "--out", out]
        )
        == 2
    )


def test_detect_stops_on_stream(tmp_path, capsys):
    config = {
        "scenario": {
            "n": 6, "p": 0.8, "zeta": 0.1,
            "pre": "balanced", "post": {"flip": [0]}, "nu": 1,
        },
        "detector": {"kind": "LDP", "b": 5.0, "epsilon": 1e6},
    }
    stream = _post_stream(tmp_path)
    traj = tmp_path / "traj.csv"
    code = main(
        [
            "detect", "--config", _write_config(tmp_path, config),
            "--stream", stream, "--seed", "0", "--out", str(traj),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "stopped=True" in out
    header = traj.read_text().splitlines()[0]
    assert header == "t,stat,noisy_stat,stopped,hamming_est_vs_post"


def test_detect_stream_honours_truncation(tmp_path, capsys):
    config = {
        "scenario": {
            "n": 6, "p": 0.8, "zeta": 0.1,
            "pre": "balanced", "post": {"flip": [0]}, "nu": 1,
        },
        "detector": {"kind": "LDP", "b": 1e6, "epsilon": 1e6},
    }
    traj = tmp_path / "traj.csv"
    code = main(
        [
            "detect", "--config", _write_config(tmp_path, config),
            "--stream", _post_stream(tmp_path, count=5), "--truncation", "2",
            "--seed", "0", "--out", str(traj),
        ]
    )
    assert code == 1
    assert "stopped=False" in capsys.readouterr().out
    assert len(traj.read_text().splitlines()) == 1 + 2


def test_detect_no_alarm_exits_one(tmp_path, capsys):
    config = {
        "scenario": {
            "n": 6, "p": 0.8, "zeta": 0.1,
            "pre": "balanced", "post": {"flip": [0]}, "nu": 1,
        },
        "detector": {"kind": "LDP", "b": 1e6, "epsilon": 1e6},
        # a bar this high has no default horizon; the three-graph stream ends first
        "truncation": 10,
    }
    code = main(
        [
            "detect", "--config", _write_config(tmp_path, config),
            "--stream", _post_stream(tmp_path), "--seed", "0",
        ]
    )
    assert code == 1
    assert "stopped=False" in capsys.readouterr().out


def test_detect_mode_override_is_case_insensitive(tmp_path):
    config = dict(POST_CONFIG, detector={"b": 1.0, "epsilon": 2.0, "estimator": "spectral"})
    path = _write_config(tmp_path, config)
    for mode in ("ldp", "LDP"):
        code = main(
            ["detect", "--config", path, "--mode", mode, "--truncation", "4", "--seed", "0"]
        )
        assert code in (0, 1)


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--b", 2.5, "b"),
        ("--eps", 3.0, "epsilon"),
        ("--eps-log-n", None, "epsilon"),
        ("--delta", 0.2, "delta"),
        ("--w", 3, "window"),
        ("--mode", "ldp-adaptive", "kind"),
    ],
)
def test_detector_flags_replace_config_values(tmp_path, monkeypatch, flag, value, key):
    # delta is a key only a CDP descriptor reads, window one only an LDP one reads
    if key == "delta":
        detector = {"kind": "CDP", "b": 1.0, "epsilon": 2.0, "delta": 0.05}
    else:
        detector = {**POST_CONFIG["detector"], "window": 1}
    config = dict(POST_CONFIG, detector=detector)
    seen = {}
    real_trajectory, real_delay_trials = cli.run_trajectory, cli.run_delay_trials

    def trajectory(cfg, *args, **kwargs):
        seen["detect"] = cfg.detector
        return real_trajectory(cfg, *args, **kwargs)

    def delay_trials(cfg):
        seen["simulate"] = cfg.detector
        return real_delay_trials(cfg)

    monkeypatch.setattr(cli, "run_trajectory", trajectory)
    monkeypatch.setattr(cli, "run_delay_trials", delay_trials)
    path = _write_config(tmp_path, config)
    given = [flag] if value is None else [flag, str(value)]
    for verb in ("detect", "simulate"):
        assert main([verb, "--config", path, *given, "--seed", "0"]) in (0, 1)
    # n = 10 in POST_CONFIG's scenario
    replaced = {"--eps-log-n": math.log(10), "--mode": "LDP-adaptive"}.get(flag, value)
    expected = {**detector, key: replaced}
    assert seen == {"detect": expected, "simulate": expected}


def test_detect_and_simulate_share_detector_options():
    (verbs,) = [a for a in build_parser()._actions if isinstance(a.choices, dict)]

    def options(verb):
        return [s for a in verbs.choices[verb]._actions for s in a.option_strings]

    shared = ["-h", "--help", "--config", "--mode", "--b", "--eps", "--eps-log-n", "--delta", "--w"]
    assert options("detect")[: len(shared)] == options("simulate")[: len(shared)] == shared


def test_detect_requires_detector_fields(tmp_path, capsys):
    config = dict(POST_CONFIG, detector={"b": 1.0, "epsilon": 2.0})
    assert main(["detect", "--config", _write_config(tmp_path, config), "--seed", "0"]) == 2
    assert "kind" in capsys.readouterr().err
    # a misspelt key is refused, not ignored
    config = dict(POST_CONFIG, detector={**POST_CONFIG["detector"], "windw": 17})
    assert main(["detect", "--config", _write_config(tmp_path, config), "--seed", "0"]) == 2
    assert "windw" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, verbs, refusal",
    [
        (lambda c: c["scenario"].update(a=2.0), ("detect", "simulate"), "exactly one of a or p"),
        (lambda c: c["scenario"].pop("p"), ("detect", "simulate"), "exactly one of a or p"),
        (
            lambda c: c["scenario"].update(post_params={"a": 2.0, "p": 0.5}),
            ("detect", "simulate"),
            "exactly one of a or p",
        ),
        (lambda c: c["detector"].update(delta=0.05), ("detect", "simulate"), "unread ['delta']"),
        (
            lambda c: c.update(detector={"kind": "CDP", "b": 1.0, "epsilon": 2.0, "window": 3}),
            ("detect", "simulate"),
            "unread ['window']",
        ),
        (lambda c: c["detector"].pop("b"), ("detect", "simulate"), "missing ['b']"),
        # a misspelt top-level key is refused, not ignored for the default
        (lambda c: c.update(trails=3), ("detect", "simulate"), "unread ['trails']"),
        # both verbs' default truncation is ceil(50 e^b)
        (
            lambda c: (c.pop("truncation"), c["detector"].update(b=800.0)),
            ("detect", "simulate"),
            "explicit truncation",
        ),
        # each once ran, crashed or was read as something else
        (lambda c: c["scenario"].update(n=10.0), ("detect", "simulate"), "n must be an int"),
        (lambda c: c["scenario"].update(nu=2.0), ("detect", "simulate"), "nu must be an int"),
        (lambda c: c["scenario"].update(extra=1), ("detect", "simulate"), "unread ['extra']"),
        (
            lambda c: c["scenario"].update(post={"flip": [0], "x": 1}),
            ("detect", "simulate"),
            "unread ['x']",
        ),
        (
            lambda c: c["scenario"].update(post_params={"p": 0.8, "zetta": 0.2}),
            ("detect", "simulate"),
            "unread ['zetta']",
        ),
        (lambda c: c["scenario"].pop("n"), ("detect", "simulate"), "missing ['n']"),
    ],
    ids=[
        "a-and-p", "neither", "post-a-and-p", "ldp-delta", "cdp-window", "no-b", "trails", "b-800",
        "n-float", "nu-float", "scenario-extra", "flip-extra", "zetta", "no-n",
    ],
)
def test_refused_inputs_exit_two(tmp_path, capsys, edit, verbs, refusal):
    config = json.loads(json.dumps(POST_CONFIG))
    edit(config)
    path = _write_config(tmp_path, config)
    for verb in verbs:
        assert main([verb, "--config", path, "--seed", "0"]) == 2
        assert refusal in capsys.readouterr().err


def test_simulate_delay_summary(tmp_path, capsys):
    code = main(["simulate", "--config", _write_config(tmp_path), "--seed", "2"])
    assert code == 0
    out1 = capsys.readouterr().out
    summary = json.loads(out1)
    assert set(summary) == {
        "censored_fraction", "delay_ci", "mean_delay", "stationary_delay", "trials",
    }
    assert summary["trials"] == 2
    sc = scenario_from_config(POST_CONFIG["scenario"])
    info = info_numbers(sc.pre, sc.post, sc.params_pre.p, sc.params_pre.zeta, epsilon=2.0)
    assert summary["stationary_delay"] == 2.0 * POST_CONFIG["detector"]["b"] / info.i0_tilde
    assert main(["simulate", "--config", _write_config(tmp_path), "--seed", "2"]) == 0
    assert capsys.readouterr().out == out1


def test_simulate_stationary_delay_with_full_reveal(tmp_path, capsys):
    # an LDP detector scores the perturbed law, which is interior even at p = 1
    config = json.loads(json.dumps(POST_CONFIG))
    config["scenario"]["p"] = 1.0
    assert main(["simulate", "--config", _write_config(tmp_path, config), "--seed", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["stationary_delay"] > 0


def test_simulate_cdp_runs_with_full_reveal(tmp_path, capsys):
    # the CDP detector scores the raw law, here p = 1; the ratio does not depend on p
    config = json.loads(json.dumps(POST_CONFIG))
    config["scenario"].update(n=6, p=1.0, post={"flip": [0]})
    config["detector"] = {"kind": "CDP", "b": 1.0, "epsilon": 2.0, "delta": 0.05}
    config["truncation"] = 40
    assert main(["simulate", "--config", _write_config(tmp_path, config), "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["censored_fraction"] == 0.0


@pytest.mark.parametrize("flip", [[10], [1.5], [-1], [0, 0]])
def test_simulate_refuses_bad_flip_spec(tmp_path, capsys, flip):
    config = json.loads(json.dumps(POST_CONFIG))
    config["scenario"]["post"] = {"flip": flip}
    assert main(["simulate", "--config", _write_config(tmp_path, config), "--seed", "0"]) == 2
    assert "flip" in capsys.readouterr().err


def test_zero_trials_or_truncation_exit_two(tmp_path, capsys):
    # a flag of 0 is refused, not replaced by the config's value
    path = _write_config(tmp_path)
    for verb, flag in (
        ("simulate", "--trials"), ("simulate", "--truncation"), ("detect", "--truncation"),
        ("simulate", "--parallelism"),
    ):
        assert main([verb, "--config", path, flag, "0", "--seed", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err


def _cdp_delta(value):
    return lambda c: c.update(detector={"kind": "CDP", "b": 1.0, "epsilon": 2.0, "delta": value})


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda c: c["detector"].update(b="2"), "b"),
        (lambda c: c["detector"].update(epsilon="2"), "epsilon"),
        (_cdp_delta("0.05"), "delta"),
        (lambda c: c["detector"].update(window="3"), "window"),
        (lambda c: c.update(truncation="6"), "truncation"),
        (lambda c: c["detector"].update(window=2.5), "window"),
        (lambda c: c.update(truncation=6.5), "truncation"),
        (lambda c: c.update(trials="2"), "trials"),
        (lambda c: c["detector"].update(b=True), "b"),
    ],
    ids=[
        "b-str", "epsilon-str", "delta-str", "window-str", "truncation-str",
        "window-float", "truncation-float", "trials-str", "b-bool",
    ],
)
def test_mistyped_values_exit_two(tmp_path, capsys, edit, field):
    # a quoted number, a fraction where a count belongs or a bool is bad
    # input (exit 2, the field named), not a statistical failure (exit 1)
    config = json.loads(json.dumps(POST_CONFIG))
    edit(config)
    path = _write_config(tmp_path, config)
    for verb in ("detect", "simulate"):
        assert main([verb, "--config", path, "--seed", "0"]) == 2
        assert f"{field} must be" in capsys.readouterr().err


def test_detect_is_trial_zero_of_simulate_without_a_truncation(tmp_path, capsys):
    # no truncation anywhere: both verbs stop trial 0 at the same sample, past
    # the 200 samples detect once defaulted to
    config = json.loads(json.dumps(POST_CONFIG))
    config.pop("truncation")
    config.pop("trials")
    config["scenario"]["nu"] = "inf"
    config["detector"]["b"] = 3.0
    path, traj = _write_config(tmp_path, config), tmp_path / "traj.csv"
    assert main(["detect", "--config", path, "--seed", "0", "--out", str(traj)]) == 0
    lines = traj.read_text().splitlines()[1:]
    cfg = ExperimentConfig(scenario_from_config(config["scenario"]), config["detector"], trials=1)
    row = run_arl_trials(cfg).rows[0]
    assert row["stopped"] and row["samples"] > 200
    written = [line.split(",") for line in lines]
    assert len(written) == row["samples"]
    assert written[-1][:2] == [str(row["steps"]), f"{row['stat']:.12g}"]
    assert [int(w[3]) for w in written] == [0] * (row["samples"] - 1) + [1]
    assert [int(w[4]) for w in written] == row["errors"]
    capsys.readouterr()
    assert main(["simulate", "--config", path, "--trials", "1", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["arl_estimate"] == row["steps"]


def test_simulate_arl_summary(tmp_path, capsys):
    config = json.loads(json.dumps(POST_CONFIG))
    config["scenario"]["nu"] = "inf"
    config["detector"]["b"] = 0.2
    code = main(["simulate", "--config", _write_config(tmp_path, config), "--seed", "3"])
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"arl_estimate", "censored_fraction", "trials"}
    # under the pre-change law the statistic mostly sits at 0, so short
    # truncated runs are all censored and the CLI flags that with exit 1
    assert code == (1 if summary["censored_fraction"] >= 1.0 else 0)
    assert summary["arl_estimate"] > 0


def test_simulate_fully_censored_exits_one(tmp_path, capsys):
    config = json.loads(json.dumps(POST_CONFIG))
    config["detector"]["estimator"] = "fixed"
    config["truncation"] = 3
    code = main(["simulate", "--config", _write_config(tmp_path, config), "--seed", "0"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["censored_fraction"] == 1.0


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["threshold", "--thm", "1", "--n", "100", "--eps-log-n"], 1.1335578),
        (["threshold", "--thm", "3", "--n", "50", "--eps-log-n"], 32.0),
        (["threshold", "--thm", "5", "--n", "100", "--a", "5", "--zeta", "0.1"], 0.0205058),
        (
            ["threshold", "--thm", "2", "--gamma", "10", "--zeta", "0.1", "--eps", "40"],
            math.log(10.0) - math.log(0.8478191436451686),
        ),
    ],
)
def test_threshold_values(capsys, argv, expected):
    assert main(argv) == 0
    np.testing.assert_allclose(float(capsys.readouterr().out), expected, atol=1e-6)


def test_threshold_json_report(capsys):
    assert main(["threshold", "--thm", "7", "--n", "100", "--eps", "0.02", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "minimum-window"
    assert payload["inputs"] == {"n": 100, "epsilon": 0.02}
    assert payload["value"] > 0


def test_threshold_infeasible_exits_one(capsys):
    code = main(["threshold", "--thm", "2", "--gamma", "10", "--zeta", "0.1", "--eps", "10"])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


def test_threshold_missing_inputs(capsys):
    assert main(["threshold", "--thm", "1", "--n", "100"]) == 2
    assert main(["threshold", "--thm", "5", "--n", "100"]) == 2
    assert "error:" in capsys.readouterr().err


def test_ingest_summary(tmp_path, capsys):
    path = _post_stream(tmp_path, n=6, count=2)
    assert main(["ingest", "--in", path]) == 0
    assert capsys.readouterr().out.strip() == "graphs=2 n=6 edges=30"
    empty = tmp_path / "empty.csv"
    empty.write_text("n=4\n")
    assert main(["ingest", "--in", str(empty)]) == 0
    assert capsys.readouterr().out.strip() == "graphs=0"


def test_ingest_missing_file_exits_two(tmp_path, capsys):
    assert main(["ingest", "--in", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_json_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["detect", "--config", str(bad), "--seed", "0"]) == 2


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["unknown-verb"]) == 2
    assert main(["generate", "--n", "8"]) == 2
    # solver settings are constants, not flags
    graph = tmp_path / "g.csv"
    graph.write_text("n=4\n")
    assert main(["recover", "--in", str(graph), "--restarts", "2", "--seed", "0"]) == 2
    capsys.readouterr()
