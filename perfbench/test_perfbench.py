"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import argparse
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
from cbmdetect import detect, harness, model
from workloads import WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    """The same campaign at n=20, with a few short trials."""
    truncation = 20 if workload.kind == "arl" else 8
    return dataclasses.replace(
        workload, n=20, a=5.0, truncation=truncation, trials_per_call=2, quota_calls=2
    )


def args(trace):
    return argparse.Namespace(seed=3, seconds=0.0, trace=trace)


def test_declared_metrics_match_emitted_names():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_emits_every_metric(name, monkeypatch):
    workload = tiny(WORKLOADS[name])
    scenario = workload.scenario()
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    values, record = run.end_to_end(workload, scenario, args(0))
    assert set(values) == set(run.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in values.values())
    assert record["attempted"] >= workload.quota_calls
    assert 0 <= record["failed"] <= record["attempted"]
    quality = record[workload.quality_name]
    assert quality["trials"] == workload.quota_calls * workload.trials_per_call

    values, record = run.traced(workload, scenario, args(1))
    assert set(values) == set(spans.PER_LAYER)
    assert all(math.isfinite(v) for v in values.values())
    assert "traced rows differ from untraced rows" not in record["problems"]
    assert values["model.sample_cbm.calls"] > 0


def test_a_raising_call_is_counted_as_failed(monkeypatch, capsys):
    workload = tiny(WORKLOADS["delay-cdp-n50"])
    scenario = workload.scenario()
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "set_up", lambda name: (workload, scenario))

    def broken(*args, **kwargs):
        raise RuntimeError("sampler broke")

    monkeypatch.setattr(harness, "sample_cbm", broken)
    assert run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= workload.quota_calls
    assert "sampler broke" in out


def test_quality_figures_repeat_exactly_for_a_seed():
    workload = tiny(WORKLOADS["delay-sdp-n50"])
    scenario = workload.scenario()
    first = run.run_calls(workload, scenario, 5, 2, 0.0)
    second = run.run_calls(workload, scenario, 5, 2, 0.0)
    other = run.run_calls(workload, scenario, 6, 2, 0.0)
    assert run.rows_digest(first) == run.rows_digest(second) != run.rows_digest(other)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, trial=0)


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = [
        _span("harness.run_delay_trials", 0.0, 10.0),
        _span("detect.ldp_step", 1.0, 4.0, parent=0),
        _span("recovery.spectral_estimate", 2.0, 3.0, parent=1),
        _span("detect.ldp_step", 5.0, 9.0, parent=0),
        _span("model.TernaryGraph.dense", 5.0, 6.0, parent=3),
        # overlaps its sibling and runs past its parent: counted once, clipped
        _span("likelihood.log_likelihood_ratio", 5.5, 9.5, parent=3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 0.0, 1.0, 4.0])
    metrics = spans.layer_metrics(tree, n=4, untraced_wall=8.0, traced_wall=10.0)
    assert metrics["harness.self_s"] == pytest.approx(3.0)
    assert metrics["detect.ldp_step.self_s"] == pytest.approx(2.0)
    assert metrics["recovery.spectral_estimate.calls"] == 1
    assert metrics["model.TernaryGraph.dense.pairs_per_s"] == pytest.approx(6.0)
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.25)
    assert metrics["recovery.sdp_estimate.ms_p99"] == 0.0


def _attributes():
    return {owner: dict(vars(owner)) for owner in (harness, detect, model, model.TernaryGraph)}


def _assert_same(before, after):
    for owner, attrs in before.items():
        now = vars(owner)
        assert set(now) == set(attrs), owner
        assert all(now[key] is value for key, value in attrs.items()), owner


def test_module_attributes_identical_after_traced_run():
    before = _attributes()
    workload = tiny(WORKLOADS["delay-cdp-n50"])
    run.traced(workload, workload.scenario(), args(1))
    _assert_same(before, _attributes())
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer()):
            assert harness.sample_cbm is not before[harness]["sample_cbm"]
            raise RuntimeError("campaign failed")
    _assert_same(before, _attributes())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delay-cdp-n50", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
