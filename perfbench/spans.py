"""Spans around the calls a campaign makes into each package module.

The tracer wraps the module-level names the campaign looks up at call time
(harness.sample_cbm, detect.sdp_estimate, ...), so it times each layer from
outside without changing the package. Spans stay in memory until the run
ends. Every patch is undone on leaving `patched`, also on error.
"""

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from cbmdetect import detect, harness, model


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    trial: int | None  # running trial index within the traced run
    info: dict | None = None


def _status(result):
    return {"status": result.status}


def _released(result):
    return {"released": bool(result.released)}


# (owner, attribute the campaign looks up, span name, summary of the result)
TARGETS = (
    (harness, "make_runner", "harness.make_runner", None),
    (harness, "sample_cbm", "model.sample_cbm", None),
    (harness, "perturb_graph", "ldp.perturb_graph", None),
    (harness, "ldp_step", "detect.ldp_step", None),
    (harness, "cdp_step", "detect.cdp_step", None),
    (harness, "release_assuming_stable", "cdp.release_assuming_stable", _released),
    # the CDP release estimator resolves spectral_estimate in harness
    (harness, "spectral_estimate", "recovery.spectral_estimate", _status),
    (detect, "log_likelihood_ratio", "likelihood.log_likelihood_ratio", None),
    (detect, "sdp_estimate", "recovery.sdp_estimate", _status),
    (detect, "spectral_estimate", "recovery.spectral_estimate", _status),
    (model.TernaryGraph, "dense", "model.TernaryGraph.dense", None),
)

# a new runner is built once per trial
TRIAL_START = "harness.make_runner"


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.trial = None

    def begin(self, name):
        if name == TRIAL_START:
            self.trial = 0 if self.trial is None else self.trial + 1
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.trial))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span.info = describe(out)
            return out

        return traced

    def rows(self):
        return [asdict(span) for span in self.spans]


@contextmanager
def patched(tracer):
    """Route every target through the tracer; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, describe in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, describe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(spans[idx])
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[idx], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


ESTIMATORS = ("recovery.spectral_estimate", "recovery.sdp_estimate")
PAIR_KERNELS = (
    "model.sample_cbm",
    "ldp.perturb_graph",
    "likelihood.log_likelihood_ratio",
    "model.TernaryGraph.dense",
)
STEPS = ("detect.ldp_step", "detect.cdp_step")
RELEASE = "cdp.release_assuming_stable"
CAMPAIGNS = ("harness.run_delay_trials", "harness.run_arl_trials")

# name -> (unit, better); the traced run reports exactly these
PER_LAYER = {}
for _layer in ESTIMATORS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.total_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.ms_p50"] = ("ms", "lower")
    PER_LAYER[f"{_layer}.ms_p99"] = ("ms", "lower")
    PER_LAYER[f"{_layer}.converged_ratio"] = ("ratio", "higher")
for _layer in PAIR_KERNELS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.total_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.pairs_per_s"] = ("pairs/s", "higher")
PER_LAYER[f"{RELEASE}.calls"] = ("count", "lower")
PER_LAYER[f"{RELEASE}.total_s"] = ("s", "lower")
PER_LAYER[f"{RELEASE}.released_ratio"] = ("ratio", "higher")
for _layer in STEPS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.ms_p50"] = ("ms", "lower")
    PER_LAYER[f"{_layer}.ms_p99"] = ("ms", "lower")
PER_LAYER["harness.make_runner.total_s"] = ("s", "lower")
PER_LAYER["harness.self_s"] = ("s", "lower")
PER_LAYER["trace.overhead_ratio"] = ("ratio", "lower")


def _ms(durations, q):
    return float(np.percentile(durations, q)) * 1e3 if durations.size else 0.0


def _share(spans, key, value):
    hits = [s.info[key] == value for s in spans if s.info is not None]
    return sum(hits) / len(hits) if hits else 0.0


def layer_metrics(spans, n, untraced_wall, traced_wall):
    """Per-layer figures from a traced run at graph size n.

    Layers that were never called report 0 for every figure. pairs_per_s is
    computed as calls * n(n-1)/2 / total_s.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    self_by_name = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_name[span.name].append(span)
        self_by_name[span.name] += own

    def durations(name):
        return np.array([s.end - s.start for s in by_name[name]])

    pairs = n * (n - 1) // 2
    out = {}
    for name in ESTIMATORS:
        d = durations(name)
        out[f"{name}.calls"] = int(d.size)
        out[f"{name}.total_s"] = float(d.sum())
        out[f"{name}.ms_p50"] = _ms(d, 50)
        out[f"{name}.ms_p99"] = _ms(d, 99)
        out[f"{name}.converged_ratio"] = _share(by_name[name], "status", "converged")
    for name in PAIR_KERNELS:
        d = durations(name)
        total = float(d.sum())
        out[f"{name}.calls"] = int(d.size)
        out[f"{name}.total_s"] = total
        out[f"{name}.pairs_per_s"] = d.size * pairs / total if total > 0 else 0.0
    d = durations(RELEASE)
    out[f"{RELEASE}.calls"] = int(d.size)
    out[f"{RELEASE}.total_s"] = float(d.sum())
    out[f"{RELEASE}.released_ratio"] = _share(by_name[RELEASE], "released", True)
    for name in STEPS:
        d = durations(name)
        out[f"{name}.self_s"] = self_by_name[name]
        out[f"{name}.ms_p50"] = _ms(d, 50)
        out[f"{name}.ms_p99"] = _ms(d, 99)
    out["harness.make_runner.total_s"] = float(durations("harness.make_runner").sum())
    out["harness.self_s"] = sum(self_by_name[name] for name in CAMPAIGNS)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out


def self_time_shares(spans, wall):
    """Share of the traced wall time spent in each span name's own code."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return {name: total / wall for name, total in sorted(totals.items(), key=lambda kv: -kv[1])}
