"""The four detection campaigns the benchmark runs, and their correctness checks.

A workload is fixed by its scenario (n, a, zeta, change time), its detector
descriptor (privacy flavor, epsilon, bar b, estimator) and its truncation.
How many trials it runs is run length, chosen so that a run fits the
benchmark's time budget:

- trials_per_call: trials in one campaign call (one run_*_trials call);
- quota_calls: calls every run makes in full. The quality figures (mean
  delay, run length) and the pooled checks come from these calls only, so
  they are exactly reproducible for a seed whatever the machine's speed.

Calls beyond the quota fill the rest of the measured time and count towards
throughput only.
"""

import math
from dataclasses import dataclass

import numpy as np

from cbmdetect import (
    CbmParams,
    ChangeScenario,
    ExperimentConfig,
    run_arl_trials,
    run_delay_trials,
)

ZETA = 0.1
EPSILON = 1.5
LOG_1000 = math.log(1000.0)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "delay" (change at nu=1) or "arl" (no change ever)
    n: int
    a: float
    detector: dict
    truncation: int
    trials_per_call: int
    quota_calls: int
    max_mean_delay: float | None = None  # pooled ceiling, delay workloads only

    @property
    def quality_name(self):
        return "mean_delay" if self.kind == "delay" else "arl_steps"

    def scenario(self):
        pre = np.array([1] * (self.n // 2) + [-1] * (self.n - self.n // 2), dtype=np.int8)
        post = pre.copy()
        post[:2] *= -1  # two nodes switch sides
        params = CbmParams.from_scale(self.n, self.a, ZETA)
        nu = 1 if self.kind == "delay" else math.inf
        return ChangeScenario(pre=pre, post=post, nu=nu, params_pre=params, params_post=params)

    def config(self, scenario, seed, trials):
        return ExperimentConfig(
            scenario=scenario,
            detector=dict(self.detector),
            trials=trials,
            truncation=self.truncation,
            seed=seed,
            parallelism=1,
        )

    @property
    def campaign_fn(self):
        """The public campaign entry point: cfg -> SimReport."""
        return run_delay_trials if self.kind == "delay" else run_arl_trials

    def check_call(self, report):
        """Per-call check: delay campaigns must detect in every trial."""
        if self.kind == "delay" and report.censored_fraction != 0.0:
            return f"{report.censored_fraction:.3f} of trials censored"
        return None

    def check_pooled(self, rows):
        """Campaign-level clause over the quota's trials; None when it holds."""
        if self.kind == "arl":
            # acceptance criterion 07: arl >= e^b - 2 se
            quality = pooled_quality(self, rows)
            floor = math.exp(self.detector["b"]) - 2.0 * quality["se"]
            if quality["mean"] < floor:
                return f"arl {quality['mean']:.3f} below floor {floor:.3f}"
            return None
        # acceptance criterion 08, absolute clause only: mean delay <= 10
        if self.max_mean_delay is not None:
            mean = pooled_quality(self, rows)["mean"]
            if mean > self.max_mean_delay:
                return f"mean delay {mean:.3f} above {self.max_mean_delay}"
        return None


def pooled_quality(workload, rows):
    """Mean and standard error of the delay (or run length) over rows."""
    key = "delay" if workload.kind == "delay" else "steps"
    values = np.array([row[key] for row in rows], dtype=float)
    se = float(values.std(ddof=1)) / math.sqrt(values.size) if values.size > 1 else 0.0
    return {"mean": float(values.mean()), "se": se, "trials": int(values.size)}


def _ldp(b, estimator):
    return {"kind": "LDP", "b": b, "epsilon": EPSILON, "estimator": estimator}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="arl-spectral-n50",
            kind="arl",
            n=50,
            a=5.0,
            detector=_ldp(2.0, "spectral"),
            truncation=60,
            trials_per_call=2,
            quota_calls=20,
        ),
        Workload(
            name="delay-sdp-n50",
            kind="delay",
            n=50,
            a=5.0,
            detector=_ldp(LOG_1000, "sdp"),
            truncation=60,
            trials_per_call=2,
            quota_calls=30,
            max_mean_delay=10.0,
        ),
        Workload(
            name="delay-cdp-n50",
            kind="delay",
            n=50,
            a=5.0,
            detector={
                "kind": "CDP",
                "b": LOG_1000,
                "epsilon": EPSILON,
                "delta": 0.05,
                "release": "assumed",  # NOT private: the distance is assumed
                "release_estimator": "spectral",
            },
            truncation=60,
            trials_per_call=50,
            quota_calls=40,
        ),
        Workload(
            name="delay-spectral-n1000",
            kind="delay",
            n=1000,
            a=20.0,
            detector=_ldp(LOG_1000, "spectral"),
            truncation=60,
            trials_per_call=1,
            quota_calls=24,
        ),
    )
}
