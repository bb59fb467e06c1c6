"""Seeded campaign rows as a checked contract.

Each benchmark workload's shape (perfbench/workloads.py) runs the first
CALLS campaign calls of its quota at seeds 0-3, each call seeded as
perfbench/run.py seeds it, and the per-call rows are hashed as run.py's
`quota_rows_sha256` hashes them. One shape and seed also hash calls CALLS
to LONG_CALLS - 1 as one more digest. The digests must equal those in
row_digests.json, which also records the numpy version they were taken on.

NumPy keeps its bit generators stable across versions but not every
Generator method's stream (NEP 19). So on a numpy version the file does not
name, equal digests pass with a warning naming both versions, and different
digests fail: either the change or numpy moved the rows. A change that moves
rows on purpose explains them in CHANGES.md and re-records the file:

    PYTHONPATH=src python tests/test_rows_contract.py
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cbmdetect import (
    CbmParams, ChangeScenario, ExperimentConfig, run_arl_trials, run_delay_trials,
)

RECORD = Path(__file__).with_name("row_digests.json")
SEEDS = range(4)
CALLS = 3
# the SDP ascent moves rows only on some calls: at seed 3 a SHIFT = 0.5 mutant
# of recovery first moves call 43, a GAP_TOL = 1e-2 one call 5; calls 0-2 at
# seeds 0-3 see neither
LONG_SHAPE, LONG_SEED, LONG_CALLS = "delay-sdp-n50", 3, 44
LOG_1000 = math.log(1000.0)


def _ldp(b, estimator):
    return {"kind": "LDP", "b": b, "epsilon": 1.5, "estimator": estimator}


# name -> (n, a, nu, detector, trials per call); zeta 0.1, truncation 60
SHAPES = {
    "arl-spectral-n50": (50, 5.0, math.inf, _ldp(2.0, "spectral"), 2),
    "delay-sdp-n50": (50, 5.0, 1, _ldp(LOG_1000, "sdp"), 2),
    "delay-cdp-n50": (
        50, 5.0, 1,
        {
            "kind": "CDP", "b": LOG_1000, "epsilon": 1.5, "delta": 0.05,
            "release": "assumed", "release_estimator": "spectral",
        },
        50,
    ),
    "delay-spectral-n1000": (1000, 20.0, 1, _ldp(LOG_1000, "spectral"), 1),
}


def _call_seed(seed, call):
    return int(np.random.SeedSequence(seed, spawn_key=(call,)).generate_state(1)[0])


def _calls(name, seed, calls=range(CALLS)):
    """Rows of the shape's quota calls at seed, the first CALLS by default, one list per call."""
    n, a, nu, detector, trials = SHAPES[name]
    pre = np.array([1] * (n // 2) + [-1] * (n - n // 2), dtype=np.int8)
    post = pre.copy()
    post[:2] *= -1
    params = CbmParams.from_scale(n, a, 0.1)
    scenario = ChangeScenario(pre=pre, post=post, nu=nu, params_pre=params, params_post=params)
    campaign = run_arl_trials if nu == math.inf else run_delay_trials
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the assumed release is not private
        for call in calls:
            cfg = ExperimentConfig(
                scenario, dict(detector), trials=trials, truncation=60, seed=_call_seed(seed, call)
            )
            rows.append(campaign(cfg).rows)
    return rows


def _digest(calls):
    return hashlib.sha256(json.dumps(calls, sort_keys=True).encode()).hexdigest()


def _long_digest():
    return _digest(_calls(LONG_SHAPE, LONG_SEED, range(CALLS, LONG_CALLS)))


@pytest.fixture(scope="module")
def rows():
    return {name: {str(seed): _calls(name, seed) for seed in SEEDS} for name in SHAPES}


def test_rows_cover_a_stop_and_a_censored_trial(rows):
    every = [
        row for by_seed in rows.values() for calls in by_seed.values() for c in calls for row in c
    ]
    assert any(row["stopped"] for row in every)
    assert any(row["censored"] for row in every)


def test_seeded_rows_match_the_recorded_digests(rows):
    record = json.loads(RECORD.read_text())
    moved = [
        f"{name} seed {seed}"
        for name, by_seed in rows.items()
        for seed, calls in by_seed.items()
        if record["digests"][name][seed] != _digest(calls)
    ]
    if record["long"][LONG_SHAPE][str(LONG_SEED)] != _long_digest():
        moved.append(f"{LONG_SHAPE} seed {LONG_SEED} calls {CALLS}-{LONG_CALLS - 1}")
    recorded_on = record["numpy"]
    assert not moved, (
        f"seeded rows moved at {moved} on numpy {np.__version__}, against digests recorded "
        f"on numpy {recorded_on}: if the change moved them, explain each in CHANGES.md; if "
        "numpy did (NEP 19), say so. Then re-record: PYTHONPATH=src python "
        "tests/test_rows_contract.py"
    )
    if recorded_on != np.__version__:
        warnings.warn(
            f"row digests were recorded on numpy {recorded_on}; they also hold on numpy "
            f"{np.__version__}",
            UserWarning,
        )

if __name__ == "__main__":
    record = {
        "numpy": np.__version__,
        "digests": {
            name: {str(seed): _digest(_calls(name, seed)) for seed in SEEDS} for name in SHAPES
        },
        "long": {LONG_SHAPE: {str(LONG_SEED): _long_digest()}},
    }
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RECORD} on numpy {np.__version__}")
