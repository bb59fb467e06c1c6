"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload delay-sdp-n50 --seed 0 --seconds 25 --trace 0

Run it from anywhere; it builds nothing and imports the package from the
checkout's src/ directory. With --trace 0 it measures the end-to-end metrics
with tracing off. With --trace 1 it runs the first half of the workload's
quota twice, untraced and then traced, checks that both give bit-identical
per-trial rows, and reports the per-layer metrics; the spans go to
.perfbench_out/. The last line of standard output is the JSON result;
the lines before it, starting with '#', are for people and for spread.py.
"""

import os
import sys
import time

T0 = time.perf_counter()
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7  # this process plus six fresh interpreters
PROBE_TIMEOUT_S = 150
WARMUP_SEED = 987654321
REFERENCE_REPEATS = 25
# The reference kernel's time on the 2-core Xeon the seed baseline was
# measured on. Set-up times are scaled to a machine of that speed.
REFERENCE_NOMINAL_S = 0.0030

# name -> (unit, better). Throughput is counted per kref: the time the
# reference kernel below takes to run 1000 times on the same machine, timed
# between campaign calls. On a shared host whose speed drifts by tens of
# percent within minutes this cancels most of the drift; set-up time is
# scaled the same way. Trials per second is printed but not gated: on the
# delay workloads it follows the seed's detection delays more than the
# program's speed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "samples_per_kref": ("samples/kref", "higher"),
}
RAW_UNITS = {
    "trials_per_s": ("1/s", "higher"),
    "samples_per_s": ("1/s", "higher"),
    "setup_elapsed_s": ("s", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_package():
    """Put the checkout's src/ first on the path and import cbmdetect from it."""
    init = SRC / "cbmdetect" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import cbmdetect

    if Path(cbmdetect.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: cbmdetect imported from {cbmdetect.__file__}, not {init}")


def set_up(name):
    """Import the package, build the campaign and run one warm-up trial."""
    import_package()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    scenario = workload.scenario()
    workload.campaign_fn(workload.config(scenario, WARMUP_SEED, trials=1))
    return workload, scenario


def setup_sample():
    """Seconds since this interpreter started running this file, and the
    reference kernel's median time right after them."""
    elapsed = time.perf_counter() - T0
    reference_kernel()  # builds the kernel's inputs outside the timed repeats
    reference = statistics.median(reference_kernel() for _ in range(REFERENCE_REPEATS))
    return {"elapsed_s": elapsed, "reference_s": reference}


def probe_setup(name):
    """A set-up sample of a fresh interpreter, as that interpreter measures it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--probe-setup"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def call_seed(seed, call):
    import numpy as np

    return int(np.random.SeedSequence(seed, spawn_key=(call,)).generate_state(1)[0])


@functools.cache
def _reference_inputs():
    import numpy as np

    big = np.random.default_rng(0).standard_normal((1000, 1000))
    return big[:50, :50], big, big[0] / np.linalg.norm(big[0])


def reference_kernel():
    """Seconds for a fixed piece of work that runs no package code.

    Like the campaigns it mixes interpreter work, small numpy operations
    and products with a 1000x1000 matrix: a Python loop, 200 steps of power
    iteration on a 50x50 matrix and four on the 1000x1000 one.
    """
    import numpy as np

    small, big, v = _reference_inputs()
    t = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    u = v[:50]
    for _ in range(200):
        u = small @ u
        u /= np.linalg.norm(u)
    for _ in range(4):
        v = big @ v
        v /= np.linalg.norm(v)
    return time.perf_counter() - t


def run_calls(workload, scenario, seed, min_calls, seconds, tracer=None, reference=False):
    """Campaign calls 0, 1, ... until min_calls are done and seconds have passed.

    Returns per-call records (rows, busy seconds, problem or None; with
    reference, the reference kernel's time right after the call). With a
    tracer each call runs inside a span named after the campaign function.
    """
    span_name = f"harness.{workload.campaign_fn.__name__}"
    calls = []
    start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - start < seconds:
        cfg = workload.config(scenario, call_seed(seed, len(calls)), workload.trials_per_call)
        span = tracer.span(span_name) if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        try:
            with span:
                report = workload.campaign_fn(cfg)
        except Exception as exc:  # a failed call is counted, not fatal
            call = {"rows": [], "busy": time.perf_counter() - t, "problem": repr(exc)}
        else:
            busy = time.perf_counter() - t
            call = {"rows": report.rows, "busy": busy, "problem": workload.check_call(report)}
        if reference:
            call["ref"] = reference_kernel()
        calls.append(call)
    return calls


def rows_digest(calls):
    """sha256 of the per-trial rows; float repr is exact, so equal digests are bit-identical."""
    text = json.dumps([c["rows"] for c in calls], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "cbmdetect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_pinned_before_numpy_import": not NUMPY_LOADED_BEFORE_PIN,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _failures(calls):
    return [f"call {i}: {c['problem']}" for i, c in enumerate(calls) if c["problem"]]


def end_to_end(workload, scenario, args):
    """Set-up time and throughput with tracing off, plus the quota's quality."""
    from workloads import pooled_quality

    setup = [setup_sample()]
    setup += [probe_setup(workload.name) for _ in range(SETUP_SAMPLES - 1)]
    calls = run_calls(
        workload, scenario, args.seed, workload.quota_calls, args.seconds, reference=True
    )
    quota = calls[: workload.quota_calls]
    quota_rows = [row for c in quota for row in c["rows"]]
    problems = _failures(calls)
    pooled = workload.check_pooled(quota_rows) if quota_rows else "no quota rows"
    if pooled:
        problems.append(f"quota: {pooled}")
    ok = [c for c in calls if not c["problem"]]
    busy = sum(c["busy"] for c in ok)
    trials = sum(len(c["rows"]) for c in ok)
    samples = sum(row["samples"] for c in ok for row in c["rows"])
    kref = 1000.0 * statistics.fmean(c["ref"] for c in calls)
    samples_per_s = samples / busy if busy > 0 else 0.0
    setup_s = statistics.median(
        s["elapsed_s"] * REFERENCE_NOMINAL_S / s["reference_s"] for s in setup
    )
    values = {"setup_s": setup_s, "samples_per_kref": samples_per_s * kref}
    # shown, not gated; these are the rates the gated figures normalize
    raw = {
        "trials_per_s": trials / busy if busy > 0 else 0.0,
        "samples_per_s": samples_per_s,
        "setup_elapsed_s": statistics.median(s["elapsed_s"] for s in setup),
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": 0,
        "attempted": len(calls),
        "failed": len(calls) - len(ok),
        "failed_fraction": (len(calls) - len(ok)) / len(calls),
        "setup_samples": setup,
        "raw": raw,
        "kref_s": kref,
        "quality": workload.quality_name,
        workload.quality_name: pooled_quality(workload, quota_rows) if quota_rows else None,
        "quota_rows_sha256": rows_digest(quota),
        "problems": problems,
    }
    return values, record


def traced(workload, scenario, args):
    """Per-layer figures from the first half of the quota, run untraced then traced."""
    import spans

    calls = math.ceil(workload.quota_calls / 2)
    t = time.perf_counter()
    plain = run_calls(workload, scenario, args.seed, calls, 0.0)
    plain_wall = time.perf_counter() - t
    tracer = spans.Tracer()
    with spans.patched(tracer):
        t = time.perf_counter()
        with_spans = run_calls(workload, scenario, args.seed, calls, 0.0, tracer)
        traced_wall = time.perf_counter() - t
    problems = _failures(with_spans)
    digest = rows_digest(plain)
    if rows_digest(with_spans) != digest:
        problems.append("traced rows differ from untraced rows")
    values = spans.layer_metrics(tracer.spans, workload.n, plain_wall, traced_wall)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    with open(out, "w") as fh:
        for row in tracer.rows():
            fh.write(json.dumps(row) + "\n")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": 1,
        "attempted": len(with_spans),
        "failed": sum(bool(c["problem"]) for c in with_spans),
        "spans": len(tracer.spans),
        "span_file": str(out.relative_to(ROOT)),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "self_time_share": spans.self_time_shares(tracer.spans, traced_wall),
        "rows_sha256": digest,
        "problems": problems,
    }
    return values, record


def main(argv=None):
    args = parse_args(argv)
    workload, scenario = set_up(args.workload)
    if args.probe_setup:
        print(json.dumps(setup_sample()))
        return 0
    if args.trace:
        import spans

        declared = spans.PER_LAYER
        values, record = traced(workload, scenario, args)
    else:
        declared = END_TO_END
        values, record = end_to_end(workload, scenario, args)
    record["environment"] = environment()
    print("# record " + json.dumps(record))
    for name, value in values.items():
        unit, better = declared[name]
        print(f"# {name:<48} {value:>16.6g} {unit:<8} {better} is better")
    if not args.trace:
        for name, value in record["raw"].items():
            unit, better = RAW_UNITS[name]
            print(f"# {name:<48} {value:>16.6g} {unit:<8} {better} is better (not gated)")
        q = record[workload.quality_name]
        better = "lower" if workload.kind == "delay" else "higher"
        if q is None:
            print(f"# {workload.quality_name:<48} {'n/a':>16} steps    no quota trial finished")
        else:
            print(f"# {workload.quality_name:<48} {q['mean']:>16.6g} steps    {better} is better"
                  f" (se {q['se']:.4g}, {q['trials']} quota trials)")
        print(f"# {'failed_fraction':<48} {record['failed_fraction']:>16.6g} ratio    lower is better"
              f" ({record['failed']} of {record['attempted']} calls)")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    metrics = {name: {"value": value, "unit": declared[name][0]} for name, value in values.items()}
    print(json.dumps({"correct": not record["problems"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
