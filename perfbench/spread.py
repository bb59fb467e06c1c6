"""Run workloads over several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --seeds 0-9 [--trace-seed 0] [--out FILE]

Each run is a fresh `run.py` process, one at a time, over every workload in
BENCHMARK.json. For every end-to-end
metric the summary gives the median, the quartiles and the spread, which is
the distance between the quartiles as a share of the median (as
statistics.quantiles(values, n=4) gives them), next to the metric's bound
from BENCHMARK.json. --trace-seed adds one traced run per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(ln[len("# record "):]) for ln in lines if ln.startswith("# record "))
    return json.loads(lines[-1]), record, wall


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, record, wall = run_once(name, seed, bench["run_seconds"], 0)
            runs.append((result, record))
            print(f"{name} seed {seed}: wall {wall:.1f}s correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "metrics": {
                metric: summarize([r["metrics"][metric]["value"] for r, _ in runs], bounds[metric])
                for metric in bounds
            },
        }
        entry["raw"] = {
            metric: summarize([rec["raw"][metric] for _, rec in runs], None)
            for metric in runs[0][1]["raw"]
        }
        quality = runs[0][1]["quality"]
        entry[quality] = [(rec[quality] or {}).get("mean") for _, rec in runs]
        entry["environment"] = runs[0][1]["environment"]
        entry["runs"] = [
            {k: v for k, v in rec.items() if k != "environment"} for _, rec in runs
        ]
        if args.trace_seed is not None:
            result, record, _ = run_once(name, args.trace_seed, bench["run_seconds"], 1)
            entry["trace"] = {
                "seed": args.trace_seed,
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "self_time_share": record["self_time_share"],
            }
        summary["workloads"][name] = entry
        for metric, s in {**entry["metrics"], **entry["raw"]}.items():
            flag = ""
            if s["bound"] is not None and s["spread"] >= s["bound"] / 3:
                flag = "  <-- above bound/3"
            print(f"  {metric:<16} median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
