"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train --seeds 10
    python3 perfbench/spread.py --seeds 10 --baseline   # every workload

For every end-to-end metric it prints the median of the runs, the first and
third quartile (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. ``--baseline`` writes the medians, with
the machine they were measured on, to ``perfbench/baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_seed(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], spec: dict) -> dict:
    summary = {}
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"== {workload}: {len(results)} runs, {failed}/{attempted} failed")
    print(f"  {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            print(f"  {name:<26} missing")
            continue
        q1, _, q3 = quantiles(values, n=4)
        mid = median(values)
        spread = (q3 - q1) / mid
        mark = "" if spread <= metric["bound"] / 3 else " *" if spread <= metric["bound"] else " !"
        print(f"  {name:<26} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {metric['bound']:>6}{mark}")
        summary[name] = {"median": mid, "q1": q1, "q3": q3, "spread": spread, "unit": metric["unit"]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--seeds", type=int, default=10, help="runs, on seeds 1..N")
    parser.add_argument("--seconds", type=int, help="seconds per run (default: run_seconds)")
    parser.add_argument("--baseline", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    summaries = {}
    for workload in workloads:
        results = [run_seed(workload, seed, seconds) for seed in range(1, args.seeds + 1)]
        summaries[workload] = summarize(workload, results, spec)
    print("(* spread above a third of the bound, ! above the bound)")
    if args.baseline:
        record = json.loads((BENCH_DIR / "results" / f"{workloads[-1]}-seed1-trace0.json").read_text())
        baseline = {
            "machine": record["machine"], "seconds": seconds, "seeds": args.seeds,
            "workloads": summaries,
        }
        (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
