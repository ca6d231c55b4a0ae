"""kgsr benchmark: train, serve and build workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, both modes
    python3 perfbench/run.py --smoke             # every workload at 200 x 100

Each workload runs in a fresh interpreter (``harness.py``) with the BLAS
thread pools pinned to 1 in that child's environment only, so
``peak_rss_mb`` is per workload. ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json and ``--trace 1`` the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a table goes to
standard error. ``failed / attempted`` is the failed share.

The full result of every run, with the Python and numpy versions, the CPU
count and model, the output digests and every sample with its host-speed
factor, is written under ``perfbench/results/``. A digest that differs from an earlier run of the
same seed and the same source counts as a failed operation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def source_digest() -> str:
    """Digest of the program and benchmark sources, keying stored digests."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.tsv")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    if not (SRC / "kgsr" / "cli.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    workdir = WORK / f"{workload}-{os.getpid()}"
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # same dict layouts in every run
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    command = [
        sys.executable, str(BENCH_DIR / "harness.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir),
    ] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: harness exited {proc.returncode}\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def compare_digests(key: str, digests: dict[str, str]) -> list[str]:
    """Record this run's digests; return every one that differs from the record."""
    store_path = RESULTS / "digests.json"
    store = json.loads(store_path.read_text(encoding="utf-8")) if store_path.exists() else {}
    recorded = store.setdefault(key, {})
    differing = [
        f"{name}: digest differs from an earlier run of the same seed"
        for name, digest in sorted(digests.items())
        if recorded.setdefault(name, digest) != digest
    ]
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return differing


def bench(workload: str, seed: int, seconds: float, trace: int, smoke: bool, spec: dict) -> dict:
    result = run_child(workload, seed, seconds, trace, smoke)
    RESULTS.mkdir(parents=True, exist_ok=True)
    differing = compare_digests(f"{source_digest()}/{workload}/{seed}/smoke={smoke}", result["digests"])
    attempted = result["attempted"] + len(result["digests"])
    failed = result["failed"] + len(differing)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in measured
    }
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "machine": {**machine(), "numpy": result["numpy"]}, "passes": result["passes"],
        "problems": result["problems"] + differing, "missing": missing,
        "missing_targets": result.get("missing_targets", []),
        "digests": result["digests"], "all_metrics": measured, "result": line,
        "host_speed": result["host_speed"], "samples": result["samples"],
    }
    name = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return record


def print_table(record: dict) -> None:
    line = record["result"]
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    print(f"== {head}: {line['failed']}/{line['attempted']} failed, {record['passes']} passes",
          file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    for name in record["missing"]:
        print(f"  {name:<36} {'missing':>14}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgsr benchmark")
    parser.add_argument("--workload", help="one workload (default: every workload, both modes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 200 x 100 for a quick end-to-end check")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds if args.seconds is not None else (0.1 if args.smoke else spec["run_seconds"])
        if args.workload is not None:
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
            runs = [(args.workload, args.trace or 0)]
        else:
            modes = (0, 1) if args.trace is None else (args.trace,)
            runs = [(name, trace) for name in names for trace in modes]
        records = [bench(name, args.seed, seconds, trace, args.smoke, spec) for name, trace in runs]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_table(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"], sort_keys=True))
    else:
        summary = {f"{r['workload']}/trace{r['trace']}": r["result"] for r in records}
        print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
