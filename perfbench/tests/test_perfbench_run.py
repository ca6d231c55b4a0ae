"""End-to-end checks of the benchmark command itself."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def test_changed_digest_counts_as_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.compare_digests("key", {"model.ckpt": "aa"}) == []
    assert run.compare_digests("key", {"model.ckpt": "aa"}) == []
    assert len(run.compare_digests("key", {"model.ckpt": "bb"})) == 1
    assert run.compare_digests("other", {"model.ckpt": "bb"}) == []


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_smoke_runs_every_workload_with_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = summary[f"{workload['name']}/trace{trace}"]
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr[-2000:])
            assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
            if trace:
                assert abs(result["metrics"]["trace.coverage"]["value"] - 1.0) < 0.03
