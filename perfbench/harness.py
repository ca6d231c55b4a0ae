"""Run one benchmark workload in this interpreter and print one JSON line.

Started by ``run.py`` in a fresh interpreter per workload. It generates a
planted dataset from the seed with ``kgsr.demo.write_planted_dataset`` and
drives the real CLI in-process through ``kgsr.cli.main(argv)``, one closed
loop, one client, ``--threads 1``. The program only receives files.

A workload is a lifecycle of CLI stages split in two:

- set-up: brings the program to the state the timed part starts from;
  it runs before every pass and ``setup_s`` is the median of them;
- timed: one pass holds every stage not in the set-up, so every stage,
  and so every metric, is measured on every workload; passes repeat until
  ``--seconds`` have gone by. Pretraining also runs once a pass where it
  is part of the set-up, so its throughput has as many samples as the
  other stages.

Stage throughputs are medians over the stage's invocations, with each
invocation's time corrected for the host's speed (``speed.py``); garbage
is collected before each invocation. Every output is checked; each failed
check, skipped user, user without rows and non-zero exit counts as a
failed operation.

With ``--trace 1`` the lifecycle (set-up and one pass) runs untraced and
then traced, until ``--seconds`` have gone by, and the per-layer metrics
are medians over the traced lifecycles.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import resource
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

from kgsr import cli
from kgsr.demo import write_planted_dataset
from kgsr.graph import ingest_triples
from kgsr.training import load_checkpoint

import layers
from spans import Tracer, percentile
from speed import HostSpeed

# A 200 x 100 planted graph with 8 users and 4 items per property keeps
# every stage short enough to sample many times a run.
USERS, ITEMS, PROPERTIES = 200, 100, 25
STEPS = 2
DIM = 32
# Five epochs keep a pretraining call long enough for the host-speed
# correction to sample inside it (speed.MIN_INSIDE).
PRETRAIN_EPOCHS = 5
BATCH_SIZE = 128
K = 10
MIN_HIT_RATE = 0.5  # the planted-preference acceptance bound
REQUEST_REPEATS = 2
# Stages whose work is mostly small numpy operations in Python loops; the
# others parse files and build dicts (speed.CHUNKS).
NUMERIC_STAGES = {"pretrain", "train", "evaluate", "recommend"}


@dataclass(frozen=True)
class Workload:
    setup: tuple[str, ...]
    timed: tuple[str, ...]  # one pass; a stage named twice runs twice
    top_n: int
    recommend_top: int
    requests: int  # single-user requests per "request" stage
    min_hit_rate: float | None = None


FAST = ("ingest",) * 5 + ("augment",) * 5

WORKLOADS = {
    # Training dominates: per-user diffusion and scoring with keep_trace,
    # backward and Adam, two epochs a pass.
    "train": Workload(
        setup=("generate", *FAST, "pretrain"),
        timed=("train", "train", "evaluate", "recommend", "request", "pretrain"),
        top_n=30, recommend_top=1, requests=12,
    ),
    # Reads on a trained model lead: evaluation, top-10 recommendations
    # with explanation paths, and single-user requests that each pay
    # ingest and checkpoint load.
    "serve": Workload(
        setup=("generate", *FAST, "pretrain", "train"),
        timed=("evaluate", "recommend", "request", "pretrain"),
        top_n=30, recommend_top=10, requests=10, min_hit_rate=MIN_HIT_RATE,
    ),
    # The write side leads: ingest, review augmentation and pretraining
    # repeat; the per-user stages run with a 10-node subgraph.
    "build": Workload(
        setup=("generate",),
        timed=(*FAST, "pretrain", "pretrain", "train", "evaluate", "recommend", "request"),
        top_n=10, recommend_top=1, requests=12,
    ),
}


class _Records(logging.Handler):
    """Keeps log records in memory; installed before the CLI configures
    logging, so its basicConfig call leaves the root logger alone."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)

    def take(self) -> list[logging.LogRecord]:
        records, self.records = self.records, []
        return records


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _path_is_valid(path_text: str, user: str, item: str) -> bool:
    """An arrow-serialized walk from the user to the item (names may hold spaces)."""
    return path_text.startswith(user + " ") and path_text.endswith(" " + item)


class Run:
    """One workload's stages, checks and measurements.

    Throughput samples are kept as (work units, call id) and turned into
    rates at the end of the run, once the host's speed around every call is
    known.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, log: _Records, speed: HostSpeed):
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.log = log
        self.files = {
            name: workdir / name
            for name in (
                "triples.tsv", "interactions.tsv", "reviews.jsonl", "augmented.tsv",
                "pretrained.ckpt", "model.ckpt", "evaluate.json", "recommend.tsv",
            )
        }
        self.speed = speed
        self.tracer: Tracer | None = None
        self.stage_spans: dict[int, int] = {}  # cli.<stage> span index -> call id
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.request_calls: list[list[int]] = []  # per request, its repeated calls
        self.quality: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set[str]] = defaultdict(set)
        self.explain_pairs: list[tuple[str, str]] = []
        self.model_args = ["--n", str(workload.top_n), "--steps", str(STEPS)]

    # -- plumbing ------------------------------------------------------------

    def check(self, ok: bool, problem: str) -> bool:
        self.tally(1, 0 if ok else 1, problem)
        return ok

    def tally(self, total: int, failed: int, problem: str) -> None:
        """Count total operations, failed of them, and note the problem."""
        self.attempted += total
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(problem if total == 1 else f"{failed} of {total} {problem}")

    def cli(self, stage: str, *argv: str) -> tuple[bool, str, list[logging.LogRecord], int]:
        """One in-process CLI invocation: (exit ok, stdout, log records, call id)."""
        full = [*argv, "--seed", str(self.seed), "--threads", "1", "--log-level", "info"]
        out, err = io.StringIO(), io.StringIO()
        self.log.take()

        def call() -> tuple[int, int | None]:
            span = self.tracer.open(f"cli.{stage}") if self.tracer is not None else None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli.main(full), span
            finally:
                if span is not None:
                    self.tracer.close(span)

        kind = "numeric" if stage in NUMERIC_STAGES else "interpreter"
        (code, span), call_id = self.speed.measure(call, kind)
        if span is not None:
            self.stage_spans[span] = call_id
        ok = self.check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return ok, out.getvalue(), self.log.take(), call_id

    def phase(self, stages: tuple[str, ...]) -> range:
        """Run stages in order; return the ids of the calls they made."""
        first = self.speed.calls
        for stage in stages:
            getattr(self, f"stage_{stage}")()
        return range(first, self.speed.calls)

    def seconds(self, calls: range) -> float:
        return sum(self.speed.seconds(call) for call in calls)

    def lifecycle(self) -> range:
        return self.phase(self.w.setup + self.w.timed)

    def warm_up(self) -> None:
        """One untimed CLI call, so first-call costs stay out of the samples."""
        self.stage_generate()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["ingest", "--triples", str(self.files["triples.tsv"])])
        self.log.take()

    # -- stages --------------------------------------------------------------

    def stage_generate(self) -> None:
        self.speed.measure(lambda: write_planted_dataset(
            self.dir, n_users=USERS, n_items=ITEMS, n_properties=PROPERTIES, seed=self.seed,
        ))

    def stage_ingest(self) -> None:
        f = self.files
        ok, out, _, call = self.cli(
            "ingest", "ingest", "--triples", str(f["triples.tsv"]),
            "--interactions", str(f["interactions.tsv"]),
        )
        if ok:
            stats = json.loads(out)
            self.samples["ingest_rows_per_s"].append((stats["triples"] + stats["interactions"], call))

    def stage_augment(self) -> None:
        f = self.files
        ok, out, _, call = self.cli(
            "augment", "augment", "--offline", "--triples", str(f["triples.tsv"]),
            "--reviews", str(f["reviews.jsonl"]), "--out", str(f["augmented.tsv"]),
        )
        if ok:
            stats = json.loads(out)
            self.samples["augment_reviews_per_s"].append((stats["reviews"], call))
            self.check(
                stats["injected"] == stats["extracted"],
                f"augment injected {stats['injected']} of {stats['extracted']} extracted triples",
            )

    def stage_pretrain(self) -> None:
        f = self.files
        ok, _, records, call = self.cli(
            "pretrain", "pretrain", "--triples", str(f["augmented.tsv"]),
            "--interactions", str(f["interactions.tsv"]), "--dim", str(DIM),
            "--pretrain-epochs", str(PRETRAIN_EPOCHS), "--out", str(f["pretrained.ckpt"]),
        )
        if not ok:
            return
        loaded = [r for r in records if r.getMessage().startswith("loaded ")]
        n_triples = loaded[-1].args[2]
        self.samples["pretrain_triples_per_s"].append((n_triples * PRETRAIN_EPOCHS, call))
        self.digests["pretrained.ckpt"].add(_digest(f["pretrained.ckpt"]))
        try:
            names = load_checkpoint(f["pretrained.ckpt"]).entity_names
            matches = names == ingest_triples(f["augmented.tsv"]).entity_names()
        except (OSError, ValueError) as exc:
            matches = False
            self.problems.append(f"pretrained checkpoint does not load: {exc}")
        self.check(matches, "pretrained checkpoint entity names differ from the graph")

    def stage_train(self) -> None:
        f = self.files
        ok, _, records, call = self.cli(
            "train", "train", "--triples", str(f["augmented.tsv"]),
            "--interactions", str(f["interactions.tsv"]), "--dim", str(DIM), "--epochs", "1",
            "--batch-size", str(BATCH_SIZE), *self.model_args,
            "--init", str(f["pretrained.ckpt"]), "--out", str(f["model.ckpt"]),
        )
        if not ok:
            return
        epochs = [r for r in records if r.name == "kgsr.training" and r.getMessage().startswith("epoch ")]
        _, _, loss, used, skipped = epochs[-1].args
        self.samples["train_users_per_s"].append((used + skipped, call))
        self.tally(used + skipped, skipped, "training users skipped")
        if self.check(math.isfinite(loss), f"training loss is {loss}"):
            self.quality["train_final_loss"] = loss
        self.digests["model.ckpt"].add(_digest(f["model.ckpt"]))

    def stage_evaluate(self) -> None:
        f = self.files
        ok, _, _, call = self.cli(
            "evaluate", "evaluate", "--checkpoint", str(f["model.ckpt"]),
            "--triples", str(f["augmented.tsv"]), "--interactions", str(f["interactions.tsv"]),
            "--k", str(K), *self.model_args, "--out", str(f["evaluate.json"]),
        )
        if not ok:
            return
        report = json.loads(f["evaluate.json"].read_text(encoding="utf-8"))
        users = report["evaluated_users"] + report["skipped_users"]
        self.samples["eval_users_per_s"].append((users, call))
        self.tally(users, report["skipped_users"], "evaluation users skipped")
        self.quality["eval_hr_at_10"] = report["hit_rate"]
        self.quality["eval_ndcg_at_10"] = report["ndcg"]
        if self.w.min_hit_rate is not None:
            self.check(
                report["hit_rate"] >= self.w.min_hit_rate,
                f"hit rate {report['hit_rate']:.4f} below {self.w.min_hit_rate}",
            )
        self.digests["evaluate.json"].add(_digest(f["evaluate.json"]))

    def _check_rows(self, rows: list[list[str]], users: list[str]) -> dict[str, str]:
        """Checks recommendation rows; returns each user's rank-1 item."""
        by_user: dict[str, list[list[str]]] = defaultdict(list)
        for row in rows:
            by_user[row[0]].append(row)
        first: dict[str, str] = {}
        bad = 0
        for user in users:
            user_rows = by_user.get(user)
            if user_rows and all(len(r) == 7 and _path_is_valid(r[6], user, r[2]) for r in user_rows):
                first[user] = user_rows[0][2]
            else:
                bad += 1
        self.tally(len(users), bad, "users without valid recommendation rows")
        return first

    def stage_recommend(self) -> None:
        f = self.files
        ok, _, _, call = self.cli(
            "recommend", "recommend", "--checkpoint", str(f["model.ckpt"]),
            "--triples", str(f["augmented.tsv"]), "--interactions", str(f["interactions.tsv"]),
            "--top", str(self.w.recommend_top), *self.model_args, "--out", str(f["recommend.tsv"]),
        )
        if not ok:
            return
        text = f["recommend.tsv"].read_text(encoding="utf-8")
        rows = [line.split("\t") for line in text.splitlines()]
        users = sorted({
            line.split("\t")[0]
            for line in f["interactions.tsv"].read_text(encoding="utf-8").splitlines()
        })
        first = self._check_rows(rows, users)
        self.samples["recommend_users_per_s"].append((len(users), call))
        self.explain_pairs = sorted(first.items())
        self.digests["recommend.tsv"].add(_digest(f["recommend.tsv"]))

    def stage_request(self) -> None:
        """Single-user requests, alternating recommend --user and explain.

        Explain pairs come from the user's own recommendations, so a valid
        request cannot fail. The requests are sent in REQUEST_REPEATS rounds
        and each one's latency is the fastest of its rounds: the program
        does the same work every time, so the slower ones measure host
        noise, and rounds apart in time rarely all meet the same slow spell.
        """
        if not self.check(bool(self.explain_pairs), "no recommendation rows to draw requests from"):
            return
        f = self.files
        common = [
            "--checkpoint", str(f["model.ckpt"]), "--triples", str(f["augmented.tsv"]),
            "--interactions", str(f["interactions.tsv"]), *self.model_args,
        ]
        rng = np.random.default_rng(self.seed + len(self.request_calls))
        picks = rng.integers(0, len(self.explain_pairs), size=self.w.requests)
        calls: list[list[int]] = [[] for _ in picks]
        for _ in range(REQUEST_REPEATS):
            for number, pick in enumerate(picks):
                user, item = self.explain_pairs[int(pick)]
                if number % 2 == 0:
                    ok, out, _, call = self.cli("request", "recommend", *common, "--user", user, "--top", "1")
                    if ok:
                        self._check_rows([line.split("\t") for line in out.splitlines()], [user])
                else:
                    ok, out, _, call = self.cli("request", "explain", *common, "--user", user, "--item", item)
                    if ok:
                        self.check(bool(out.strip()), f"explain {user} {item} printed nothing")
                calls[number].append(call)
        self.request_calls.extend(calls)

    # -- results -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        metrics = {
            name: median(units / self.speed.seconds(call) for units, call in samples)
            for name, samples in self.samples.items()
        }
        if self.request_calls:
            request_ms = [
                min(self.speed.seconds(call) for call in calls) * 1000.0 for calls in self.request_calls
            ]
            metrics["request_ms_p50"] = percentile(request_ms, 50)
            metrics["request_ms_p90"] = percentile(request_ms, 90)
        metrics.update(self.quality)
        return metrics

    def check_digests(self) -> dict[str, str]:
        """Repeated stages of one run must write identical bytes."""
        single = {}
        for name, seen in sorted(self.digests.items()):
            if self.check(len(seen) == 1, f"{name}: {len(seen)} different digests within one run"):
                single[name] = next(iter(seen))
        return single


def measure(run: Run, seconds: float) -> dict:
    """Alternates set-ups and passes until the passes have taken ``seconds``.

    A slow spell of the host then falls on samples of every stage alike,
    set-up stages included, instead of on the set-ups alone.
    """
    run.warm_up()
    setup_calls = []
    timed = 0.0
    while not setup_calls or timed < seconds:
        setup_calls.append(run.phase(run.w.setup))
        start = time.perf_counter()
        run.phase(run.w.timed)
        timed += time.perf_counter() - start
    metrics = run.end_to_end()
    metrics["setup_s"] = median(run.seconds(calls) for calls in setup_calls)
    return {"metrics": metrics, "passes": len(setup_calls)}


def measure_traced(run: Run, seconds: float) -> dict:
    run.warm_up()
    lifecycles: list[tuple[range, range, Tracer, dict[int, int]]] = []
    start = time.perf_counter()
    while not lifecycles or time.perf_counter() - start < seconds:
        untraced = run.lifecycle()
        tracer = Tracer()
        layers.install(tracer)
        run.tracer, run.stage_spans = tracer, {}
        try:
            traced = run.lifecycle()
        finally:
            tracer.uninstall()
            run.tracer = None
        lifecycles.append((untraced, traced, tracer, run.stage_spans))
    per_lifecycle = []
    for untraced, traced, tracer, spans in lifecycles:
        stages = {span: (run.speed.seconds(call), run.speed.factor(call)) for span, call in spans.items()}
        metrics = layers.layer_metrics(tracer, stages)
        metrics["trace.overhead_share"] = run.seconds(traced) / run.seconds(untraced) - 1.0
        per_lifecycle.append(metrics)
    names = set().union(*per_lifecycle)
    metrics = {
        name: median(m[name] for m in per_lifecycle if name in m) for name in sorted(names)
    }
    missing = sorted({target for _, _, tracer, _ in lifecycles for target in tracer.missing_targets})
    return {"metrics": metrics, "passes": len(lifecycles), "missing_targets": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = replace(workload, requests=2)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    log = _Records()
    root = logging.getLogger()
    root.addHandler(log)
    root.setLevel(logging.INFO)
    # Reference chunks inside a call would land in its spans, so a traced
    # run corrects both its traced and untraced lifecycles from chunks
    # between calls only.
    run = Run(workload, args.seed, workdir, log, HostSpeed(sample_inside=not args.trace))
    try:
        if args.trace:
            result = measure_traced(run, args.seconds)
        else:
            result = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = [run.speed.factor(call) for call in range(run.speed.calls)]
    result.update(
        digests=run.check_digests(),
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        numpy=np.__version__,
        host_speed=median(factors),
        samples={
            name: [(units, run.speed.seconds(call), run.speed.factor(call)) for units, call in samples]
            for name, samples in run.samples.items()
        },
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
