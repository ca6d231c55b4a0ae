"""kgsr layer boundaries for the traced run, and the per-layer metrics.

Each entry names the attribute a caller looks up. ``diffuse`` and
``score_candidates`` are imported by name into ``kgsr.cli``,
``kgsr.training`` and ``kgsr.evaluation``, so each of those names gets its
own wrapper. ``kgsr.cli`` reaches the review functions through the
``kgsr.llm`` module, so those are wrapped there.

Every ``_s`` metric is self time summed over one traced lifecycle of the
workload (its set-up, one timed pass and its tail), corrected for the
host's speed like the end-to-end times, so layer self times plus
``cli.<stage>_self_s`` add up to the stages' time (``trace.coverage``).
"""
from __future__ import annotations

from statistics import fmean

from spans import Tracer, percentile, root_of, self_times

STAGES = ("ingest", "augment", "pretrain", "train", "evaluate", "recommend", "request")


def _observe_diffuse(tracer: Tracer, state) -> None:
    tracer.record("diffusion.subgraph_nodes", state.node_count)
    tracer.record("diffusion.traversed_edges", sum(len(step.edges) for step in state.steps))


def _observe_scores(tracer: Tracer, result) -> None:
    scores = result[0] if isinstance(result, tuple) else result
    tracer.record("scoring.candidates", len(scores))


def _observe_batch(tracer: Tracer, result) -> None:
    tracer.count("training.users_skipped", result.users_skipped)
    tracer.count("training.positives_skipped", result.positives_skipped)


def _observe_report(tracer: Tracer, report) -> None:
    tracer.count("evaluation.users_skipped", report.skipped_users)


def _observe_extract(tracer: Tracer, triples) -> None:
    tracer.count("llm.extracted", len(triples))


def _observe_inject(tracer: Tracer, injected) -> None:
    tracer.count("llm.injected", injected)


def _observe_pair(tracer: Tracer, grads) -> None:
    if grads:
        tracer.count("transe.active_pairs")


# (target, span name, observer); the span name plus "_s" is the metric,
# except where SELF_METRIC renames it.
SPANS = (
    ("kgsr.cli.ingest_triples", "graph.ingest", None),
    ("kgsr.cli.ingest_interactions", "graph.ingest", None),
    ("kgsr.cli.split_interactions", "graph.purchase", None),
    ("kgsr.cli.add_purchase_triples", "graph.purchase", None),
    ("kgsr.cli.write_triples", "graph.write", None),
    ("kgsr.llm.load_reviews", "llm.load_reviews", None),
    ("kgsr.llm.load_lexicon", "llm.extract", None),
    ("kgsr.llm.offline_extract", "llm.extract", _observe_extract),
    ("kgsr.llm.inject_triples", "llm.inject", _observe_inject),
    ("kgsr.cli.transe_pretrain", "transe.pretrain", None),
    ("kgsr.transe.sample_negative", "transe.sample_negative", None),
    ("kgsr.cli.diffuse", "diffusion.diffuse", _observe_diffuse),
    ("kgsr.training.diffuse", "diffusion.diffuse", _observe_diffuse),
    ("kgsr.evaluation.diffuse", "diffusion.diffuse", _observe_diffuse),
    ("kgsr.cli.score_candidates", "scoring.score_candidates", _observe_scores),
    ("kgsr.training.score_candidates", "scoring.score_candidates", _observe_scores),
    ("kgsr.evaluation.score_candidates", "scoring.score_candidates", _observe_scores),
    ("kgsr.cli.extract_paths", "scoring.extract_paths", None),
    ("kgsr.cli.format_path", "scoring.format_path", None),
    ("kgsr.training.user_loss", "scoring.user_loss", None),
    ("kgsr.cli.train", "training.train", None),
    ("kgsr.training.forward_backward", "training.forward_backward", _observe_batch),
    ("kgsr.training.adam_step", "training.adam_step", None),
    ("kgsr.cli.make_checkpoint", "training.save_checkpoint", None),
    ("kgsr.cli.save_checkpoint", "training.save_checkpoint", None),
    ("kgsr.cli.load_checkpoint", "training.load_checkpoint", None),
    ("kgsr.training:Checkpoint.to_model", "training.load_checkpoint", None),
    ("kgsr.cli.evaluate_model", "evaluation.evaluate_model", _observe_report),
)

COUNTS = (
    ("kgsr.graph:KnowledgeGraph.neighbors", "graph.neighbors_calls", None),
    ("kgsr.graph:KnowledgeGraph.entity_kind", "graph.entity_kind_calls", None),
    ("kgsr.transe.pair_margin_gradients", "transe.pairs", _observe_pair),
)

SELF_METRIC = {
    "training.train": "training.epoch_loop_self_s",
    "training.forward_backward": "training.forward_backward_self_s",
    "evaluation.evaluate_model": "evaluation.evaluate_model_self_s",
    **{f"cli.{stage}": f"cli.{stage}_self_s" for stage in STAGES},
}


def install(tracer: Tracer) -> None:
    for target, name, observe in SPANS:
        tracer.install(target, lambda fn, n=name, o=observe: tracer.span_wrapper(n, fn, o))
    for target, name, observe in COUNTS:
        tracer.install(target, lambda fn, n=name, o=observe: tracer.count_wrapper(n, fn, o))


def layer_metrics(tracer: Tracer, stages: dict[int, tuple[float, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced lifecycle.

    stages maps the index of each ``cli.<stage>`` span to the corrected
    seconds the benchmark measured around that stage and the host-speed
    factor of that measurement; every span's time is divided by the factor
    of the stage it ran in. A span that never fired, or a counter that
    never counted, yields no metric, so it is reported as missing rather
    than as zero.
    """
    selfs = self_times(tracer.spans)
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    diffuse_ms: list[float] = []
    attributed = 0.0
    for index, (span, value) in enumerate(zip(tracer.spans, selfs)):
        root = root_of(tracer.spans, index)
        if root not in stages:
            continue
        factor = stages[root][1]
        attributed += value / factor
        totals[span.name] = totals.get(span.name, 0.0) + value / factor
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name == "diffusion.diffuse":
            diffuse_ms.append((span.end - span.start) / factor * 1000.0)
    metrics = {SELF_METRIC.get(name, f"{name}_s"): total for name, total in totals.items()}
    metrics["trace.coverage"] = attributed / sum(seconds for seconds, _ in stages.values())

    counts = tracer.counts
    for name in ("graph.neighbors_calls", "graph.entity_kind_calls"):
        if counts.get(name):
            metrics[name] = counts[name]
    if "scoring.extract_paths" in calls:
        metrics["scoring.extract_paths_calls"] = calls["scoring.extract_paths"]
    if diffuse_ms:
        metrics["diffusion.diffuse_ms_p50"] = percentile(diffuse_ms, 50)
        metrics["diffusion.diffuse_ms_p99"] = percentile(diffuse_ms, 99)
    for name in ("diffusion.subgraph_nodes", "diffusion.traversed_edges", "scoring.candidates"):
        if tracer.values.get(name):
            metrics[f"{name}_mean"] = fmean(tracer.values[name])
    if counts.get("llm.extracted"):
        metrics["llm.inject_share"] = counts.get("llm.injected", 0) / counts["llm.extracted"]
    if counts.get("transe.pairs"):
        metrics["transe.active_pair_share"] = counts.get("transe.active_pairs", 0) / counts["transe.pairs"]
    if "training.forward_backward" in calls:
        metrics["training.users_skipped"] = counts["training.users_skipped"]
        metrics["training.positives_skipped"] = counts["training.positives_skipped"]
    if "evaluation.evaluate_model" in calls:
        metrics["evaluation.users_skipped"] = counts["evaluation.users_skipped"]
    return metrics
