"""Command-line surface wiring the full pipeline.

One binary with subcommands (ingest, augment, pretrain, train, evaluate,
recommend, explain). Structured logs go to stderr, data to files or
stdout. A line-oriented key=value config file can supply any flag's value;
explicit flags win. Every stage is deterministic for a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import llm
from .diffusion import DiffusionConfig, diffuse, diffuse_batch, user_chunks
from .errors import KgsrError
from .evaluation import evaluate_model
from .graph import (
    EntityKind,
    add_purchase_triples,
    ingest_interactions,
    ingest_triples,
    split_interactions,
    write_triples,
)
from .scoring import extract_paths, format_path, score_candidates
from .training import (
    TrainConfig,
    initialize_model,
    load_checkpoint,
    make_checkpoint,
    save_checkpoint,
    train,
)
from .transe import TranseConfig, transe_pretrain

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad invocation: unknown key, missing flag or missing input file."""


# Every config-file key with its converter; mirrors the flag surface.
def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


CONFIG_SCHEMA: dict[str, type | object] = {
    "triples": str,
    "interactions": str,
    "reviews": str,
    "lexicon": str,
    "targets": str,
    "checkpoint": str,
    "init": str,
    "out": str,
    "seed": int,
    "threads": int,
    "train_fraction": float,
    "k": int,
    "dim": int,
    "batch_size": int,
    "epochs": int,
    "learning_rate": float,
    "top_n": int,
    "steps": int,
    "leaky_slope": float,
    "contrastive": _parse_bool,
    "pretrain_epochs": int,
    "pretrain_lr": float,
    "margin": float,
    "negatives": int,
    "norm": int,
    "llm": _parse_bool,
    "llm_model": str,
    "llm_endpoint": str,
    "llm_timeout": float,
    "llm_retries": int,
    "user": str,
    "item": str,
    "limit": int,
    "top": int,
    "sweep_n": str,
    "log_level": str,
}

API_KEY_ENV = "KGSR_LLM_API_KEY"
ENDPOINT_ENV = "KGSR_LLM_ENDPOINT"

DEFAULTS = {
    "seed": 0,
    "train_fraction": 0.8,
    "k": 10,
    "dim": 100,
    "batch_size": 256,
    "epochs": 10,
    "learning_rate": 0.001,
    "top_n": 100,
    "steps": 2,
    "leaky_slope": 0.01,
    "contrastive": False,
    "pretrain_epochs": 100,
    "pretrain_lr": 0.01,
    "margin": 1.0,
    "negatives": 1,
    "norm": 2,
    "llm": False,
    "llm_model": "gpt-4o-mini",
    "llm_timeout": 30.0,
    "llm_retries": 2,
    "limit": 3,
    "top": 10,
    "log_level": "info",
}


class PipelineConfig:
    """key=value file contents, validated against the known flag surface."""

    def __init__(self, values: dict[str, object] | None = None):
        self.values = values or {}

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        values: dict[str, object] = {}
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{line_no}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in CONFIG_SCHEMA:
                    raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
                try:
                    values[key] = CONFIG_SCHEMA[key](value.strip())
                except ValueError as exc:
                    raise UsageError(f"{path}:{line_no}: {exc}") from None
        return cls(values)


def _resolve(args: argparse.Namespace, config: PipelineConfig, name: str):
    """Flag if given, else config file, else the built-in default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config.values:
        return config.values[name]
    return DEFAULTS.get(name)


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required option {flag}")
    return value


def _require_file(value, flag: str) -> Path:
    path = Path(_require(value, flag))
    if not path.exists():
        raise UsageError(f"{flag}: no such file: {path}")
    return path


def _load_split(args, config):
    """Shared data loading for the pretrain/train/evaluate stages: ingest,
    split, and materialize the training purchases as graph triples."""
    triples = _require_file(_resolve(args, config, "triples"), "--triples")
    interactions_path = _require_file(_resolve(args, config, "interactions"), "--interactions")
    graph = ingest_triples(triples)
    interactions = ingest_interactions(interactions_path, graph)
    fraction = float(_resolve(args, config, "train_fraction"))
    seed = int(_resolve(args, config, "seed"))
    train_set, test_set = split_interactions(interactions, fraction, seed)
    added = add_purchase_triples(graph, train_set)
    logger.info(
        "loaded %d entities, %d relations, %d triples (%d train purchases added)",
        graph.n_entities, graph.n_relations, graph.n_triples, added,
    )
    return graph, interactions, train_set, test_set


def _load_full(args, config):
    """Data loading for the production-facing stages (recommend, explain):
    all interactions become purchase triples."""
    triples = _require_file(_resolve(args, config, "triples"), "--triples")
    interactions_path = _require_file(_resolve(args, config, "interactions"), "--interactions")
    graph = ingest_triples(triples)
    interactions = ingest_interactions(interactions_path, graph)
    add_purchase_triples(graph, interactions)
    return graph, interactions


def _check_checkpoint_graph(checkpoint, graph) -> None:
    if checkpoint.entity_names != graph.entity_names():
        raise ValueError("checkpoint entity names do not match the ingested graph")
    if checkpoint.relation_names != graph.relation_names():
        raise ValueError("checkpoint relation names do not match the ingested graph")


def _train_config(args, config) -> TrainConfig:
    return TrainConfig(
        batch_size=int(_resolve(args, config, "batch_size")),
        epochs=int(_resolve(args, config, "epochs")),
        dim=int(_resolve(args, config, "dim")),
        top_n=int(_resolve(args, config, "top_n")),
        steps=int(_resolve(args, config, "steps")),
        seed=int(_resolve(args, config, "seed")),
        learning_rate=float(_resolve(args, config, "learning_rate")),
        contrastive=bool(_resolve(args, config, "contrastive")),
        leaky_slope=float(_resolve(args, config, "leaky_slope")),
    )


def _diffusion_config(args, config) -> DiffusionConfig:
    return DiffusionConfig(
        int(_resolve(args, config, "steps")),
        int(_resolve(args, config, "top_n")),
        float(_resolve(args, config, "leaky_slope")),
    )


def _transe_config(args, config) -> TranseConfig:
    return TranseConfig(
        dim=int(_resolve(args, config, "dim")),
        margin=float(_resolve(args, config, "margin")),
        learning_rate=float(_resolve(args, config, "pretrain_lr")),
        epochs=int(_resolve(args, config, "pretrain_epochs")),
        negatives=int(_resolve(args, config, "negatives")),
        norm=int(_resolve(args, config, "norm")),
        seed=int(_resolve(args, config, "seed")),
    )


def _llm_client(args, config) -> llm.HttpChatClient | None:
    """The chat client when --llm is on, else None (offline mode)."""
    if not bool(_resolve(args, config, "llm")):
        return None
    api_key = os.environ.get(API_KEY_ENV)
    if not api_key:
        raise UsageError(f"--llm requires the {API_KEY_ENV} environment variable")
    endpoint = _resolve(args, config, "llm_endpoint") or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise UsageError(f"--llm requires --endpoint or the {ENDPOINT_ENV} environment variable")
    return llm.HttpChatClient(
        llm.ChatClientConfig(
            endpoint=endpoint,
            model=str(_resolve(args, config, "llm_model")),
            api_key_env=API_KEY_ENV,
            timeout=float(_resolve(args, config, "llm_timeout")),
            max_retries=int(_resolve(args, config, "llm_retries")),
        ),
        api_key,
    )


# -- stages ------------------------------------------------------------------


def cmd_ingest(args, config) -> int:
    triples = _require_file(_resolve(args, config, "triples"), "--triples")
    graph = ingest_triples(triples)
    stats = {
        "entities": graph.n_entities,
        "users": len(graph.entities_of_kind(EntityKind.USER)),
        "items": len(graph.entities_of_kind(EntityKind.ITEM)),
        "properties": len(graph.entities_of_kind(EntityKind.PROPERTY)),
        "relations": graph.n_relations,
        "triples": graph.n_triples,
    }
    interactions_path = _resolve(args, config, "interactions")
    if interactions_path is not None:
        interactions = ingest_interactions(_require_file(interactions_path, "--interactions"), graph)
        stats["interaction_users"] = interactions.n_users
        stats["interactions"] = len(interactions)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_augment(args, config) -> int:
    client = _llm_client(args, config)
    triples = _require_file(_resolve(args, config, "triples"), "--triples")
    reviews_path = _require_file(_resolve(args, config, "reviews"), "--reviews")
    out = Path(_require(_resolve(args, config, "out"), "--out"))
    targets_path = _resolve(args, config, "targets")
    targets = llm.load_targets(targets_path) if targets_path else list(llm.DEFAULT_TARGETS)

    graph = ingest_triples(triples)
    reviews = llm.load_reviews(reviews_path, graph)
    review_index = {r.review_id: (r.user, r.item) for r in reviews}
    extracted: list[llm.ExtractedTriple] = []
    dropped = 0
    if client is not None:
        for record in reviews:
            result = llm.extract_review_triples(record.text, targets, client, record.review_id)
            extracted.extend(result.triples)
            dropped += result.dropped_lines
    else:
        lexicon_path = _resolve(args, config, "lexicon")
        lexicon = llm.load_lexicon(lexicon_path if lexicon_path else llm.demo_lexicon_path())
        for record in reviews:
            extracted.extend(llm.offline_extract(record.text, lexicon, record.review_id))
    injected = llm.inject_triples(graph, extracted, review_index, targets)
    write_triples(graph, out)
    logger.info("augmented graph written to %s", out)
    print(
        json.dumps(
            {
                "reviews": len(reviews),
                "extracted": len(extracted),
                "dropped_lines": dropped,
                "injected": injected,
                "triples": graph.n_triples,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_pretrain(args, config) -> int:
    out = Path(_require(_resolve(args, config, "out"), "--out"))
    graph, _, _, _ = _load_split(args, config)
    table = transe_pretrain(graph, _transe_config(args, config))
    train_cfg = _train_config(args, config)
    model = initialize_model(table, train_cfg, np.random.default_rng(train_cfg.seed))
    save_checkpoint(make_checkpoint(model, graph), out)
    logger.info("pretrained checkpoint written to %s", out)
    print(json.dumps({"checkpoint": str(out), "dim": table.dim, "entities": table.n_entities}))
    return 0


def cmd_train(args, config) -> int:
    train_cfg = _train_config(args, config)
    print(
        f"train config: batch_size={train_cfg.batch_size} epochs={train_cfg.epochs} "
        f"dim={train_cfg.dim} top_n={train_cfg.top_n} steps={train_cfg.steps} "
        f"learning_rate={train_cfg.learning_rate} seed={train_cfg.seed}",
        file=sys.stderr,
    )
    out = Path(_require(_resolve(args, config, "out"), "--out"))
    graph, _, train_set, _ = _load_split(args, config)
    init_path = _resolve(args, config, "init")
    if init_path is not None:
        checkpoint = load_checkpoint(_require_file(init_path, "--init"))
        _check_checkpoint_graph(checkpoint, graph)
        table = checkpoint.embedding_table()
        if table.dim != train_cfg.dim:
            raise ValueError(
                f"--init checkpoint dimensionality {table.dim} != configured {train_cfg.dim}"
            )
    else:
        table = transe_pretrain(graph, _transe_config(args, config))
    checkpoint = train(graph, table, train_set, train_cfg)
    save_checkpoint(checkpoint, out)
    logger.info("trained checkpoint written to %s", out)
    print(json.dumps({"checkpoint": str(out), "users": train_set.n_users}))
    return 0


def cmd_evaluate(args, config) -> int:
    checkpoint = load_checkpoint(_require_file(_resolve(args, config, "checkpoint"), "--checkpoint"))
    graph, _, train_set, test_set = _load_split(args, config)
    _check_checkpoint_graph(checkpoint, graph)
    k = int(_resolve(args, config, "k"))
    diffusion = _diffusion_config(args, config)
    sweep = _resolve(args, config, "sweep_n")
    if sweep:
        sizes = [int(part) for part in str(sweep).split(",") if part.strip()]
    else:
        sizes = [diffusion.top_n]
    reports = []
    for top_n in sizes:
        report = evaluate_model(
            checkpoint, graph, test_set, k, train=train_set, diffusion=replace(diffusion, top_n=top_n)
        )
        reports.append((top_n, report))
    if len(reports) == 1:
        payload = reports[0][1].to_dict()
        print(reports[0][1].to_text(), file=sys.stderr)
    else:
        payload = [{"top_n": n, **r.to_dict()} for n, r in reports]
        header = f"{'top_n':>6} {'ndcg':>10} {'recall':>10} {'hit_rate':>10} {'precision':>10}"
        rows = [
            f"{n:>6} {r.ndcg:>10.6f} {r.recall:>10.6f} {r.hit_rate:>10.6f} {r.precision:>10.6f}"
            for n, r in reports
        ]
        print("\n".join([header, *rows]), file=sys.stderr)
    text = json.dumps(payload, sort_keys=True)
    print(text)
    out = _resolve(args, config, "out")
    if out is not None:
        Path(out).write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_recommend(args, config) -> int:
    checkpoint = load_checkpoint(_require_file(_resolve(args, config, "checkpoint"), "--checkpoint"))
    graph, interactions = _load_full(args, config)
    _check_checkpoint_graph(checkpoint, graph)
    model = checkpoint.to_model()
    top = int(_resolve(args, config, "top"))
    diffusion = _diffusion_config(args, config)
    user_name = _resolve(args, config, "user")
    if user_name is not None:
        users = [graph.entity_id(user_name)]
    else:
        users = graph.entities_of_kind(EntityKind.USER)
    states = (
        state
        for chunk in user_chunks(users)
        for state in diffuse_batch(graph, model.embeddings, model.attention, chunk, diffusion).states()
    )
    lines = []
    for user, state in zip(users, states):
        known = set(interactions.items_for(user))
        scored = score_candidates(state, graph, model.embeddings, model.encoder, diffusion.leaky_slope)
        scored = scored[~scored.isin(known)]
        if not scored:
            logger.warning("no candidates for %s", graph.entity_name(user))
            continue
        for rank, cand in enumerate(scored[:top], start=1):
            paths = extract_paths(state, graph, cand.item, limit=1)
            lines.append(
                "\t".join(
                    (
                        graph.entity_name(user),
                        str(rank),
                        graph.entity_name(cand.item),
                        f"{cand.score:.6f}",
                        f"{cand.bridge_weight:.6f}",
                        f"{cand.similarity:.6f}",
                        format_path(paths[0], graph) if paths else "",
                    )
                )
            )
    output = "\n".join(lines) + ("\n" if lines else "")
    out = _resolve(args, config, "out")
    if out is not None:
        Path(out).write_text(output, encoding="utf-8")
        logger.info("recommendations written to %s", out)
    else:
        sys.stdout.write(output)
    return 0


def cmd_explain(args, config) -> int:
    checkpoint = load_checkpoint(_require_file(_resolve(args, config, "checkpoint"), "--checkpoint"))
    graph, interactions = _load_full(args, config)
    _check_checkpoint_graph(checkpoint, graph)
    model = checkpoint.to_model()
    user = graph.entity_id(str(_require(_resolve(args, config, "user"), "--user")))
    item = graph.entity_id(str(_require(_resolve(args, config, "item"), "--item")))
    diffusion = _diffusion_config(args, config)
    targets_path = _resolve(args, config, "targets")
    targets = llm.load_targets(targets_path) if targets_path else list(llm.DEFAULT_TARGETS)
    client = _llm_client(args, config)
    state = diffuse(graph, model.embeddings, model.attention, user, diffusion)
    paths = extract_paths(state, graph, item, limit=int(_resolve(args, config, "limit")))
    explanation = llm.generate_explanation(paths[0], targets, graph, client)
    for path in paths:
        print(f"path (weight {path.weight:.6f}): {format_path(path, graph)}", file=sys.stderr)
    if explanation.degraded:
        logger.warning("client failed; falling back to the template explanation")
    print(explanation.text)
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file (flags override it)")
    parser.add_argument("--seed", type=int, help="global random seed (default: 0)")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; has no effect (users run in chunks)")
    parser.add_argument("--log-level", dest="log_level", help="logging level (default: info)")


def _add_diffusion_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", dest="top_n", type=int, help="subgraph size per step (default: 100)")
    parser.add_argument("--steps", type=int, help="diffusion steps (default: 2)")
    parser.add_argument("--slope", dest="leaky_slope", type=float, help="leaky-relu slope (default: 0.01)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgsr",
        description="Knowledge-graph subgraph-reasoning recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate the input files, print stats")
    _add_common(p)
    p.add_argument("--triples", help="triples TSV file")
    p.add_argument("--interactions", help="interactions TSV file")

    p = sub.add_parser("augment", help="extract review triples and write an augmented graph")
    _add_common(p)
    p.add_argument("--triples", help="triples TSV file")
    p.add_argument("--reviews", help="reviews JSONL file")
    p.add_argument("--lexicon", help="offline lexicon TSV (default: shipped demo lexicon)")
    p.add_argument("--targets", help="extraction targets TSV (default: built-in targets)")
    p.add_argument("--out", help="output path for the augmented triples file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--offline", dest="llm", action="store_false", default=None,
                      help="use the offline lexicon extractor (default)")
    mode.add_argument("--llm", dest="llm", action="store_true", default=None,
                      help="use the chat-completion client")
    p.add_argument("--model", dest="llm_model", help="chat model name (default: gpt-4o-mini)")
    p.add_argument("--endpoint", dest="llm_endpoint",
                   help=f"chat endpoint URL (default: ${ENDPOINT_ENV})")
    p.add_argument("--timeout", dest="llm_timeout", type=float, help="client timeout seconds (default: 30)")
    p.add_argument("--retries", dest="llm_retries", type=int, help="client retries (default: 2)")

    for name, extra in (("pretrain", False), ("train", True)):
        p = sub.add_parser(name, help=f"{name} on the ingested graph and write a checkpoint")
        _add_common(p)
        p.add_argument("--triples", help="triples TSV file")
        p.add_argument("--interactions", help="interactions TSV file")
        p.add_argument("--train-fraction", dest="train_fraction", type=float,
                       help="per-user train fraction (default: 0.8)")
        p.add_argument("--dim", type=int, help="embedding dimensionality (default: 100)")
        p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int,
                       help="translation pretraining epochs (default: 100)")
        p.add_argument("--pretrain-lr", dest="pretrain_lr", type=float,
                       help="translation pretraining learning rate (default: 0.01)")
        p.add_argument("--margin", type=float, help="ranking margin (default: 1.0)")
        p.add_argument("--negatives", type=int, help="negatives per positive (default: 1)")
        p.add_argument("--norm", type=int, help="distance norm order, 1 or 2 (default: 2)")
        p.add_argument("--out", help="output checkpoint path")
        if extra:
            p.add_argument("--init", help="checkpoint whose embeddings seed training")
            p.add_argument("--batch-size", dest="batch_size", type=int, help="batch size (default: 256)")
            p.add_argument("--epochs", type=int, help="training epochs (default: 10)")
            p.add_argument("--lr", dest="learning_rate", type=float,
                           help="optimizer learning rate (default: 0.001)")
            _add_diffusion_args(p)
            p.add_argument("--contrastive", action="store_true", default=None,
                           help="add a sampled negative log(1-score) term")

    p = sub.add_parser("evaluate", help="rank held-out items and report metrics")
    _add_common(p)
    p.add_argument("--checkpoint", help="trained checkpoint path")
    p.add_argument("--triples", help="triples TSV file")
    p.add_argument("--interactions", help="interactions TSV file")
    p.add_argument("--train-fraction", dest="train_fraction", type=float,
                   help="per-user train fraction (default: 0.8)")
    p.add_argument("--k", type=int, help="ranking cutoff (default: 10)")
    _add_diffusion_args(p)
    p.add_argument("--sweep-n", dest="sweep_n",
                   help="comma-separated subgraph sizes to evaluate, e.g. 60,80,100")
    p.add_argument("--out", help="also write the JSON report to this file")

    p = sub.add_parser("recommend", help="write ranked recommendations with their top paths")
    _add_common(p)
    p.add_argument("--checkpoint", help="trained checkpoint path")
    p.add_argument("--triples", help="triples TSV file")
    p.add_argument("--interactions", help="interactions TSV file")
    p.add_argument("--user", help="recommend for this user only (default: every user)")
    p.add_argument("--top", type=int, help="recommendations per user (default: 10)")
    _add_diffusion_args(p)
    p.add_argument("--out", help="output TSV path (default: stdout)")

    p = sub.add_parser("explain", help="print explanation paths and a rendered description")
    _add_common(p)
    p.add_argument("--checkpoint", help="trained checkpoint path")
    p.add_argument("--triples", help="triples TSV file")
    p.add_argument("--interactions", help="interactions TSV file")
    p.add_argument("--user", help="user entity name")
    p.add_argument("--item", help="item entity name")
    p.add_argument("--limit", type=int, help="paths to show (default: 3)")
    _add_diffusion_args(p)
    p.add_argument("--targets", help="extraction targets TSV (default: built-in targets)")
    p.add_argument("--llm", action="store_true", default=None,
                   help="render the explanation with the chat client")
    p.add_argument("--model", dest="llm_model", help="chat model name (default: gpt-4o-mini)")
    p.add_argument("--endpoint", dest="llm_endpoint",
                   help=f"chat endpoint URL (default: ${ENDPOINT_ENV})")
    p.add_argument("--timeout", dest="llm_timeout", type=float, help="client timeout seconds (default: 30)")
    p.add_argument("--retries", dest="llm_retries", type=int, help="client retries (default: 2)")

    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "augment": cmd_augment,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "recommend": cmd_recommend,
    "explain": cmd_explain,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
        level = str(_resolve(args, config, "log_level")).upper()
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level, logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
        )
        return COMMANDS[args.command](args, config)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (KgsrError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
