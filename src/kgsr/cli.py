"""Command-line surface wiring the full pipeline.

One binary with subcommands (ingest, augment, pretrain, train, evaluate,
recommend, explain). Structured logs go to stderr, data to files or
stdout. A line-oriented key=value config file can supply any flag's value.
resolve_settings applies the one precedence rule (flag, else file, else
built-in default) once per invocation, and every stage reads the namespace
it returns. Every stage is deterministic for a fixed seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import llm
from .diffusion import DiffusionConfig, diffuse, user_chunks
from .errors import CheckpointError, KgsrError
from .evaluation import evaluate_model
from .graph import (
    EntityKind,
    _data_lines,
    add_purchase_triples,
    atomic_open,
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

logger = logging.getLogger("kgsr.cli")  # not __name__, which reads __main__ under python -m


class UsageError(Exception):
    """Bad invocation: unknown key, missing flag or missing input file."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _sizes(text: str) -> list[int]:
    """Comma-separated subgraph sizes, each >= 1."""
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated sizes >= 1, got {text!r}")
    return sizes


ENDPOINT_ENV = "KGSR_LLM_ENDPOINT"
API_KEY_ENV = "KGSR_LLM_API_KEY"


def load_config(path) -> dict[str, object]:
    """key=value file contents, validated against the known flag surface."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for line_no, line in _data_lines(path):
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in set_on:
            raise UsageError(f"{path}:{line_no}: config key {key!r} already set on line {set_on[key]}")
        set_on[key] = line_no
        try:
            values[key] = CONFIG_SCHEMA[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{path}:{line_no}: {exc}") from None
    return values


def resolve_settings(argv=None) -> SimpleNamespace:
    """Every setting of one invocation, resolved once: the flag if given,
    else the --config file's value, else the built-in default. `given`
    holds the keys that a flag or the file set."""
    args = build_parser().parse_args(argv)
    file = load_config(_require_file(args.config, "--config")) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if value is not None}
    settings = SimpleNamespace(**dict.fromkeys(CONFIG_SCHEMA) | DEFAULTS | file | flags)
    settings.given = frozenset(file.keys() | flags.keys())
    if not isinstance(logging.getLevelName(settings.log_level.upper()), int):
        raise UsageError(f"unknown log level {settings.log_level!r}")
    if settings.seed < 0:
        raise ValueError(f"seed must be >= 0, got {settings.seed}")
    return settings


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required option {flag}")
    return value


def _require_file(value, flag: str) -> Path:
    path = Path(_require(value, flag))
    if not path.exists():
        raise UsageError(f"{flag}: no such file: {path}")
    return path


def _ingest(settings):
    """The graph and the interactions, both inputs required."""
    triples = _require_file(settings.triples, "--triples")
    interactions_path = _require_file(settings.interactions, "--interactions")
    graph = ingest_triples(triples)
    return graph, ingest_interactions(interactions_path, graph)


def _load_split(settings):
    """Shared data loading for the pretrain/train/evaluate stages: ingest,
    split, and materialize the training purchases as graph triples."""
    graph, interactions = _ingest(settings)
    train_set, test_set = split_interactions(interactions, settings.train_fraction, settings.seed)
    added = add_purchase_triples(graph, train_set)
    logger.info(
        "loaded %d entities, %d relations, %d triples (%d train purchases added)",
        graph.n_entities, graph.n_relations, graph.n_triples, added,
    )
    return graph, interactions, train_set, test_set


def _load_full(settings):
    """Data loading for the production-facing stages (recommend, explain):
    all interactions become purchase triples."""
    graph, interactions = _ingest(settings)
    add_purchase_triples(graph, interactions)
    return graph, interactions


def _load_checkpoint(settings, key: str):
    """The checkpoint file given as key; a bad file's error names it. The
    stage's data files are checked first, so a missing one is reported
    before the checkpoint is read."""
    path = _require_file(getattr(settings, key), f"--{key}")
    for data in ("triples", "interactions"):
        _require_file(getattr(settings, data), f"--{data}")
    try:
        return load_checkpoint(path)
    except CheckpointError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _check_checkpoint_graph(checkpoint, graph, settings, key: str = "checkpoint") -> None:
    """Reject a checkpoint, loaded from the file given as key, whose name
    tables differ from the graph's; the error names the checkpoint file, the
    triples file and the first difference."""
    for kind, saved, ingested in (
        ("entity", checkpoint.entity_names, graph.entity_names()),
        ("relation", checkpoint.relation_names, graph.relation_names()),
    ):
        if saved == ingested:
            continue
        at = next((i for i, (a, b) in enumerate(zip(saved, ingested)) if a != b), None)
        if at is None:
            detail = f"the checkpoint has {len(saved)}, the graph {len(ingested)}"
        else:
            detail = f"{kind} {at} is {saved[at]!r} in the checkpoint, {ingested[at]!r} in the graph"
        raise ValueError(
            f"{getattr(settings, key)}: checkpoint {kind} names do not match the graph of "
            f"{settings.triples}: {detail}"
        )


def _stage_config(cls, settings, **overrides):
    """A STAGE_CONFIGS class with each settable field taken from the
    settings; overrides replace them."""
    return cls(**{f.name: getattr(settings, key) for f, key in _config_keys(cls)} | overrides)


def _llm_client(settings) -> llm.HttpChatClient | None:
    """The chat client when --llm is on, else None (offline mode)."""
    if not settings.llm:
        return None
    api_key = os.environ.get(API_KEY_ENV)
    if not api_key:
        raise UsageError(f"--llm requires the {API_KEY_ENV} environment variable")
    endpoint = settings.llm_endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise UsageError(f"--llm requires --endpoint or the {ENDPOINT_ENV} environment variable")
    return llm.HttpChatClient(_stage_config(llm.ChatClientConfig, settings, endpoint=endpoint), api_key)


def _targets(settings) -> list[llm.ExtractionTarget]:
    """The --targets file's extraction targets, else the built-in ones."""
    if not settings.targets:
        return list(llm.DEFAULT_TARGETS)
    return llm.load_targets(_require_file(settings.targets, "--targets"))


# -- stages ------------------------------------------------------------------


def cmd_ingest(settings) -> int:
    triples = _require_file(settings.triples, "--triples")
    graph = ingest_triples(triples)
    kinds = graph.kind_counts()
    stats = {
        "entities": graph.n_entities,
        "users": kinds[EntityKind.USER],
        "items": kinds[EntityKind.ITEM],
        "properties": kinds[EntityKind.PROPERTY],
        "relations": graph.n_relations,
        "triples": graph.n_triples,
    }
    if settings.interactions is not None:
        interactions = ingest_interactions(_require_file(settings.interactions, "--interactions"), graph)
        stats["interaction_users"] = interactions.n_users
        stats["interactions"] = len(interactions)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_augment(settings) -> int:
    client = _llm_client(settings)
    triples = _require_file(settings.triples, "--triples")
    reviews_path = _require_file(settings.reviews, "--reviews")
    out = Path(_require(settings.out, "--out"))
    targets = _targets(settings)
    lexicon_path = _require_file(settings.lexicon, "--lexicon") if settings.lexicon else llm.demo_lexicon_path()

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
        lexicon = llm.load_lexicon(lexicon_path)
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


def cmd_pretrain(settings) -> int:
    out = Path(_require(settings.out, "--out"))
    transe_cfg = _stage_config(TranseConfig, settings)
    graph, _, _, _ = _load_split(settings)
    table = transe_pretrain(graph, transe_cfg)
    model = initialize_model(table, np.random.default_rng(settings.seed))
    save_checkpoint(make_checkpoint(model, graph), out)
    logger.info("pretrained checkpoint written to %s", out)
    print(json.dumps({"checkpoint": str(out), "dim": table.dim, "entities": table.n_entities}))
    return 0


def cmd_train(settings) -> int:
    train_cfg = _stage_config(TrainConfig, settings)
    transe_cfg = _stage_config(TranseConfig, settings)
    init = None if settings.init is None else _load_checkpoint(settings, "init")
    dim = transe_cfg.dim if init is None else init.sizes.dim  # the --init embeddings fix it
    if init is not None and "dim" in settings.given and settings.dim != dim:
        logger.warning("--dim %d ignored: the --init checkpoint has dim %d", settings.dim, dim)
    print(
        f"train config: batch_size={train_cfg.batch_size} epochs={train_cfg.epochs} "
        f"dim={dim} top_n={train_cfg.top_n} steps={train_cfg.steps} "
        f"learning_rate={train_cfg.learning_rate} seed={train_cfg.seed}",
        file=sys.stderr,
    )
    out = Path(_require(settings.out, "--out"))
    graph, _, train_set, _ = _load_split(settings)
    if init is not None:
        _check_checkpoint_graph(init, graph, settings, "init")
        table = init.embedding_table()
    else:
        table = transe_pretrain(graph, transe_cfg)
    checkpoint = train(graph, table, train_set, train_cfg)
    save_checkpoint(checkpoint, out)
    logger.info("trained checkpoint written to %s", out)
    print(json.dumps({"checkpoint": str(out), "users": train_set.n_users}))
    return 0


def cmd_evaluate(settings) -> int:
    if settings.k < 1:
        raise ValueError("k must be >= 1")
    diffusion = _stage_config(DiffusionConfig, settings)
    checkpoint = _load_checkpoint(settings, "checkpoint")
    graph, _, train_set, test_set = _load_split(settings)
    _check_checkpoint_graph(checkpoint, graph, settings)
    sizes = settings.sweep_n or [diffusion.top_n]
    reports = []
    for top_n in sizes:
        report = evaluate_model(
            checkpoint, graph, test_set, settings.k, train=train_set, diffusion=replace(diffusion, top_n=top_n)
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
    if settings.out is not None:
        with atomic_open(settings.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


# user, rank, item, score, bridge weight, similarity and the best walk
RECOMMEND_ROW = "%s\t%d\t%s\t%.6f\t%.6f\t%.6f\t%s"


def cmd_recommend(settings) -> int:
    if settings.top < 1:
        raise ValueError("top must be >= 1")
    diffusion = _stage_config(DiffusionConfig, settings)
    checkpoint = _load_checkpoint(settings, "checkpoint")
    graph, interactions = _load_full(settings)
    _check_checkpoint_graph(checkpoint, graph, settings)
    model = checkpoint.to_model()
    users = [graph.entity_id(settings.user)] if settings.user is not None else graph.entities_of_kind(EntityKind.USER)
    names = graph.adjacency().name
    lines = []
    without = 0
    for chunk in user_chunks(users):
        batch = diffuse(graph, model.embeddings, model.attention, chunk, diffusion)
        scored = score_candidates(batch, graph, model.embeddings, model.encoder)
        rows, rank = scored.first_fresh([interactions.items_for(user) for user in chunk], settings.top)
        items, segment = scored.items[rows], scored.segments[rows]
        for empty in np.flatnonzero(np.bincount(segment, minlength=len(chunk)) == 0).tolist():
            candidates = int(scored.offsets[empty + 1] - scored.offsets[empty])
            if candidates:
                logger.warning("no fresh candidates for %s: all %d are purchased", names[chunk[empty]], candidates)
            else:
                logger.warning("no candidates for %s", names[chunk[empty]])
            without += 1
        table = extract_paths(batch, graph, segment, items, limit=1)
        walks = np.full(len(rows), "", dtype=object)
        walks[table.query] = format_path(table, graph)
        columns = (names[batch.users[segment]], rank, names[items], scored.scores[rows],
                   scored.bridge_weights[rows], scored.similarities[rows], walks)
        lines += map(RECOMMEND_ROW.__mod__, zip(*(column.tolist() for column in columns)))
    logger.info("recommended %d rows for %d users; %d users without rows", len(lines), len(users), without)
    output = "\n".join(lines) + ("\n" if lines else "")
    if settings.out is not None:
        with atomic_open(settings.out, "w", encoding="utf-8") as handle:
            handle.write(output)
        logger.info("recommendations written to %s", settings.out)
    else:
        sys.stdout.write(output)
    return 0


def cmd_explain(settings) -> int:
    if settings.limit < 1:
        raise ValueError("limit must be >= 1")
    diffusion = _stage_config(DiffusionConfig, settings)
    user_name, item_name = (_require(getattr(settings, key), f"--{key}") for key in ("user", "item"))
    targets = _targets(settings)
    client = _llm_client(settings)
    checkpoint = _load_checkpoint(settings, "checkpoint")
    graph, interactions = _load_full(settings)
    _check_checkpoint_graph(checkpoint, graph, settings)
    model = checkpoint.to_model()
    user, item = graph.entity_id(user_name), graph.entity_id(item_name)
    batch = diffuse(graph, model.embeddings, model.attention, [user], diffusion)
    table = extract_paths(batch, graph, [0], [item], settings.limit)
    walks = format_path(table, graph)
    explanation = llm.generate_explanation(walks[0], graph.entity_name(user), graph.entity_name(item), targets, client)
    for weight, walk in zip(table.weight.tolist(), walks):
        print(f"path (weight {weight:.6f}): {walk}", file=sys.stderr)
    print(explanation)
    return 0


# -- argument parsing ----------------------------------------------------------


class _HelpFormatter(argparse.HelpFormatter):
    """Ends the help of every option that takes a value and has a built-in
    default with that default."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.dest in DEFAULTS and action.nargs != 0:
            return f"{action.help} (default: {DEFAULTS[action.dest]})"
        return action.help


# Options shared by several subcommands, by dest: flags and argparse keywords.
SHARED_OPTIONS: dict[str, tuple[tuple[str, ...], dict]] = {
    "config": (("--config",), {"help": "key=value config file (flags override it)"}),
    "seed": (("--seed",), {"type": int, "help": "global random seed"}),
    "threads": (
        ("--threads",), {"type": int, "help": "accepted for compatibility; has no effect (users run in chunks)"}
    ),
    "log_level": (("--log-level",), {"help": "logging level"}),
    "checkpoint": (("--checkpoint",), {"help": "trained checkpoint path"}),
    "triples": (("--triples",), {"help": "triples TSV file"}),
    "interactions": (("--interactions",), {"help": "interactions TSV file"}),
    "train_fraction": (("--train-fraction",), {"type": float, "help": "per-user train fraction"}),
    "top_n": (("--n",), {"type": int, "help": "subgraph size per step"}),
    "steps": (("--steps",), {"type": int, "help": "diffusion steps"}),
    "targets": (("--targets",), {"help": "extraction targets TSV (default: built-in targets)"}),
    "llm_model": (("--model",), {"help": "chat model name"}),
    "llm_endpoint": (("--endpoint",), {"help": f"chat endpoint URL (default: ${ENDPOINT_ENV})"}),
    "llm_timeout": (("--timeout",), {"type": float, "help": "client timeout seconds"}),
    "llm_retries": (("--retries",), {"type": int, "help": "client retries"}),
}
DIFFUSION_OPTIONS = ("top_n", "steps")
CLIENT_OPTIONS = ("llm_model", "llm_endpoint", "llm_timeout", "llm_retries")


def _add_shared(parser: argparse.ArgumentParser, *dests: str) -> None:
    for dest in dests:
        flags, keywords = SHARED_OPTIONS[dest]
        parser.add_argument(*flags, dest=dest, **keywords)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process."""
    parser = argparse.ArgumentParser(
        prog="kgsr",
        description="Knowledge-graph subgraph-reasoning recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help: str, *shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        _add_shared(p, "config", "seed", "threads", "log_level", *shared)
        return p

    subcommand("ingest", "load and validate the input files, print stats", "triples", "interactions")

    p = subcommand("augment", "extract review triples and write an augmented graph", "triples")
    p.add_argument("--reviews", help="reviews JSONL file")
    p.add_argument("--lexicon", help="offline lexicon TSV (default: shipped demo lexicon)")
    _add_shared(p, "targets")
    p.add_argument("--out", help="output path for the augmented triples file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--offline", dest="llm", action="store_false", default=None,
                      help="use the offline lexicon extractor (default)")
    mode.add_argument("--llm", dest="llm", action="store_true", default=None,
                      help="use the chat-completion client")
    _add_shared(p, *CLIENT_OPTIONS)

    for name, extra in (("pretrain", False), ("train", True)):
        p = subcommand(name, f"{name} on the ingested graph and write a checkpoint",
                       "triples", "interactions", "train_fraction")
        p.add_argument("--dim", type=int, help="embedding dimensionality")
        p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int,
                       help="translation pretraining epochs")
        p.add_argument("--pretrain-lr", dest="pretrain_lr", type=float,
                       help="translation pretraining learning rate")
        p.add_argument("--margin", type=float, help="ranking margin")
        p.add_argument("--negatives", type=int, help="negatives per positive")
        p.add_argument("--norm", type=int, help="distance norm order, 1 or 2")
        p.add_argument("--out", help="output checkpoint path")
        if extra:
            p.add_argument("--init", help="checkpoint whose embeddings seed training")
            p.add_argument("--batch-size", dest="batch_size", type=int, help="batch size")
            p.add_argument("--epochs", type=int, help="training epochs")
            p.add_argument("--lr", dest="learning_rate", type=float, help="optimizer learning rate")
            _add_shared(p, *DIFFUSION_OPTIONS)
            p.add_argument("--contrastive", action="store_true", default=None,
                           help="add a sampled negative log(1-score) term")

    p = subcommand("evaluate", "rank held-out items and report metrics",
                   "checkpoint", "triples", "interactions", "train_fraction")
    p.add_argument("--k", type=int, help="ranking cutoff")
    _add_shared(p, *DIFFUSION_OPTIONS)
    p.add_argument("--sweep-n", dest="sweep_n", type=_sizes,
                   help="comma-separated subgraph sizes to evaluate, e.g. 60,80,100")
    p.add_argument("--out", help="also write the JSON report to this file")

    p = subcommand("recommend", "write ranked recommendations with their top paths",
                   "checkpoint", "triples", "interactions")
    p.add_argument("--user", help="recommend for this user only (default: every user)")
    p.add_argument("--top", type=int, help="recommendations per user")
    _add_shared(p, *DIFFUSION_OPTIONS)
    p.add_argument("--out", help="output TSV path (default: stdout)")

    p = subcommand("explain", "print explanation paths and a rendered description",
                   "checkpoint", "triples", "interactions")
    p.add_argument("--user", help="user entity name")
    p.add_argument("--item", help="item entity name")
    p.add_argument("--limit", type=int, help="paths to show")
    _add_shared(p, *DIFFUSION_OPTIONS, "targets")
    p.add_argument("--llm", action="store_true", default=None,
                   help="render the explanation with the chat client")
    _add_shared(p, *CLIENT_OPTIONS)

    return parser


def _config_schema(parser: argparse.ArgumentParser) -> dict[str, Callable[[str], object]]:
    """Every config-file key, the dest of a flag, with the converter of its
    value: the flag's type, or _parse_bool for an on/off switch."""
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {
        action.dest: _parse_bool if action.nargs == 0 else action.type or str
        for sub in subcommands.values()
        for action in sub._actions
        if action.dest not in ("help", "config")
    }


CONFIG_SCHEMA = _config_schema(build_parser())


# The configs that stages build from flags, config file and defaults, each
# with the config keys of those fields whose key is not the field's name.
STAGE_CONFIGS = {
    TrainConfig: {},
    DiffusionConfig: {},
    TranseConfig: {"learning_rate": "pretrain_lr", "epochs": "pretrain_epochs"},
    llm.ChatClientConfig: {
        "endpoint": "llm_endpoint",
        "model": "llm_model",
        "timeout": "llm_timeout",
        "max_retries": "llm_retries",
    },
}


def _config_keys(cls):
    """(field, config key) for every field of cls that a flag or a config
    file can set."""
    renamed = STAGE_CONFIGS[cls]
    for f in fields(cls):
        key = renamed.get(f.name, f.name)
        if key in CONFIG_SCHEMA:
            yield f, key


DEFAULTS = {
    **{
        key: f.default
        for cls in STAGE_CONFIGS
        for f, key in _config_keys(cls)
        if f.default is not MISSING
    },
    # keys that only the command line has
    "train_fraction": 0.8,
    "k": 10,
    "top": 10,
    "limit": 3,
    "log_level": "info",
    "llm": False,
}


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
    # basicConfig installs the stderr handler only where the root logger has
    # none, so --log-level is set on the package logger, for this call alone.
    package_logger = logging.getLogger("kgsr")
    previous_level = package_logger.level
    try:
        settings = resolve_settings(argv)
        level = settings.log_level.upper()
        logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
        package_logger.setLevel(level)
        return COMMANDS[settings.command](settings)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (KgsrError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_logger.setLevel(previous_level)


if __name__ == "__main__":
    sys.exit(main())
