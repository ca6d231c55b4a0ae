"""Ranking metrics and the top-K evaluation protocol.

Each test user is ranked over the full item catalog: scored candidates
first (descending score, id tie-break), then every unreachable item in
ascending id order, with the user's training items removed from the list
entirely. Relevance is binary with gain 1.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import islice
from typing import AbstractSet, NamedTuple, Sequence

import numpy as np

from .diffusion import DiffusionConfig, diffuse, user_chunks
from .graph import EntityKind, InteractionSet, KnowledgeGraph
from .scoring import score_candidates
from .training import Checkpoint


class RankingMetrics(NamedTuple):
    ndcg: float
    recall: float
    hit_rate: float
    precision: float


def evaluate_ranking(ranked: Sequence[int], relevant: AbstractSet[int], k: int) -> RankingMetrics:
    """NDCG/Recall/HR/Precision at K for one ranked list.

    DCG sums 1/log2(p + 1) over hit positions p <= K; the ideal DCG places
    one relevant item at each of the first min(K, |relevant|) positions.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = 0
    dcg = 0.0
    for position, item in enumerate(ranked[:k], start=1):
        if item in relevant:
            hits += 1
            dcg += 1.0 / math.log2(position + 1)
    idcg = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(relevant)) + 1))
    return RankingMetrics(
        ndcg=dcg / idcg,
        recall=hits / len(relevant),
        hit_rate=1.0 if hits else 0.0,
        precision=hits / k,
    )


@dataclass
class EvalReport:
    k: int
    ndcg: float
    recall: float
    hit_rate: float
    precision: float
    evaluated_users: int
    skipped_users: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        rows = [
            ("metric", f"value@{self.k}"),
            ("ndcg", f"{self.ndcg:.6f}"),
            ("recall", f"{self.recall:.6f}"),
            ("hit_rate", f"{self.hit_rate:.6f}"),
            ("precision", f"{self.precision:.6f}"),
            ("evaluated_users", str(self.evaluated_users)),
            ("skipped_users", str(self.skipped_users)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def _catalog_fill(catalog: list[int], reached: set[int], exclude: set[int], count: int) -> list[int]:
    """A ranking's tail: the first count unreachable catalog items in id order, less the excluded."""
    return list(islice((i for i in catalog if i not in reached and i not in exclude), count))


def evaluate_model(
    checkpoint: Checkpoint,
    graph: KnowledgeGraph,
    test: InteractionSet,
    k: int,
    train: InteractionSet | None = None,
    diffusion: DiffusionConfig | None = None,
) -> EvalReport:
    """Mean metrics over test users; users with no candidates are skipped.

    Users are diffused and scored a chunk at a time. The training
    interactions, when given, are removed from every user's ranking (the
    standard held-out protocol).
    """
    if len(test) == 0:
        raise ValueError("test set must be nonempty")
    if checkpoint.sizes.dim < 1:
        raise ValueError("checkpoint has no dimensions")
    if len(checkpoint.entity_names) != graph.n_entities:
        raise ValueError("checkpoint and graph disagree on entity count")
    if diffusion is None:
        diffusion = DiffusionConfig()
    model = checkpoint.to_model()
    catalog = graph.entities_of_kind(EntityKind.ITEM)
    metrics: list[RankingMetrics] = []
    skipped = 0
    for chunk in user_chunks(test.users()):
        batch = diffuse(graph, model.embeddings, model.attention, chunk, diffusion)
        scored = score_candidates(batch, graph, model.embeddings, model.encoder)
        known = [train.items_for(user) if train is not None else () for user in chunk]
        rows, _ = scored.first_fresh(known, k)
        top = scored.items[rows]
        bounds = scored.segments[rows].searchsorted(np.arange(len(chunk) + 1))
        for segment, user in enumerate(chunk):
            candidates = scored.items[scored.offsets[segment] : scored.offsets[segment + 1]]
            if not len(candidates):
                skipped += 1
                continue
            ranked = top[bounds[segment] : bounds[segment + 1]].tolist()
            if len(ranked) < k:
                ranked += _catalog_fill(catalog, set(candidates.tolist()), set(known[segment]), k - len(ranked))
            metrics.append(evaluate_ranking(ranked, set(test.items_for(user)), k))

    means = [sum(column) / len(metrics) for column in zip(*metrics)] or [0.0] * 4
    return EvalReport(k, *means, evaluated_users=len(metrics), skipped_users=skipped)
