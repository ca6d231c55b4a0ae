"""Ranking metrics and the top-K evaluation protocol.

Each test user is ranked over the full item catalog: scored candidates
first (descending score, id tie-break), then every unreachable item in
ascending id order, with the user's training items removed from the list
entirely. Relevance is binary with gain 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import AbstractSet, NamedTuple, Sequence

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
        return {
            "k": self.k,
            "ndcg": self.ndcg,
            "recall": self.recall,
            "hit_rate": self.hit_rate,
            "precision": self.precision,
            "evaluated_users": self.evaluated_users,
            "skipped_users": self.skipped_users,
        }

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


def _top_ranked(candidates: list[int], catalog: list[int], exclude: set[int], k: int) -> list[int]:
    """The first k items of a user's ranking: scored candidates, then the
    unreachable catalog in id order, without the excluded items."""
    ranked = [item for item in candidates if item not in exclude][:k]
    if len(ranked) < k:
        reached = set(candidates)
        rest = (i for i in catalog if i not in reached and i not in exclude)
        ranked.extend(islice(rest, k - len(ranked)))
    return ranked


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
        for segment, user in enumerate(chunk):
            candidates = scored.user(segment).items.tolist()
            if not candidates:
                skipped += 1
                continue
            exclude = set(train.items_for(user)) if train is not None else set()
            ranked = _top_ranked(candidates, catalog, exclude, k)
            metrics.append(evaluate_ranking(ranked, set(test.items_for(user)), k))

    n = len(metrics)
    if n == 0:
        return EvalReport(k, 0.0, 0.0, 0.0, 0.0, 0, skipped)
    return EvalReport(
        k=k,
        ndcg=sum(m.ndcg for m in metrics) / n,
        recall=sum(m.recall for m in metrics) / n,
        hit_rate=sum(m.hit_rate for m in metrics) / n,
        precision=sum(m.precision for m in metrics) / n,
        evaluated_users=n,
        skipped_users=skipped,
    )
