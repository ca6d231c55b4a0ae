"""Translation-based embedding pretraining used to seed the recommender.

A triple (h, r, t) is scored by the distance ||h + r - t|| under an L1 or
L2 norm; training minimizes a margin-ranking objective between stored
triples and corrupted (filtered-negative) ones with plain SGD. Entity rows
are renormalized to unit L2 length at the end of every epoch; relation
rows are normalized only at initialization.

Each (positive, negative) pair goes through one kernel,
``pair_margin_gradients``, which computes both distances once and returns
the hinge with the merged row gradients. The epoch's mean hinge is only
logged at debug level.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EntityNotFoundError
from .graph import KnowledgeGraph, Triple

logger = logging.getLogger(__name__)


@dataclass
class TranseConfig:
    dim: int = 100
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 100
    negatives: int = 1
    norm: int = 2
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.norm not in (1, 2):
            raise ValueError("norm must be 1 or 2")


class EmbeddingTable:
    """Dense entity and relation vectors sharing one dimensionality."""

    def __init__(self, entities: np.ndarray, relations: np.ndarray):
        entities = np.asarray(entities, dtype=np.float64)
        relations = np.asarray(relations, dtype=np.float64)
        if entities.ndim != 2 or relations.ndim != 2:
            raise ValueError("embedding matrices must be 2-dimensional")
        if relations.shape[0] and entities.shape[1] != relations.shape[1]:
            raise ValueError("entity and relation dimensionality differ")
        if not (np.isfinite(entities).all() and np.isfinite(relations).all()):
            raise ValueError("embedding values must be finite")
        self.entities = entities
        self.relations = relations

    @property
    def dim(self) -> int:
        return self.entities.shape[1]

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relations.shape[0]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.entities.copy(), self.relations.copy())


def _normalize_rows(matrix: np.ndarray) -> None:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.divide(matrix, norms, out=matrix, where=norms > 0)


def initialize_embeddings(
    n_entities: int, n_relations: int, config: TranseConfig, rng: np.random.Generator | None = None
) -> EmbeddingTable:
    """Seeded uniform init in +-6/sqrt(d) with unit-normalized rows."""
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    bound = 6.0 / np.sqrt(config.dim)
    entities = rng.uniform(-bound, bound, size=(n_entities, config.dim))
    relations = rng.uniform(-bound, bound, size=(n_relations, config.dim))
    _normalize_rows(entities)
    _normalize_rows(relations)
    return EmbeddingTable(entities, relations)


def _check_triple(table: EmbeddingTable, triple: Triple) -> None:
    if not 0 <= triple.head < table.n_entities:
        raise EntityNotFoundError(f"unknown entity id {triple.head}")
    if not 0 <= triple.tail < table.n_entities:
        raise EntityNotFoundError(f"unknown entity id {triple.tail}")
    if not 0 <= triple.relation < table.n_relations:
        raise EntityNotFoundError(f"unknown relation id {triple.relation}")


def transe_score(table: EmbeddingTable, triple: Triple, norm: int = 2) -> float:
    """Distance ||h + r - t|| under the given norm order; lower is better."""
    if norm not in (1, 2):
        raise ValueError("norm must be 1 or 2")
    _check_triple(table, triple)
    diff = table.entities[triple.head] + table.relations[triple.relation] - table.entities[triple.tail]
    if norm == 1:
        return float(np.abs(diff).sum())
    return float(np.linalg.norm(diff))


# Attempts of sample_negative before it gives up on finding an unstored triple.
NEGATIVE_TRIES = 100


def sample_negative(graph: KnowledgeGraph, triple: Triple, rng: np.random.Generator) -> Triple:
    """Corrupt head or tail with a uniform entity, filtering stored triples.

    Each attempt flips a fresh coin for the slot and draws an entity
    different from the one it replaces; after NEGATIVE_TRIES attempts the
    last candidate is returned even if it happens to be stored.
    """
    n = graph.n_entities
    if n < 2:
        raise ValueError("negative sampling needs at least 2 entities")
    head, relation, tail = triple
    integers, stored = rng.integers, graph.has_triple
    candidate = triple
    for _ in range(NEGATIVE_TRIES):
        corrupt_head = integers(0, 2)
        draw = int(integers(0, n - 1))
        if corrupt_head:
            candidate = (draw + (draw >= head), relation, tail)
        else:
            candidate = (head, relation, draw + (draw >= tail))
        if not stored(candidate):
            break
    return Triple(*candidate)


def pair_margin_gradients(
    table: EmbeddingTable, positive: Triple, negative: Triple, margin: float, norm: int = 2
) -> tuple[float, dict[int, np.ndarray], dict[int, np.ndarray]] | None:
    """The per-pair kernel: hinge and exact (sub)gradients of one pair.

    Computes d(pos) and d(neg) once. Returns None when the hinge
    max(0, margin + d(pos) - d(neg)) is inactive, else (hinge, entity rows,
    relation rows), each dict mapping a row id to its gradient. A row that
    several slots share sums their contributions left to right in the order
    h+, t+, h-, t- (relations: r+, r-), which fixes its rounding.
    """
    e, r = table.entities, table.relations
    ph, pr, pt = positive
    nh, nr, nt = negative
    diff_pos = e[ph] + r[pr] - e[pt]
    diff_neg = e[nh] + r[nr] - e[nt]
    if norm == 1:
        d_pos, d_neg = float(np.abs(diff_pos).sum()), float(np.abs(diff_neg).sum())
    else:  # the operation np.linalg.norm runs on a 1-d float64 array
        d_pos, d_neg = math.sqrt(diff_pos.dot(diff_pos)), math.sqrt(diff_neg.dot(diff_neg))
    hinge = margin + d_pos - d_neg
    if hinge <= 0:
        return None
    if norm == 1:
        g_pos, g_neg = np.sign(diff_pos), np.sign(diff_neg)
    else:
        g_pos = diff_pos / d_pos if d_pos >= 1e-12 else np.zeros_like(diff_pos)
        g_neg = diff_neg / d_neg if d_neg >= 1e-12 else np.zeros_like(diff_neg)
    minus_neg = -g_neg
    entity_rows = {ph: g_pos}
    for row, grad in ((pt, -g_pos), (nh, minus_neg), (nt, g_neg)):
        entity_rows[row] = entity_rows[row] + grad if row in entity_rows else grad
    relation_rows = {pr: g_pos + minus_neg} if nr == pr else {pr: g_pos, nr: minus_neg}
    return hinge, entity_rows, relation_rows


def transe_pretrain(graph: KnowledgeGraph, config: TranseConfig) -> EmbeddingTable:
    """Margin-ranking SGD over all stored triples; deterministic given the seed."""
    config.validate()
    if graph.n_triples == 0:
        raise ValueError("cannot pretrain on a graph with no triples")
    if graph.n_entities < 2:
        raise ValueError("cannot pretrain on a graph with fewer than 2 entities")
    rng = np.random.default_rng(config.seed)
    table = initialize_embeddings(graph.n_entities, graph.n_relations, config, rng=rng)
    entities, relations = table.entities, table.relations
    triples = graph.triples
    margin, norm, lr = config.margin, config.norm, config.learning_rate
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for idx in rng.permutation(len(triples)).tolist():
            positive = triples[idx]
            for _ in range(config.negatives):
                negative = sample_negative(graph, positive, rng)
                active = pair_margin_gradients(table, positive, negative, margin, norm)
                if active:
                    hinge, entity_rows, relation_rows = active
                    epoch_loss += hinge
                    for row, grad in entity_rows.items():
                        entities[row] -= lr * grad
                    for row, grad in relation_rows.items():
                        relations[row] -= lr * grad
        _normalize_rows(entities)
        logger.debug(
            "transe epoch %d/%d mean hinge %.6f",
            epoch + 1,
            config.epochs,
            epoch_loss / (len(triples) * config.negatives),
        )
    return table
