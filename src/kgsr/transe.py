"""Translation-based embedding pretraining used to seed the recommender.

A triple (h, r, t) is scored by the distance ||h + r - t|| under an L1 or
L2 norm; training minimizes a margin-ranking objective between stored
triples and corrupted (filtered-negative) ones with plain SGD. Entity rows
are renormalized to unit L2 length at the end of every epoch; relation
rows are normalized only at initialization.

An epoch's negatives do not depend on the embeddings, so
``sample_negative`` draws all of them in one pass right after the epoch's
permutation, draw for draw as a scalar sampler called pair after pair
would. Each (positive, negative) pair then goes through one kernel,
``pair_margin_gradients``, sequentially; it reads each row it needs once,
as a view, computes both distances once (sharing h + r when the negative
keeps the head and relation) and returns the hinge with each row's merged
gradient as a sign and a vector. The loop steps every view in place, one
``lr * grad`` product per distinct gradient, so the tables round exactly
as a per-row ``row -= lr * grad`` over negated gradients does. The epoch's
mean hinge is only logged at debug level.
"""
from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import EntityNotFoundError
from .graph import KnowledgeGraph, Triple, adjacency_key

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

    def __post_init__(self) -> None:
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


# Attempts of sample_negative for one pair before it gives up on finding an unstored triple.
NEGATIVE_TRIES = 100
# Pairs whose candidates sample_negative checks in one vectorized pass.
_NEGATIVE_WINDOW = 64


def sample_negative(graph: KnowledgeGraph, positives: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One filtered negative per row of the (P, 3) positives, as a (P, 3) array.

    Each attempt flips a coin for the slot to corrupt and draws an entity
    different from the one it replaces. A pair whose candidate is stored
    retries on the next attempt, and after NEGATIVE_TRIES attempts keeps the
    last candidate even if it is stored.

    The attempts come from ``rng.integers(0, [2, n - 1, 2, n - 1, ...])``,
    never more of them than pairs remain. numpy bounds array draws one value
    at a time, as the scalar calls ``integers(0, 2)`` and
    ``integers(0, n - 1)`` do, so the negatives and the generator's end
    state are those of one such scalar pair of draws per attempt, pair after
    pair. A candidate is stored when its forward key, packed as the
    adjacency index packs its entries, is among the index's keys.
    """
    n = graph.n_entities
    if n < 2:
        raise ValueError("negative sampling needs at least 2 entities")
    positives = np.asarray(positives, dtype=np.intp).reshape(-1, 3)
    index = graph.adjacency()
    rows = np.repeat(np.arange(n), np.diff(index.indptr))
    keys = adjacency_key(rows, index.neighbor, index.relation, index.inverse, n, graph.n_relations)
    if keys is None:
        raise ValueError(
            f"negative sampling filters by packed triple keys, and {n} entities with "
            f"{graph.n_relations} relations pass their bound graph.PACKED_KEY_MAX"
        )
    # The index is sorted by its key, so the forward keys ascend; the sentinel
    # above them keeps every searchsorted position a valid index.
    stored_keys = np.append(keys[~index.inverse], np.iinfo(keys.dtype).max)

    def candidates(start: int, attempts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Heads, tails and stored flags of one attempt per pair from start on."""
        heads, relations, tails = positives[start:start + len(attempts)].T
        corrupt_head = attempts[:, 0] == 1
        entity = attempts[:, 1]
        entity = entity + (entity >= np.where(corrupt_head, heads, tails))
        heads = np.where(corrupt_head, entity, heads)
        tails = np.where(corrupt_head, tails, entity)
        key = adjacency_key(heads, tails, relations, False, n, graph.n_relations)
        return heads, tails, stored_keys[stored_keys.searchsorted(key)] == key

    negatives = positives.copy()  # a negative keeps its positive's relation
    attempts = np.empty((0, 2), dtype=np.int64)
    pair = used = tries = 0  # tries: stored candidates of the pair at `pair` so far
    while pair < len(positives):
        if used == len(attempts):
            attempts, used = rng.integers(0, np.tile([2, n - 1], len(positives) - pair)).reshape(-1, 2), 0
        heads, tails, stored = candidates(pair, attempts[used:used + _NEGATIVE_WINDOW])
        if tries + 1 == NEGATIVE_TRIES:  # the last attempt keeps its candidate
            stored[0] = False
        hits = np.flatnonzero(stored)
        done = int(hits[0]) if len(hits) else len(stored)
        negatives[pair:pair + done, 0] = heads[:done]
        negatives[pair:pair + done, 2] = tails[:done]
        pair += done
        used += done
        if len(hits):  # the pair at the first hit retries on the next attempt
            tries = tries + 1 if done == 0 else 1
            used += 1
        else:
            tries = 0
    return negatives


def _signed_merge(slots):
    """(sign, grad, view) per distinct row, summing the slots' contributions
    sign * grad left to right; slots are (row id, sign, grad, view)."""
    merged = {}
    for row, sign, grad, view in slots:
        if row not in merged:
            merged[row] = [sign, grad, view]
            continue
        entry = merged[row]
        total_sign, total = entry[0], entry[1]
        if total_sign > 0:  # a + b, or a + (-b) == a - b
            entry[1] = total + grad if sign > 0 else total - grad
        elif sign > 0:  # (-a) + b == b - a
            entry[0], entry[1] = 1, grad - total
        else:  # (-a) + (-b), whose exact zero is +0 where -(a + b) gives -0
            entry[0], entry[1] = 1, -total - grad
    return [(sign, grad, (view,)) for sign, grad, view in merged.values()]


def pair_margin_gradients(
    table: EmbeddingTable, positive: Triple, negative: Triple, margin: float, norm: int = 2
) -> tuple[float, list[tuple[int, np.ndarray, tuple[np.ndarray, ...]]]] | None:
    """The per-pair kernel: hinge and exact (sub)gradients of one pair.

    Computes d(pos) and d(neg) once. Returns None when the hinge
    max(0, margin + d(pos) - d(neg)) is inactive, else (hinge, rows). Each
    row is (sign, grad, views): the views are rows of the table, each read
    once, whose gradient is sign * grad, so an SGD step lowers a view by
    lr * grad for sign +1 and raises it by lr * grad for sign -1. A row that
    several slots share sums their contributions left to right in the order
    h+, t+, h-, t- (relations: r+, r-), which fixes its rounding. Carrying
    the sign apart from the vector rounds as negated vectors would:
    a + (-b) is a - b, lr * (-g) is -(lr * g) and x - (-y) is x + y.
    """
    e, r = table.entities, table.relations
    ph, pr, pt = positive
    nh, nr, nt = negative
    head, rel, tail = e[ph], r[pr], e[pt]
    shift = head + rel
    diff_pos = shift - tail
    if nr == pr and nh == ph:  # the tail corrupted: h + r is shared
        neg_head, neg_rel, neg_tail = head, rel, e[nt]
        diff_neg = shift - neg_tail
    elif nr == pr and nt == pt:  # the head corrupted
        neg_head, neg_rel, neg_tail = e[nh], rel, tail
        diff_neg = neg_head + rel - tail
    else:
        neg_head, neg_rel, neg_tail = e[nh], r[nr], e[nt]
        diff_neg = neg_head + neg_rel - neg_tail
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
    if ph != pt and nr == pr and nh == ph and nt != ph and nt != pt:
        # h+ and h- share the head row, r+ and r- the relation row
        return hinge, [(1, g_pos - g_neg, (head, rel)), (-1, g_pos, (tail,)), (1, g_neg, (neg_tail,))]
    if ph != pt and nr == pr and nt == pt and nh != ph and nh != pt:
        # t+ and t- share the tail row, r+ and r- the relation row
        return hinge, [
            (1, g_pos, (head,)), (1, g_neg - g_pos, (tail,)), (-1, g_neg, (neg_head,)), (1, g_pos - g_neg, (rel,))
        ]
    entity_slots = ((ph, 1, g_pos, head), (pt, -1, g_pos, tail), (nh, -1, g_neg, neg_head), (nt, 1, g_neg, neg_tail))
    return hinge, _signed_merge(entity_slots) + _signed_merge(((pr, 1, g_pos, rel), (nr, -1, g_neg, neg_rel)))


def transe_pretrain(graph: KnowledgeGraph, config: TranseConfig) -> EmbeddingTable:
    """Margin-ranking SGD over all stored triples; deterministic given the seed."""
    if graph.n_triples == 0:
        raise ValueError("cannot pretrain on a graph with no triples")
    if graph.n_entities < 2:
        raise ValueError("cannot pretrain on a graph with fewer than 2 entities")
    rng = np.random.default_rng(config.seed)
    table = initialize_embeddings(graph.n_entities, graph.n_relations, config, rng=rng)
    triples = np.array(graph.triples, dtype=np.intp)
    margin, norm, lr = config.margin, config.norm, config.learning_rate
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        positives = np.repeat(triples[rng.permutation(len(triples))], config.negatives, axis=0)
        negatives = sample_negative(graph, positives, rng)
        # each pair's ids as Python ints, unpacked one pair at a time rather
        # than held as one list per pair for the whole epoch
        for ph, pr, pt, nh, nr, nt in struct.iter_unpack("6n", np.hstack((positives, negatives))):
            active = pair_margin_gradients(table, (ph, pr, pt), (nh, nr, nt), margin, norm)
            if active:
                hinge, rows = active
                epoch_loss += hinge
                for sign, grad, views in rows:
                    step = lr * grad
                    for view in views:
                        if sign > 0:
                            view -= step
                        else:
                            view += step
        _normalize_rows(table.entities)
        logger.debug(
            "transe epoch %d/%d mean hinge %.6f",
            epoch + 1,
            config.epochs,
            epoch_loss / (len(triples) * config.negatives),
        )
    return table
