"""Subgraph encoding, candidate item scoring, training loss and explanation paths.

The user's preference vector is a two-layer encoding of (user embedding,
first-hop sum, second-hop sum). Candidate items are item-kind entities one
hop away from the last populated diffusion step, weighted by the summed
step weights v of the subgraph nodes that bridge to them; items that were
absorbed into the subgraph itself stay candidates with their own v. The
final score is bridge_weight * sigmoid(user_repr . item_embedding).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Collection, Sequence

import numpy as np

from .diffusion import SubgraphBatch
from .errors import EntityNotFoundError
from .graph import KIND_CODE, Adjacency, EntityKind, KnowledgeGraph
from .numerics import expand_ranges, glorot_uniform, leaky_relu, segment_rows, sigmoid, weight_pair
from .transe import EmbeddingTable

SCORE_FLOOR = 1e-12
MAX_KEY = np.iinfo(np.intp).max  # past every (segment, node, step) and (segment, item) key


@dataclass
class EncoderParams:
    """Subgraph-encoder weights: w3 compresses the concatenated (user, hop-1,
    hop-2) embeddings, w4 maps back to embedding space."""

    w3: np.ndarray  # (hidden, 3 * dim)
    w4: np.ndarray  # (dim, hidden)

    def __post_init__(self) -> None:
        self.w3, self.w4 = weight_pair(self.w3, self.w4, 3, "encoder")

    @property
    def dim(self) -> int:
        return self.w4.shape[0]

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator) -> "EncoderParams":
        """Glorot-uniform weights with hidden width dim."""
        return cls(glorot_uniform(rng, dim, 3 * dim), glorot_uniform(rng, dim, dim))

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The encoder on rows of concatenated (user, hop-1, hop-2) inputs:
        the pre-activation z3, its leaky-relu a3 and the user_repr rows."""
        z3 = x @ self.w3.T
        a3 = leaky_relu(z3)
        return z3, a3, a3 @ self.w4.T


@dataclass(frozen=True)
class CandidateScores:
    """Scored candidates as parallel arrays, best first; indexing with a
    slice or mask yields another CandidateScores."""

    items: np.ndarray
    similarities: np.ndarray
    bridge_weights: np.ndarray
    scores: np.ndarray

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.items, self.similarities, self.bridge_weights, self.scores)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index) -> "CandidateScores":
        return CandidateScores(*(column[index] for column in self._columns()))


@dataclass
class _Candidates:
    """Candidate items of a chunk of subgraphs and the subgraph nodes that
    back them.

    Subgraph nodes are addressed by slot: a node's position in the steps'
    node arrays concatenated. Each entry pairs a candidate with one backing
    slot: an outside item with every bridge node of its segment's last
    populated step adjacent to it, once per bridge, in bridge order; an
    inside item (an item the diffusion absorbed) with its own slot.
    """

    slot_node: np.ndarray
    items: np.ndarray       # candidate item ids, by segment, then id; in BatchScores, best first
    item_seg: np.ndarray    # segment of every candidate, ascending
    columns: np.ndarray     # distinct candidate items of the chunk, ascending
    item_col: np.ndarray    # per candidate: position of its item in columns
    entry_item: np.ndarray  # per entry: position of its candidate in items
    entry_slot: np.ndarray  # per entry: slot of its backing node


def _collect_candidates(batch: SubgraphBatch, adjacency: Adjacency) -> _Candidates:
    """Structural candidate discovery shared by scoring and training."""
    n = len(adjacency.kind)
    steps = batch.steps
    slot_seg = np.concatenate([np.zeros(0, dtype=np.intp)] + [step.seg for step in steps])
    slot_node = np.concatenate([np.zeros(0, dtype=np.intp)] + [step.nodes for step in steps])
    slot_step = np.repeat(np.arange(len(steps)), [len(step.nodes) for step in steps])
    last = np.full(len(batch.users), -1)
    np.maximum.at(last, slot_seg, slot_step)
    item_code = KIND_CODE[EntityKind.ITEM]

    bridges = np.flatnonzero(slot_step == last[slot_seg])
    bridge_pos, entry = adjacency.gather(slot_node[bridges])
    neighbor = adjacency.neighbor[entry]
    # rows are sorted by neighbor, so a bridge's parallel links to one item are adjacent
    first = np.ones(len(entry), dtype=bool)
    first[1:] = (neighbor[1:] != neighbor[:-1]) | (bridge_pos[1:] != bridge_pos[:-1])
    bridge_slot = bridges[bridge_pos]
    entry_seg = slot_seg[bridge_slot]
    visited = batch.visited
    if visited.shape[1] < n:  # entities added since the diffusion were not visited
        visited = np.pad(visited, ((0, 0), (0, n - visited.shape[1])))
    outside = first & ~visited[entry_seg, neighbor] & (adjacency.kind[neighbor] == item_code)
    inside = np.flatnonzero(adjacency.kind[slot_node] == item_code)
    keys, entry_item = np.unique(
        np.concatenate([entry_seg[outside] * n + neighbor[outside], slot_seg[inside] * n + slot_node[inside]]),
        return_inverse=True,
    )
    item_seg, items = np.divmod(keys, n)
    columns, item_col = np.unique(items, return_inverse=True)
    entry_slot = np.concatenate([bridge_slot[outside], inside])
    return _Candidates(slot_node, items, item_seg, columns, item_col, entry_item, entry_slot)


@dataclass(frozen=True)
class BatchScores:
    """Scored candidates of a chunk: every segment's candidates, best first,
    with segment b at scores[offsets[b]:offsets[b + 1]]. The candidates'
    per-row arrays are in the same order, and the forward activations that
    training differentiates come along."""

    scores: CandidateScores
    offsets: np.ndarray
    candidates: _Candidates
    x: np.ndarray          # (users, 3 * dim) concatenated encoder inputs
    z3: np.ndarray         # (users, hidden) pre-activation
    a3: np.ndarray         # (users, hidden) leaky-relu output
    user_repr: np.ndarray  # (users, dim)

    def __len__(self) -> int:
        return len(self.scores)

    def user(self, segment: int) -> CandidateScores:
        return self.scores[self.offsets[segment] : self.offsets[segment + 1]]

    @property
    def segments(self) -> np.ndarray:
        """The segment of every scored row."""
        return self.candidates.item_seg

    def isin(self, known: Sequence[Collection[int]]) -> np.ndarray:
        """Mask of the scored rows whose item is among its segment's known
        items (known[segment]): one test of the chunk's (segment, item) keys."""
        sizes = [len(items) for items in known]
        known_items = np.fromiter(itertools.chain.from_iterable(known), dtype=np.intp, count=sum(sizes))
        n = 1 + max(int(self.scores.items.max(initial=-1)), int(known_items.max(initial=-1)))
        known_keys = np.sort(np.append(np.repeat(np.arange(len(known)), sizes) * n + known_items, MAX_KEY))
        keys = self.segments * n + self.scores.items
        return known_keys[known_keys.searchsorted(keys)] == keys

    def first_fresh(self, known: Sequence[Collection[int]], k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each segment's first k rows whose item is not among its known
        items, and their 1-based ranks among those fresh rows."""
        fresh = ~self.isin(known)
        seen = np.cumsum(fresh)
        rank = seen - np.concatenate([[0], seen])[self.offsets[self.segments]]
        rows = np.flatnonzero(fresh & (rank <= k))
        return rows, rank[rows]


def score_candidates(
    batch: SubgraphBatch,
    graph: KnowledgeGraph,
    embeddings: EmbeddingTable,
    encoder: EncoderParams,
) -> BatchScores:
    """Score every candidate item of every subgraph of a chunk; each
    segment's candidates are sorted by descending score with id tie-break.
    A segment whose diffusion kept nothing has no candidates."""
    candidates = _collect_candidates(batch, graph.adjacency())
    entities = embeddings.entities
    n_users = len(batch.users)
    hops = [np.zeros((n_users, embeddings.dim))] * 2
    for hop, step in enumerate(batch.steps[:2]):
        hops[hop] = segment_rows(entities[step.nodes], step.seg, n_users)
    x = np.concatenate([entities[batch.users], *hops], axis=1)
    z3, a3, user_repr = encoder.encode(x)

    v = np.concatenate([np.zeros(0)] + [step.weights for step in batch.steps])
    weights = np.bincount(candidates.entry_item, weights=v[candidates.entry_slot], minlength=len(candidates.items))
    items, item_seg = candidates.items, candidates.item_seg
    # one (users x distinct items) product covers every candidate
    sims = sigmoid((user_repr @ entities[candidates.columns].T)[item_seg, candidates.item_col])
    finals = weights * sims
    order = np.lexsort((items, -finals, item_seg))
    row_of = np.empty_like(order)  # candidate -> its row in score order
    row_of[order] = np.arange(len(order))
    # item_seg is sorted, so it reads the same in score order
    candidates = replace(candidates, items=items[order], item_col=candidates.item_col[order],
                         entry_item=row_of[candidates.entry_item])
    scores = CandidateScores(candidates.items, sims[order], weights[order], finals[order])
    offsets = np.searchsorted(item_seg, np.arange(n_users + 1))
    return BatchScores(scores, offsets, candidates, x, z3, a3, user_repr)


def user_loss(scored: BatchScores, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per segment of a chunk: the mean negative log score over its rows
    marked in hits (its positives that received a score), each floored at
    SCORE_FLOOR, and the number of those rows. A segment with no such row
    has loss 0 and count 0.

    Each log is math.log's and each segment's sum adds its rows in row
    order, so a segment's loss is bitwise the one-user loss of
    tests/oracles.py.
    """
    n_segments = len(scored.offsets) - 1
    segments = scored.segments[hits]
    floored = np.maximum(scored.scores.scores[hits], SCORE_FLOOR).tolist()
    logs = np.fromiter(map(math.log, floored), dtype=np.float64, count=len(floored))
    counts = np.bincount(segments, minlength=n_segments)
    sums = np.bincount(segments, weights=logs, minlength=n_segments)
    return np.divide(-sums, counts, out=np.zeros(n_segments), where=counts > 0), counts


@dataclass(frozen=True)
class PathTable:
    """The walks that back a chunk's queries, one row per walk: rows are
    grouped by query, in query order, and each query's rows are best first.
    A walk's hops fill its row of node, relation and inverse from the left;
    node is -1 past the walk's end."""

    query: np.ndarray
    user: np.ndarray
    weight: np.ndarray
    node: np.ndarray      # (rows, hops)
    relation: np.ndarray  # (rows, hops)
    inverse: np.ndarray   # (rows, hops): 1 where the hop walks a triple from tail to head


def extract_paths(batch: SubgraphBatch, graph: KnowledgeGraph, segments, items, limit: int) -> PathTable:
    """The best user-to-item walks of each query (segments[q], items[q]): at
    most limit walks backing that candidate of that segment's subgraph.

    Walks follow traversed edges between kept nodes to the item or, for an
    item outside the subgraph, on to one closing graph edge from a node of
    the segment's last populated step. Each is a row of one table of hop
    ids, grown back from its end by joining on (segment, node, step). Rows
    are ordered by the product of their interior v, multiplied from the
    user on, then by their (node, relation, direction) hops, forward first.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    adjacency, steps = graph.adjacency(), batch.steps
    n, stride = len(adjacency.kind), len(steps) + 1  # a key is (segment * n + node) * stride + step
    segments, items = np.asarray(segments, dtype=np.intp), np.asarray(items, dtype=np.intp)

    # the kept nodes of every step by key, then a key past them all
    last = np.full(len(batch.users), -1)
    for k, step in enumerate(steps):
        last[step.seg] = k
    node_keys = np.concatenate([*((s.seg * n + s.nodes) * stride + k for k, s in enumerate(steps)), [MAX_KEY]])
    order = node_keys.argsort(kind="stable")
    node_keys, node_v = node_keys[order], np.concatenate([*(step.weights for step in steps), [1.0]])[order]
    valid = (items >= 0) & (items < n) & (adjacency.kind.take(items, mode="clip") == KIND_CODE[EntityKind.ITEM])
    pair = segments * n + items
    found = node_keys[node_keys.searchsorted(pair * stride)]  # at the first step that kept the item
    kept = valid & (found // stride == pair)
    inside = np.flatnonzero(kept)

    # closing edges of the outside items, read from the bridge's end (step -1 for a segment without any)
    outside = np.flatnonzero(valid & ~kept)
    position, relation, bridge, inverse = graph.neighbors(items[outside])
    close_q = outside[position]
    close_key = (segments[close_q] * n + bridge) * stride + last[segments[close_q]]
    at = node_keys.searchsorted(close_key)
    bridged = node_keys[at] == close_key
    close_q, close_key, at = close_q[bridged], close_key[bridged], at[bridged]
    bad = ~kept
    bad[close_q] = False
    if bad.any():
        item = int(items[np.argmax(bad)])
        named = repr(graph.entity_name(item)) if 0 <= item < graph.n_entities else f"id {item}"
        raise EntityNotFoundError(f"entity {named} is not a candidate item for this subgraph")

    # hop ids: the traversed edges in step order, the closing edges, then a padding hop
    columns = [(s.edge_seg, s.edges.source, s.edges.target, s.edges.relation, s.edges.inverse) for s in steps]
    edge_seg, source, target, relation_of, inverse_of = (np.concatenate(column) for column in zip(*columns))
    edge_step = np.repeat(np.arange(len(steps)), [len(s.edge_seg) for s in steps])
    to_key = (edge_seg * n + target) * stride + edge_step
    from_key = (edge_seg * n + source) * stride + edge_step - 1
    by_key = to_key.argsort()
    to_key = to_key[by_key]
    # a hop's factor is the v of the node it leaves: 1.0 for the user, the bridge's v for a closing edge
    hop_v = np.where(edge_step > 0, node_v[node_keys.searchsorted(from_key)], 1.0)
    hop_node, hop_relation, hop_inverse, hop_v = (np.concatenate([column, closing, [pad]]) for column, closing, pad in (
        (target, items[close_q], -1), (relation_of, relation[bridged], -1), (inverse_of, ~inverse[bridged], -1),
        (hop_v, node_v[at], 1.0)))

    # the walk table, grown back from the ends: each row's query, next key and hop ids
    ends = (np.concatenate([inside, close_q]), np.concatenate([found[inside], close_key]))
    end_step = ends[1] % stride
    ends += (np.full((len(end_step), stride), len(hop_node) - 1),)
    ends[2][np.arange(len(inside), len(end_step)), end_step[len(inside):] + 1] = np.arange(len(close_q)) + len(target)
    query, key, path = (column[:0] for column in ends)
    for k in range(int(end_step.max(initial=-1)), -1, -1):
        if (start := end_step == k).any():
            query, key, path = (np.concatenate([table, end[start]]) for table, end in zip((query, key, path), ends))
        pos, edge = expand_ranges(to_key.searchsorted(key), to_key.searchsorted(key, "right"))
        edge = by_key[edge]
        query, path, key = query[pos], path[pos], from_key[edge]
        path[:, k] = edge
    weight = functools.reduce(np.multiply, hop_v[path].T)
    # a hop's (node, relation, inverse) as one number, in the same order
    hop_order = (hop_node * max(graph.n_relations, 1) + hop_relation) * 2 + hop_inverse
    order = np.lexsort((*hop_order[path[:, ::-1]].T, -weight, query))
    order = order[np.arange(len(order)) - query[order].searchsorted(query[order]) < limit]
    query, rows = query[order], path[order]
    hops = (hop[rows] for hop in (hop_node, hop_relation, hop_inverse))
    return PathTable(query, batch.users[segments[query]], weight[order], *hops)


def format_path(table: PathTable, graph: KnowledgeGraph) -> list[str]:
    """Every row's walk as arrow text, e.g. ``u1 -likes-> colour <-has- item_3``:
    ``-r->`` walks a triple from head to tail, ``<-r-`` from tail to head."""
    names = np.array(graph.entity_names(), dtype=object)
    arrows = np.array([f" <-{name}- " if inverse else f" -{name}-> "
                       for name in graph.relation_names() for inverse in (False, True)], dtype=object)
    # a padding hop reads clipped ids, then is blanked
    hops = arrows.take(table.relation * 2 + table.inverse, mode="clip")
    hops += names.take(table.node, mode="clip")
    hops[table.node < 0] = ""
    return functools.reduce(np.add, hops.T, names[table.user]).tolist()
