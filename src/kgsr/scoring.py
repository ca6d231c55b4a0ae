"""Subgraph encoding, candidate item scoring, training loss and explanation paths.

The user's preference vector is a two-layer encoding of (user embedding,
first-hop sum, second-hop sum). Candidate items are item-kind entities one
hop away from the last populated diffusion step, weighted by the summed
step weights v of the subgraph nodes that bridge to them; items that were
absorbed into the subgraph itself stay candidates with their own v. The
final score is bridge_weight * sigmoid(user_repr . item_embedding).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterator, Sequence

import numpy as np

from .diffusion import SubgraphBatch, SubgraphState
from .errors import EntityNotFoundError, UnscorableUserError
from .graph import DIRECTIONS, KIND_CODE, Adjacency, Direction, EntityKind, KnowledgeGraph
from .numerics import glorot_uniform, leaky_relu, segment_rows, sigmoid
from .transe import EmbeddingTable

SCORE_FLOOR = 1e-12


@dataclass
class EncoderParams:
    """Subgraph-encoder weights: w3 compresses the concatenated (user, hop-1,
    hop-2) embeddings, w4 maps back to embedding space."""

    w3: np.ndarray  # (hidden, 3 * dim)
    w4: np.ndarray  # (dim, hidden)

    def __post_init__(self) -> None:
        self.w3 = np.asarray(self.w3, dtype=np.float64)
        self.w4 = np.asarray(self.w4, dtype=np.float64)
        if self.w3.ndim != 2 or self.w4.ndim != 2:
            raise ValueError("encoder matrices must be 2-dimensional")
        if self.w3.shape[1] % 3 != 0:
            raise ValueError("w3 must have 3 * dim columns")
        if self.w4.shape[1] != self.w3.shape[0]:
            raise ValueError("w4 columns must match w3 rows")
        if self.w4.shape[0] * 3 != self.w3.shape[1]:
            raise ValueError("w4 rows must equal a third of w3 columns")
        if not (np.isfinite(self.w3).all() and np.isfinite(self.w4).all()):
            raise ValueError("encoder parameters must be finite")

    @property
    def dim(self) -> int:
        return self.w4.shape[0]

    @property
    def hidden(self) -> int:
        return self.w3.shape[0]

    @classmethod
    def init(cls, dim: int, hidden: int | None, rng: np.random.Generator) -> "EncoderParams":
        hidden = dim if hidden is None else hidden
        return cls(glorot_uniform(rng, hidden, 3 * dim), glorot_uniform(rng, dim, hidden))


@dataclass(frozen=True)
class CandidateScore:
    item: int
    similarity: float
    bridge_weight: float
    score: float


@dataclass(frozen=True)
class CandidateScores:
    """Scored candidates as parallel arrays, best first.

    Indexing with an int, or iterating, yields CandidateScore records;
    indexing with a slice or mask yields another CandidateScores.
    """

    items: np.ndarray
    similarities: np.ndarray
    bridge_weights: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, records: Sequence[CandidateScore]) -> "CandidateScores":
        return cls(
            np.array([c.item for c in records], dtype=np.intp),
            np.array([c.similarity for c in records], dtype=np.float64),
            np.array([c.bridge_weight for c in records], dtype=np.float64),
            np.array([c.score for c in records], dtype=np.float64),
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.items, self.similarities, self.bridge_weights, self.scores)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return CandidateScore(*(column[index].item() for column in self._columns()))
        return CandidateScores(*(column[index] for column in self._columns()))

    def __iter__(self) -> Iterator[CandidateScore]:
        for row in zip(*(column.tolist() for column in self._columns())):
            yield CandidateScore(*row)

    def isin(self, items: AbstractSet[int]) -> np.ndarray:
        """Mask of the candidates whose item is in the given set."""
        wanted = np.sort(np.fromiter(items, dtype=np.intp, count=len(items)))
        if not len(wanted):
            return np.zeros(len(self.items), dtype=bool)
        at = np.minimum(np.searchsorted(wanted, self.items), len(wanted) - 1)
        return wanted[at] == self.items


def hop_embedding(subgraph: SubgraphState, step: int, embeddings: EmbeddingTable) -> np.ndarray:
    """Unweighted sum of the embeddings of one step's kept nodes (1-based
    step index); an empty step yields the zero vector."""
    if not 1 <= step <= len(subgraph.steps):
        raise ValueError(f"step must be in 1..{len(subgraph.steps)}, got {step}")
    nodes = subgraph.steps[step - 1].nodes
    if not nodes:
        return np.zeros(embeddings.dim)
    return embeddings.entities[nodes].sum(axis=0)


def encode_user_subgraph(
    encoder: EncoderParams,
    user_vec: np.ndarray,
    hop1: np.ndarray,
    hop2: np.ndarray,
    slope: float = 0.01,
) -> np.ndarray:
    if not (user_vec.shape == hop1.shape == hop2.shape == (encoder.dim,)):
        raise ValueError("encoder inputs must all have the encoder dimensionality")
    x = np.concatenate([user_vec, hop1, hop2])
    return encoder.w4 @ leaky_relu(encoder.w3 @ x, slope)


def similarity(user_repr: np.ndarray, item_vec: np.ndarray) -> float:
    """Sigmoid of the dot product; strictly inside (0, 1)."""
    if user_repr.shape != item_vec.shape:
        raise ValueError("similarity inputs must share a dimensionality")
    return float(sigmoid(float(user_repr @ item_vec)))


@dataclass
class _Candidates:
    """Candidate items of a chunk of subgraphs and the subgraph nodes that
    back them.

    Subgraph nodes are addressed by slot: every kept node, ordered by
    segment, then step, then rank within the step. Each entry pairs a
    candidate with one backing slot: an outside item with every bridge node
    of its segment's last populated step adjacent to it, once per bridge,
    in bridge order; an inside item (an item the diffusion absorbed) with
    its own slot.
    """

    last: np.ndarray        # per segment: its last populated step, -1 if none
    slot_order: np.ndarray  # slot -> position in the steps' node arrays concatenated
    slot_seg: np.ndarray
    slot_step: np.ndarray
    slot_node: np.ndarray
    items: np.ndarray       # candidate item ids, by segment, then id
    item_seg: np.ndarray    # segment of every candidate
    columns: np.ndarray     # distinct candidate items of the chunk, ascending
    item_col: np.ndarray    # per candidate: position of its item in columns
    entry_item: np.ndarray  # per entry: position of its candidate in items
    entry_slot: np.ndarray  # per entry: slot of its backing node


def _collect_candidates(batch: SubgraphBatch, adjacency: Adjacency) -> _Candidates:
    """Structural candidate discovery shared by scoring and path extraction."""
    n = len(adjacency.kind)
    steps = batch.steps
    sizes = [len(step.nodes) for step in steps]
    seg = np.concatenate([np.zeros(0, dtype=np.intp)] + [step.seg for step in steps])
    slot_order = np.argsort(seg, kind="stable")
    slot_seg = seg[slot_order]
    slot_step = np.repeat(np.arange(len(steps)), sizes)[slot_order]
    slot_node = np.concatenate([np.zeros(0, dtype=np.intp)] + [step.nodes for step in steps])[slot_order]
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
    return _Candidates(
        last, slot_order, slot_seg, slot_step, slot_node, items, item_seg, columns, item_col, entry_item, entry_slot
    )


def _chunk_candidates(batch: SubgraphBatch, adjacency: Adjacency) -> _Candidates:
    """The candidates of a chunk, collected once for all of its subgraphs
    while the graph keeps the same adjacency index."""
    memo = batch.memo
    if memo is None or memo[0] is not adjacency:
        memo = batch.memo = (adjacency, _collect_candidates(batch, adjacency))
    return memo[1]


@dataclass
class _SubgraphIndex:
    """Structures that score_candidates and extract_paths derive from one
    subgraph, valid while the graph keeps the adjacency index they were
    built from."""

    adjacency: Adjacency
    batch: SubgraphBatch  # the chunk the subgraph was diffused in
    segment: int          # the subgraph's segment in that chunk
    candidates: _Candidates  # of the whole chunk
    chains: list | None = None  # _chains_to_nodes, built on the first extract_paths


def _subgraph_index(subgraph: SubgraphState, graph: KnowledgeGraph) -> _SubgraphIndex:
    adjacency = graph.adjacency()
    index = subgraph.memo
    if index is None or index.adjacency is not adjacency:
        batch, segment = subgraph.batch, subgraph.segment
        if batch is None:
            batch, segment = SubgraphBatch.of(subgraph, len(adjacency.kind)), 0
        candidates = _chunk_candidates(batch, adjacency)
        index = subgraph.memo = _SubgraphIndex(adjacency, batch, segment, candidates)
    return index


@dataclass
class ScoreTrace:
    """Forward activations of the scoring pass over a chunk, kept for
    training. Per-candidate arrays are in candidate (segment, id) order."""

    candidates: _Candidates
    x: np.ndarray          # (users, 3 * dim) concatenated encoder inputs
    z3: np.ndarray         # (users, hidden) pre-activation
    a3: np.ndarray         # (users, hidden) leaky-relu output
    user_repr: np.ndarray  # (users, dim)
    sims: np.ndarray
    weights: np.ndarray    # bridge weights
    order: np.ndarray      # candidate positions in score order


@dataclass(frozen=True)
class BatchScores:
    """Scored candidates of a chunk: every segment's candidates, best first,
    with segment b at scores[offsets[b]:offsets[b + 1]]."""

    scores: CandidateScores
    offsets: np.ndarray
    trace: ScoreTrace | None = None

    def user(self, segment: int) -> CandidateScores:
        return self.scores[self.offsets[segment] : self.offsets[segment + 1]]


def _score(
    batch: SubgraphBatch,
    candidates: _Candidates,
    embeddings: EmbeddingTable,
    encoder: EncoderParams,
    slope: float,
    keep_trace: bool,
    segment: int | None = None,
) -> BatchScores:
    """Scores of every segment's candidates, or only of the given segment's."""
    entities = embeddings.entities
    n_users = len(batch.users)
    hops = [np.zeros((n_users, embeddings.dim))] * 2
    for hop, step in enumerate(batch.steps[:2]):
        hops[hop] = segment_rows(entities[step.nodes], step.seg, n_users)
    x = np.concatenate([entities[batch.users], *hops], axis=1)
    z3 = x @ encoder.w3.T
    a3 = leaky_relu(z3, slope)
    user_repr = a3 @ encoder.w4.T

    v = np.concatenate([np.zeros(0)] + [step.weights for step in batch.steps])[candidates.slot_order]
    weights = np.bincount(candidates.entry_item, weights=v[candidates.entry_slot], minlength=len(candidates.items))
    part = slice(None)
    if segment is not None:
        part = slice(*np.searchsorted(candidates.item_seg, (segment, segment + 1)).tolist())
    items, item_seg, weights = candidates.items[part], candidates.item_seg[part], weights[part]
    # one (users x distinct items) product covers every candidate
    sims = sigmoid((user_repr @ entities[candidates.columns].T)[item_seg, candidates.item_col[part]])
    finals = weights * sims
    order = np.lexsort((items, -finals, item_seg))
    scores = CandidateScores(items[order], sims[order], weights[order], finals[order])
    offsets = np.searchsorted(item_seg, np.arange(n_users + 1))
    trace = ScoreTrace(candidates, x, z3, a3, user_repr, sims, weights, order) if keep_trace else None
    return BatchScores(scores, offsets, trace)


def score_batch(
    batch: SubgraphBatch,
    graph: KnowledgeGraph,
    embeddings: EmbeddingTable,
    encoder: EncoderParams,
    slope: float = 0.01,
    *,
    keep_trace: bool = False,
) -> BatchScores:
    """Score every candidate item of every subgraph of a chunk; each
    segment's candidates are sorted by descending score with id tie-break."""
    return _score(batch, _collect_candidates(batch, graph.adjacency()), embeddings, encoder, slope, keep_trace)


def score_candidates(
    subgraph: SubgraphState,
    graph: KnowledgeGraph,
    embeddings: EmbeddingTable,
    encoder: EncoderParams,
    slope: float = 0.01,
) -> CandidateScores:
    """Score every candidate item, sorted by descending score with id
    tie-break: one segment of the subgraph's chunk. An empty diffusion
    yields no candidates."""
    index = _subgraph_index(subgraph, graph)
    scored = _score(index.batch, index.candidates, embeddings, encoder, slope, False, index.segment)
    return scored.user(index.segment)


def user_loss(
    scores: CandidateScores | Sequence[CandidateScore],
    positives: AbstractSet[int],
    *,
    floor: float = SCORE_FLOOR,
) -> tuple[float, int]:
    """Mean negative log score over the user's positively-scored items.

    Returns (loss, number of positives that received no candidate score).
    Raises UnscorableUserError when no positive is a candidate at all.
    """
    if not positives:
        raise ValueError("positives must be nonempty")
    if not isinstance(scores, CandidateScores):
        scores = CandidateScores.of(scores)
    scored = scores.scores[scores.isin(positives)].tolist()
    skipped = len(positives) - len(scored)
    if not scored:
        raise UnscorableUserError(
            f"none of {len(positives)} positive items received a score"
        )
    loss = -sum(math.log(max(score, floor)) for score in scored) / len(scored)
    return loss, skipped


@dataclass(frozen=True)
class PathHop:
    relation: int
    node: int
    direction: Direction


@dataclass(frozen=True)
class ExplanationPath:
    """Alternating node/relation walk from the user to a recommended item."""

    user: int
    hops: tuple[PathHop, ...]
    weight: float

    @property
    def item(self) -> int:
        return self.hops[-1].node

    def nodes(self) -> list[int]:
        return [self.user] + [h.node for h in self.hops]


def _chains_to_nodes(
    subgraph: SubgraphState,
) -> list[dict[int, list[tuple[tuple[PathHop, ...], float, float]]]]:
    """Per step: node -> list of (hops from the user, product of interior v
    excluding the node itself, the node's own v)."""
    chains: list[dict[int, list[tuple[tuple[PathHop, ...], float, float]]]] = []
    for step_index, step in enumerate(subgraph.steps):
        level: dict[int, list[tuple[tuple[PathHop, ...], float, float]]] = {}
        weight_of = dict(zip(step.nodes, step.weights.tolist()))
        edges = step.edges
        for source, relation, target, inverse in zip(
            edges.source.tolist(), edges.relation.tolist(), edges.target.tolist(), edges.inverse.tolist()
        ):
            hop = PathHop(relation, target, DIRECTIONS[inverse])
            own = weight_of[target]
            if step_index == 0:
                level.setdefault(target, []).append(((hop,), 1.0, own))
            else:
                for prefix_hops, prefix_excl, prefix_own in chains[step_index - 1].get(source, ()):
                    level.setdefault(target, []).append(
                        (prefix_hops + (hop,), prefix_excl * prefix_own, own)
                    )
        chains.append(level)
    return chains


def _path_sort_key(path: ExplanationPath):
    shape = tuple((h.node, h.relation, h.direction.value) for h in path.hops)
    return (-path.weight, len(path.hops), shape)


def extract_paths(
    subgraph: SubgraphState, graph: KnowledgeGraph, item: int, limit: int = 5
) -> list[ExplanationPath]:
    """All user-to-item walks backing a candidate, best first.

    Paths follow edges the diffusion actually traversed, plus (for items
    outside the subgraph) one closing graph edge from a bridge node; they
    are ordered by the product of the v weights of their interior nodes.
    The candidates and chains are built once per subgraph and kept on it
    for further items.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    index = _subgraph_index(subgraph, graph)
    if index.chains is None:
        index.chains = _chains_to_nodes(subgraph)
    candidates, chains, segment = index.candidates, index.chains, index.segment
    lo, hi = np.searchsorted(candidates.item_seg, (segment, segment + 1)).tolist()
    position = lo + int(np.searchsorted(candidates.items[lo:hi], item))
    if position == hi or candidates.items[position] != item:
        raise EntityNotFoundError(
            f"entity {item} is not a candidate item for this subgraph"
        )
    slots = candidates.entry_slot[candidates.entry_item == position]
    paths: list[ExplanationPath] = []
    if item not in subgraph.visited:
        for bridge in candidates.slot_node[slots].tolist():
            closers = [
                (rel, direction)
                for rel, neighbor, direction in graph.neighbors(bridge)
                if neighbor == item
            ]
            for hops, excl, own in chains[int(candidates.last[segment])].get(bridge, ()):
                for rel, direction in closers:
                    paths.append(
                        ExplanationPath(
                            subgraph.user,
                            hops + (PathHop(rel, item, direction),),
                            excl * own,
                        )
                    )
    else:
        for hops, excl, _ in chains[int(candidates.slot_step[slots[0]])].get(item, ()):
            paths.append(ExplanationPath(subgraph.user, hops, excl))
    paths.sort(key=_path_sort_key)
    return paths[:limit]


def format_path(path: ExplanationPath, graph: KnowledgeGraph) -> str:
    """Arrow-serialized walk, e.g. ``u1 -likes-> colour <-has- item_3``."""
    parts = [graph.entity_name(path.user)]
    for hop in path.hops:
        relation = graph.relation_name(hop.relation)
        arrow = f"-{relation}->" if hop.direction is Direction.FORWARD else f"<-{relation}-"
        parts.append(arrow)
        parts.append(graph.entity_name(hop.node))
    return " ".join(parts)
