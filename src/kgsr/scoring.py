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

from .diffusion import SubgraphState
from .errors import EntityNotFoundError, UnscorableUserError
from .graph import DIRECTIONS, KIND_CODE, Adjacency, Direction, EntityKind, KnowledgeGraph
from .numerics import glorot_uniform, leaky_relu, sigmoid
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
    """Candidate items of a subgraph and the subgraph nodes that back them.

    Subgraph nodes are addressed by slot, their position in the steps' node
    lists concatenated. Each entry pairs a candidate with one backing slot:
    an outside item with every bridge node of the last populated step
    adjacent to it, once per bridge, in bridge order; an inside item (an
    item the diffusion absorbed) with its own slot.
    """

    last: int               # index of the last populated step
    nodes: np.ndarray       # subgraph node of every slot
    offsets: np.ndarray     # first slot of every step, then the slot count
    items: np.ndarray       # candidate item ids, ascending
    entry_item: np.ndarray  # per entry: position of its candidate in items
    entry_slot: np.ndarray  # per entry: slot of its backing node


def _collect_candidates(subgraph: SubgraphState, adjacency: Adjacency) -> _Candidates | None:
    """Structural candidate discovery shared by scoring and path extraction;
    None when the diffusion populated no step."""
    populated = subgraph.populated_steps()
    if not populated:
        return None
    last = populated[-1]
    steps = subgraph.steps
    offsets = np.zeros(len(steps) + 1, dtype=np.intp)
    np.cumsum([len(s.nodes) for s in steps], out=offsets[1:])
    nodes = np.array([node for s in steps for node in s.nodes], dtype=np.intp)
    visited = np.zeros(len(adjacency.kind), dtype=bool)
    visited[list(subgraph.visited)] = True
    item_code = KIND_CODE[EntityKind.ITEM]

    bridge_pos, entry = adjacency.gather(nodes[offsets[last] : offsets[last + 1]])
    neighbor = adjacency.neighbor[entry]
    # rows are sorted by neighbor, so a bridge's parallel links to one item are adjacent
    first = np.ones(len(entry), dtype=bool)
    first[1:] = (neighbor[1:] != neighbor[:-1]) | (bridge_pos[1:] != bridge_pos[:-1])
    outside = first & ~visited[neighbor] & (adjacency.kind[neighbor] == item_code)
    inside = np.flatnonzero(adjacency.kind[nodes] == item_code)
    items, entry_item = np.unique(np.concatenate([neighbor[outside], nodes[inside]]), return_inverse=True)
    entry_slot = np.concatenate([offsets[last] + bridge_pos[outside], inside])
    return _Candidates(last, nodes, offsets, items, entry_item, entry_slot)


@dataclass
class _SubgraphIndex:
    """Structures that score_candidates and extract_paths derive from one
    subgraph, valid while the graph keeps the adjacency index they were
    built from."""

    adjacency: Adjacency
    candidates: _Candidates | None
    chains: list | None = None  # _chains_to_nodes, built on the first extract_paths


def _subgraph_index(subgraph: SubgraphState, graph: KnowledgeGraph) -> _SubgraphIndex:
    adjacency = graph.adjacency()
    index = subgraph.memo
    if index is None or index.adjacency is not adjacency:
        index = subgraph.memo = _SubgraphIndex(adjacency, _collect_candidates(subgraph, adjacency))
    return index


@dataclass
class ScoreTrace:
    """Forward activations of the scoring pass, kept for training."""

    x: np.ndarray        # (3 * dim,) concatenated encoder input
    z3: np.ndarray       # (hidden,) pre-activation
    a3: np.ndarray       # (hidden,) leaky-relu output
    user_repr: np.ndarray
    items: np.ndarray    # candidate item ids, aligned with the scores
    dots: np.ndarray     # user_repr . item embedding
    sims: np.ndarray
    weights: np.ndarray  # bridge weights
    bridge_rank: np.ndarray  # per bridge entry: its candidate's position in the scores
    bridge_slot: np.ndarray  # per bridge entry: slot of its backing node; sorted by rank


def score_candidates(
    subgraph: SubgraphState,
    graph: KnowledgeGraph,
    embeddings: EmbeddingTable,
    encoder: EncoderParams,
    slope: float = 0.01,
    *,
    keep_trace: bool = False,
) -> CandidateScores | tuple[CandidateScores, ScoreTrace | None]:
    """Score every candidate item, sorted by descending score with id
    tie-break. An empty diffusion yields no candidates."""
    candidates = _subgraph_index(subgraph, graph).candidates
    if candidates is None:
        empty = CandidateScores.of(())
        return (empty, None) if keep_trace else empty
    user_vec = embeddings.entities[subgraph.user]
    hop1 = hop_embedding(subgraph, 1, embeddings)
    hop2 = hop_embedding(subgraph, 2, embeddings) if len(subgraph.steps) >= 2 else np.zeros_like(hop1)
    x = np.concatenate([user_vec, hop1, hop2])
    z3 = encoder.w3 @ x
    a3 = leaky_relu(z3, slope)
    user_repr = encoder.w4 @ a3

    items = candidates.items
    v = np.concatenate([s.weights for s in subgraph.steps])
    weights = np.bincount(candidates.entry_item, weights=v[candidates.entry_slot], minlength=len(items))
    dots = embeddings.entities[items] @ user_repr
    sims = sigmoid(dots)
    finals = weights * sims
    order = np.lexsort((items, -finals))
    scored = CandidateScores(items[order], sims[order], weights[order], finals[order])
    if not keep_trace:
        return scored
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    entry_rank = rank[candidates.entry_item]
    by_rank = np.argsort(entry_rank, kind="stable")
    trace = ScoreTrace(
        x, z3, a3, user_repr, scored.items, dots[order], scored.similarities, scored.bridge_weights,
        entry_rank[by_rank], candidates.entry_slot[by_rank],
    )
    return scored, trace


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
    scored = [score for item, score in zip(scores.items.tolist(), scores.scores.tolist()) if item in positives]
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
    candidates, chains = index.candidates, index.chains
    items = candidates.items if candidates is not None else np.zeros(0, dtype=np.intp)
    index = int(np.searchsorted(items, item))
    if index == len(items) or items[index] != item:
        raise EntityNotFoundError(
            f"entity {item} is not a candidate item for this subgraph"
        )
    slots = candidates.entry_slot[candidates.entry_item == index]
    paths: list[ExplanationPath] = []
    if item not in subgraph.visited:
        for bridge in candidates.nodes[slots].tolist():
            closers = [
                (rel, direction)
                for rel, neighbor, direction in graph.neighbors(bridge)
                if neighbor == item
            ]
            for hops, excl, own in chains[candidates.last].get(bridge, ()):
                for rel, direction in closers:
                    paths.append(
                        ExplanationPath(
                            subgraph.user,
                            hops + (PathHop(rel, item, direction),),
                            excl * own,
                        )
                    )
    else:
        step_index = int(np.searchsorted(candidates.offsets, slots[0], side="right")) - 1
        for hops, excl, _ in chains[step_index].get(item, ()):
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
