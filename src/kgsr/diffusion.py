"""Attention-guided frontier expansion that grows a per-user subgraph.

Starting from the user node (score 1.0), each step scores every edge from
the current central nodes to their unvisited neighbors with a small
two-layer attention network, softmax-normalizes the edge scores, aggregates
them into raw candidate-node scores, keeps the top-N candidates, and
softmax-normalizes the kept raw scores into the step weights v. The kept
nodes become the next step's centrals carrying v as their scores. A node
joins the subgraph at most once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EntityNotFoundError
from .graph import DIRECTIONS, Adjacency, Direction, EntityKind, KnowledgeGraph
from .numerics import glorot_uniform, leaky_relu, sigmoid, stable_softmax
from .transe import EmbeddingTable


@dataclass
class AttentionParams:
    """Edge-attention weights: w1 maps the concatenated (user, source) pair
    down to a hidden vector, w2 maps that back to embedding space."""

    w1: np.ndarray  # (hidden, 2 * dim)
    w2: np.ndarray  # (dim, hidden)

    def __post_init__(self) -> None:
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("attention matrices must be 2-dimensional")
        if self.w1.shape[1] % 2 != 0:
            raise ValueError("w1 must have an even number of columns (2 * dim)")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError("w2 columns must match w1 rows")
        if self.w2.shape[0] * 2 != self.w1.shape[1]:
            raise ValueError("w2 rows must equal half of w1 columns")
        if not (np.isfinite(self.w1).all() and np.isfinite(self.w2).all()):
            raise ValueError("attention parameters must be finite")

    @property
    def dim(self) -> int:
        return self.w2.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def init(cls, dim: int, hidden: int | None, rng: np.random.Generator) -> "AttentionParams":
        hidden = dim if hidden is None else hidden
        return cls(glorot_uniform(rng, hidden, 2 * dim), glorot_uniform(rng, dim, hidden))


@dataclass
class DiffusionConfig:
    steps: int = 2
    top_n: int = 100
    leaky_slope: float = 0.01

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError("leaky_slope must be in (0, 1)")


@dataclass(frozen=True)
class FrontierEdge:
    source: int
    relation: int
    target: int
    direction: Direction


@dataclass
class Frontier:
    """Expansion edges from the current centrals to unvisited neighbors."""

    centrals: list[int]
    central_scores: np.ndarray
    edges: list[FrontierEdge]
    source_pos: np.ndarray  # edge index -> position of its source in centrals

    @property
    def candidates(self) -> list[int]:
        return sorted({e.target for e in self.edges})


def _frontier(
    adjacency: Adjacency, centrals: np.ndarray, visited: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edges from the centrals to unvisited neighbors, in central then row
    order: (position of the source in centrals, adjacency entry) per edge."""
    source_pos, entry = adjacency.gather(centrals)
    keep = ~visited[adjacency.neighbor[entry]]
    return source_pos[keep], entry[keep]


def build_frontier(
    graph: KnowledgeGraph,
    centrals: Sequence[int],
    central_scores: np.ndarray,
    visited: set[int],
) -> Frontier:
    centrals = list(centrals)
    for central in centrals:
        if not 0 <= central < graph.n_entities:
            raise EntityNotFoundError(f"unknown entity id {central}")
    adjacency = graph.adjacency()
    mask = np.zeros(graph.n_entities, dtype=bool)
    mask[list(visited)] = True
    source_pos, entry = _frontier(adjacency, np.array(centrals, dtype=np.intp), mask)
    edges = [
        FrontierEdge(centrals[pos], relation, neighbor, DIRECTIONS[inverse])
        for pos, relation, neighbor, inverse in zip(
            source_pos.tolist(),
            adjacency.relation[entry].tolist(),
            adjacency.neighbor[entry].tolist(),
            adjacency.inverse[entry].tolist(),
        )
    ]
    return Frontier(centrals, np.asarray(central_scores, dtype=np.float64), edges, source_pos)


@dataclass
class _AttentionCache:
    x: np.ndarray        # (k, 2 * dim) concatenated (user, source) inputs
    z1: np.ndarray       # (k, hidden) pre-activation
    a1: np.ndarray       # (k, hidden) leaky-relu output
    z2: np.ndarray       # (k, dim)
    t: np.ndarray        # (k,) dot with target embeddings
    alpha_bar: np.ndarray  # (k,) sigmoid pre-normalization scores
    alpha: np.ndarray    # (k,) softmax over all frontier edges


def _attention_forward(
    params: AttentionParams,
    user_vec: np.ndarray,
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
    entities: np.ndarray,
    slope: float,
) -> _AttentionCache:
    k = len(src_ids)
    x = np.concatenate([np.broadcast_to(user_vec, (k, user_vec.shape[0])), entities[src_ids]], axis=1)
    z1 = x @ params.w1.T
    a1 = leaky_relu(z1, slope)
    z2 = a1 @ params.w2.T
    t = np.einsum("kd,kd->k", z2, entities[dst_ids])
    alpha_bar = sigmoid(t)
    alpha = stable_softmax(alpha_bar)
    return _AttentionCache(x, z1, a1, z2, t, alpha_bar, alpha)


def compute_edge_attention(
    params: AttentionParams,
    user_vec: np.ndarray,
    frontier: Frontier,
    embeddings: EmbeddingTable,
    slope: float = 0.01,
) -> dict[FrontierEdge, float]:
    """Softmax-normalized attention weight for every frontier edge.

    Empty frontier yields an empty map; otherwise the weights sum to 1.
    """
    if not frontier.edges:
        return {}
    src = np.array([e.source for e in frontier.edges], dtype=np.intp)
    dst = np.array([e.target for e in frontier.edges], dtype=np.intp)
    cache = _attention_forward(params, user_vec, src, dst, embeddings.entities, slope)
    return {edge: float(a) for edge, a in zip(frontier.edges, cache.alpha)}


def _node_scores(targets: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate ids (ascending), each edge's position among them, and the
    raw candidate scores: edge weights summed per target in edge order."""
    candidates, cand_pos = np.unique(targets, return_inverse=True)
    return candidates, cand_pos, np.bincount(cand_pos, weights=weights, minlength=len(candidates))


def _top_n(ids: np.ndarray, raw: np.ndarray, top_n: int) -> np.ndarray:
    """Positions of the top_n largest raw scores, ties broken by ascending id."""
    return np.lexsort((ids, -raw))[:top_n]


class NodeScores(NamedTuple):
    raw: dict[int, float]
    normalized: dict[int, float]


def propagate_node_scores(frontier: Frontier, alpha: Mapping[FrontierEdge, float]) -> NodeScores:
    """Aggregate edge attention into candidate scores.

    raw[j] sums source_score * alpha over every frontier edge landing on j;
    normalized is the softmax of raw over all candidates.
    """
    if not frontier.edges:
        return NodeScores({}, {})
    weights = frontier.central_scores[frontier.source_pos] * np.array([alpha[e] for e in frontier.edges])
    nodes, _, raw = _node_scores(np.array([e.target for e in frontier.edges]), weights)
    nodes = nodes.tolist()
    return NodeScores(dict(zip(nodes, raw.tolist())), dict(zip(nodes, stable_softmax(raw).tolist())))


class Selection(NamedTuple):
    nodes: list[int]
    weights: np.ndarray


def select_frontier(raw_scores: Mapping[int, float], top_n: int) -> Selection:
    """Top-N candidates by raw score (ties broken by ascending entity id),
    re-weighted by a softmax restricted to the kept set."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    ids = np.fromiter(raw_scores.keys(), dtype=np.intp, count=len(raw_scores))
    raw = np.fromiter(raw_scores.values(), dtype=np.float64, count=len(raw_scores))
    kept = _top_n(ids, raw, top_n)
    return Selection(ids[kept].tolist(), stable_softmax(raw[kept]))


@dataclass(frozen=True)
class TraversedEdge:
    source: int
    relation: int
    target: int
    direction: Direction
    attention: float


@dataclass(frozen=True)
class TraversedEdges:
    """A step's traversed edges as parallel arrays; iterating yields
    TraversedEdge records."""

    source: np.ndarray
    relation: np.ndarray
    target: np.ndarray
    inverse: np.ndarray  # bool: the edge runs against its triple
    attention: np.ndarray

    @classmethod
    def of(cls, edges: Sequence[TraversedEdge]) -> "TraversedEdges":
        return cls(
            np.array([e.source for e in edges], dtype=np.intp),
            np.array([e.relation for e in edges], dtype=np.intp),
            np.array([e.target for e in edges], dtype=np.intp),
            np.array([e.direction is Direction.INVERSE for e in edges], dtype=bool),
            np.array([e.attention for e in edges], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.target)

    def __iter__(self) -> Iterator[TraversedEdge]:
        columns = (self.source, self.relation, self.target, self.inverse, self.attention)
        for source, relation, target, inverse, attention in zip(*(c.tolist() for c in columns)):
            yield TraversedEdge(source, relation, target, DIRECTIONS[inverse], attention)


@dataclass
class DiffusionStep:
    """One step's kept nodes and weights v. Edges may be given as a sequence
    of TraversedEdge; they are stored as TraversedEdges."""

    nodes: list[int] = field(default_factory=list)
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    edges: TraversedEdges = ()

    def __post_init__(self) -> None:
        if not isinstance(self.edges, TraversedEdges):
            self.edges = TraversedEdges.of(self.edges)

    @property
    def empty(self) -> bool:
        return not self.nodes


@dataclass
class StepTrace:
    """Full forward activations of one diffusion step, kept for training."""

    src_entities: np.ndarray
    dst_entities: np.ndarray
    source_pos: np.ndarray
    cache: _AttentionCache
    candidates: np.ndarray        # ascending candidate ids
    cand_pos_of_edge: np.ndarray  # edge index -> position in candidates
    raw: np.ndarray               # raw scores aligned with candidates
    selected_local: np.ndarray    # positions (into candidates) of kept nodes
    v: np.ndarray                 # step weights aligned with selected_local


@dataclass
class SubgraphState:
    """Result of one user's diffusion: per-step kept nodes, their weights,
    and the frontier edges that led to them."""

    user: int
    steps: list[DiffusionStep]
    visited: frozenset[int]
    trace: list[StepTrace | None] | None = None
    # candidate and path index that scoring builds on first use and reuses
    memo: object = field(default=None, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return 1 + sum(len(s.nodes) for s in self.steps)

    def populated_steps(self) -> list[int]:
        return [i for i, s in enumerate(self.steps) if not s.empty]


def diffuse(
    graph: KnowledgeGraph,
    embeddings: EmbeddingTable,
    params: AttentionParams,
    user: int,
    config: DiffusionConfig | None = None,
    *,
    keep_trace: bool = False,
) -> SubgraphState:
    """Run the full multi-step expansion for one user.

    Pure function of its inputs; an empty frontier halts early and the
    remaining steps stay empty.
    """
    if config is None:
        config = DiffusionConfig()
    if graph.entity_kind(user) is not EntityKind.USER:
        raise ValueError(f"diffusion must start at a user entity, got {graph.entity_kind(user).value}")
    if params.dim != embeddings.dim:
        raise ValueError("attention parameters and embeddings disagree on dimensionality")
    adjacency = graph.adjacency()
    entities = embeddings.entities
    user_vec = entities[user]
    visited = np.zeros(graph.n_entities, dtype=bool)
    visited[user] = True
    centrals = np.array([user], dtype=np.intp)
    central_scores = np.array([1.0])
    steps: list[DiffusionStep] = []
    traces: list[StepTrace | None] = []
    for _ in range(config.steps):
        source_pos, entry = _frontier(adjacency, centrals, visited)
        if not len(entry):
            break
        src = centrals[source_pos]
        dst = adjacency.neighbor[entry]
        cache = _attention_forward(params, user_vec, src, dst, entities, config.leaky_slope)
        candidates, cand_pos, raw = _node_scores(dst, central_scores[source_pos] * cache.alpha)
        selected_local = _top_n(candidates, raw, config.top_n)
        v = stable_softmax(raw[selected_local])
        selected = candidates[selected_local]
        kept = np.zeros(len(candidates), dtype=bool)
        kept[selected_local] = True
        kept = kept[cand_pos]
        traversed = TraversedEdges(
            src[kept], adjacency.relation[entry[kept]], dst[kept], adjacency.inverse[entry[kept]], cache.alpha[kept]
        )
        steps.append(DiffusionStep(selected.tolist(), v, traversed))
        if keep_trace:
            traces.append(StepTrace(src, dst, source_pos, cache, candidates, cand_pos, raw, selected_local, v))
        visited[selected] = True
        centrals = selected
        central_scores = v
    while len(steps) < config.steps:
        steps.append(DiffusionStep())
        if keep_trace:
            traces.append(None)
    visited_ids = frozenset(np.flatnonzero(visited).tolist())
    return SubgraphState(user, steps, visited_ids, traces if keep_trace else None)
