"""Attention-guided frontier expansion that grows a per-user subgraph.

Starting from the user node (score 1.0), each step scores every edge from
the current central nodes to their unvisited neighbors with a small
two-layer attention network, softmax-normalizes the edge scores, aggregates
them into raw candidate-node scores, keeps the top-N candidates, and
softmax-normalizes the kept raw scores into the step weights v. The kept
nodes become the next step's centrals carrying v as their scores. A node
joins the subgraph at most once.

diffuse_batch expands a chunk of users at once: the frontier edges,
candidates and kept nodes of all of them share one array per step, grouped
by segment (the user's position in the chunk), with segment softmaxes and a
per-segment top-N. diffuse is a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EntityNotFoundError
from .graph import DIRECTIONS, KIND_CODE, Direction, EntityKind, KnowledgeGraph
from .numerics import glorot_uniform, leaky_relu, segment_softmax, sigmoid, stable_softmax
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
    source_pos, entry = adjacency.gather(np.array(centrals, dtype=np.intp))
    keep = ~mask[adjacency.neighbor[entry]]
    source_pos, entry = source_pos[keep], entry[keep]
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
    z1: np.ndarray         # (k, hidden) pre-activation
    z2: np.ndarray         # (k, dim)
    alpha_bar: np.ndarray  # (k,) sigmoid pre-normalization scores
    alpha: np.ndarray      # (k,) softmax over each segment's frontier edges


def _attention_forward(
    params: AttentionParams,
    user_vecs: np.ndarray,
    edge_seg: np.ndarray,
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
    entities: np.ndarray,
    slope: float,
) -> _AttentionCache:
    """Attention over the frontier edges of many users at once: edge i runs
    from src_ids[i] to dst_ids[i] for the user user_vecs[edge_seg[i]], and
    the edges of a segment are contiguous. w1 acts on the concatenated
    (user, source) pair, so its user half runs once per user."""
    dim = params.dim
    z1 = (user_vecs @ params.w1[:, :dim].T)[edge_seg] + entities[src_ids] @ params.w1[:, dim:].T
    z2 = leaky_relu(z1, slope) @ params.w2.T
    alpha_bar = sigmoid(np.einsum("kd,kd->k", z2, entities[dst_ids]))
    return _AttentionCache(z1, z2, alpha_bar, segment_softmax(alpha_bar, edge_seg))


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
    seg = np.zeros(len(src), dtype=np.intp)
    cache = _attention_forward(params, user_vec[None, :], seg, src, dst, embeddings.entities, slope)
    return {edge: float(a) for edge, a in zip(frontier.edges, cache.alpha)}


def _node_scores(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate keys (ascending), each edge's position among them, and the
    raw candidate scores: edge weights summed per key in edge order."""
    candidates, cand_pos = np.unique(keys, return_inverse=True)
    return candidates, cand_pos, np.bincount(cand_pos, weights=weights, minlength=len(candidates))


def _top_n(seg: np.ndarray, ids: np.ndarray, raw: np.ndarray, top_n: int) -> np.ndarray:
    """Positions of each segment's top_n largest raw scores, ties broken by
    ascending id; by segment, each segment's best first."""
    order = np.lexsort((ids, -raw, seg))
    ranked_seg = seg[order]
    rank = np.arange(len(order)) - np.searchsorted(ranked_seg, ranked_seg)
    return order[rank < top_n]


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
    kept = _top_n(np.zeros(len(ids), dtype=np.intp), ids, raw, top_n)
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
    TraversedEdge records, slicing yields another TraversedEdges."""

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

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.source, self.relation, self.target, self.inverse, self.attention)

    def __len__(self) -> int:
        return len(self.target)

    def __getitem__(self, index: slice) -> "TraversedEdges":
        return TraversedEdges(*(column[index] for column in self._columns()))

    def __iter__(self) -> Iterator[TraversedEdge]:
        for source, relation, target, inverse, attention in zip(*(c.tolist() for c in self._columns())):
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
class SubgraphState:
    """Result of one user's diffusion: per-step kept nodes, their weights,
    and the frontier edges that led to them."""

    user: int
    steps: list[DiffusionStep]
    visited: frozenset[int]
    # candidate and path index that scoring builds on first use and reuses
    memo: object = field(default=None, repr=False, compare=False)
    # the chunk the subgraph was diffused in, and its segment there; scoring
    # reads the chunk's arrays instead of rebuilding them
    batch: "SubgraphBatch | None" = field(default=None, repr=False, compare=False)
    segment: int = field(default=0, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return 1 + sum(len(s.nodes) for s in self.steps)

    def populated_steps(self) -> list[int]:
        return [i for i, s in enumerate(self.steps) if not s.empty]


@dataclass
class BatchStep:
    """One diffusion step of a chunk of users. Each array is grouped by
    segment, the position of the user in the chunk."""

    seg: np.ndarray       # segment of every kept node, ascending
    nodes: np.ndarray     # kept nodes, each segment's best first
    weights: np.ndarray   # step weights v of the kept nodes
    edge_seg: np.ndarray  # segment of every traversed edge, ascending
    edges: TraversedEdges


@dataclass
class StepTrace:
    """Forward activations of one diffusion step over a chunk, kept for
    training. Frontier edges are grouped by segment."""

    edge_seg: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    source_pos: np.ndarray  # edge -> position of its source among the step's centrals
    cache: _AttentionCache
    cand_pos: np.ndarray    # edge -> position of its (segment, target) candidate
    n_candidates: int
    selected: np.ndarray    # candidate positions of the kept nodes, in BatchStep order


@dataclass
class SubgraphBatch:
    """The diffusion of a chunk of users as segmented arrays."""

    users: np.ndarray
    steps: list[BatchStep]
    visited: np.ndarray  # (users, entities) bool
    trace: list[StepTrace] | None = None
    # candidate index that scoring builds on first use, shared by the states
    memo: object = field(default=None, repr=False, compare=False)

    def state(self, segment: int) -> SubgraphState:
        """The subgraph of one user of the chunk; it keeps a reference to
        the chunk."""
        steps = []
        for step in self.steps:
            lo, hi = np.searchsorted(step.seg, (segment, segment + 1)).tolist()
            edge_lo, edge_hi = np.searchsorted(step.edge_seg, (segment, segment + 1)).tolist()
            steps.append(DiffusionStep(step.nodes[lo:hi].tolist(), step.weights[lo:hi], step.edges[edge_lo:edge_hi]))
        visited = frozenset(np.flatnonzero(self.visited[segment]).tolist())
        return SubgraphState(int(self.users[segment]), steps, visited, batch=self, segment=segment)

    def states(self) -> list[SubgraphState]:
        return [self.state(segment) for segment in range(len(self.users))]

    @classmethod
    def of(cls, state: SubgraphState, n_entities: int) -> "SubgraphBatch":
        """A subgraph built by hand, not by diffusion, as a batch of one."""
        steps = []
        for step in state.steps:
            nodes = np.array(step.nodes, dtype=np.intp)
            edge_seg = np.zeros(len(step.edges), dtype=np.intp)
            weights = np.asarray(step.weights, dtype=np.float64)
            steps.append(BatchStep(np.zeros(len(nodes), dtype=np.intp), nodes, weights, edge_seg, step.edges))
        visited = np.zeros((1, n_entities), dtype=bool)
        visited[0, list(state.visited)] = True
        return cls(np.array([state.user], dtype=np.intp), steps, visited)


# Users per segmented pass. Larger chunks spread numpy's per-call cost over
# more users but hold more per-edge activations at once. On the 200-user
# benchmark graph at N=30 and dim 32, a chunk's second step has about 90
# frontier edges per user. There, 6 users raised the peak RSS of a benchmark
# run by about 2% over running users one at a time and 8 by 4-5%, while 5
# and 4 trained 7-11% slower than 6.
CHUNK_USERS = 6


def user_chunks(users: Sequence) -> Iterator[Sequence]:
    """Consecutive chunks of at most CHUNK_USERS users."""
    for start in range(0, len(users), CHUNK_USERS):
        yield users[start : start + CHUNK_USERS]


def diffuse_batch(
    graph: KnowledgeGraph,
    embeddings: EmbeddingTable,
    params: AttentionParams,
    users: Sequence[int],
    config: DiffusionConfig | None = None,
    *,
    keep_trace: bool = False,
) -> SubgraphBatch:
    """Run the full multi-step expansion for every user of a chunk at once.

    Each user's subgraph is what a diffusion of that user alone yields; the
    frontier edges, candidates and kept nodes of all users share one array
    per step, keyed by segment. A user whose frontier empties keeps empty
    steps from then on.
    """
    if config is None:
        config = DiffusionConfig()
    if params.dim != embeddings.dim:
        raise ValueError("attention parameters and embeddings disagree on dimensionality")
    adjacency = graph.adjacency()
    n = len(adjacency.kind)
    users = np.asarray(users, dtype=np.intp).reshape(-1)
    if len(users) and (users.min() < 0 or users.max() >= n):
        raise EntityNotFoundError(f"unknown entity id among {users.tolist()}")
    not_user = adjacency.kind[users] != KIND_CODE[EntityKind.USER]
    if not_user.any():
        kind = graph.entity_kind(int(users[not_user][0]))
        raise ValueError(f"diffusion must start at a user entity, got {kind.value}")
    entities = embeddings.entities
    user_vecs = entities[users]
    segments = np.arange(len(users))
    visited = np.zeros((len(users), n), dtype=bool)
    visited[segments, users] = True
    flat_visited = visited.reshape(-1)
    seg, centrals, central_scores = segments, users, np.ones(len(users))
    steps: list[BatchStep] = []
    traces: list[StepTrace] = []
    for _ in range(config.steps):
        source_pos, entry = adjacency.gather(centrals)
        edge_seg = seg[source_pos]
        keys = edge_seg * n + adjacency.neighbor[entry]
        keep = ~flat_visited[keys]
        source_pos, entry, edge_seg, keys = source_pos[keep], entry[keep], edge_seg[keep], keys[keep]
        src = centrals[source_pos]
        dst = adjacency.neighbor[entry]
        cache = _attention_forward(params, user_vecs, edge_seg, src, dst, entities, config.leaky_slope)
        candidates, cand_pos, raw = _node_scores(keys, central_scores[source_pos] * cache.alpha)
        cand_seg = candidates // n
        selected = _top_n(cand_seg, candidates, raw, config.top_n)
        seg = cand_seg[selected]
        v = segment_softmax(raw[selected], seg)
        centrals = candidates[selected] - seg * n
        kept = np.zeros(len(candidates), dtype=bool)
        kept[selected] = True
        kept = kept[cand_pos]
        traversed = TraversedEdges(
            src[kept], adjacency.relation[entry[kept]], dst[kept], adjacency.inverse[entry[kept]], cache.alpha[kept]
        )
        steps.append(BatchStep(seg, centrals, v, edge_seg[kept], traversed))
        if keep_trace:
            traces.append(StepTrace(edge_seg, src, dst, source_pos, cache, cand_pos, len(candidates), selected))
        flat_visited[candidates[selected]] = True
        central_scores = v
    return SubgraphBatch(users, steps, visited, traces if keep_trace else None)


def diffuse(
    graph: KnowledgeGraph,
    embeddings: EmbeddingTable,
    params: AttentionParams,
    user: int,
    config: DiffusionConfig | None = None,
) -> SubgraphState:
    """Run the full multi-step expansion for one user: a batch of one.

    Pure function of its inputs; an empty frontier halts early and the
    remaining steps stay empty.
    """
    return diffuse_batch(graph, embeddings, params, [user], config).state(0)
