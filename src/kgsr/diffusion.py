"""Attention-guided frontier expansion that grows a per-user subgraph.

Starting from the user node (score 1.0), each step scores every edge from
the current central nodes to their unvisited neighbors with a small
two-layer attention network, softmax-normalizes the edge scores, aggregates
them into raw candidate-node scores, keeps the top-N candidates, and
softmax-normalizes the kept raw scores into the step weights v. The kept
nodes become the next step's centrals carrying v as their scores. A node
joins the subgraph at most once. The attention MLP reads only the (user,
source) pair, so it runs once per central; each edge adds one dot product
of its source's MLP output with its target's embedding.

diffuse expands a chunk of users at once: the frontier edges, candidates
and kept nodes of all of them share one array per step, grouped by segment
(the user's position in the chunk), with segment softmaxes and a
per-segment top-N. One user's subgraph is a segment of those arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import EntityNotFoundError
from .graph import KIND_CODE, EntityKind, KnowledgeGraph
from .numerics import glorot_uniform, leaky_relu, segment_softmax, sigmoid, weight_pair
from .transe import EmbeddingTable


@dataclass
class AttentionParams:
    """Edge-attention weights: w1 maps the concatenated (user, source) pair
    down to a hidden vector, w2 maps that back to embedding space."""

    w1: np.ndarray  # (hidden, 2 * dim)
    w2: np.ndarray  # (dim, hidden)

    def __post_init__(self) -> None:
        self.w1, self.w2 = weight_pair(self.w1, self.w2, 2, "attention")

    @property
    def dim(self) -> int:
        return self.w2.shape[0]

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator) -> "AttentionParams":
        """Glorot-uniform weights with hidden width dim."""
        return cls(glorot_uniform(rng, dim, 2 * dim), glorot_uniform(rng, dim, dim))


@dataclass
class DiffusionConfig:
    steps: int = 2
    top_n: int = 100

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass
class _AttentionCache:
    z1: np.ndarray         # (centrals, hidden) pre-activation
    z2: np.ndarray         # (centrals, dim)
    alpha_bar: np.ndarray  # (edges,) sigmoid pre-normalization scores
    alpha: np.ndarray      # (edges,) softmax over each segment's frontier edges


def _attention_forward(
    params: AttentionParams,
    user_vecs: np.ndarray,
    seg: np.ndarray,
    centrals: np.ndarray,
    source_pos: np.ndarray,
    dst_ids: np.ndarray,
    entities: np.ndarray,
) -> _AttentionCache:
    """Attention over the frontier edges of many users at once. Central j
    is the entity centrals[j] of the user user_vecs[seg[j]]; edge i runs
    from centrals[source_pos[i]] to dst_ids[i], and the edges of a segment
    are contiguous. The MLP runs once per central, the user half of w1
    once per user; only the dot with the target runs per edge."""
    dim = params.dim
    z1 = (user_vecs @ params.w1[:, :dim].T)[seg] + entities[centrals] @ params.w1[:, dim:].T
    z2 = leaky_relu(z1) @ params.w2.T
    alpha_bar = sigmoid(np.einsum("kd,kd->k", z2[source_pos], entities[dst_ids]))
    return _AttentionCache(z1, z2, alpha_bar, segment_softmax(alpha_bar, seg[source_pos]))


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


@dataclass(frozen=True)
class TraversedEdges:
    """A step's traversed edges as parallel arrays."""

    source: np.ndarray
    relation: np.ndarray
    target: np.ndarray
    inverse: np.ndarray  # bool: the edge runs against its triple
    attention: np.ndarray

    def __len__(self) -> int:
        return len(self.target)


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
    training. Frontier edges are grouped by segment. The step's centrals are
    the users at the first step and the previous step's nodes after it."""

    edge_seg: np.ndarray
    dst: np.ndarray
    source_pos: np.ndarray   # edge -> position of its source among the centrals, ascending
    cache: _AttentionCache
    cand_pos: np.ndarray     # edge -> position of its (segment, target) candidate
    n_candidates: int
    selected: np.ndarray     # candidate positions of the kept nodes, in BatchStep order


@dataclass
class SubgraphBatch:
    """The diffusion of a chunk of users as segmented arrays; segment b is
    the subgraph of users[b]. An entity id past the end of a visited row was
    added after the diffusion and was not visited."""

    users: np.ndarray
    steps: list[BatchStep]
    visited: np.ndarray  # (users, entities) bool
    trace: list[StepTrace] | None = None

    @property
    def node_count(self) -> int:
        """The users plus every node kept for them."""
        return len(self.users) + sum(len(step.nodes) for step in self.steps)


# Users per segmented pass. Larger chunks spread numpy's per-call cost over
# more users but hold more per-edge arrays at once; a chunk's largest arrays
# are (frontier edges x dim) blocks of its last step. On the 200-user
# benchmark graph a user has 5 frontier edges from 1 central at the first
# step and 100 from 5 centrals at the second. Two train epochs with 6, 16 and
# 24 users a chunk (tracemalloc peak of one backward; peak RSS, one BLAS thread):
#   dim 32, N=30:   0.62, 1.23, 1.73 MB; 43.0, 44.2, 45.0 MB
#   dim 100, N=100: 1.62, 3.36, 4.74 MB; 48.9, 50.8, 52.5 MB
# Against 6, chunks of 24 raised the benchmark's peak RSS by 2.7-3.4%, 16 by 0.9-1.7%.
CHUNK_USERS = 16


def user_chunks(users: Sequence) -> Iterator[Sequence]:
    """Consecutive chunks of at most CHUNK_USERS users."""
    for start in range(0, len(users), CHUNK_USERS):
        yield users[start : start + CHUNK_USERS]


def diffuse(
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
        cache = _attention_forward(params, user_vecs, seg, centrals, source_pos, dst, entities)
        candidates, cand_pos, raw = _node_scores(keys, central_scores[source_pos] * cache.alpha)
        cand_seg = candidates // n
        selected = _top_n(cand_seg, candidates, raw, config.top_n)
        if keep_trace:
            traces.append(StepTrace(edge_seg, dst, source_pos, cache, cand_pos, len(candidates), selected))
        kept = np.zeros(len(candidates), dtype=bool)
        kept[selected] = True
        kept = kept[cand_pos]
        traversed = TraversedEdges(
            src[kept], adjacency.relation[entry[kept]], dst[kept], adjacency.inverse[entry[kept]], cache.alpha[kept]
        )
        seg = cand_seg[selected]
        v = segment_softmax(raw[selected], seg)
        centrals = candidates[selected] - seg * n
        steps.append(BatchStep(seg, centrals, v, edge_seg[kept], traversed))
        flat_visited[candidates[selected]] = True
        central_scores = v
    return SubgraphBatch(users, steps, visited, traces if keep_trace else None)
