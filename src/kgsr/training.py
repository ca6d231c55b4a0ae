"""Joint optimization of attention, encoder and embedding parameters.

Gradients are exact reverse-mode accumulations through the continuous parts
of the per-user computation (edge attention, both softmaxes, the step
weights, the subgraph encoder and the similarity), with the discrete top-N
selection held fixed. Only entity rows touched by a batch receive
embedding gradients; relation vectors are used by pretraining alone and
are not trained here.
"""
from __future__ import annotations

import hashlib
import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .diffusion import AttentionParams, DiffusionConfig, SubgraphState, diffuse
from .errors import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointVersionError,
    NumericError,
    UnscorableUserError,
)
from .graph import InteractionSet, KnowledgeGraph
from .numerics import leaky_relu_grad, scatter_add_rows
from .scoring import SCORE_FLOOR, EncoderParams, ScoreTrace, score_candidates, user_loss
from .transe import EmbeddingTable

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"KGSR"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    batch_size: int = 256
    epochs: int = 10
    dim: int = 100
    top_n: int = 100
    steps: int = 2
    seed: int = 0
    learning_rate: float = 0.001
    contrastive: bool = False
    attention_hidden: int | None = None  # defaults to dim
    encoder_hidden: int | None = None    # defaults to dim
    leaky_slope: float = 0.01

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        for name in ("attention_hidden", "encoder_hidden"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        DiffusionConfig(self.steps, self.top_n, self.leaky_slope)

    def diffusion(self) -> DiffusionConfig:
        return DiffusionConfig(self.steps, self.top_n, self.leaky_slope)


@dataclass
class ModelParams:
    attention: AttentionParams
    encoder: EncoderParams
    embeddings: EmbeddingTable

    def __post_init__(self) -> None:
        if not (self.attention.dim == self.encoder.dim == self.embeddings.dim):
            raise ValueError("attention, encoder and embeddings disagree on dimensionality")

    @property
    def dim(self) -> int:
        return self.embeddings.dim

    def families(self) -> dict[str, np.ndarray]:
        return {
            "w1": self.attention.w1,
            "w2": self.attention.w2,
            "w3": self.encoder.w3,
            "w4": self.encoder.w4,
            "entities": self.embeddings.entities,
        }


@dataclass
class Gradients:
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray
    entities: np.ndarray

    @classmethod
    def zeros_like(cls, model: ModelParams) -> "Gradients":
        return cls(**{name: np.zeros_like(arr) for name, arr in model.families().items()})

    def families(self) -> dict[str, np.ndarray]:
        return {
            "w1": self.w1,
            "w2": self.w2,
            "w3": self.w3,
            "w4": self.w4,
            "entities": self.entities,
        }

    def scale(self, factor: float) -> None:
        for arr in self.families().values():
            arr *= factor


@dataclass
class BatchResult:
    loss: float
    grads: Gradients
    users_used: int
    users_skipped: int
    positives_skipped: int


def _backward_user(
    model: ModelParams,
    state: SubgraphState,
    strace: ScoreTrace,
    score_grads: np.ndarray,
    grads: Gradients,
    slope: float,
) -> None:
    """Accumulate one user's parameter gradients given dL/dScore per candidate."""
    entities = model.embeddings.entities
    dim = model.dim

    sims = strace.sims
    weights = strace.weights
    g_sim = score_grads * weights
    g_weight = score_grads * sims

    # similarity and encoder
    g_dot = g_sim * sims * (1.0 - sims)
    items = strace.items
    g_user_repr = entities[items].T @ g_dot if len(items) else np.zeros(dim)
    grads.entities[items] += g_dot[:, None] * strace.user_repr  # candidates are distinct
    g_a3 = model.encoder.w4.T @ g_user_repr
    grads.w4 += np.outer(g_user_repr, strace.a3)
    g_z3 = g_a3 * leaky_relu_grad(strace.z3, slope)
    grads.w3 += np.outer(g_z3, strace.x)
    g_x = model.encoder.w3.T @ g_z3
    g_user = g_x[:dim].copy()
    for hop, segment in ((0, g_x[dim : 2 * dim]), (1, g_x[2 * dim :])):
        if hop < len(state.steps):
            grads.entities[state.steps[hop].nodes] += segment  # a step's nodes are distinct

    # bridge weights feed the per-step v vectors, accumulated in score order
    traces = state.trace or []
    sizes = [len(step.nodes) for step in state.steps]
    g_v_slots = np.bincount(strace.bridge_slot, weights=g_weight[strace.bridge_rank], minlength=sum(sizes))
    g_v = np.split(g_v_slots, np.cumsum(sizes)[:-1])

    # walk the diffusion steps backwards
    for step_index in range(len(traces) - 1, -1, -1):
        trace = traces[step_index]
        if trace is None:
            continue
        v = trace.v
        gv = g_v[step_index]
        g_raw_sel = v * (gv - float(v @ gv))
        g_raw = np.zeros(len(trace.candidates))
        g_raw[trace.selected_local] = g_raw_sel

        central_scores = traces[step_index - 1].v if step_index > 0 else np.array([1.0])
        cache = trace.cache
        g_raw_per_edge = g_raw[trace.cand_pos_of_edge]
        g_alpha = g_raw_per_edge * central_scores[trace.source_pos]
        if step_index > 0:
            np.add.at(g_v[step_index - 1], trace.source_pos, g_raw_per_edge * cache.alpha)

        alpha = cache.alpha
        g_alpha_bar = alpha * (g_alpha - float(alpha @ g_alpha))
        g_t = g_alpha_bar * cache.alpha_bar * (1.0 - cache.alpha_bar)
        dst_emb = entities[trace.dst_entities]
        g_z2 = g_t[:, None] * dst_emb
        scatter_add_rows(grads.entities, trace.dst_entities, g_t[:, None] * cache.z2)
        grads.w2 += g_z2.T @ cache.a1
        g_a1 = g_z2 @ model.attention.w2
        g_z1 = g_a1 * leaky_relu_grad(cache.z1, slope)
        grads.w1 += g_z1.T @ cache.x
        g_x_edges = g_z1 @ model.attention.w1
        g_user += g_x_edges[:, :dim].sum(axis=0)
        scatter_add_rows(grads.entities, trace.src_entities, g_x_edges[:, dim:])

    grads.entities[state.user] += g_user


def forward_backward(
    users,
    model: ModelParams,
    graph: KnowledgeGraph,
    interactions: InteractionSet,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> BatchResult:
    """Mean loss and exact gradients over a batch of users.

    Users whose diffusion scores none of their positives are skipped and
    counted; their gradients contribute nothing.
    """
    diff_cfg = config.diffusion()
    grads = Gradients.zeros_like(model)
    total_loss = 0.0
    used = 0
    skipped = 0
    positives_skipped = 0
    for user in users:
        positives = set(interactions.items_for(user))
        if not positives:
            skipped += 1
            continue
        state = diffuse(graph, model.embeddings, model.attention, user, diff_cfg, keep_trace=True)
        scores, strace = score_candidates(
            state, graph, model.embeddings, model.encoder, config.leaky_slope, keep_trace=True
        )
        try:
            loss, pos_skipped = user_loss(scores, positives)
        except UnscorableUserError:
            skipped += 1
            continue
        positives_skipped += pos_skipped
        n_pos = len(positives) - pos_skipped
        hit = scores.isin(positives)
        graded = hit & (scores.scores > SCORE_FLOOR)
        score_grads = np.zeros(len(scores))
        score_grads[graded] = -1.0 / (n_pos * scores.scores[graded])
        if config.contrastive:
            negative_idx = np.flatnonzero(~hit)
            n_neg = min(n_pos, len(negative_idx))
            if n_neg and rng is not None:
                chosen = rng.choice(len(negative_idx), size=n_neg, replace=False)
                for i in negative_idx[np.sort(chosen)].tolist():
                    score = float(scores.scores[i])
                    complement = max(1.0 - score, SCORE_FLOOR)
                    loss += -math.log(complement) / n_neg
                    if 1.0 - score > SCORE_FLOOR:
                        score_grads[i] += 1.0 / (n_neg * (1.0 - score))
        _backward_user(model, state, strace, score_grads, grads, config.leaky_slope)
        total_loss += loss
        used += 1
    if used:
        total_loss /= used
        grads.scale(1.0 / used)
    return BatchResult(total_loss, grads, used, skipped, positives_skipped)


@dataclass
class AdamState:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: ModelParams, learning_rate: float) -> "AdamState":
        state = cls(learning_rate)
        for name, arr in model.families().items():
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        return state


def adam_step(model: ModelParams, grads: Gradients, state: AdamState) -> None:
    """Bias-corrected Adam update applied in place.

    A non-finite gradient aborts the step before any parameter moves.
    """
    grad_map = grads.families()
    for name, grad in grad_map.items():
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite gradient for {name}")
    state.step += 1
    bias1 = 1.0 - state.beta1**state.step
    bias2 = 1.0 - state.beta2**state.step
    for name, param in model.families().items():
        grad = grad_map[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(grad)
        param -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
    if __debug__:
        for name, param in model.families().items():
            assert np.isfinite(param).all(), f"non-finite parameter {name} after update"


@dataclass
class Checkpoint:
    """Trained parameters plus the name tables needed to rebind them.

    Arrays are float32, matching the wire format exactly, so a checkpoint
    round-trips through save/load bit for bit.
    """

    dim: int
    attention_hidden: int
    encoder_hidden: int
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray
    entities: np.ndarray
    relations: np.ndarray
    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    version: int = CHECKPOINT_VERSION

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return (
            self.version == other.version
            and (self.dim, self.attention_hidden, self.encoder_hidden)
            == (other.dim, other.attention_hidden, other.encoder_hidden)
            and all(
                np.array_equal(getattr(self, n), getattr(other, n))
                for n in ("w1", "w2", "w3", "w4", "entities", "relations")
            )
            and self.entity_names == other.entity_names
            and self.relation_names == other.relation_names
        )

    def to_model(self) -> ModelParams:
        return ModelParams(
            AttentionParams(self.w1.astype(np.float64), self.w2.astype(np.float64)),
            EncoderParams(self.w3.astype(np.float64), self.w4.astype(np.float64)),
            EmbeddingTable(self.entities.astype(np.float64), self.relations.astype(np.float64)),
        )

    def embedding_table(self) -> EmbeddingTable:
        return EmbeddingTable(self.entities.astype(np.float64), self.relations.astype(np.float64))


def make_checkpoint(model: ModelParams, graph: KnowledgeGraph) -> Checkpoint:
    if model.embeddings.n_entities != graph.n_entities:
        raise ValueError("embedding table and graph disagree on entity count")
    if model.embeddings.n_relations != graph.n_relations:
        raise ValueError("embedding table and graph disagree on relation count")
    return Checkpoint(
        dim=model.dim,
        attention_hidden=model.attention.hidden,
        encoder_hidden=model.encoder.hidden,
        w1=model.attention.w1.astype(np.float32),
        w2=model.attention.w2.astype(np.float32),
        w3=model.encoder.w3.astype(np.float32),
        w4=model.encoder.w4.astype(np.float32),
        entities=model.embeddings.entities.astype(np.float32),
        relations=model.embeddings.relations.astype(np.float32),
        entity_names=graph.entity_names(),
        relation_names=graph.relation_names(),
    )


def initialize_model(
    embeddings: EmbeddingTable, config: TrainConfig, rng: np.random.Generator
) -> ModelParams:
    """Seeded uniform init of the four trainable matrices around a copy of
    the pretrained table."""
    attention = AttentionParams.init(config.dim, config.attention_hidden, rng)
    encoder = EncoderParams.init(config.dim, config.encoder_hidden, rng)
    return ModelParams(attention, encoder, embeddings.copy())


def train(
    graph: KnowledgeGraph,
    embeddings: EmbeddingTable,
    interactions: InteractionSet,
    config: TrainConfig,
    epoch_losses: list[float] | None = None,
) -> Checkpoint:
    """Epoch loop over seeded user batches; a pure function of its inputs.

    When a list is passed as epoch_losses, the per-epoch mean loss is
    appended to it.
    """
    config.validate()
    if embeddings.dim != config.dim:
        raise ValueError(
            f"pretrained table dimensionality {embeddings.dim} != configured {config.dim}"
        )
    users = interactions.users()
    if not users:
        raise ValueError("no users to train on")
    rng = np.random.default_rng(config.seed)
    model = initialize_model(embeddings, config, rng)
    adam = AdamState.for_model(model, config.learning_rate)
    for epoch in range(config.epochs):
        order = rng.permutation(len(users))
        epoch_loss = 0.0
        epoch_used = 0
        epoch_skipped = 0
        for start in range(0, len(users), config.batch_size):
            batch = [users[int(i)] for i in order[start : start + config.batch_size]]
            result = forward_backward(batch, model, graph, interactions, config, rng=rng)
            if result.users_used:
                adam_step(model, result.grads, adam)
                epoch_loss += result.loss * result.users_used
                epoch_used += result.users_used
            epoch_skipped += result.users_skipped
        mean_loss = epoch_loss / epoch_used if epoch_used else float("nan")
        if epoch_losses is not None:
            epoch_losses.append(mean_loss)
        logger.info(
            "epoch %d/%d mean loss %.6f (%d users, %d skipped)",
            epoch + 1,
            config.epochs,
            mean_loss,
            epoch_used,
            epoch_skipped,
        )
    return make_checkpoint(model, graph)


# -- checkpoint wire format -------------------------------------------------
#
# magic "KGSR" | u32 version | u32 d, d1, d2, |E|, |R| | row-major float32
# blocks for w1 (d1 x 2d), w2 (d x d1), w3 (d2 x 3d), w4 (d x d2), entities
# (|E| x d), relations (|R| x d) | length-prefixed UTF-8 entity names then
# relation names | 8-byte blake2b checksum of all prior bytes.


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", checkpoint.version)]
    parts.append(
        struct.pack(
            "<IIIII",
            checkpoint.dim,
            checkpoint.attention_hidden,
            checkpoint.encoder_hidden,
            len(checkpoint.entity_names),
            len(checkpoint.relation_names),
        )
    )
    for name in ("w1", "w2", "w3", "w4", "entities", "relations"):
        arr = getattr(checkpoint, name)
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    for table in (checkpoint.entity_names, checkpoint.relation_names):
        for name in table:
            encoded = name.encode("utf-8")
            parts.append(struct.pack("<I", len(encoded)))
            parts.append(encoded)
    payload = b"".join(parts)
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.write(_checksum(payload))


class _Cursor:
    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise CheckpointCorruptError("checkpoint file is truncated")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 4:
        raise CheckpointCorruptError("checkpoint file is truncated")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    if len(blob) < 8:
        raise CheckpointCorruptError("checkpoint file is truncated")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    if len(blob) < 16:
        raise CheckpointCorruptError("checkpoint file is truncated")
    payload, tail = blob[:-8], blob[-8:]
    if _checksum(payload) != tail:
        raise CheckpointCorruptError("checkpoint checksum mismatch")
    cursor = _Cursor(payload, 8)
    dim, d1, d2, n_entities, n_relations = struct.unpack("<IIIII", cursor.take(20))

    def read_matrix(rows: int, cols: int) -> np.ndarray:
        data = cursor.take(rows * cols * 4)
        return np.frombuffer(data, dtype="<f4").reshape(rows, cols).astype(np.float32)

    w1 = read_matrix(d1, 2 * dim)
    w2 = read_matrix(dim, d1)
    w3 = read_matrix(d2, 3 * dim)
    w4 = read_matrix(dim, d2)
    entities = read_matrix(n_entities, dim)
    relations = read_matrix(n_relations, dim)

    def read_names(count: int) -> tuple[str, ...]:
        names = []
        for _ in range(count):
            (length,) = struct.unpack("<I", cursor.take(4))
            names.append(cursor.take(length).decode("utf-8"))
        return tuple(names)

    entity_names = read_names(n_entities)
    relation_names = read_names(n_relations)
    if cursor.offset != len(payload):
        raise CheckpointCorruptError("trailing bytes after checkpoint payload")
    return Checkpoint(
        dim=dim,
        attention_hidden=d1,
        encoder_hidden=d2,
        w1=w1,
        w2=w2,
        w3=w3,
        w4=w4,
        entities=entities,
        relations=relations,
        entity_names=entity_names,
        relation_names=relation_names,
        version=version,
    )
