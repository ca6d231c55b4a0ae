"""Joint optimization of attention, encoder and embedding parameters.

Gradients are exact reverse-mode accumulations through the continuous parts
of each user's computation (edge attention, both softmaxes, the step
weights, the subgraph encoder and the similarity), with the discrete top-N
selection held fixed. They run for a chunk of users at once, with per-user
reductions as segment sums. The attention MLP's gradient runs once per
(segment, central) row of a step, as its forward does; only the dot of a
central's output with each frontier target is differentiated per edge.
Only entity rows touched by a batch receive embedding gradients; relation
vectors are used by pretraining alone and are not trained here.
"""
from __future__ import annotations

import hashlib
import logging
import math
import struct
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .diffusion import AttentionParams, DiffusionConfig, SubgraphBatch, diffuse, user_chunks
from .errors import CheckpointCorruptError, CheckpointFormatError, CheckpointVersionError, NumericError
from .graph import InteractionSet, KnowledgeGraph, atomic_open
from .numerics import leaky_relu, leaky_relu_grad, scatter_add_rows, segment_rows
from .scoring import SCORE_FLOOR, BatchScores, EncoderParams, score_candidates, user_loss
from .transe import EmbeddingTable

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"KGSR"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    batch_size: int = 256
    epochs: int = 10
    top_n: int = DiffusionConfig.top_n
    steps: int = DiffusionConfig.steps
    seed: int = 0
    learning_rate: float = 0.001
    contrastive: bool = False

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        self.diffusion()

    def diffusion(self) -> DiffusionConfig:
        return DiffusionConfig(self.steps, self.top_n)


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


def _backward_batch(
    model: ModelParams,
    batch: SubgraphBatch,
    scored: BatchScores,
    score_grads: np.ndarray,
    grads: Gradients,
) -> None:
    """Accumulate a chunk's parameter gradients given dL/dScore per
    candidate, in score order. Per-user reductions are segment sums; each
    kind of entity-row contribution is scattered once. Each step's trace
    leaves the batch as it is used, so its activations can be freed."""
    entities = model.embeddings.entities
    dim = model.dim
    n_users = len(batch.users)
    user_vecs = entities[batch.users]

    sims = scored.similarities
    g_sim = score_grads * scored.bridge_weights
    g_weight = score_grads * sims

    # similarity and encoder
    g_dot = np.zeros((n_users, len(scored.columns)))  # a user scores an item at most once
    g_dot[scored.segments, scored.item_col] = g_sim * sims * (1.0 - sims)
    g_user_repr = g_dot @ entities[scored.columns]
    scatter_add_rows(grads.entities, scored.columns, g_dot.T @ scored.user_repr)
    grads.w4 += g_user_repr.T @ scored.a3
    g_z3 = (g_user_repr @ model.encoder.w4) * leaky_relu_grad(scored.z3)
    grads.w3 += g_z3.T @ scored.x
    g_x = g_z3 @ model.encoder.w3
    g_user = g_x[:, :dim].copy()
    for hop, step in enumerate(batch.steps[:2]):
        scatter_add_rows(grads.entities, step.nodes, g_x[step.seg, (hop + 1) * dim : (hop + 2) * dim])

    # bridge weights feed the per-step v vectors
    g_v_flat = np.bincount(scored.entry_slot, weights=g_weight[scored.entry_row], minlength=len(scored.slot_node))
    g_v = np.split(g_v_flat, np.cumsum([len(step.nodes) for step in batch.steps])[:-1])

    # walk the diffusion steps backwards
    for step_index in range(len(batch.steps) - 1, -1, -1):
        trace = batch.trace.pop()
        step = batch.steps[step_index]
        v, seg, gv = step.weights, step.seg, g_v[step_index]
        g_raw = np.zeros(trace.n_candidates)
        g_raw[trace.selected] = v * (gv - np.bincount(seg, weights=v * gv, minlength=n_users)[seg])

        cache, source_pos = trace.cache, trace.source_pos
        alpha = cache.alpha
        g_raw_per_edge = g_raw[trace.cand_pos]
        if step_index > 0:  # the step's centrals are the previous step's nodes
            previous = batch.steps[step_index - 1]
            centrals, central_seg, central_scores = previous.nodes, previous.seg, previous.weights
            g_v[step_index - 1] += np.bincount(source_pos, weights=g_raw_per_edge * alpha, minlength=len(centrals))
        else:
            centrals, central_seg, central_scores = batch.users, np.arange(n_users), np.ones(n_users)
        g_alpha = g_raw_per_edge * central_scores[source_pos]

        edge_seg = trace.edge_seg
        g_alpha_sum = np.bincount(edge_seg, weights=alpha * g_alpha, minlength=n_users)
        g_alpha_bar = alpha * (g_alpha - g_alpha_sum[edge_seg])
        g_t = g_alpha_bar * cache.alpha_bar * (1.0 - cache.alpha_bar)
        # the MLP's rows are per central and only the dot with each target is
        # per edge; per-edge terms are scaled in place to hold one buffer
        per_edge = entities[trace.dst]
        per_edge *= g_t[:, None]
        g_z2 = segment_rows(per_edge, source_pos, len(centrals))
        per_edge = cache.z2[source_pos]
        per_edge *= g_t[:, None]
        scatter_add_rows(grads.entities, trace.dst, per_edge)
        grads.w2 += g_z2.T @ leaky_relu(cache.z1)
        g_z1 = (g_z2 @ model.attention.w2) * leaky_relu_grad(cache.z1)
        g_z1_user = segment_rows(g_z1, central_seg, n_users)
        grads.w1[:, :dim] += g_z1_user.T @ user_vecs
        grads.w1[:, dim:] += g_z1.T @ entities[centrals]
        g_user += g_z1_user @ model.attention.w1[:, :dim]
        scatter_add_rows(grads.entities, centrals, g_z1 @ model.attention.w1[:, dim:])

    scatter_add_rows(grads.entities, batch.users, g_user)


def _chunk_forward_backward(
    chunk: list[tuple[int, set[int]]],
    model: ModelParams,
    graph: KnowledgeGraph,
    config: TrainConfig,
    rng: np.random.Generator | None,
    grads: Gradients,
) -> tuple[list[float], int, int]:
    """Diffuse, score and differentiate one chunk of (user, positives),
    adding its gradients into grads. Returns the losses of the users used,
    in user order, and the counts of skipped users and skipped positives.
    A user is used when a positive of theirs received a score. The chunk's
    activations are released on return."""
    batch = diffuse(
        graph, model.embeddings, model.attention, [user for user, _ in chunk], config.diffusion(), keep_trace=True
    )
    scored = score_candidates(batch, graph, model.embeddings, model.encoder)
    scores = scored.scores
    hits = scored.isin([positives for _, positives in chunk])
    losses, n_pos = user_loss(scored, hits)
    score_grads = np.zeros(len(scores))
    graded = hits & (scores > SCORE_FLOOR)
    score_grads[graded] = -1.0 / (n_pos[scored.segments[graded]] * scores[graded])
    used = np.flatnonzero(n_pos)
    if config.contrastive and rng is not None:
        for segment in used.tolist():
            start, stop = scored.offsets[segment], scored.offsets[segment + 1]
            negative_idx = start + np.flatnonzero(~hits[start:stop])
            n_neg = min(int(n_pos[segment]), len(negative_idx))
            if n_neg:
                chosen = rng.choice(len(negative_idx), size=n_neg, replace=False)
                for i in negative_idx[np.sort(chosen)].tolist():
                    score = float(scores[i])
                    losses[segment] += -math.log(max(1.0 - score, SCORE_FLOOR)) / n_neg
                    if 1.0 - score > SCORE_FLOOR:
                        score_grads[i] += 1.0 / (n_neg * (1.0 - score))
    if len(used):
        _backward_batch(model, batch, scored, score_grads, grads)
    sizes = np.array([len(positives) for _, positives in chunk])
    return losses[used].tolist(), len(chunk) - len(used), int((sizes - n_pos)[used].sum())


def forward_backward(
    users,
    model: ModelParams,
    graph: KnowledgeGraph,
    interactions: InteractionSet,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> BatchResult:
    """Mean loss and exact gradients over a batch of users.

    Users are diffused, scored and differentiated a chunk at a time; their
    losses, skips and contrastive draws go in user order. Users whose
    diffusion scores none of their positives are skipped and counted;
    their gradients contribute nothing.
    """
    grads = Gradients.zeros_like(model)
    total_loss = 0.0
    used = 0
    skipped = 0
    positives_skipped = 0
    todo = []
    for user in users:
        positives = set(interactions.items_for(user))
        if positives:
            todo.append((user, positives))
        else:
            skipped += 1
    for chunk in user_chunks(todo):
        losses, chunk_skipped, chunk_positives_skipped = _chunk_forward_backward(
            chunk, model, graph, config, rng, grads
        )
        for loss in losses:
            total_loss += loss
        used += len(losses)
        skipped += chunk_skipped
        positives_skipped += chunk_positives_skipped
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


class CheckpointSizes(NamedTuple):
    """The sizes a checkpoint header records."""

    dim: int
    attention_hidden: int
    encoder_hidden: int
    n_entities: int
    n_relations: int


# The checkpoint's arrays: their names, in wire order, and their shapes.
CHECKPOINT_ARRAYS: dict[str, Callable[[CheckpointSizes], tuple[int, int]]] = {
    "w1": lambda s: (s.attention_hidden, 2 * s.dim),
    "w2": lambda s: (s.dim, s.attention_hidden),
    "w3": lambda s: (s.encoder_hidden, 3 * s.dim),
    "w4": lambda s: (s.dim, s.encoder_hidden),
    "entities": lambda s: (s.n_entities, s.dim),
    "relations": lambda s: (s.n_relations, s.dim),
}


@dataclass
class Checkpoint:
    """Trained parameters plus the name tables needed to rebind them.

    Arrays are float32, matching the wire format exactly, so a checkpoint
    round-trips through save/load bit for bit. The sizes are read from the
    arrays and the name tables, which must agree with CHECKPOINT_ARRAYS.
    """

    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray
    entities: np.ndarray
    relations: np.ndarray
    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    version: int = CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        if any(np.ndim(getattr(self, name)) != 2 for name in CHECKPOINT_ARRAYS):
            raise ValueError("checkpoint arrays must be 2-dimensional")
        sizes = self.sizes
        for name, shape in CHECKPOINT_ARRAYS.items():
            got, expected = getattr(self, name).shape, shape(sizes)
            if got != expected:
                raise ValueError(f"checkpoint array {name} has shape {got}, expected {expected}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            if f.name in CHECKPOINT_ARRAYS
            else getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
        )

    @property
    def sizes(self) -> CheckpointSizes:
        return CheckpointSizes(
            self.entities.shape[1], self.w1.shape[0], self.w3.shape[0], len(self.entity_names), len(self.relation_names)
        )

    def to_model(self) -> ModelParams:
        return ModelParams(
            AttentionParams(self.w1, self.w2), EncoderParams(self.w3, self.w4), self.embedding_table()
        )

    def embedding_table(self) -> EmbeddingTable:
        return EmbeddingTable(self.entities, self.relations)


def make_checkpoint(model: ModelParams, graph: KnowledgeGraph) -> Checkpoint:
    if model.embeddings.n_entities != graph.n_entities:
        raise ValueError("embedding table and graph disagree on entity count")
    if model.embeddings.n_relations != graph.n_relations:
        raise ValueError("embedding table and graph disagree on relation count")
    arrays = {**model.families(), "relations": model.embeddings.relations}
    return Checkpoint(
        **{name: arrays[name].astype(np.float32) for name in CHECKPOINT_ARRAYS},
        entity_names=graph.entity_names(),
        relation_names=graph.relation_names(),
    )


def initialize_model(embeddings: EmbeddingTable, rng: np.random.Generator) -> ModelParams:
    """Seeded uniform init of the four trainable matrices around a copy of
    the pretrained table, at its dimensionality."""
    attention = AttentionParams.init(embeddings.dim, rng)
    encoder = EncoderParams.init(embeddings.dim, rng)
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
    users = interactions.users()
    if not users:
        raise ValueError("no users to train on")
    rng = np.random.default_rng(config.seed)
    model = initialize_model(embeddings, rng)
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
# magic "KGSR" | u32 version | u32 d, d1, d2, |E|, |R| (CheckpointSizes) |
# row-major float32 blocks of CHECKPOINT_ARRAYS, in its order |
# length-prefixed UTF-8 entity names then relation names | 8-byte blake2b
# checksum of all prior bytes.


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", checkpoint.version), struct.pack("<IIIII", *checkpoint.sizes)]
    for name in CHECKPOINT_ARRAYS:
        parts.append(np.ascontiguousarray(getattr(checkpoint, name), dtype="<f4").tobytes())
    for table in (checkpoint.entity_names, checkpoint.relation_names):
        for name in table:
            encoded = name.encode("utf-8")
            parts.append(struct.pack("<I", len(encoded)))
            parts.append(encoded)
    payload = b"".join(parts)
    with atomic_open(path, "wb") as handle:
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

    def names(self, count: int) -> tuple[str, ...]:
        """count length-prefixed UTF-8 names, read in one pass."""
        data, offset, names = self.data, self.offset, []
        try:
            for _ in range(count):
                (length,) = struct.unpack_from("<I", data, offset)
                start, offset = offset + 4, offset + 4 + length
                if offset > len(data):
                    raise CheckpointCorruptError("checkpoint file is truncated")
                names.append(data[start:offset].decode("utf-8"))
        except struct.error:
            raise CheckpointCorruptError("checkpoint file is truncated") from None
        except UnicodeDecodeError:
            raise CheckpointCorruptError("checkpoint file is corrupt: a name is not valid UTF-8") from None
        self.offset = offset
        return tuple(names)


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
    sizes = CheckpointSizes(*struct.unpack("<IIIII", cursor.take(20)))
    arrays = {}
    for name, shape in CHECKPOINT_ARRAYS.items():
        rows, cols = shape(sizes)
        data = cursor.take(rows * cols * 4)
        arrays[name] = np.frombuffer(data, dtype="<f4").reshape(rows, cols).astype(np.float32)
    entity_names = cursor.names(sizes.n_entities)
    relation_names = cursor.names(sizes.n_relations)
    if cursor.offset != len(payload):
        raise CheckpointCorruptError("trailing bytes after checkpoint payload")
    return Checkpoint(
        **arrays,
        entity_names=entity_names,
        relation_names=relation_names,
        version=version,
    )
