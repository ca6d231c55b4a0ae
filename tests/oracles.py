"""Per-user, dict-based reference implementations of the model.

These are the list-and-dict versions of adjacency, frontier expansion,
diffusion, candidate collection, candidate scoring, the backward pass and
the batch loop that the segmented array code in ``kgsr`` replaced. They
run one user at a time and share only the elementwise kernels (softmax,
sigmoid, leaky relu) with the package, so an equivalence test against them
checks the array bookkeeping: gathers, masks, deduplication, segment
reductions, aggregation order and tie-breaks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from kgsr.diffusion import DiffusionConfig, DiffusionStep, SubgraphState
from kgsr.errors import UnscorableUserError
from kgsr.graph import Direction, EntityKind
from kgsr.numerics import leaky_relu, leaky_relu_grad, sigmoid, stable_softmax
from kgsr.scoring import SCORE_FLOOR, CandidateScore, user_loss
from kgsr.training import Gradients

_DIRECTION_ORDER = {Direction.FORWARD: 0, Direction.INVERSE: 1}


def dict_adjacency(graph) -> dict[int, list[tuple[int, int, Direction]]]:
    """entity -> (relation, neighbor, direction) entries, each triple indexed
    at its head (forward) and its tail (inverse), sorted by neighbor id, then
    relation id, then forward before inverse."""
    adjacency: dict[int, list[tuple[int, int, Direction]]] = {e: [] for e in range(graph.n_entities)}
    for t in graph.triples:
        adjacency[t.head].append((t.relation, t.tail, Direction.FORWARD))
        adjacency[t.tail].append((t.relation, t.head, Direction.INVERSE))
    for entries in adjacency.values():
        entries.sort(key=lambda e: (e[1], e[0], _DIRECTION_ORDER[e[2]]))
    return adjacency


def build_frontier(adjacency, centrals, visited):
    """(source, relation, target, direction) edges and source positions."""
    edges, source_pos = [], []
    for pos, central in enumerate(centrals):
        for relation, neighbor, direction in adjacency[central]:
            if neighbor in visited:
                continue
            edges.append((central, relation, neighbor, direction))
            source_pos.append(pos)
    return edges, np.asarray(source_pos, dtype=np.intp)


def attention_forward(params, user_vec, src_ids, dst_ids, entities, slope):
    """One user's edge attention: activations and the softmax over all edges."""
    k = len(src_ids)
    x = np.concatenate([np.broadcast_to(user_vec, (k, user_vec.shape[0])), entities[src_ids]], axis=1)
    z1 = x @ params.w1.T
    a1 = leaky_relu(z1, slope)
    z2 = a1 @ params.w2.T
    alpha_bar = sigmoid(np.einsum("kd,kd->k", z2, entities[dst_ids]))
    return SimpleNamespace(x=x, z1=z1, a1=a1, z2=z2, alpha_bar=alpha_bar, alpha=stable_softmax(alpha_bar))


@dataclass
class OracleStep:
    nodes: list[int]
    weights: np.ndarray
    edges: list[tuple[int, int, int, Direction, float]]  # traversed, with attention
    trace: SimpleNamespace | None = None  # forward activations, for backward_user


def diffuse(graph, embeddings, params, user, config: DiffusionConfig):
    """Per-step kept nodes, weights, traversed edges and activations, plus
    the visited set."""
    adjacency = dict_adjacency(graph)
    user_vec = embeddings.entities[user]
    visited = {user}
    centrals = [user]
    central_scores = np.array([1.0])
    steps: list[OracleStep] = []
    for _ in range(config.steps):
        edges, source_pos = build_frontier(adjacency, centrals, visited)
        if not edges:
            break
        src = np.array([e[0] for e in edges], dtype=np.intp)
        dst = np.array([e[2] for e in edges], dtype=np.intp)
        cache = attention_forward(params, user_vec, src, dst, embeddings.entities, config.leaky_slope)
        candidates = sorted(set(int(d) for d in dst))
        cand_index = {node: i for i, node in enumerate(candidates)}
        cand_pos = np.array([cand_index[int(d)] for d in dst], dtype=np.intp)
        raw = np.zeros(len(candidates))
        np.add.at(raw, cand_pos, central_scores[source_pos] * cache.alpha)
        order = sorted(range(len(candidates)), key=lambda i: (-raw[i], candidates[i]))
        selected_local = np.array(order[: config.top_n], dtype=np.intp)
        v = stable_softmax(raw[selected_local])
        selected = [candidates[i] for i in selected_local]
        kept = set(selected)
        traversed = [(*e, float(a)) for e, a in zip(edges, cache.alpha) if e[2] in kept]
        trace = SimpleNamespace(
            src=src, dst=dst, source_pos=source_pos, cache=cache, n_candidates=len(candidates),
            cand_pos=cand_pos, selected_local=selected_local, v=v,
        )
        steps.append(OracleStep(selected, v, traversed, trace))
        visited.update(selected)
        centrals = selected
        central_scores = v
    while len(steps) < config.steps:
        steps.append(OracleStep([], np.zeros(0), []))
    return steps, frozenset(visited)


def collect_candidates(subgraph, graph):
    """(last populated step, outside item -> bridge nodes in bridge order,
    inside item -> (step index, position in step))."""
    adjacency = dict_adjacency(graph)
    populated = [i for i, s in enumerate(subgraph.steps) if s.nodes]
    if not populated:
        return None, {}, {}
    last = populated[-1]
    outside: dict[int, list[int]] = {}
    for bridge in subgraph.steps[last].nodes:
        seen: set[int] = set()
        for _, neighbor, _ in adjacency[bridge]:
            if neighbor in subgraph.visited or neighbor in seen:
                continue
            if graph.entity_kind(neighbor) is not EntityKind.ITEM:
                continue
            seen.add(neighbor)
            outside.setdefault(neighbor, []).append(bridge)
    inside: dict[int, tuple[int, int]] = {}
    for step_index in populated:
        for pos, node in enumerate(subgraph.steps[step_index].nodes):
            if graph.entity_kind(node) is EntityKind.ITEM:
                inside[node] = (step_index, pos)
    return last, outside, inside


def score_candidates(subgraph, graph, embeddings, encoder, slope=0.01, trace=None):
    """Best-first (item, similarity, bridge weight, score) rows, and per row
    its bridge references (step index, position). A dict passed as trace
    receives the encoder activations."""
    last, outside, inside = collect_candidates(subgraph, graph)
    if last is None:
        return [], []
    hops = []
    for hop in (0, 1):
        nodes = subgraph.steps[hop].nodes if hop < len(subgraph.steps) else []
        hops.append(embeddings.entities[nodes].sum(axis=0) if nodes else np.zeros(embeddings.dim))
    x = np.concatenate([embeddings.entities[subgraph.user], *hops])
    z3 = encoder.w3 @ x
    a3 = leaky_relu(z3, slope)
    user_repr = encoder.w4 @ a3
    if trace is not None:
        trace.update(x=x, z3=z3, a3=a3, user_repr=user_repr)
    step_pos = [{node: i for i, node in enumerate(s.nodes)} for s in subgraph.steps]
    items = sorted(set(outside) | set(inside))
    sims = sigmoid(embeddings.entities[np.array(items, dtype=np.intp)] @ user_repr)
    rows, bridges = [], []
    for item, sim in zip(items, sims):
        if item in outside:
            refs = [(last, step_pos[last][b]) for b in outside[item]]
        else:
            refs = [inside[item]]
        weight = float(sum(subgraph.steps[s].weights[p] for s, p in refs))
        rows.append((item, float(sim), weight, weight * float(sim)))
        bridges.append(refs)
    order = sorted(range(len(rows)), key=lambda i: (-rows[i][3], rows[i][0]))
    return [rows[i] for i in order], [bridges[i] for i in order]


def backward_user(model, user, steps, rows, bridges, score_grads, grads, slope, trace):
    """Accumulate one user's parameter gradients given dL/dScore per scored
    row; steps and trace come from diffuse and score_candidates."""
    entities = model.embeddings.entities
    dim = model.dim
    items = np.array([row[0] for row in rows], dtype=np.intp)
    sims = np.array([row[1] for row in rows])
    weights = np.array([row[2] for row in rows])
    g_sim = score_grads * weights
    g_weight = score_grads * sims

    g_dot = g_sim * sims * (1.0 - sims)
    g_user_repr = entities[items].T @ g_dot
    grads.entities[items] += g_dot[:, None] * trace["user_repr"]
    g_a3 = model.encoder.w4.T @ g_user_repr
    grads.w4 += np.outer(g_user_repr, trace["a3"])
    g_z3 = g_a3 * leaky_relu_grad(trace["z3"], slope)
    grads.w3 += np.outer(g_z3, trace["x"])
    g_x = model.encoder.w3.T @ g_z3
    g_user = g_x[:dim].copy()
    for hop, segment in ((0, g_x[dim : 2 * dim]), (1, g_x[2 * dim :])):
        if hop < len(steps):
            for node in steps[hop].nodes:
                grads.entities[node] += segment

    g_v = [np.zeros(len(step.nodes)) for step in steps]
    for row, refs in enumerate(bridges):
        for step_index, pos in refs:
            g_v[step_index][pos] += g_weight[row]

    for step_index in range(len(steps) - 1, -1, -1):
        step_trace = steps[step_index].trace
        if step_trace is None:
            continue
        v = step_trace.v
        gv = g_v[step_index]
        g_raw = np.zeros(step_trace.n_candidates)
        g_raw[step_trace.selected_local] = v * (gv - float(v @ gv))
        central_scores = steps[step_index - 1].weights if step_index > 0 else np.array([1.0])
        cache = step_trace.cache
        g_raw_per_edge = g_raw[step_trace.cand_pos]
        g_alpha = g_raw_per_edge * central_scores[step_trace.source_pos]
        if step_index > 0:
            np.add.at(g_v[step_index - 1], step_trace.source_pos, g_raw_per_edge * cache.alpha)
        alpha = cache.alpha
        g_alpha_bar = alpha * (g_alpha - float(alpha @ g_alpha))
        g_t = g_alpha_bar * cache.alpha_bar * (1.0 - cache.alpha_bar)
        g_z2 = g_t[:, None] * entities[step_trace.dst]
        np.add.at(grads.entities, step_trace.dst, g_t[:, None] * cache.z2)
        grads.w2 += g_z2.T @ cache.a1
        g_z1 = (g_z2 @ model.attention.w2) * leaky_relu_grad(cache.z1, slope)
        grads.w1 += g_z1.T @ cache.x
        g_x_edges = g_z1 @ model.attention.w1
        g_user += g_x_edges[:, :dim].sum(axis=0)
        np.add.at(grads.entities, step_trace.src, g_x_edges[:, dim:])

    grads.entities[user] += g_user


def forward_backward(users, model, graph, interactions, config, rng=None):
    """(mean loss, gradients, used, skipped, positives skipped) over a batch,
    one user at a time."""
    diff_cfg = config.diffusion()
    grads = Gradients.zeros_like(model)
    total_loss = 0.0
    used = skipped = positives_skipped = 0
    for user in users:
        positives = set(interactions.items_for(user))
        if not positives:
            skipped += 1
            continue
        steps, visited = diffuse(graph, model.embeddings, model.attention, user, diff_cfg)
        state = SubgraphState(user, [DiffusionStep(s.nodes, s.weights, []) for s in steps], visited)
        trace: dict = {}
        rows, bridges = score_candidates(
            state, graph, model.embeddings, model.encoder, config.leaky_slope, trace
        )
        scores = np.array([row[3] for row in rows])
        try:
            loss, pos_skipped = user_loss([CandidateScore(*row) for row in rows], positives)
        except UnscorableUserError:
            skipped += 1
            continue
        positives_skipped += pos_skipped
        n_pos = len(positives) - pos_skipped
        hit = np.array([row[0] in positives for row in rows], dtype=bool)
        score_grads = np.zeros(len(rows))
        for i in np.flatnonzero(hit & (scores > SCORE_FLOOR)):
            score_grads[i] = -1.0 / (n_pos * scores[i])
        if config.contrastive:
            negative_idx = np.flatnonzero(~hit)
            n_neg = min(n_pos, len(negative_idx))
            if n_neg and rng is not None:
                chosen = rng.choice(len(negative_idx), size=n_neg, replace=False)
                for i in negative_idx[np.sort(chosen)].tolist():
                    complement = max(1.0 - scores[i], SCORE_FLOOR)
                    loss += -math.log(complement) / n_neg
                    if 1.0 - scores[i] > SCORE_FLOOR:
                        score_grads[i] += 1.0 / (n_neg * (1.0 - scores[i]))
        backward_user(model, user, steps, rows, bridges, score_grads, grads, config.leaky_slope, trace)
        total_loss += loss
        used += 1
    if used:
        total_loss /= used
        grads.scale(1.0 / used)
    return total_loss, grads, used, skipped, positives_skipped
