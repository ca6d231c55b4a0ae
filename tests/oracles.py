"""Dict-based reference implementations of the graph traversal and scoring.

These are the list-and-dict versions of adjacency, frontier expansion,
diffusion, candidate collection and candidate scoring that the array code
in ``kgsr`` replaced. They share only the numeric kernels (attention
forward pass, softmax, sigmoid, encoder) with the package, so an
equivalence test against them checks the array bookkeeping: gathers,
masks, deduplication, aggregation order and tie-breaks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kgsr.diffusion import DiffusionConfig, _attention_forward
from kgsr.graph import Direction, EntityKind
from kgsr.numerics import leaky_relu, sigmoid, stable_softmax

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


@dataclass
class OracleStep:
    nodes: list[int]
    weights: np.ndarray
    edges: list[tuple[int, int, int, Direction, float]]  # traversed, with attention


def diffuse(graph, embeddings, params, user, config: DiffusionConfig):
    """Per-step kept nodes, weights and traversed edges, plus the visited set."""
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
        cache = _attention_forward(params, user_vec, src, dst, embeddings.entities, config.leaky_slope)
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
        steps.append(OracleStep(selected, v, traversed))
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


def score_candidates(subgraph, graph, embeddings, encoder, slope=0.01):
    """Best-first (item, similarity, bridge weight, score) rows, and per row
    its bridge references (step index, position)."""
    last, outside, inside = collect_candidates(subgraph, graph)
    if last is None:
        return [], []
    hops = []
    for hop in (0, 1):
        nodes = subgraph.steps[hop].nodes if hop < len(subgraph.steps) else []
        hops.append(embeddings.entities[nodes].sum(axis=0) if nodes else np.zeros(embeddings.dim))
    x = np.concatenate([embeddings.entities[subgraph.user], *hops])
    user_repr = encoder.w4 @ leaky_relu(encoder.w3 @ x, slope)
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
