"""Per-user, dict-based reference implementations of the model.

These are the list-and-dict versions of adjacency, frontier expansion,
diffusion, candidate collection, candidate scoring, explanation paths and
their hop-by-hop arrow text, the backward pass and the batch loop that the
segmented array code in ``kgsr`` replaced. They run one user at a time and
share only the elementwise kernels (softmax, sigmoid) with the package, so
an equivalence test against them checks the array bookkeeping: gathers, masks,
deduplication, segment reductions, aggregation order and tie-breaks.
``user_loss`` is one user's loss and ``chunk_loss`` the per-user loop over
a scored chunk that the per-chunk loss replaced.
They read one user's subgraph, a ``SubgraphBatch`` of one, with its kept
nodes and visited ids as lists and sets; ``user_subgraph`` cuts one
user's subgraph out of a chunk with masks. ``subgraph`` and ``traversed`` are
fixtures: a subgraph built by hand from literal nodes, weights and
traversed edges. ``top_ranked`` is the per-user list filter that picked a
user's ranking before ``BatchScores.first_fresh`` selected a chunk's rows.
A walk is a ``Walk`` of ``Hop``s, the shape in which the tests also read
``PathTable`` rows, and a hop's ``inverse`` is True where it walks a triple
from tail to head.

The graph readers at the end are the per-row ingest that the bulk one
replaced: a lazy line reader over a text handle, one ``add_triple`` call
per triple and per purchase, and one ``InteractionSet.add`` per pair. Their
errors carry the same ``path:line`` prefix as the package's. ``write_triples``
is the per-triple writer: five bounds-checked name and kind lookups per
line, written line by line. The interned line readers are the ones that
inline name lookups replaced: ``interned_ingest_triples`` interns every
name, and ``listed_ingest_interactions`` and ``listed_split_interactions``
fill a ``ListInteractionSet``, with its per-user lists and its pair set.

``offline_extract`` is the per-call lexicon scan: each keyword's pattern is
escaped and searched anew for every review, with the lookbehind first.

The TransE section is the pretraining loop the per-pair kernel and the
bulk sampler replaced: ``sample_negative`` corrupts one triple with two
scalar ``rng.integers`` calls per attempt, ``pair_margin_loss`` scores both
triples through ``transe_score``, and ``pair_margin_gradients`` computes
both distances again and merges rows through a dict keyed by
``("entity", id)``/``("relation", id)``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from kgsr.diffusion import BatchStep, DiffusionConfig, SubgraphBatch, TraversedEdges
from kgsr.errors import ConsistencyError, EntityNotFoundError, KindError, ParseError, at_line
from kgsr.graph import EntityKind, InteractionSet, KnowledgeGraph, Triple, _data_lines
from kgsr.llm import ExtractedTriple
from kgsr.numerics import sigmoid, stable_softmax
from kgsr.scoring import SCORE_FLOOR
from kgsr.training import zero_families
from kgsr.transe import (
    NEGATIVE_TRIES, EmbeddingTable, TranseConfig, _normalize_rows, initialize_embeddings, transe_score,
)


def leaky_relu(x):
    """The model's LeakyReLU, with its fixed negative-side multiplier 0.01."""
    return np.where(x > 0, x, 0.01 * x)


def leaky_relu_grad(x):
    return np.where(x > 0, 1.0, 0.01)


def dict_adjacency(graph) -> dict[int, list[tuple[int, int, bool]]]:
    """entity -> (relation, neighbor, inverse) entries, each triple indexed
    at its head (inverse False) and its tail (inverse True), sorted by
    neighbor id, then relation id, then forward before inverse."""
    adjacency: dict[int, list[tuple[int, int, bool]]] = {e: [] for e in range(graph.n_entities)}
    for t in graph.triples:
        adjacency[t.head].append((t.relation, t.tail, False))
        adjacency[t.tail].append((t.relation, t.head, True))
    for entries in adjacency.values():
        entries.sort(key=lambda e: (e[1], e[0], e[2]))
    return adjacency


def frontier_edges(adjacency, centrals, visited):
    """(source, relation, target, inverse) edges and source positions."""
    edges, source_pos = [], []
    for pos, central in enumerate(centrals):
        for relation, neighbor, inverse in adjacency[central]:
            if neighbor in visited:
                continue
            edges.append((central, relation, neighbor, inverse))
            source_pos.append(pos)
    return edges, np.asarray(source_pos, dtype=np.intp)


def attention_forward(params, user_vec, src_ids, dst_ids, entities):
    """One user's edge attention: activations and the softmax over all edges."""
    k = len(src_ids)
    x = np.concatenate([np.broadcast_to(user_vec, (k, user_vec.shape[0])), entities[src_ids]], axis=1)
    z1 = x @ params.w1.T
    a1 = leaky_relu(z1)
    z2 = a1 @ params.w2.T
    alpha_bar = sigmoid(np.einsum("kd,kd->k", z2, entities[dst_ids]))
    return SimpleNamespace(x=x, z1=z1, a1=a1, z2=z2, alpha_bar=alpha_bar, alpha=stable_softmax(alpha_bar))


def traversed(rows) -> TraversedEdges:
    """Traversed edges of a step built by hand, from (source, relation,
    target, inverse) rows."""
    columns = list(zip(*rows)) or [()] * 4
    return TraversedEdges(
        np.array(columns[0], dtype=np.intp),
        np.array(columns[1], dtype=np.intp),
        np.array(columns[2], dtype=np.intp),
        np.array(columns[3], dtype=bool),
    )


def subgraph(graph, user, steps) -> SubgraphBatch:
    """A subgraph built by hand, as a SubgraphBatch of one. Each step is
    (nodes, weights) or (nodes, weights, edges), edges a TraversedEdges
    (none when left out) into nodes the step keeps, as diffusion keeps
    them; the user and every kept node are visited."""
    batch_steps = []
    visited = np.zeros((1, graph.n_entities), dtype=bool)
    visited[0, user] = True
    for nodes, weights, *edges in steps:
        nodes = np.array(nodes, dtype=np.intp)
        edges = edges[0] if edges else traversed([])
        assert set(edges.target.tolist()) <= set(nodes.tolist()), "a traversed edge into a node the step does not keep"
        visited[0, nodes] = True
        batch_steps.append(
            BatchStep(
                np.zeros(len(nodes), dtype=np.intp), nodes, np.array(weights, dtype=np.float64),
                np.zeros(len(edges), dtype=np.intp), edges,
            )
        )
    return SubgraphBatch(np.array([user], dtype=np.intp), batch_steps, visited)


def user_subgraph(batch, i) -> SubgraphBatch:
    """The subgraph of segment i of a chunk, as a SubgraphBatch of one."""
    steps = []
    for step in batch.steps:
        nodes, edges = step.seg == i, step.edge_seg == i
        e = step.edges
        cut = TraversedEdges(e.source[edges], e.relation[edges], e.target[edges], e.inverse[edges])
        steps.append(BatchStep(step.seg[nodes] - i, step.nodes[nodes], step.weights[nodes], step.edge_seg[edges] - i, cut))
    return SubgraphBatch(batch.users[i : i + 1], steps, batch.visited[i : i + 1])


def user_of(subgraph) -> int:
    return int(subgraph.users[0])


def kept_nodes(subgraph) -> list[list[int]]:
    return [step.nodes.tolist() for step in subgraph.steps]


def visited_ids(subgraph) -> set[int]:
    return set(np.flatnonzero(subgraph.visited[0]).tolist())


@dataclass
class OracleStep:
    nodes: list[int]
    weights: np.ndarray
    edges: list[tuple[int, int, int, bool]]  # traversed
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
        edges, source_pos = frontier_edges(adjacency, centrals, visited)
        if not edges:
            break
        src = np.array([e[0] for e in edges], dtype=np.intp)
        dst = np.array([e[2] for e in edges], dtype=np.intp)
        cache = attention_forward(params, user_vec, src, dst, embeddings.entities)
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
        traversed = [e for e in edges if e[2] in kept]
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
    steps, visited = kept_nodes(subgraph), visited_ids(subgraph)
    populated = [i for i, nodes in enumerate(steps) if nodes]
    if not populated:
        return None, {}, {}
    last = populated[-1]
    outside: dict[int, list[int]] = {}
    for bridge in steps[last]:
        seen: set[int] = set()
        for _, neighbor, _ in adjacency[bridge]:
            if neighbor in visited or neighbor in seen:
                continue
            if graph.entity_kind(neighbor) is not EntityKind.ITEM:
                continue
            seen.add(neighbor)
            outside.setdefault(neighbor, []).append(bridge)
    inside: dict[int, tuple[int, int]] = {}
    for step_index in populated:
        for pos, node in enumerate(steps[step_index]):
            if graph.entity_kind(node) is EntityKind.ITEM:
                inside[node] = (step_index, pos)
    return last, outside, inside


def score_candidates(subgraph, graph, embeddings, encoder, trace=None):
    """Best-first (item, similarity, bridge weight, score) rows, and per row
    its bridge references (step index, position). A dict passed as trace
    receives the encoder activations."""
    steps = kept_nodes(subgraph)
    hops = []
    for hop in (0, 1):
        nodes = steps[hop] if hop < len(steps) else []
        hops.append(embeddings.entities[nodes].sum(axis=0) if nodes else np.zeros(embeddings.dim))
    x = np.concatenate([embeddings.entities[user_of(subgraph)], *hops])
    z3 = encoder.w3 @ x
    a3 = leaky_relu(z3)
    user_repr = encoder.w4 @ a3
    if trace is not None:
        trace.update(x=x, z3=z3, a3=a3, user_repr=user_repr)
    last, outside, inside = collect_candidates(subgraph, graph)
    if last is None:
        return [], []
    step_pos = [{node: i for i, node in enumerate(nodes)} for nodes in steps]
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


def top_ranked(candidates: list[int], catalog: list[int], exclude: set[int], k: int) -> list[int]:
    """The first k items of a user's ranking: scored candidates, then the
    unreachable catalog in id order, without the excluded items."""
    ranked = [item for item in candidates if item not in exclude][:k]
    if len(ranked) < k:
        reached = set(candidates)
        rest = (i for i in catalog if i not in reached and i not in exclude)
        ranked.extend(islice(rest, k - len(ranked)))
    return ranked


class Hop(NamedTuple):
    relation: int
    node: int
    inverse: bool


class Walk(NamedTuple):
    """Alternating node/relation walk from the user to an item."""

    user: int
    weight: float
    hops: tuple[Hop, ...]

    @property
    def item(self) -> int:
        return self.hops[-1].node

    def nodes(self) -> list[int]:
        return [self.user] + [hop.node for hop in self.hops]


def format_walk(walk: Walk, graph) -> str:
    """Arrow-serialized walk, hop by hop from the graph's names, e.g.
    ``u1 -likes-> colour <-has- item_3``: ``-r->`` forward, ``<-r-`` inverse."""
    parts = [graph.entity_name(walk.user)]
    for hop in walk.hops:
        relation = graph.relation_name(hop.relation)
        parts += (f"<-{relation}-" if hop.inverse else f"-{relation}->", graph.entity_name(hop.node))
    return " ".join(parts)


def chains_to_nodes(subgraph):
    """Per step: node -> list of (hops from the user, product of interior v
    excluding the node itself, the node's own v)."""
    chains = []
    for step_index, step in enumerate(subgraph.steps):
        level = {}
        weight_of = dict(zip(step.nodes.tolist(), step.weights.tolist()))
        edges = step.edges
        for source, relation, target, inverse in zip(
            edges.source.tolist(), edges.relation.tolist(), edges.target.tolist(), edges.inverse.tolist()
        ):
            hop = Hop(relation, target, inverse)
            own = weight_of[target]
            if step_index == 0:
                level.setdefault(target, []).append(((hop,), 1.0, own))
            else:
                for prefix_hops, prefix_excl, prefix_own in chains[step_index - 1].get(source, ()):
                    level.setdefault(target, []).append((prefix_hops + (hop,), prefix_excl * prefix_own, own))
        chains.append(level)
    return chains


def path_sort_key(walk):
    shape = tuple((h.node, h.relation, h.inverse) for h in walk.hops)
    return (-walk.weight, len(walk.hops), shape)


def extract_paths(subgraph, graph, item, limit):
    """Every user-to-item walk of a candidate, best first, from the chains
    to every node of the subgraph: an inside item's chains, or each bridge's
    chains closed by each of the bridge's graph edges to the item."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    last, outside, inside = collect_candidates(subgraph, graph)
    adjacency = dict_adjacency(graph)
    chains = chains_to_nodes(subgraph)
    paths = []
    if item in outside:
        for bridge in outside[item]:
            closers = [(rel, inverse) for rel, neighbor, inverse in adjacency[bridge] if neighbor == item]
            for hops, excl, own in chains[last].get(bridge, ()):
                for rel, inverse in closers:
                    paths.append(Walk(user_of(subgraph), excl * own, hops + (Hop(rel, item, inverse),)))
    elif item in inside:
        for hops, excl, _ in chains[inside[item][0]].get(item, ()):
            paths.append(Walk(user_of(subgraph), excl, hops))
    else:
        named = repr(graph.entity_name(item)) if 0 <= item < graph.n_entities else f"id {item}"
        raise EntityNotFoundError(f"entity {named} is not a candidate item for this subgraph")
    paths.sort(key=path_sort_key)
    return paths[:limit]


def user_loss(scores, hit, n_positives):
    """One user's (loss, positives that received no score): the mean negative
    log score over the scores of its candidates marked in hit, each floored at
    SCORE_FLOOR; None when no positive received a score. The logs are added
    in row order, as sum() adds floats before Python 3.12."""
    if n_positives < 1:
        raise ValueError("positives must be nonempty")
    scored = scores[hit].tolist()
    if not scored:
        return None
    total = 0.0
    for score in scored:
        total += math.log(max(score, SCORE_FLOOR))
    return -total / len(scored), n_positives - len(scored)


def chunk_loss(scored, chunk, contrastive, rng):
    """The per-user loss loop over a scored chunk of (user, positives):
    (losses of the users used, skipped users, skipped positives, dL/dScore
    per scored row), with the contrastive draws taken user by user."""
    score_grads = np.zeros(len(scored))
    losses = []
    skipped = positives_skipped = 0
    hits = scored.isin([positives for _, positives in chunk])
    for segment, (_, positives) in enumerate(chunk):
        rows = slice(scored.offsets[segment], scored.offsets[segment + 1])
        scores, hit = scored.scores[rows], hits[rows]
        result = user_loss(scores, hit, len(positives))
        if result is None:
            skipped += 1
            continue
        loss, pos_skipped = result
        positives_skipped += pos_skipped
        n_pos = len(positives) - pos_skipped
        graded = hit & (scores > SCORE_FLOOR)
        user_grads = score_grads[rows]
        user_grads[graded] = -1.0 / (n_pos * scores[graded])
        if contrastive:
            negative_idx = np.flatnonzero(~hit)
            n_neg = min(n_pos, len(negative_idx))
            if n_neg and rng is not None:
                chosen = rng.choice(len(negative_idx), size=n_neg, replace=False)
                for i in negative_idx[np.sort(chosen)].tolist():
                    score = float(scores[i])
                    loss += -math.log(max(1.0 - score, SCORE_FLOOR)) / n_neg
                    if 1.0 - score > SCORE_FLOOR:
                        user_grads[i] += 1.0 / (n_neg * (1.0 - score))
        losses.append(loss)
    return losses, skipped, positives_skipped, score_grads


def backward_user(model, user, steps, rows, bridges, score_grads, grads, trace):
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
    grads["entities"][items] += g_dot[:, None] * trace["user_repr"]
    g_a3 = model.encoder.w4.T @ g_user_repr
    grads["w4"] += np.outer(g_user_repr, trace["a3"])
    g_z3 = g_a3 * leaky_relu_grad(trace["z3"])
    grads["w3"] += np.outer(g_z3, trace["x"])
    g_x = model.encoder.w3.T @ g_z3
    g_user = g_x[:dim].copy()
    for hop, segment in ((0, g_x[dim : 2 * dim]), (1, g_x[2 * dim :])):
        if hop < len(steps):
            for node in steps[hop].nodes:
                grads["entities"][node] += segment

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
        np.add.at(grads["entities"], step_trace.dst, g_t[:, None] * cache.z2)
        grads["w2"] += g_z2.T @ cache.a1
        g_z1 = (g_z2 @ model.attention.w2) * leaky_relu_grad(cache.z1)
        grads["w1"] += g_z1.T @ cache.x
        g_x_edges = g_z1 @ model.attention.w1
        g_user += g_x_edges[:, :dim].sum(axis=0)
        np.add.at(grads["entities"], step_trace.src, g_x_edges[:, dim:])

    grads["entities"][user] += g_user


def forward_backward(users, model, graph, interactions, config, rng=None):
    """(mean loss, gradients, used, skipped, positives skipped) over a batch,
    one user at a time."""
    diff_cfg = config.diffusion()
    grads = zero_families(model)
    total_loss = 0.0
    used = skipped = positives_skipped = 0
    for user in users:
        positives = set(interactions.items_for(user))
        if not positives:
            skipped += 1
            continue
        steps, _ = diffuse(graph, model.embeddings, model.attention, user, diff_cfg)
        state = subgraph(graph, user, [(s.nodes, s.weights) for s in steps])
        trace: dict = {}
        rows, bridges = score_candidates(state, graph, model.embeddings, model.encoder, trace)
        scores = np.array([row[3] for row in rows])
        scored = [row[3] for row in rows if row[0] in positives]
        if not scored:
            skipped += 1
            continue
        n_pos = len(scored)
        positives_skipped += len(positives) - n_pos
        loss = -sum(math.log(max(score, SCORE_FLOOR)) for score in scored) / n_pos
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
        backward_user(model, user, steps, rows, bridges, score_grads, grads, trace)
        total_loss += loss
        used += 1
    if used:
        total_loss /= used
        for arr in grads.values():
            arr *= 1.0 / used
    return total_loss, grads, used, skipped, positives_skipped


def data_lines(path):
    """(line_no, line) of each line that is not blank or a '#' comment, read
    lazily with universal newlines."""
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield line_no, line


def _parse_kind(path, line_no, token):
    try:
        return EntityKind(token)
    except ValueError:
        raise ParseError(
            path, line_no, f"unknown entity kind {token!r} (expected user/item/property)"
        ) from None


def ingest_triples(path):
    graph = KnowledgeGraph()
    for line_no, line in data_lines(path):
        fields = line.split("\t")
        if len(fields) != 5:
            raise ParseError(path, line_no, f"expected 5 tab-separated fields, got {len(fields)}")
        head_name, head_kind, relation_name, tail_name, tail_kind = fields
        if not head_name or not relation_name or not tail_name:
            raise ParseError(path, line_no, "empty field")
        try:
            head = graph.intern_entity(head_name, _parse_kind(path, line_no, head_kind))
            tail = graph.intern_entity(tail_name, _parse_kind(path, line_no, tail_kind))
        except ConsistencyError as exc:
            raise at_line(exc, path, line_no) from None
        relation = graph.intern_relation(relation_name)
        try:
            graph.add_triple(head, relation, tail)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return graph


def ingest_interactions(path, graph):
    interactions = InteractionSet()
    for line_no, line in data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(path, line_no, f"expected 2 tab-separated fields, got {len(fields)}")
        user_name, item_name = fields
        try:
            user = graph.entity_id(user_name)
            item = graph.entity_id(item_name)
            if graph.entity_kind(user) is not EntityKind.USER:
                raise KindError(f"{user_name!r} is {graph.entity_kind(user).value}, not user")
            if graph.entity_kind(item) is not EntityKind.ITEM:
                raise KindError(f"{item_name!r} is {graph.entity_kind(item).value}, not item")
        except (EntityNotFoundError, KindError) as exc:
            raise at_line(exc, path, line_no) from None
        interactions.add(user, item)
    return interactions


def add_purchase_triples(graph, interactions, relation_name="purchase"):
    relation = graph.intern_relation(relation_name)
    added = 0
    for user in interactions.users():
        for item in interactions.items_for(user):
            if graph.add_triple(user, relation, item):
                added += 1
    return added


def named_triples(graph):
    """Every triple as (head, head kind, relation, tail, tail kind) names, in insertion order."""
    return [(graph.entity_name(t.head), graph.entity_kind(t.head), graph.relation_name(t.relation),
             graph.entity_name(t.tail), graph.entity_kind(t.tail)) for t in graph.triples]


def write_triples(graph, path):
    with open(path, "w", encoding="utf-8") as handle:
        for t in graph.triples:
            handle.write(
                "\t".join((
                    graph.entity_name(t.head),
                    graph.entity_kind(t.head).value,
                    graph.relation_name(t.relation),
                    graph.entity_name(t.tail),
                    graph.entity_kind(t.tail).value,
                ))
                + "\n"
            )


# -- interned line readers ----------------------------------------------------


def interned_ingest_triples(path):
    """The line reader that interned both names of every line through
    ``intern_entity`` and both kinds through ``_parse_kind``, and stored the
    triples at the end in one call."""
    graph = KnowledgeGraph()
    heads, relations, tails = [], [], []
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 5:
            raise ParseError(path, line_no, f"expected 5 tab-separated fields, got {len(fields)}")
        head_name, head_kind, relation_name, tail_name, tail_kind = fields
        if not head_name or not relation_name or not tail_name:
            raise ParseError(path, line_no, "empty field")
        try:
            head = graph.intern_entity(head_name, _parse_kind(path, line_no, head_kind))
            tail = graph.intern_entity(tail_name, _parse_kind(path, line_no, tail_kind))
        except ConsistencyError as exc:
            raise at_line(exc, path, line_no) from None
        relation = graph.intern_relation(relation_name)
        if head == tail:
            raise ParseError(path, line_no, "self-loops are not allowed")
        heads.append(head)
        relations.append(relation)
        tails.append(tail)
    graph.add_triples(heads, relations, tails)
    return graph


class ListInteractionSet:
    """The interaction set that kept each user's items in a list and every
    (user, item) pair a second time in one set."""

    def __init__(self):
        self._by_user = {}
        self._pairs = set()

    def add(self, user, item):
        if (user, item) in self._pairs:
            return False
        self._pairs.add((user, item))
        self._by_user.setdefault(user, []).append(item)
        return True

    def extend(self, users, items):
        new = [pair for pair in dict.fromkeys(zip(users, items)) if pair not in self._pairs]
        self._pairs.update(new)
        for user, item in new:
            self._by_user.setdefault(user, []).append(item)
        return len(new)

    def columns(self):
        users = sorted(self._by_user)
        return (
            [user for user in users for _ in self._by_user[user]],
            [item for user in users for item in self._by_user[user]],
        )

    def users(self):
        return sorted(self._by_user)

    def items_for(self, user):
        return list(self._by_user.get(user, ()))

    def __len__(self):
        return len(self._pairs)

    @property
    def n_users(self):
        return len(self._by_user)


def listed_ingest_interactions(path, graph):
    """The interactions reader that split every line into a field list and
    filled a ``ListInteractionSet`` in one ``extend`` call."""
    users, items = [], []
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(path, line_no, f"expected 2 tab-separated fields, got {len(fields)}")
        user, item = graph._entity_ids.get(fields[0]), graph._entity_ids.get(fields[1])
        if (user is None or item is None or graph._entity_kinds[user] is not EntityKind.USER
                or graph._entity_kinds[item] is not EntityKind.ITEM):
            raise _interaction_error(graph, path, line_no, *fields)
        users.append(user)
        items.append(item)
    interactions = ListInteractionSet()
    interactions.extend(users, items)
    return interactions


def _interaction_error(graph, path, line_no, user_name, item_name):
    for name in (user_name, item_name):
        if name not in graph._entity_ids:
            return EntityNotFoundError(f"{path}:{line_no}: unknown entity {name!r}")
    for name, role in ((user_name, EntityKind.USER), (item_name, EntityKind.ITEM)):
        kind = graph._entity_kinds[graph._entity_ids[name]]
        if kind is not role:
            return KindError(f"{path}:{line_no}: {name!r} is {kind.value}, not {role.value}")


def listed_split_interactions(interactions, train_fraction, seed):
    """The per-user split over ``ListInteractionSet``s, one ``add`` per
    pair that a permutation did not send to train whole."""
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    rng = np.random.default_rng(seed)
    train = ListInteractionSet()
    test = ListInteractionSet()
    for user in interactions.users():
        items = interactions.items_for(user)
        n = len(items)
        if n == 1 or train_fraction == 1.0:
            train.extend([user] * n, items)
            continue
        n_train = max(1, math.floor(train_fraction * n))
        perm = rng.permutation(n)
        train_positions = set(perm[:n_train].tolist())
        for pos, item in enumerate(items):
            (train if pos in train_positions else test).add(user, item)
    return train, test


# -- review extraction --------------------------------------------------------


def offline_extract(review, lexicon, review_id=0):
    triples = []
    seen = set()
    for keyword in sorted(lexicon):
        relation, value = lexicon[keyword]
        if (relation, value) in seen:
            continue
        if re.search(rf"(?<!\w){re.escape(keyword)}(?!\w)", review, flags=re.IGNORECASE):
            seen.add((relation, value))
            triples.append(ExtractedTriple(relation, value, review_id))
    return triples


# -- TransE pretraining ------------------------------------------------------


def sample_negative(graph, triple, rng, max_tries=NEGATIVE_TRIES):
    n = graph.n_entities
    if n < 2:
        raise ValueError("negative sampling needs at least 2 entities")
    candidate = triple
    for _ in range(max_tries):
        corrupt_head = bool(rng.integers(0, 2))
        original = triple.head if corrupt_head else triple.tail
        draw = int(rng.integers(0, n - 1))
        if draw >= original:
            draw += 1
        candidate = (
            Triple(draw, triple.relation, triple.tail)
            if corrupt_head
            else Triple(triple.head, triple.relation, draw)
        )
        if not graph.has_triple(candidate):
            return candidate
    return candidate


def _distance_and_grad(diff, norm):
    if norm == 1:
        return float(np.abs(diff).sum()), np.sign(diff)
    dist = float(np.linalg.norm(diff))
    if dist < 1e-12:
        return dist, np.zeros_like(diff)
    return dist, diff / dist


def pair_margin_loss(table, positive, negative, margin, norm=2):
    """Hinge value max(0, margin + d(pos) - d(neg)) for one training pair."""
    return max(
        0.0, margin + transe_score(table, positive, norm) - transe_score(table, negative, norm)
    )


def pair_margin_gradients(table, positive, negative, margin, norm=2):
    """("entity", id)/("relation", id) -> gradient of the hinge; empty when
    the hinge is inactive."""
    e, r = table.entities, table.relations
    diff_pos = e[positive.head] + r[positive.relation] - e[positive.tail]
    diff_neg = e[negative.head] + r[negative.relation] - e[negative.tail]
    d_pos, g_pos = _distance_and_grad(diff_pos, norm)
    d_neg, g_neg = _distance_and_grad(diff_neg, norm)
    if margin + d_pos - d_neg <= 0:
        return {}
    grads = {}

    def _acc(key, value):
        if key in grads:
            grads[key] = grads[key] + value
        else:
            grads[key] = value.copy()

    _acc(("entity", positive.head), g_pos)
    _acc(("relation", positive.relation), g_pos)
    _acc(("entity", positive.tail), -g_pos)
    _acc(("entity", negative.head), -g_neg)
    _acc(("relation", negative.relation), -g_neg)
    _acc(("entity", negative.tail), g_neg)
    return grads


def transe_pretrain(graph, config: TranseConfig) -> EmbeddingTable:
    rng = np.random.default_rng(config.seed)
    table = initialize_embeddings(graph.n_entities, graph.n_relations, config, rng=rng)
    triples = list(graph.triples)
    lr = config.learning_rate
    for _ in range(config.epochs):
        for idx in rng.permutation(len(triples)):
            positive = triples[int(idx)]
            for _ in range(config.negatives):
                negative = sample_negative(graph, positive, rng)
                grads = pair_margin_gradients(table, positive, negative, config.margin, config.norm)
                for (family, row), grad in grads.items():
                    if family == "entity":
                        table.entities[row] -= lr * grad
                    else:
                        table.relations[row] -= lr * grad
        _normalize_rows(table.entities)
    return table
