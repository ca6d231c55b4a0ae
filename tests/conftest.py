"""Shared fixtures and graph builders for the test suite."""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from kgsr.graph import EntityKind, KnowledgeGraph

KIND = {"user": EntityKind.USER, "item": EntityKind.ITEM, "property": EntityKind.PROPERTY}


def make_graph(entities, triples):
    """Build a graph from (name, kind-string) pairs and (head, rel, tail) name triples."""
    graph = KnowledgeGraph()
    for name, kind in entities:
        graph.intern_entity(name, KIND[kind])
    for head, relation, tail in triples:
        graph.add_triple(
            graph.entity_id(head), graph.intern_relation(relation), graph.entity_id(tail)
        )
    return graph


def neighbor_entries(graph, entity):
    """(relation, neighbor, inverse) entries of one entity's index row, in
    row order."""
    _, relations, neighbors, inverse = graph.neighbors([entity])
    return list(zip(relations.tolist(), neighbors.tolist(), inverse.tolist()))


def table_walks(table, q):
    """The rows of query q of a PathTable, in row order, as oracles.Walk
    tuples: (user, weight, hops), each hop (relation, node, inverse)."""
    from oracles import Hop, Walk

    rows = np.flatnonzero(table.query == q)
    columns = (column[rows].tolist() for column in (table.user, table.weight, table.node, table.relation, table.inverse))
    return [
        Walk(user, weight, tuple(Hop(r, node, bool(i)) for node, r, i in zip(nodes, relations, inverses) if node >= 0))
        for user, weight, nodes, relations, inverses in zip(*columns)
    ]


def paths_of(batch, segment, graph, item, limit):
    """The walks of one item on one segment's subgraph: a chunk query of one."""
    from kgsr.scoring import extract_paths

    return table_walks(extract_paths(batch, graph, [segment], [item], limit), 0)


def user_rows(scored, segment):
    """One segment's rows of a BatchScores, best first: their items,
    similarities, bridge weights and scores."""
    rows = slice(scored.offsets[segment], scored.offsets[segment + 1])
    columns = ("items", "similarities", "bridge_weights", "scores")
    return SimpleNamespace(**{name: getattr(scored, name)[rows] for name in columns})


def score_rows(scores):
    """(item, similarity, bridge weight, score) rows of scored candidates."""
    columns = (scores.items, scores.similarities, scores.bridge_weights, scores.scores)
    return list(zip(*(column.tolist() for column in columns)))


def random_graph(rng, n_users=2, n_items=6, n_properties=5, n_relations=3, n_edges=20):
    """Random typed graph with the user connected into the mix."""
    graph = KnowledgeGraph()
    users = [graph.intern_entity(f"u{i}", EntityKind.USER) for i in range(n_users)]
    items = [graph.intern_entity(f"i{i}", EntityKind.ITEM) for i in range(n_items)]
    props = [graph.intern_entity(f"p{i}", EntityKind.PROPERTY) for i in range(n_properties)]
    relations = [graph.intern_relation(f"r{i}") for i in range(n_relations)]
    non_users = items + props
    for user in users:
        count = int(rng.integers(1, 4))
        picked = rng.choice(len(non_users), size=min(count, len(non_users)), replace=False)
        for x in picked:
            graph.add_triple(user, relations[int(rng.integers(0, n_relations))], non_users[int(x)])
    for _ in range(n_edges):
        head, tail = rng.choice(len(non_users), size=2, replace=False)
        relation = relations[int(rng.integers(0, n_relations))]
        h, t = non_users[int(head)], non_users[int(tail)]
        try:
            graph.add_triple(h, relation, t)
        except ValueError:
            continue
    return graph


def random_embeddings(rng, graph, dim):
    from kgsr.transe import EmbeddingTable

    ents = rng.normal(size=(graph.n_entities, dim))
    ents /= np.linalg.norm(ents, axis=1, keepdims=True)
    return EmbeddingTable(ents, rng.normal(size=(max(graph.n_relations, 1), dim)))


@pytest.fixture
def chain_graph():
    """user -> p1 -> i1, the forced two-step walk."""
    return make_graph(
        [("u1", "user"), ("p1", "property"), ("i1", "item")],
        [("u1", "likes", "p1"), ("p1", "describes", "i1")],
    )


def gradient_fixture():
    """6 entities, 4 relations, d=4: one user, an inside positive and an
    outside positive reachable through two property hops."""
    from kgsr.graph import InteractionSet
    from kgsr.training import TrainConfig, initialize_model
    from kgsr.transe import EmbeddingTable

    graph = make_graph(
        [
            ("u0", "user"),
            ("i1", "item"),
            ("i2", "item"),
            ("p1", "property"),
            ("p2", "property"),
            ("p3", "property"),
        ],
        [
            ("u0", "purchase", "i1"),
            ("u0", "profile", "p1"),
            ("i1", "has", "p2"),
            ("p1", "tag", "p2"),
            ("p1", "tag", "p3"),
            ("i2", "has", "p2"),
            ("i2", "has", "p3"),
        ],
    )
    rng = np.random.default_rng(7)
    entities = rng.normal(size=(6, 4))
    entities /= np.linalg.norm(entities, axis=1, keepdims=True)
    table = EmbeddingTable(entities, rng.normal(size=(4, 4)))
    config = TrainConfig(top_n=2, steps=2, seed=3, batch_size=8, epochs=1)
    model = initialize_model(table, np.random.default_rng(config.seed))
    interactions = InteractionSet()
    interactions.add(graph.entity_id("u0"), graph.entity_id("i1"))
    interactions.add(graph.entity_id("u0"), graph.entity_id("i2"))
    return graph, model, interactions, config


def multi_user_gradient_fixture():
    """gradient_fixture's graph with two more users, so that a batch of three
    users runs in two chunks when chunks hold two users."""
    from kgsr.graph import InteractionSet
    from kgsr.training import TrainConfig, initialize_model
    from kgsr.transe import EmbeddingTable

    graph = make_graph(
        [
            ("u0", "user"),
            ("u1", "user"),
            ("u2", "user"),
            ("i1", "item"),
            ("i2", "item"),
            ("i3", "item"),
            ("p1", "property"),
            ("p2", "property"),
            ("p3", "property"),
            ("p4", "property"),
        ],
        [
            ("u0", "purchase", "i1"),
            ("u0", "profile", "p1"),
            ("u1", "profile", "p2"),
            ("u1", "purchase", "i3"),
            ("u2", "profile", "p3"),
            ("i1", "has", "p2"),
            ("p1", "tag", "p2"),
            ("p1", "tag", "p3"),
            ("i2", "has", "p2"),
            ("i2", "has", "p3"),
            ("i3", "has", "p1"),
            ("i3", "has", "p4"),
        ],
    )
    rng = np.random.default_rng(11)
    entities = rng.normal(size=(graph.n_entities, 4))
    entities /= np.linalg.norm(entities, axis=1, keepdims=True)
    table = EmbeddingTable(entities, rng.normal(size=(graph.n_relations, 4)))
    config = TrainConfig(top_n=2, steps=2, seed=3, batch_size=8, epochs=1)
    model = initialize_model(table, np.random.default_rng(config.seed))
    interactions = InteractionSet()
    for user, item in (("u0", "i1"), ("u0", "i2"), ("u1", "i1"), ("u1", "i3"), ("u2", "i2"), ("u2", "i3")):
        interactions.add(graph.entity_id(user), graph.entity_id(item))
    return graph, model, interactions, config


def batch_loss_and_selections(model, graph, interactions, config, users):
    """Forward-only loss via the public ops, with the selections recorded so
    finite-difference probes can assert selection stability."""
    from kgsr.diffusion import diffuse
    from kgsr.scoring import score_candidates, user_loss

    total, used = 0.0, 0
    selections = []
    for user in users:
        batch = diffuse(graph, model.embeddings, model.attention, [user], config.diffusion())
        selections.append(tuple(tuple(s.nodes) for s in batch.steps))
        scored = score_candidates(batch, graph, model.embeddings, model.encoder)
        (loss,), (count,) = user_loss(scored, scored.isin([set(interactions.items_for(user))]))
        if count:
            total += loss
            used += 1
    return total / used, tuple(selections)
