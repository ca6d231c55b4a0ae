"""Candidate scoring, loss and explanation-path extraction."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_graph, neighbor_entries, paths_of, random_embeddings, random_graph, table_walks, user_rows
from kgsr.diffusion import AttentionParams, DiffusionConfig, diffuse
from kgsr.errors import EntityNotFoundError
from kgsr.graph import EntityKind
from kgsr.numerics import sigmoid
from kgsr.scoring import (
    EncoderParams,
    extract_paths,
    format_path,
    score_candidates,
    user_loss,
)
from kgsr.transe import EmbeddingTable
from oracles import kept_nodes, subgraph, traversed, user_of, visited_ids


class TestHopEmbedding:
    """The encoder input row of a subgraph: the user's embedding, then the
    unweighted sums of the nodes kept at steps 1 and 2, zero when empty."""

    graph = make_graph([("u", "user"), ("a", "property"), ("b", "property"), ("c", "property")], [])
    table = EmbeddingTable(np.array([[1.0, 2], [3, 4], [-3, -4], [0, 1]]), np.zeros((1, 2)))
    encoder = EncoderParams(np.zeros((2, 6)), np.zeros((2, 2)))

    def test_single_node(self):
        batch = subgraph(self.graph, 0, [([1], [1.0])])
        x = score_candidates(batch, self.graph, self.table, self.encoder).x
        np.testing.assert_allclose(x, [[1, 2, 3, 4, 0, 0]])

    def test_opposite_vectors_cancel(self):
        batch = subgraph(self.graph, 0, [([1, 2], [0.5, 0.5]), ([3], [1.0])])
        x = score_candidates(batch, self.graph, self.table, self.encoder).x
        np.testing.assert_allclose(x, [[1, 2, 0, 0, 0, 1]])

    def test_empty_step_is_zero(self):
        batch = subgraph(self.graph, 0, [([], [])])
        x = score_candidates(batch, self.graph, self.table, self.encoder).x
        np.testing.assert_allclose(x, [[1, 2, 0, 0, 0, 0]])


class TestEncoder:
    def test_zero_weights(self):
        encoder = EncoderParams(np.zeros((2, 6)), np.zeros((2, 2)))
        _, _, out = encoder.encode(np.ones((1, 6)))
        np.testing.assert_allclose(out, [[0, 0]])

    def test_worked_positive_branch(self):
        encoder = EncoderParams(np.array([[1.0, 1, 1]]), np.array([[0.5]]))
        _, _, out = encoder.encode(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[3.0]])

    def test_worked_leaky_branch(self):
        encoder = EncoderParams(np.array([[-1.0, 0, 0]]), np.array([[1.0]]))
        _, _, out = encoder.encode(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[-0.01]])

    def test_homogeneous_in_linear_regime(self):
        rng = np.random.default_rng(0)
        w3 = np.abs(rng.normal(size=(4, 12)))
        w4 = rng.normal(size=(4, 4))
        encoder = EncoderParams(w3, w4)
        u, g1, g2 = (np.abs(rng.normal(size=4)) for _ in range(3))
        x = np.concatenate([u, g1, g2])[None, :]
        base = encoder.encode(x)[2]
        for c in (0.5, 2.0, 7.5):
            np.testing.assert_allclose(encoder.encode(c * x)[2], c * base, rtol=1e-12)


class TestSimilarity:
    """A candidate's similarity is the sigmoid of user_repr . item_embedding."""

    def test_orthogonal(self):
        assert sigmoid(np.array([1.0, 0]) @ np.array([0.0, 1])) == pytest.approx(0.5)

    def test_dot_two(self):
        assert sigmoid(np.array([2.0]) @ np.array([1.0])) == pytest.approx(0.88080, abs=1e-5)

    def test_dot_minus_two(self):
        assert sigmoid(np.array([2.0]) @ np.array([-1.0])) == pytest.approx(0.11920, abs=1e-5)


def bridge_fixture(weights):
    """user - p(step1) - two bridge properties (step2) - one outside item."""
    graph = make_graph(
        [
            ("u", "user"),
            ("p", "property"),
            ("b1", "property"),
            ("b2", "property"),
            ("it", "item"),
        ],
        [
            ("u", "r", "p"),
            ("p", "r", "b1"),
            ("p", "r", "b2"),
            ("b1", "sale", "it"),
            ("b2", "sale", "it"),
        ],
    )
    g = graph
    r = g.relation_id("r")
    steps = [
        (
            [g.entity_id("p")],
            [1.0],
            traversed([(g.entity_id("u"), r, g.entity_id("p"), False, 1.0)]),
        ),
        (
            [g.entity_id("b1"), g.entity_id("b2")],
            weights,
            traversed([
                (g.entity_id("p"), r, g.entity_id("b1"), False, 0.5),
                (g.entity_id("p"), r, g.entity_id("b2"), False, 0.5),
            ]),
        ),
    ]
    return graph, subgraph(graph, g.entity_id("u"), steps)


def unit_encoder_table(graph, item_value):
    """d=1 setup where user_repr = 1.0 and sim(item) = sigmoid(item_value)."""
    entities = np.zeros((graph.n_entities, 1))
    entities[graph.entity_id("u"), 0] = 1.0
    entities[graph.entity_id("it"), 0] = item_value
    table = EmbeddingTable(entities, np.zeros((graph.n_relations, 1)))
    encoder = EncoderParams(np.array([[1.0, 0, 0]]), np.array([[1.0]]))
    return table, encoder


class TestScoreCandidates:
    def test_single_bridge_full_weight(self):
        graph, batch = bridge_fixture([1.0, 0.0])
        table, encoder = unit_encoder_table(graph, item_value=2.0)
        scores = user_rows(score_candidates(batch, graph, table, encoder), 0)
        at = scores.items.tolist().index(graph.entity_id("it"))
        assert scores.bridge_weights[at] == pytest.approx(1.0)
        assert scores.scores[at] == pytest.approx(scores.similarities[at])

    def test_two_bridges_sum_to_one_times_sim(self):
        graph, batch = bridge_fixture([0.6, 0.4])
        table, encoder = unit_encoder_table(graph, item_value=math.log(4.0))
        scores = user_rows(score_candidates(batch, graph, table, encoder), 0)
        at = scores.items.tolist().index(graph.entity_id("it"))
        assert scores.similarities[at] == pytest.approx(0.8)
        assert scores.bridge_weights[at] == pytest.approx(1.0)
        assert scores.scores[at] == pytest.approx(0.8)

    def test_unreachable_item_absent(self):
        graph, batch = bridge_fixture([0.6, 0.4])
        far = graph.intern_entity("far_item", EntityKind.ITEM)
        table, encoder = unit_encoder_table(graph, item_value=1.0)
        table = EmbeddingTable(
            np.vstack([table.entities, np.zeros((1, 1))]), table.relations
        )
        scores = user_rows(score_candidates(batch, graph, table, encoder), 0)
        assert far not in scores.items.tolist()

    def test_score_factors_exactly(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            graph = random_graph(rng)
            table = random_embeddings(rng, graph, 5)
            params = AttentionParams.init(5, rng)
            encoder = EncoderParams.init(5, rng)
            batch = diffuse(graph, table, params, [graph.entity_id("u0")], DiffusionConfig(2, 4))
            scores = user_rows(score_candidates(batch, graph, table, encoder), 0)
            for score, weight, sim in zip(scores.scores, scores.bridge_weights, scores.similarities):
                assert score == pytest.approx(weight * sim, rel=1e-12)
                assert 0.0 < score < 1.0
                assert 0.0 < weight <= 1.0 + 1e-9

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(12)
        checked = 0
        for trial in range(20):
            graph = random_graph(rng, n_edges=25)
            table = random_embeddings(rng, graph, 4)
            params = AttentionParams.init(4, rng)
            encoder = EncoderParams.init(4, rng)
            batch = diffuse(graph, table, params, [graph.entity_id("u0")], DiffusionConfig(2, 3))
            got = user_rows(score_candidates(batch, graph, table, encoder), 0)
            expected = brute_force_scores(batch, graph, table, encoder, 0.01)
            assert got.items.tolist() == [c[0] for c in expected]
            for got_weight, got_sim, (item, weight, sim) in zip(got.bridge_weights, got.similarities, expected):
                assert got_weight == pytest.approx(weight, rel=1e-9)
                assert got_sim == pytest.approx(sim, rel=1e-9)
            checked += len(got.items)
        assert checked > 0


def brute_force_scores(batch, graph, table, encoder, slope):
    """Definitional recomputation of candidates and weights from the subgraph."""
    steps, visited = kept_nodes(batch), visited_ids(batch)
    populated = [i for i, nodes in enumerate(steps) if nodes]
    if not populated:
        return []
    last = populated[-1]
    v_of = {}
    for nodes, s in zip(steps, batch.steps):
        for node, w in zip(nodes, s.weights):
            v_of[node] = float(w)
    weights = {}
    for bridge in steps[last]:
        neighbors = {n for _, n, _ in neighbor_entries(graph, bridge)}
        for n in neighbors:
            if n in visited or graph.entity_kind(n) is not EntityKind.ITEM:
                continue
            weights[n] = weights.get(n, 0.0) + v_of[bridge]
    for i in populated:
        for node in steps[i]:
            if graph.entity_kind(node) is EntityKind.ITEM:
                weights[node] = v_of[node]
    # plain-python encoder forward
    d = table.dim
    x = list(table.entities[user_of(batch)])
    for hop in (0, 1):
        total = [0.0] * d
        if hop < len(steps):
            for node in steps[hop]:
                for j in range(d):
                    total[j] += table.entities[node][j]
        x.extend(total)
    hidden = []
    for row in encoder.w3:
        z = sum(a * b for a, b in zip(row, x))
        hidden.append(z if z > 0 else slope * z)
    repr_ = [sum(a * b for a, b in zip(row, hidden)) for row in encoder.w4]
    out = []
    for item, weight in weights.items():
        dot = sum(a * b for a, b in zip(repr_, table.entities[item]))
        sim = 1.0 / (1.0 + math.exp(-dot))
        out.append((item, weight, sim))
    out.sort(key=lambda c: (-(c[1] * c[2]), c[0]))
    return out


class TestUserLoss:
    def loss(self, *users):
        """user_loss over a chunk of users, each (scores, positives) with
        candidates 0..n-1 in that order."""
        sizes = [len(scores) for scores, _ in users]
        scores = np.array([score for user_scores, _ in users for score in user_scores], dtype=np.float64)
        scored = SimpleNamespace(
            scores=scores,
            segments=np.repeat(np.arange(len(users)), sizes),
            offsets=np.concatenate([[0], np.cumsum(sizes)]),
        )
        hits = np.concatenate([np.isin(np.arange(n), list(positives)) for n, (_, positives) in zip(sizes, users)])
        losses, counts = user_loss(scored, hits)
        return losses.tolist(), counts.tolist()

    def test_perfect_scores(self):
        assert self.loss(([1.0, 1.0], {0, 1})) == ([0.0], [2])

    def test_worked_example(self):
        (loss,), _ = self.loss(([0.5, 0.25], {0, 1}))
        assert loss == pytest.approx(1.03972, abs=1e-5)

    def test_clamped_zero_score(self):
        (loss,), _ = self.loss(([0.0], {0}))
        assert loss == pytest.approx(-math.log(1e-12), abs=1e-6)
        assert loss == pytest.approx(27.631, abs=1e-2)

    def test_missing_positive_counted(self):
        # the count is of the positives that received a score; training
        # counts the rest as skipped
        assert self.loss(([0.5], {0, 99})) == ([-math.log(0.5)], [1])

    def test_no_scored_positive(self):
        assert self.loss(([0.5], {99}), ([], {0})) == ([0.0, 0.0], [0, 0])

    def test_empty_positives(self):
        assert self.loss(([0.5], set())) == ([0.0], [0])

    def test_segments_match_each_user_alone(self):
        users = (([0.5, 0.25, 0.125], {0, 2}), ([], {1}), ([0.0, 0.75], {0, 1}), ([0.3], {5}))
        losses, counts = self.loss(*users)
        assert counts == [2, 0, 2, 0]
        assert losses == [self.loss(user)[0][0] for user in users]


def channel_fixture():
    """Two routes from the user to the item through distinct channel hubs."""
    graph = make_graph(
        [
            ("User_1", "user"),
            ("reliable", "property"),
            ("car owner", "property"),
            ("C_1", "property"),
            ("C_2", "property"),
            ("Item_4", "item"),
        ],
        [
            ("User_1", "review", "reliable"),
            ("User_1", "profile", "car owner"),
            ("reliable", "tag", "C_1"),
            ("car owner", "tag", "C_2"),
            ("C_1", "sale", "Item_4"),
            ("C_2", "sale", "Item_4"),
        ],
    )
    g = graph
    review, profile = g.relation_id("review"), g.relation_id("profile")
    tag = g.relation_id("tag")
    steps = [
        (
            [g.entity_id("reliable"), g.entity_id("car owner")],
            [0.55, 0.45],
            traversed([
                (g.entity_id("User_1"), review, g.entity_id("reliable"), False, 0.6),
                (g.entity_id("User_1"), profile, g.entity_id("car owner"), False, 0.4),
            ]),
        ),
        (
            [g.entity_id("C_1"), g.entity_id("C_2")],
            [0.7, 0.3],
            traversed([
                (g.entity_id("reliable"), tag, g.entity_id("C_1"), False, 0.5),
                (g.entity_id("car owner"), tag, g.entity_id("C_2"), False, 0.5),
            ]),
        ),
    ]
    return graph, subgraph(graph, g.entity_id("User_1"), steps)


class TestExtractPaths:
    def test_forced_chain_path(self, chain_graph):
        g = chain_graph
        rng = np.random.default_rng(1)
        table = random_embeddings(rng, g, 4)
        params = AttentionParams.init(4, rng)
        batch = diffuse(g, table, params, [g.entity_id("u1")], DiffusionConfig(2, 2))
        paths = paths_of(batch, 0, g, g.entity_id("i1"), 5)
        assert len(paths) == 1
        assert paths[0].nodes() == [g.entity_id("u1"), g.entity_id("p1"), g.entity_id("i1")]

    def test_bridge_weight_orders_paths(self):
        graph, batch = channel_fixture()
        paths = paths_of(batch, 0, graph, graph.entity_id("Item_4"), 10)
        assert len(paths) == 2
        first, second = paths
        assert graph.entity_id("C_1") in first.nodes()
        assert graph.entity_id("C_2") in second.nodes()
        assert first.weight == pytest.approx(0.55 * 0.7)
        assert second.weight == pytest.approx(0.45 * 0.3)

    def test_review_channel_sale_shape(self):
        graph, batch = channel_fixture()
        table = extract_paths(batch, graph, [0], [graph.entity_id("Item_4")], 1)
        assert format_path(table, graph) == ["User_1 -review-> reliable -tag-> C_1 -sale-> Item_4"]
        assert len(table_walks(table, 0)[0].hops) == 3  # at most steps + 1

    def test_paths_validate_against_graph(self):
        rng = np.random.default_rng(3)
        validated = 0
        for trial in range(20):
            graph = random_graph(rng, n_edges=25)
            table = random_embeddings(rng, graph, 4)
            params = AttentionParams.init(4, rng)
            encoder = EncoderParams.init(4, rng)
            batch = diffuse(graph, table, params, [graph.entity_id("u0")], DiffusionConfig(2, 3))
            for item in user_rows(score_candidates(batch, graph, table, encoder), 0).items.tolist():
                for path in paths_of(batch, 0, graph, item, 3):
                    assert path.user == graph.entity_id("u0")
                    assert path.item == item
                    current = path.user
                    for hop in path.hops:
                        assert (hop.relation, hop.node, hop.inverse) in neighbor_entries(graph, current)
                        current = hop.node
                    validated += 1
        assert validated > 10

    def test_non_candidate_rejected(self, chain_graph):
        g = chain_graph
        rng = np.random.default_rng(2)
        table = random_embeddings(rng, g, 4)
        params = AttentionParams.init(4, rng)
        batch = diffuse(g, table, params, [g.entity_id("u1")], DiffusionConfig(1, 1))
        far = g.intern_entity("lonely", EntityKind.ITEM)
        with pytest.raises(EntityNotFoundError):
            paths_of(batch, 0, g, far, 1)

    def test_no_queries_give_an_empty_table(self, chain_graph):
        g = chain_graph
        rng = np.random.default_rng(2)
        batch = diffuse(g, random_embeddings(rng, g, 4), AttentionParams.init(4, rng), [g.entity_id("u1")],
                        DiffusionConfig(2, 2))
        table = extract_paths(batch, g, [], [], 1)
        assert table.query.tolist() == []
        assert table.node.shape == (0, 3)
        assert format_path(table, g) == []

    def test_bad_limit(self, chain_graph):
        g = chain_graph
        rng = np.random.default_rng(2)
        table = random_embeddings(rng, g, 4)
        params = AttentionParams.init(4, rng)
        batch = diffuse(g, table, params, [g.entity_id("u1")], DiffusionConfig(2, 2))
        with pytest.raises(ValueError):
            paths_of(batch, 0, g, g.entity_id("i1"), 0)


def test_format_path_marks_inverse_edges():
    graph = make_graph(
        [("u", "user"), ("p", "property"), ("it", "item")],
        [("u", "r", "p"), ("it", "sale", "p")],
    )
    rng = np.random.default_rng(0)
    table = random_embeddings(rng, graph, 4)
    params = AttentionParams.init(4, rng)
    batch = diffuse(graph, table, params, [graph.entity_id("u")], DiffusionConfig(2, 2))
    table = extract_paths(batch, graph, [0], [graph.entity_id("it")], 1)
    assert format_path(table, graph) == ["u -r-> p <-sale- it"]
