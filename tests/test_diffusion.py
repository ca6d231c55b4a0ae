"""Attentive diffusion: edge attention, score propagation, selection, expansion."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_graph, random_embeddings, random_graph
from kgsr.diffusion import AttentionParams, DiffusionConfig, _attention_forward, _node_scores, _top_n, diffuse
from kgsr.numerics import segment_softmax, stable_softmax
from kgsr.transe import EmbeddingTable


class TestEdgeAttention:
    def test_single_edge(self):
        table = EmbeddingTable(np.eye(3), np.zeros((1, 3)))
        params = AttentionParams(np.zeros((3, 6)), np.zeros((3, 3)))
        seg, centrals, source_pos, dst = np.array([0]), np.array([1]), np.array([0]), np.array([2])
        alpha = _attention_forward(params, table.entities[[0]], seg, centrals, source_pos, dst, table.entities).alpha
        assert alpha[0] == pytest.approx(1.0)

    def test_zero_parameters_symmetric(self):
        table = EmbeddingTable(np.eye(4), np.zeros((1, 4)))
        params = AttentionParams(np.zeros((4, 8)), np.zeros((4, 4)))
        seg, centrals, source_pos, dst = np.array([0]), np.array([1]), np.array([0, 0]), np.array([2, 3])
        alpha = _attention_forward(params, table.entities[[0]], seg, centrals, source_pos, dst, table.entities).alpha
        assert alpha[0] == pytest.approx(0.5)
        assert alpha[1] == pytest.approx(0.5)

    def test_worked_two_edge_example(self):
        # user (1,0), source (0,1); w1 picks (user[0], source[1]); w2 identity;
        # targets (1,1) and (0,-1) give pre-normalization sigmoid(2), sigmoid(-1)
        entities = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, -1.0]])
        params = AttentionParams(np.array([[1.0, 0, 0, 0], [0, 0, 0, 1.0]]), np.eye(2))
        seg, centrals, source_pos, dst = np.array([0]), np.array([1]), np.array([0, 0]), np.array([2, 3])
        alpha = _attention_forward(params, entities[[0]], seg, centrals, source_pos, dst, entities).alpha
        # independent evaluation of the two-layer score
        s1 = 1.0 / (1.0 + math.exp(-2.0))
        s2 = 1.0 / (1.0 + math.exp(1.0))
        assert s1 == pytest.approx(0.88080, abs=1e-5)
        assert s2 == pytest.approx(0.26894, abs=1e-5)
        denominator = math.exp(s1) + math.exp(s2)
        assert alpha[0] == pytest.approx(math.exp(s1) / denominator, abs=1e-12)
        assert alpha[0] == pytest.approx(0.6484, abs=1e-4)
        assert alpha[1] == pytest.approx(0.3516, abs=1e-4)

    def test_empty_frontier(self):
        table = EmbeddingTable(np.eye(2), np.zeros((1, 2)))
        params = AttentionParams(np.zeros((2, 4)), np.zeros((2, 2)))
        none = np.zeros(0, dtype=np.intp)
        alpha = _attention_forward(params, table.entities[[0]], none, none, none, none, table.entities).alpha
        assert alpha.shape == (0,)


class TestPropagate:
    def test_single_candidate(self):
        candidates, _, raw = _node_scores(np.array([5]), np.array([1.0]))
        assert candidates.tolist() == [5]
        assert stable_softmax(raw)[0] == pytest.approx(1.0)

    def test_softmax_of_three(self):
        _, _, raw = _node_scores(np.array([1, 2, 3]), np.array([0.5, 0.3, 0.2]))
        np.testing.assert_allclose(stable_softmax(raw), [0.3907, 0.3199, 0.2894], atol=1e-4)

    def test_two_parent_aggregation(self):
        # candidate 10 fed by parents 0 (score .6, alpha .5) and 1 (score .4, alpha .25);
        # candidate 11 fed by parent 0 alone (alpha .5)
        central_scores, source_pos = np.array([0.6, 0.4]), np.array([0, 1, 0])
        alpha = np.array([0.5, 0.25, 0.5])
        candidates, cand_pos, raw = _node_scores(np.array([10, 10, 11]), central_scores[source_pos] * alpha)
        assert candidates.tolist() == [10, 11]
        assert cand_pos.tolist() == [0, 0, 1]
        np.testing.assert_allclose(raw, [0.40, 0.30])
        np.testing.assert_allclose(stable_softmax(raw), [0.5250, 0.4750], atol=1e-4)

    def test_normalized_sums_to_one(self):
        rng = np.random.default_rng(0)
        _, _, raw = _node_scores(np.arange(1, 9), stable_softmax(rng.normal(size=8)))
        assert stable_softmax(raw).sum() == pytest.approx(1.0, abs=1e-6)


class TestSelect:
    """_top_n keeps a segment's best raw scores; segment_softmax re-weights
    the kept ones. Every case here is one segment."""

    def test_whole_set(self):
        ids, raw = np.array([1, 2]), np.array([0.4, 0.3])
        kept = _top_n(np.zeros(2, dtype=np.intp), ids, raw, 10)
        assert ids[kept].tolist() == [1, 2]
        np.testing.assert_allclose(segment_softmax(raw[kept], np.zeros(2, dtype=np.intp)), [0.5250, 0.4750], atol=1e-4)

    def test_top_two(self):
        ids, raw = np.array([1, 2, 3]), np.array([0.9, 0.5, 0.1])
        kept = _top_n(np.zeros(3, dtype=np.intp), ids, raw, 2)
        assert ids[kept].tolist() == [1, 2]
        np.testing.assert_allclose(segment_softmax(raw[kept], np.zeros(2, dtype=np.intp)), [0.5987, 0.4013], atol=1e-4)

    def test_tie_prefers_smaller_id(self):
        ids, raw = np.array([7, 3]), np.array([0.5, 0.5])
        kept = _top_n(np.zeros(2, dtype=np.intp), ids, raw, 1)
        assert ids[kept].tolist() == [3]
        np.testing.assert_allclose(segment_softmax(raw[kept], np.zeros(1, dtype=np.intp)), [1.0])

    def test_empty(self):
        none = np.zeros(0, dtype=np.intp)
        kept = _top_n(none, none, np.zeros(0), 3)
        assert kept.size == 0
        assert segment_softmax(np.zeros(0)[kept], none).size == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n_nodes = int(rng.integers(1, 12))
            ids = rng.choice(100, size=n_nodes, replace=False)
            scores = {int(i): float(rng.integers(0, 4)) / 4.0 for i in ids}
            top_n = int(rng.integers(1, 6))
            expected = [n for n, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))][:top_n]
            raw = np.array(list(scores.values()))
            assert ids[_top_n(np.zeros(n_nodes, dtype=np.intp), ids, raw, top_n)].tolist() == expected


@given(arrays(np.float64, st.integers(1, 12), elements=st.floats(-30, 30)), st.floats(-30, 30))
@settings(max_examples=100, deadline=None)
def test_softmax_shift_invariance_and_normalization(values, shift):
    base = stable_softmax(values)
    shifted = stable_softmax(values + shift)
    assert base.sum() == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(base, shifted, atol=1e-9)
    assert np.all(base > 0)


class TestDiffuse:
    def small_setup(self, graph, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        table = random_embeddings(rng, graph, dim)
        params = AttentionParams.init(dim, rng)
        return table, params

    def test_user_with_no_neighbors(self):
        graph = make_graph([("u1", "user"), ("i1", "item")], [])
        table, params = self.small_setup(graph)
        batch = diffuse(graph, table, params, [graph.entity_id("u1")], DiffusionConfig(steps=2, top_n=3))
        assert len(batch.steps) == 2
        assert all(len(step.nodes) == 0 for step in batch.steps)
        assert np.flatnonzero(batch.visited[0]).tolist() == [graph.entity_id("u1")]

    def test_forced_chain(self, chain_graph):
        table, params = self.small_setup(chain_graph)
        user = chain_graph.entity_id("u1")
        batch = diffuse(chain_graph, table, params, [user], DiffusionConfig(steps=2, top_n=1))
        assert batch.steps[0].nodes.tolist() == [chain_graph.entity_id("p1")]
        np.testing.assert_allclose(batch.steps[0].weights, [1.0])
        assert batch.steps[1].nodes.tolist() == [chain_graph.entity_id("i1")]
        np.testing.assert_allclose(batch.steps[1].weights, [1.0])

    def test_star_top3(self):
        entities = [("u1", "user")] + [(f"p{i}", "property") for i in range(5)]
        triples = [("u1", "r", f"p{i}") for i in range(5)]
        graph = make_graph(entities, triples)
        table, params = self.small_setup(graph, seed=2)
        batch = diffuse(graph, table, params, [graph.entity_id("u1")], DiffusionConfig(steps=1, top_n=3))
        assert len(batch.steps[0].nodes) == 3
        assert batch.steps[0].weights.sum() == pytest.approx(1.0, abs=1e-6)
        # brute-force the expected selection from the attention and aggregation kernels
        user = graph.entity_id("u1")
        adjacency = graph.adjacency()
        _, entry = adjacency.gather(np.array([user]))
        dst = adjacency.neighbor[entry]
        seg, centrals, source_pos = np.array([0]), np.array([user]), np.zeros(len(dst), dtype=np.intp)
        alpha = _attention_forward(params, table.entities[[user]], seg, centrals, source_pos, dst, table.entities).alpha
        candidates, _, raw = _node_scores(dst, alpha)
        expected = [n for _, n in sorted(zip((-raw).tolist(), candidates.tolist()))][:3]
        assert batch.steps[0].nodes.tolist() == expected

    def test_non_user_start_rejected(self, chain_graph):
        table, params = self.small_setup(chain_graph)
        with pytest.raises(ValueError):
            diffuse(chain_graph, table, params, [chain_graph.entity_id("i1")], DiffusionConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        graph = random_graph(rng)
        table, params = self.small_setup(graph, seed=9)
        user = graph.entity_id("u0")
        config = DiffusionConfig(steps=2, top_n=4)
        a = diffuse(graph, table, params, [user], config)
        b = diffuse(graph, table, params, [user], config)
        assert [s.nodes.tolist() for s in a.steps] == [s.nodes.tolist() for s in b.steps]
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.weights, sb.weights)

    def test_node_count_bound_and_disjoint_steps(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            graph = random_graph(rng, n_edges=30)
            table, params = self.small_setup(graph, seed=trial)
            config = DiffusionConfig(steps=2, top_n=3)
            batch = diffuse(graph, table, params, [graph.entity_id("u0")], config)
            assert batch.node_count <= 1 + config.steps * config.top_n
            seen: set[int] = set()
            for step in batch.steps:
                nodes = set(step.nodes.tolist())
                assert not (nodes & seen)
                assert batch.users[0] not in nodes
                seen |= nodes
                if nodes:
                    assert step.weights.sum() == pytest.approx(1.0, abs=1e-6)

    def test_visited_never_reenters(self):
        # a -> b -> c -> a cycle hanging off the user: once a is absorbed the
        # cycle cannot walk back into it or the user
        graph = make_graph(
            [("u", "user"), ("a", "property"), ("b", "property"), ("c", "property")],
            [("u", "r", "a"), ("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")],
        )
        table, params = self.small_setup(graph)
        batch = diffuse(graph, table, params, [graph.entity_id("u")], DiffusionConfig(steps=3, top_n=5))
        assert batch.steps[0].nodes.tolist() == [graph.entity_id("a")]
        assert sorted(batch.steps[1].nodes) == [graph.entity_id("b"), graph.entity_id("c")]
        assert len(batch.steps[2].nodes) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusionConfig(steps=0)
    with pytest.raises(ValueError):
        DiffusionConfig(top_n=0)


def test_attention_param_shapes():
    with pytest.raises(ValueError):
        AttentionParams(np.zeros((3, 5)), np.zeros((2, 3)))  # odd columns
    with pytest.raises(ValueError):
        AttentionParams(np.zeros((3, 8)), np.zeros((4, 2)))  # w2 mismatch
