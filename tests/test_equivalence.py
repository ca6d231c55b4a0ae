"""The CSR adjacency and the array diffusion and scoring paths against the
dict-based oracles in ``oracles.py``, on random graphs."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_embeddings, random_graph
from kgsr.diffusion import AttentionParams, DiffusionConfig, DiffusionStep, SubgraphState, diffuse
from kgsr.numerics import scatter_add_rows
from kgsr.scoring import EncoderParams, extract_paths, score_candidates

TOL = 1e-12

graphs = st.builds(
    dict,
    seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(1, 3),
    n_items=st.integers(1, 8),
    n_properties=st.integers(1, 6),
    n_relations=st.integers(1, 3),
    n_edges=st.integers(0, 40),
)


def setup(spec, dim=4, flat=False):
    """Graph, embeddings and parameters; flat parameters make every edge
    attention and every similarity equal, so ties are everywhere."""
    rng = np.random.default_rng(spec["seed"])
    graph = random_graph(
        rng, spec["n_users"], spec["n_items"], spec["n_properties"], spec["n_relations"], spec["n_edges"]
    )
    table = random_embeddings(rng, graph, dim)
    attention = AttentionParams.init(dim, None, rng)
    encoder = EncoderParams.init(dim, None, rng)
    if flat:
        attention = AttentionParams(np.zeros_like(attention.w1), np.zeros_like(attention.w2))
        encoder = EncoderParams(np.zeros_like(encoder.w3), np.zeros_like(encoder.w4))
    return graph, table, attention, encoder


@given(spec=graphs)
@settings(max_examples=60, deadline=None)
def test_csr_neighbors_match_dict_adjacency(spec):
    graph, *_ = setup(spec)
    expected = oracles.dict_adjacency(graph)
    for entity in range(graph.n_entities):
        assert graph.neighbors(entity) == expected[entity]
        assert graph.degree(entity) == len(expected[entity])


@given(spec=graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans())
@settings(max_examples=120, deadline=None)
def test_diffuse_matches_oracle(spec, top_n, steps, flat):
    graph, table, attention, _ = setup(spec, flat=flat)
    config = DiffusionConfig(steps, top_n)
    user = graph.entity_id("u0")
    state = diffuse(graph, table, attention, user, config, keep_trace=True)
    expected_steps, expected_visited = oracles.diffuse(graph, table, attention, user, config)
    assert state.visited == expected_visited
    for got, expected in zip(state.steps, expected_steps, strict=True):
        assert got.nodes == expected.nodes
        np.testing.assert_allclose(got.weights, expected.weights, rtol=0, atol=TOL)
        edges = [(e.source, e.relation, e.target, e.direction) for e in got.edges]
        assert edges == [e[:4] for e in expected.edges]
        assert len(got.edges) == len(expected.edges)
        np.testing.assert_allclose(
            [e.attention for e in got.edges], [e[4] for e in expected.edges], rtol=0, atol=TOL
        )


def oracle_state(graph, table, attention, user, config):
    """A SubgraphState holding the oracle's diffusion, so that scoring is
    compared on identical subgraphs."""
    steps, visited = oracles.diffuse(graph, table, attention, user, config)
    return SubgraphState(
        user,
        [DiffusionStep(s.nodes, s.weights, []) for s in steps],
        visited,
    )


@given(spec=graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans())
@settings(max_examples=120, deadline=None)
def test_score_candidates_match_oracle(spec, top_n, steps, flat):
    graph, table, attention, encoder = setup(spec, flat=flat)
    user = graph.entity_id("u0")
    state = oracle_state(graph, table, attention, user, DiffusionConfig(steps, top_n))
    scores = score_candidates(state, graph, table, encoder)
    expected, bridges = oracles.score_candidates(state, graph, table, encoder)
    assert not isinstance(scores, tuple)
    assert len(scores) == len(expected)
    assert scores.items.tolist() == [row[0] for row in expected]
    for got, (item, sim, weight, score) in zip(scores, expected):
        assert got.item == item
        assert abs(got.similarity - sim) <= TOL
        assert abs(got.bridge_weight - weight) <= TOL
        assert abs(got.score - score) <= TOL

    traced, trace = score_candidates(state, graph, table, encoder, keep_trace=True)
    assert traced.items.tolist() == scores.items.tolist()
    if not state.populated_steps():
        assert trace is None and not expected
        return
    offsets = np.cumsum([0] + [len(s.nodes) for s in state.steps])
    expected_entries = [
        (rank, int(offsets[step] + pos)) for rank, refs in enumerate(bridges) for step, pos in refs
    ]
    assert list(zip(trace.bridge_rank.tolist(), trace.bridge_slot.tolist())) == expected_entries


@given(spec=graphs, top_n=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_extract_paths_index_is_reused_and_stays_valid(spec, top_n):
    graph, table, attention, encoder = setup(spec)
    state = diffuse(graph, table, attention, graph.entity_id("u0"), DiffusionConfig(2, top_n))
    scores = score_candidates(state, graph, table, encoder)
    memo = state.memo
    for cand in scores:
        paths = extract_paths(state, graph, cand.item, limit=3)
        assert paths and all(path.item == cand.item for path in paths)
        assert state.memo is memo
        fresh = SubgraphState(state.user, state.steps, state.visited)
        assert extract_paths(fresh, graph, cand.item, limit=3) == paths


@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 30), width=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_scatter_add_rows_is_bitwise_add_at(seed, n_rows, width):
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(8, width))
    rows = rng.integers(0, 8, size=n_rows)  # repeats are likely
    values = rng.normal(size=(n_rows, 2 * width))[:, width:]  # a strided view, as in the backward pass
    expected = target.copy()
    np.add.at(expected, rows, values)
    scatter_add_rows(target, rows, values)
    assert target.tobytes() == expected.tobytes()
