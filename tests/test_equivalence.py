"""The CSR adjacency and the segmented diffusion, scoring and training
paths against the per-user, dict-based oracles in ``oracles.py``, on random
graphs."""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_graph, random_embeddings, random_graph
from kgsr import diffusion
from kgsr.diffusion import (
    AttentionParams,
    DiffusionConfig,
    DiffusionStep,
    SubgraphState,
    diffuse,
    diffuse_batch,
    user_chunks,
)
from kgsr.graph import EntityKind, InteractionSet
from kgsr.numerics import scatter_add_rows, segment_rows, segment_softmax, stable_softmax
from kgsr.scoring import EncoderParams, extract_paths, score_batch, score_candidates
from kgsr.training import ModelParams, TrainConfig, forward_backward

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


multi_user_graphs = st.builds(
    dict,
    seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(2, 6),
    n_items=st.integers(1, 8),
    n_properties=st.integers(1, 6),
    n_relations=st.integers(1, 3),
    n_edges=st.integers(0, 40),
)


@contextmanager
def chunk_size(size):
    """Run users `size` at a time, so that small batches cross chunk boundaries."""
    saved = diffusion.CHUNK_USERS
    diffusion.CHUNK_USERS = size
    try:
        yield
    finally:
        diffusion.CHUNK_USERS = saved


def assert_state_matches_oracle(state, graph, table, attention, config):
    expected_steps, expected_visited = oracles.diffuse(graph, table, attention, state.user, config)
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


def assert_scores_match(scores, expected):
    assert scores.items.tolist() == [row[0] for row in expected]
    for got, (item, sim, weight, score) in zip(scores, expected, strict=True):
        assert got.item == item
        assert abs(got.similarity - sim) <= TOL
        assert abs(got.bridge_weight - weight) <= TOL
        assert abs(got.score - score) <= TOL


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
    state = diffuse(graph, table, attention, graph.entity_id("u0"), config)
    assert_state_matches_oracle(state, graph, table, attention, config)


@given(
    spec=multi_user_graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans(),
    chunk=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_batched_diffusion_matches_per_user_oracle(spec, top_n, steps, flat, chunk):
    graph, table, attention, _ = setup(spec, flat=flat)
    config = DiffusionConfig(steps, top_n)
    users = graph.entities_of_kind(EntityKind.USER)
    users = users + users[:1]  # a user twice in one batch gets two independent segments
    batch = diffuse_batch(graph, table, attention, users, config)
    for segment, user in enumerate(users):
        state = batch.state(segment)
        assert state.user == user
        assert_state_matches_oracle(state, graph, table, attention, config)
    with chunk_size(chunk):
        chunked = [
            state
            for chunk in user_chunks(users)
            for state in diffuse_batch(graph, table, attention, chunk, config).states()
        ]
    assert [s.user for s in chunked] == users
    for state, expected in zip(chunked, batch.states(), strict=True):
        assert state.visited == expected.visited
        assert [s.nodes for s in state.steps] == [s.nodes for s in expected.steps]


@given(spec=multi_user_graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans())
@settings(max_examples=100, deadline=None)
def test_batched_scores_match_per_user_oracle(spec, top_n, steps, flat):
    graph, table, attention, encoder = setup(spec, flat=flat)
    users = graph.entities_of_kind(EntityKind.USER)
    batch = diffuse_batch(graph, table, attention, users, DiffusionConfig(steps, top_n))
    scored = score_batch(batch, graph, table, encoder)
    assert scored.offsets[-1] == len(scored.scores)
    for segment in range(len(users)):
        state = batch.state(segment)
        expected, _ = oracles.score_candidates(state, graph, table, encoder)
        assert_scores_match(scored.user(segment), expected)
        assert_scores_match(score_candidates(state, graph, table, encoder), expected)


@given(
    spec=multi_user_graphs, top_n=st.integers(1, 5), steps=st.integers(1, 3), flat=st.booleans(),
    contrastive=st.booleans(), chunk=st.integers(1, 3), picks=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_forward_backward_matches_per_user_oracle(spec, top_n, steps, flat, contrastive, chunk, picks):
    graph, table, attention, encoder = setup(spec, flat=flat)
    model = ModelParams(attention, encoder, table)
    config = TrainConfig(dim=4, top_n=top_n, steps=steps, contrastive=contrastive)
    rng = np.random.default_rng(picks)
    interactions = InteractionSet()
    items = graph.entities_of_kind(EntityKind.ITEM)
    users = graph.entities_of_kind(EntityKind.USER)
    for user in users:  # some users get no positives and are skipped before diffusion
        for item in rng.choice(items, size=int(rng.integers(0, len(items) + 1)), replace=False).tolist():
            interactions.add(user, item)
    with chunk_size(chunk):
        got = forward_backward(users, model, graph, interactions, config, rng=np.random.default_rng(picks))
    loss, grads, used, skipped, positives_skipped = oracles.forward_backward(
        users, model, graph, interactions, config, rng=np.random.default_rng(picks)
    )
    assert (got.users_used, got.users_skipped, got.positives_skipped) == (used, skipped, positives_skipped)
    assert abs(got.loss - loss) <= TOL * max(1.0, abs(loss))
    for name, expected in grads.families().items():
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got.grads.families()[name], expected, rtol=0, atol=TOL * scale)


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
    assert_scores_match(scores, expected)

    # the bridge entries that the backward pass reads: (candidate rank, slot)
    candidates = state.memo.candidates
    rank_of = {item: rank for rank, item in enumerate(scores.items.tolist())}
    entries = sorted(
        ((rank_of[item], slot) for item, slot in zip(
            candidates.items[candidates.entry_item].tolist(), candidates.entry_slot.tolist()
        )),
        key=lambda entry: entry[0],
    )
    offsets = np.cumsum([0] + [len(s.nodes) for s in state.steps])
    expected_entries = [
        (rank, int(offsets[step] + pos)) for rank, refs in enumerate(bridges) for step, pos in refs
    ]
    assert entries == expected_entries
    slot_nodes = [node for s in state.steps for node in s.nodes]
    assert candidates.slot_node.tolist() == slot_nodes


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


@given(spec=multi_user_graphs, top_n=st.integers(1, 4), steps=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_chunk_states_share_candidates_and_match_hand_built_states(spec, top_n, steps):
    graph, table, attention, encoder = setup(spec)
    users = graph.entities_of_kind(EntityKind.USER)
    batch = diffuse_batch(graph, table, attention, users, DiffusionConfig(steps, top_n))
    states = batch.states()
    for state in states:
        fresh = SubgraphState(state.user, state.steps, state.visited)
        scores = score_candidates(state, graph, table, encoder)
        expected = score_candidates(fresh, graph, table, encoder)
        assert_scores_match(scores, [(c.item, c.similarity, c.bridge_weight, c.score) for c in expected])
        for cand in scores:
            paths = extract_paths(state, graph, cand.item, limit=3)
            assert paths == extract_paths(fresh, graph, cand.item, limit=3)
    assert len({id(state.memo.candidates) for state in states}) == 1

    # new triples replace the adjacency index, so every state rebuilds its index from the chunk
    item = graph.intern_entity("i_new", EntityKind.ITEM)
    relation = graph.intern_relation("r_new")
    for state in states:
        if state.populated_steps():
            graph.add_triple(state.steps[state.populated_steps()[-1]].nodes[0], relation, item)
    table = random_embeddings(np.random.default_rng(spec["seed"]), graph, 4)
    for state in states:
        fresh = SubgraphState(state.user, state.steps, state.visited)
        got = score_candidates(state, graph, table, encoder)
        assert got.items.tolist() == score_candidates(fresh, graph, table, encoder).items.tolist()
        assert (item in got.items.tolist()) == bool(state.populated_steps())
        assert state.memo.adjacency is graph.adjacency()


def test_chunk_state_paths_close_from_their_own_last_step():
    # u1's frontier empties after one step; u2 reaches i1 through its second step
    graph = make_graph(
        [("u1", "user"), ("u2", "user"), ("p1", "property"), ("p2", "property"), ("p3", "property"), ("i1", "item")],
        [("u1", "r", "p1"), ("u2", "r", "p2"), ("p2", "r", "p3"), ("p3", "r", "i1")],
    )
    table = random_embeddings(np.random.default_rng(0), graph, 4)
    attention = AttentionParams.init(4, None, np.random.default_rng(1))
    users = [graph.entity_id("u1"), graph.entity_id("u2")]
    state = diffuse_batch(graph, table, attention, users, DiffusionConfig(2, 3)).state(1)
    assert state.populated_steps() == [0, 1]
    paths = extract_paths(state, graph, graph.entity_id("i1"))
    assert [graph.entity_name(node) for node in paths[0].nodes()] == ["u2", "p2", "p3", "i1"]
    assert paths == extract_paths(SubgraphState(state.user, state.steps, state.visited), graph, graph.entity_id("i1"))


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


@given(seed=st.integers(0, 2**32 - 1), n_segments=st.integers(1, 6), n_rows=st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_segment_kernels_match_per_segment_loops(seed, n_segments, n_rows):
    rng = np.random.default_rng(seed)
    segments = np.sort(rng.integers(0, n_segments, size=n_rows))  # some segments stay empty
    values = rng.normal(size=(n_rows, 3)) * 20
    softmax = segment_softmax(values[:, 0], segments)
    sums = segment_rows(values, segments, n_segments)
    for segment in range(n_segments):
        rows = segments == segment
        np.testing.assert_allclose(softmax[rows], stable_softmax(values[rows, 0]), rtol=0, atol=TOL)
        np.testing.assert_allclose(sums[segment], values[rows].sum(axis=0), rtol=0, atol=TOL)
