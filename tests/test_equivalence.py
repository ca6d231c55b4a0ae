"""The CSR adjacency and the segmented diffusion, scoring and training
paths against the per-user, dict-based oracles in ``oracles.py``, on random
graphs."""
from __future__ import annotations

import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    make_graph, neighbor_entries, paths_of, random_embeddings, random_graph, score_rows, table_walks, user_rows,
)
from kgsr import diffusion, training
from kgsr.demo import write_planted_dataset
from kgsr.diffusion import AttentionParams, DiffusionConfig, diffuse, user_chunks
from kgsr.errors import EntityNotFoundError
from kgsr.evaluation import evaluate_model, evaluate_ranking
from kgsr.graph import (
    EntityKind,
    InteractionSet,
    add_purchase_triples,
    ingest_interactions,
    ingest_triples,
    split_interactions,
)
from kgsr.numerics import scatter_add_rows, segment_rows, segment_softmax, stable_softmax
from kgsr.scoring import SCORE_FLOOR, EncoderParams, extract_paths, format_path, score_candidates, user_loss
from kgsr.training import ModelParams, TrainConfig, forward_backward, initialize_model, make_checkpoint, zero_families

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


any_user_graphs = st.builds(
    dict,
    seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(1, 6),
    n_items=st.integers(1, 8),
    n_properties=st.integers(1, 6),
    n_relations=st.integers(1, 3),
    n_edges=st.integers(0, 40),
)


@contextmanager
def patched(module, name, wrapper):
    """Replace module.name by wrapper(original) for the duration."""
    original = getattr(module, name)
    setattr(module, name, wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def chunk_size(size):
    """Run users `size` at a time, so that small batches cross chunk boundaries."""
    return patched(diffusion, "CHUNK_USERS", lambda _: size)


def assert_state_matches_oracle(state, graph, table, attention, config):
    expected_steps, expected_visited = oracles.diffuse(graph, table, attention, oracles.user_of(state), config)
    assert oracles.visited_ids(state) == expected_visited
    for got, expected in zip(state.steps, expected_steps, strict=True):
        assert got.nodes.tolist() == expected.nodes
        np.testing.assert_allclose(got.weights, expected.weights, rtol=0, atol=TOL)
        edges = got.edges
        assert len(edges) == len(expected.edges)
        assert edges.source.tolist() == [e[0] for e in expected.edges]
        assert edges.relation.tolist() == [e[1] for e in expected.edges]
        assert edges.target.tolist() == [e[2] for e in expected.edges]
        assert edges.inverse.tolist() == [e[3] for e in expected.edges]


def assert_scores_match(scores, expected):
    assert scores.items.tolist() == [row[0] for row in expected]
    for (got_item, got_sim, got_weight, got_score), (item, sim, weight, score) in zip(
        score_rows(scores), expected, strict=True
    ):
        assert got_item == item
        assert abs(got_sim - sim) <= TOL
        assert abs(got_weight - weight) <= TOL
        assert abs(got_score - score) <= TOL


def setup(spec, dim=4, flat=False):
    """Graph, embeddings and parameters; flat parameters make every edge
    attention and every similarity equal, so ties are everywhere."""
    rng = np.random.default_rng(spec["seed"])
    graph = random_graph(
        rng, spec["n_users"], spec["n_items"], spec["n_properties"], spec["n_relations"], spec["n_edges"]
    )
    table = random_embeddings(rng, graph, dim)
    attention = AttentionParams.init(dim, rng)
    encoder = EncoderParams.init(dim, rng)
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
        assert neighbor_entries(graph, entity) == expected[entity]
    # every row at once, in query order
    entities = list(range(graph.n_entities))[::-1]
    position, relation, neighbor, inverse = graph.neighbors(entities)
    rows = [(entities[p], r, n, i) for p, r, n, i in zip(
        position.tolist(), relation.tolist(), neighbor.tolist(), inverse.tolist()
    )]
    assert rows == [(entity, *entry) for entity in entities for entry in expected[entity]]


@given(spec=graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans())
@settings(max_examples=120, deadline=None)
def test_diffuse_matches_oracle(spec, top_n, steps, flat):
    graph, table, attention, _ = setup(spec, flat=flat)
    config = DiffusionConfig(steps, top_n)
    state = diffuse(graph, table, attention, [graph.entity_id("u0")], config)
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
    batch = diffuse(graph, table, attention, users, config)
    states = [oracles.user_subgraph(batch, segment) for segment in range(len(users))]
    for state, user in zip(states, users, strict=True):
        assert oracles.user_of(state) == user
        assert_state_matches_oracle(state, graph, table, attention, config)
    with chunk_size(chunk):
        batches = [diffuse(graph, table, attention, chunk, config) for chunk in user_chunks(users)]
    chunked = [oracles.user_subgraph(b, segment) for b in batches for segment in range(len(b.users))]
    assert [oracles.user_of(s) for s in chunked] == users
    for state, expected in zip(chunked, states, strict=True):
        assert oracles.visited_ids(state) == oracles.visited_ids(expected)
        assert oracles.kept_nodes(state) == oracles.kept_nodes(expected)


@given(spec=multi_user_graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans())
@settings(max_examples=100, deadline=None)
def test_batched_scores_match_per_user_oracle(spec, top_n, steps, flat):
    graph, table, attention, encoder = setup(spec, flat=flat)
    users = graph.entities_of_kind(EntityKind.USER)
    batch = diffuse(graph, table, attention, users, DiffusionConfig(steps, top_n))
    scored = score_candidates(batch, graph, table, encoder)
    assert scored.offsets[-1] == len(scored.items) == len(scored)
    for segment in range(len(users)):
        state = oracles.user_subgraph(batch, segment)
        trace: dict = {}
        expected, _ = oracles.score_candidates(state, graph, table, encoder, trace=trace)
        assert_scores_match(user_rows(scored, segment), expected)
        assert_scores_match(user_rows(score_candidates(state, graph, table, encoder), 0), expected)
        np.testing.assert_allclose(scored.user_repr[segment], trace["user_repr"], rtol=0, atol=TOL)


@given(
    spec=multi_user_graphs, top_n=st.integers(1, 5), steps=st.integers(1, 3), flat=st.booleans(),
    contrastive=st.booleans(), chunk=st.integers(1, 3), picks=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_forward_backward_matches_per_user_oracle(spec, top_n, steps, flat, contrastive, chunk, picks):
    graph, table, attention, encoder = setup(spec, flat=flat)
    model = ModelParams(attention, encoder, table)
    config = TrainConfig(top_n=top_n, steps=steps, contrastive=contrastive)
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
    for name, expected in grads.items():
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(got.grads[name], expected, rtol=0, atol=TOL * scale)


# scores at, around and below the floor, and scores whose complement is at or below it
EXTREME_SCORES = st.sampled_from([0.0, SCORE_FLOOR / 2, SCORE_FLOOR, 2 * SCORE_FLOOR, 1.0 - SCORE_FLOOR / 2, 1.0])


@given(
    spec=any_user_graphs, top_n=st.integers(1, 5), steps=st.integers(1, 3), flat=st.booleans(),
    contrastive=st.booleans(), chunk=st.integers(1, 3), picks=st.integers(0, 2**32 - 1),
    extremes=st.lists(st.tuples(st.integers(0, 2**16), EXTREME_SCORES), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_chunk_loss_matches_per_user_oracle_bitwise(spec, top_n, steps, flat, contrastive, chunk, picks, extremes):
    """The per-chunk loss, skip counts and dL/dScore of every chunk equal the
    per-user loop's bit for bit, with some scores forced to the floors."""
    graph, table, attention, encoder = setup(spec, flat=flat)
    model = ModelParams(attention, encoder, table)
    config = TrainConfig(top_n=top_n, steps=steps, contrastive=contrastive)
    rng = np.random.default_rng(picks)
    items = graph.entities_of_kind(EntityKind.ITEM)
    # small random item subsets: some positives are no candidate, some users
    # score none, and a user's contrastive draw leaves some negatives out
    todo = [(user, set(rng.choice(items, size=int(rng.integers(1, min(3, len(items)) + 1)), replace=False).tolist()))
            for user in graph.entities_of_kind(EntityKind.USER)]
    chunks = []

    def forced(score):
        def scored_chunk(*args):
            scored = score(*args)
            for row, value in extremes:
                if len(scored):
                    scored.scores[row % len(scored)] = value
            chunks.append([scored, None])
            return scored
        return scored_chunk

    def recorded(backward):
        def backward_chunk(model, batch, scored, score_grads, grads):
            chunks[-1][1] = score_grads.copy()
            backward(model, batch, scored, score_grads, grads)
        return backward_chunk

    draws, oracle_draws = np.random.default_rng(picks), np.random.default_rng(picks)
    grads = zero_families(model)
    with chunk_size(chunk), patched(training, "score_candidates", forced), \
            patched(training, "_backward_batch", recorded):
        parts = list(user_chunks(todo))
        results = [training._chunk_forward_backward(part, model, graph, config, draws, grads) for part in parts]
    for part, (losses, skipped, positives_skipped), (scored, score_grads) in zip(parts, results, chunks, strict=True):
        hits = scored.isin([positives for _, positives in part])
        chunk_losses, counts = user_loss(scored, hits)
        for segment, (_, positives) in enumerate(part):
            hit = hits[scored.offsets[segment] : scored.offsets[segment + 1]]
            expected = oracles.user_loss(user_rows(scored, segment).scores, hit, len(positives))
            assert int(counts[segment]) == (0 if expected is None else len(positives) - expected[1])
            if expected is not None:
                assert chunk_losses[segment].tobytes() == np.float64(expected[0]).tobytes()
        expected = oracles.chunk_loss(scored, part, contrastive, oracle_draws)
        assert (skipped, positives_skipped) == expected[1:3]
        assert np.array(losses, dtype=np.float64).tobytes() == np.array(expected[0], dtype=np.float64).tobytes()
        if score_grads is None:  # no user used, so no backward
            assert not losses and not expected[3].any()
        else:
            assert score_grads.tobytes() == expected[3].tobytes()


def test_chunk_size_never_changes_results(tmp_path):
    # 60 users: one user a chunk, then chunks of 6, 16 and 24 users, the
    # last two ending in a partial chunk
    paths = write_planted_dataset(tmp_path, n_users=60, n_items=20, n_properties=10, seed=4)
    graph = ingest_triples(paths["triples"])
    train_set, test_set = split_interactions(ingest_interactions(paths["interactions"], graph), 0.8, seed=5)
    add_purchase_triples(graph, train_set)
    rng = np.random.default_rng(6)
    model = initialize_model(random_embeddings(rng, graph, 8), rng)
    served = make_checkpoint(model, graph)
    config = TrainConfig(top_n=6, steps=3, contrastive=True)
    served_model = served.to_model()
    users = graph.entities_of_kind(EntityKind.USER)
    runs = {}
    for size in (1, 6, 16, 24):
        with chunk_size(size):
            result = forward_backward(users, model, graph, train_set, config, rng=np.random.default_rng(7))
            report = evaluate_model(served, graph, test_set, 10, train=train_set, diffusion=config.diffusion())
            ranked = []
            for part in user_chunks(users):
                batch = diffuse(graph, served_model.embeddings, served_model.attention, part, config.diffusion())
                scored = score_candidates(batch, graph, served_model.embeddings, served_model.encoder)
                ranked += [user_rows(scored, segment) for segment in range(len(part))]
        runs[size] = result, report, ranked
    expected, expected_report, expected_ranked = runs[1]
    assert expected.users_used == len(users)
    for size in (6, 16, 24):
        got, report, ranked = runs[size]
        assert (got.users_used, got.users_skipped, got.positives_skipped) == (
            expected.users_used, expected.users_skipped, expected.positives_skipped
        )
        assert abs(got.loss - expected.loss) <= 1e-12
        for name, grad in expected.grads.items():
            np.testing.assert_allclose(got.grads[name], grad, rtol=0, atol=TOL)
        assert report == expected_report
        for got_scores, expected_scores in zip(ranked, expected_ranked, strict=True):
            assert got_scores.items.tolist() == expected_scores.items.tolist()
            np.testing.assert_allclose(got_scores.scores, expected_scores.scores, rtol=0, atol=TOL)


def assert_attention_matches_per_user_oracle(batch, graph, table, attention, config):
    """Each step's trace holds one MLP row per central, and the frontier
    edges of each segment carry, through their sources' rows, the
    activations and weights the per-user oracle computes for that user."""
    per_user = [oracles.diffuse(graph, table, attention, user, config)[0] for user in batch.users.tolist()]
    centrals, central_seg = batch.users, np.arange(len(batch.users))
    for index, step in enumerate(batch.steps):
        trace = step.trace
        assert len(trace.z1) == len(trace.z2) == len(centrals)
        assert len(trace.alpha_bar) == len(trace.alpha) == len(trace.dst)
        for segment, oracle_steps in enumerate(per_user):
            edges = central_seg[trace.source_pos] == segment
            expected = oracle_steps[index].trace
            if expected is None:  # the oracle stops at an empty frontier
                assert not edges.any()
                continue
            assert centrals[trace.source_pos[edges]].tolist() == expected.src.tolist()
            assert trace.dst[edges].tolist() == expected.dst.tolist()
            rows = trace.source_pos[edges]
            for name in ("z1", "z2"):
                np.testing.assert_allclose(getattr(trace, name)[rows], getattr(expected.cache, name), rtol=0, atol=TOL)
            for name in ("alpha_bar", "alpha"):
                np.testing.assert_allclose(getattr(trace, name)[edges], getattr(expected.cache, name), rtol=0, atol=TOL)
        centrals, central_seg = step.nodes, step.seg


@given(
    spec=any_user_graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans(),
    chunk=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_attention_per_central_matches_per_user_oracle(spec, top_n, steps, flat, chunk):
    graph, table, attention, _ = setup(spec, flat=flat)
    config = DiffusionConfig(steps, top_n)
    users = graph.entities_of_kind(EntityKind.USER)
    with chunk_size(chunk):
        for part in user_chunks(users):
            batch = diffuse(graph, table, attention, part, config)
            assert_attention_matches_per_user_oracle(batch, graph, table, attention, config)


@given(
    spec=any_user_graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans(),
    chunk=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_edge_node_selects_the_traversed_edges(spec, top_n, steps, flat, chunk):
    """A frontier edge has edge_node >= 0 exactly when its target is kept
    for its segment; those edges are the step's traversed edges, in order,
    and edge_node points at the target among the step's nodes."""
    graph, table, attention, _ = setup(spec, flat=flat)
    users = graph.entities_of_kind(EntityKind.USER)
    with chunk_size(chunk):
        for part in user_chunks(users):
            batch = diffuse(graph, table, attention, part, DiffusionConfig(steps, top_n))
            centrals, central_seg = batch.users, np.arange(len(batch.users))
            for step in batch.steps:
                trace = step.trace
                assert trace is not None
                kept = trace.edge_node >= 0
                edge_seg = central_seg[trace.source_pos]
                assert trace.dst[kept].tolist() == step.edges.target.tolist()
                assert centrals[trace.source_pos[kept]].tolist() == step.edges.source.tolist()
                assert edge_seg[kept].tolist() == step.edge_seg.tolist()
                assert step.nodes[trace.edge_node[kept]].tolist() == trace.dst[kept].tolist()
                kept_nodes = set(zip(step.seg.tolist(), step.nodes.tolist()))
                assert not kept_nodes & set(zip(edge_seg[~kept].tolist(), trace.dst[~kept].tolist()))
                centrals, central_seg = step.nodes, step.seg


def test_attention_per_central_on_exhausted_centrals_and_empty_frontiers():
    # at step 2, u1's central p1 has only visited neighbours and u2's
    # frontier is empty; u3 has no edge at all, so it has no step-2 central
    graph = make_graph(
        [("u1", "user"), ("u2", "user"), ("u3", "user"), ("p1", "property"), ("p2", "property"),
         ("p3", "property"), ("i1", "item")],
        [("u1", "r", "p1"), ("u1", "r", "p2"), ("p2", "r", "i1"), ("u2", "r", "p3")],
    )
    table = random_embeddings(np.random.default_rng(0), graph, 4)
    attention = AttentionParams.init(4, np.random.default_rng(1))
    config = DiffusionConfig(2, 3)
    u1, u2, u3, p1 = (graph.entity_id(name) for name in ("u1", "u2", "u3", "p1"))
    chunk = diffuse(graph, table, attention, [u1, u2, u3], config)
    second = chunk.steps[1].trace
    first = chunk.steps[0]
    assert len(second.z1) == len(first.nodes) == 3
    assert p1 in first.nodes.tolist() and p1 not in first.nodes[second.source_pos].tolist()
    assert first.seg[second.source_pos].tolist() == [0]
    assert_attention_matches_per_user_oracle(chunk, graph, table, attention, config)
    # one-user chunks, the shape of a single request; u2's second step has
    # a central and no frontier edge at all
    for user in (u1, u2, u3):
        alone = diffuse(graph, table, attention, [user], config)
        assert_attention_matches_per_user_oracle(alone, graph, table, attention, config)
        if user == u2:
            assert len(alone.steps[1].trace.dst) == 0 and len(alone.steps[1].trace.z1) == 1


def populated_steps(state) -> list[int]:
    return [k for k, step in enumerate(state.steps) if len(step.nodes)]


def rebuilt(graph, state, edges=True):
    """A chunk's subgraph built again by hand, as a batch of one; without
    edges, it keeps no traversed edges."""
    steps = [(s.nodes, s.weights, s.edges) if edges else (s.nodes, s.weights) for s in state.steps]
    return oracles.subgraph(graph, oracles.user_of(state), steps)


def oracle_state(graph, table, attention, user, config):
    """A subgraph holding the oracle's diffusion, so that scoring is
    compared on identical subgraphs."""
    steps, _ = oracles.diffuse(graph, table, attention, user, config)
    return oracles.subgraph(graph, user, [(s.nodes, s.weights) for s in steps])


@given(spec=graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans())
@settings(max_examples=120, deadline=None)
def test_score_candidates_match_oracle(spec, top_n, steps, flat):
    graph, table, attention, encoder = setup(spec, flat=flat)
    user = graph.entity_id("u0")
    state = oracle_state(graph, table, attention, user, DiffusionConfig(steps, top_n))
    scored = score_candidates(state, graph, table, encoder)
    scores = user_rows(scored, 0)
    expected, bridges = oracles.score_candidates(state, graph, table, encoder)
    assert len(scores.items) == len(expected)
    assert_scores_match(scores, expected)

    # the bridge entries that the backward pass reads: (candidate rank, slot)
    rank_of = {item: rank for rank, item in enumerate(scores.items.tolist())}
    entries = sorted(
        ((rank_of[item], slot) for item, slot in zip(scored.items[scored.entry_row].tolist(), scored.entry_slot.tolist())),
        key=lambda entry: entry[0],
    )
    offsets = np.cumsum([0] + [len(s.nodes) for s in state.steps])
    expected_entries = [
        (rank, int(offsets[step] + pos)) for rank, refs in enumerate(bridges) for step, pos in refs
    ]
    assert entries == expected_entries
    slot_nodes = [node for nodes in oracles.kept_nodes(state) for node in nodes]
    assert scored.slot_node.tolist() == slot_nodes


@given(spec=graphs, top_n=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_extract_paths_index_is_reused_and_stays_valid(spec, top_n):
    graph, table, attention, encoder = setup(spec)
    batch = diffuse(graph, table, attention, [graph.entity_id("u0")], DiffusionConfig(2, top_n))
    for item in user_rows(score_candidates(batch, graph, table, encoder), 0).items.tolist():
        paths = paths_of(batch, 0, graph, item, 3)
        assert paths and all(path.item == item for path in paths)
        fresh = rebuilt(graph, batch)
        assert paths_of(fresh, 0, graph, item, 3) == paths


@given(spec=multi_user_graphs, top_n=st.integers(1, 4), steps=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_chunk_states_share_candidates_and_match_hand_built_states(spec, top_n, steps):
    graph, table, attention, encoder = setup(spec)
    users = graph.entities_of_kind(EntityKind.USER)
    batch = diffuse(graph, table, attention, users, DiffusionConfig(steps, top_n))
    scored = score_candidates(batch, graph, table, encoder)
    states = [oracles.user_subgraph(batch, segment) for segment in range(len(users))]
    for segment, state in enumerate(states):
        fresh = rebuilt(graph, state)
        scores = user_rows(scored, segment)
        assert_scores_match(scores, score_rows(user_rows(score_candidates(fresh, graph, table, encoder), 0)))
        for item in scores.items.tolist():
            paths = paths_of(batch, segment, graph, item, 3)
            assert paths == paths_of(fresh, 0, graph, item, 3)

    # new triples replace the adjacency index, so the chunk's candidates change with it
    item = graph.intern_entity("i_new", EntityKind.ITEM)
    relation = graph.intern_relation("r_new")
    for state in states:
        if populated_steps(state):
            graph.add_triple(state.steps[populated_steps(state)[-1]].nodes[0], relation, item)
    table = random_embeddings(np.random.default_rng(spec["seed"]), graph, 4)
    scored = score_candidates(batch, graph, table, encoder)
    for segment, state in enumerate(states):
        fresh = rebuilt(graph, state)
        got = user_rows(scored, segment).items.tolist()
        assert got == user_rows(score_candidates(fresh, graph, table, encoder), 0).items.tolist()
        assert (item in got) == bool(populated_steps(state))


def segment_entries(scored, segment):
    """The (candidate item, backing node) entries of one segment, in entry order."""
    mine = scored.segments[scored.entry_row] == segment
    items = scored.items[scored.entry_row[mine]]
    return list(zip(items.tolist(), scored.slot_node[scored.entry_slot[mine]].tolist()))


def assert_entries_match_each_user_alone(graph, table, attention, encoder, users, config):
    """Every segment's candidate entries in a chunk equal the entries of
    its user diffused and scored alone; returns each segment's last
    populated step."""
    batch = diffuse(graph, table, attention, users, config)
    scored = score_candidates(batch, graph, table, encoder)
    for segment, user in enumerate(users):
        alone = score_candidates(diffuse(graph, table, attention, [user], config), graph, table, encoder)
        assert segment_entries(scored, segment) == segment_entries(alone, 0)
    return [max((k for k, s in enumerate(batch.steps) if segment in s.seg.tolist()), default=-1)
            for segment in range(len(users))]


@given(spec=multi_user_graphs, top_n=st.integers(1, 4), steps=st.integers(2, 3), flat=st.booleans())
@settings(max_examples=60, deadline=None)
def test_candidate_entries_of_a_chunk_match_each_user_alone(spec, top_n, steps, flat):
    graph, table, attention, encoder = setup(spec, flat=flat)
    users = graph.entities_of_kind(EntityKind.USER)
    assert_entries_match_each_user_alone(graph, table, attention, encoder, users, DiffusionConfig(steps, top_n))


def test_candidate_entries_where_segments_end_at_different_steps():
    # u1's frontier empties after its second step, and u2's third step keeps
    # two bridges to the outside item i5, one of them by two links
    graph = make_graph(
        [("u1", "user"), ("u2", "user"), ("p1", "property"), ("p2", "property")]
        + [(f"i{i}", "item") for i in range(1, 7)],
        [("u1", "r", "p1"), ("p1", "r", "i1"), ("p1", "r", "i2"), ("u2", "r", "i3"), ("i3", "r", "p2"),
         ("p2", "r", "i4"), ("p2", "r", "i6"), ("i4", "r", "i5"), ("i4", "s", "i5"), ("i6", "r", "i5")],
    )
    table = random_embeddings(np.random.default_rng(0), graph, 4)
    attention = AttentionParams.init(4, np.random.default_rng(1))
    encoder = EncoderParams.init(4, np.random.default_rng(2))
    u1, u2 = graph.entity_id("u1"), graph.entity_id("u2")
    for users, ends in (([u1, u2], [1, 2]), ([u2, u1], [2, 1])):
        got = assert_entries_match_each_user_alone(graph, table, attention, encoder, users, DiffusionConfig(3, 4))
        assert got == ends
    scored = score_candidates(diffuse(graph, table, attention, [u2], DiffusionConfig(3, 4)), graph, table, encoder)
    names = [(graph.entity_name(item), graph.entity_name(node)) for item, node in segment_entries(scored, 0)]
    assert sorted(names) == [("i3", "i3"), ("i4", "i4"), ("i5", "i4"), ("i5", "i6"), ("i6", "i6")]


@given(
    spec=multi_user_graphs, top_n=st.integers(1, 4), steps=st.integers(1, 3), k=st.integers(1, 10),
    chunk=st.integers(1, 3), picks=st.integers(0, 2**32 - 1), with_train=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_first_fresh_and_evaluation_match_the_per_user_list_rule(spec, top_n, steps, k, chunk, picks, with_train):
    graph, _, attention, encoder = setup(spec)
    graph.intern_entity("u_lonely", EntityKind.USER)  # no edges, so no candidates
    table = random_embeddings(np.random.default_rng(spec["seed"]), graph, 4)
    rng = np.random.default_rng(picks)
    catalog = graph.entities_of_kind(EntityKind.ITEM)
    users = graph.entities_of_kind(EntityKind.USER)
    train, test = InteractionSet(), InteractionSet()
    for user in users:  # training items are candidates or not, and may cover every candidate
        test.add(user, int(rng.choice(catalog)))
        for item in rng.choice(catalog, size=int(rng.integers(0, len(catalog) + 1)), replace=False).tolist():
            train.add(user, item)
    exclude = {user: set(train.items_for(user)) if with_train else set() for user in users}
    config = DiffusionConfig(steps, top_n)

    # one chunk in shuffled user order, so the user without candidates sits anywhere
    chunk_users = [users[i] for i in rng.permutation(len(users))]
    scored = score_candidates(diffuse(graph, table, attention, chunk_users, config), graph, table, encoder)
    rows, rank = scored.first_fresh([exclude[user] for user in chunk_users], k)
    for segment, user in enumerate(chunk_users):
        mine = scored.segments[rows] == segment
        expected = oracles.top_ranked(user_rows(scored, segment).items.tolist(), [], exclude[user], k)
        assert scored.items[rows[mine]].tolist() == expected
        assert rank[mine].tolist() == list(range(1, len(expected) + 1))

    checkpoint = make_checkpoint(ModelParams(attention, encoder, table), graph)
    model = checkpoint.to_model()
    with chunk_size(chunk):
        report = evaluate_model(checkpoint, graph, test, k, train=train if with_train else None, diffusion=config)
        metrics, skipped = [], 0
        for part in user_chunks(test.users()):
            scored = score_candidates(
                diffuse(graph, model.embeddings, model.attention, part, config), graph, model.embeddings, model.encoder
            )
            for segment, user in enumerate(part):
                candidates = user_rows(scored, segment).items.tolist()
                if not candidates:
                    skipped += 1
                    continue
                ranked = oracles.top_ranked(candidates, catalog, exclude[user], k)
                metrics.append(evaluate_ranking(ranked, set(test.items_for(user)), k))
    assert (report.evaluated_users, report.skipped_users) == (len(metrics), skipped) and skipped >= 1
    for name, values in zip(("ndcg", "recall", "hit_rate", "precision"), zip(*metrics)):
        assert getattr(report, name) == sum(values) / len(values)


def not_a_candidate(graph, entity):
    named = repr(graph.entity_name(entity)) if 0 <= entity < graph.n_entities else f"id {entity}"
    return re.escape(f"entity {named} is not a candidate item for this subgraph")


def assert_paths_match_oracle(got, states, graph, queries, limit):
    """got is the path table of the (segment, item) queries; its rows are
    grouped by query, in query order, each query's walks must be the
    oracle's walks on that segment's subgraph, weights to the bit, and each
    row's text must be the oracle's hop-by-hop rendering of it."""
    assert (np.diff(got.query) >= 0).all()
    walks = []
    for q, (segment, item) in enumerate(queries):
        paths = table_walks(got, q)
        expected = oracles.extract_paths(states[segment], graph, item, limit)
        assert paths == expected
        assert [path.weight.hex() for path in paths] == [path.weight.hex() for path in expected]
        walks += paths
    assert len(walks) == len(got.query)
    assert format_path(got, graph) == [oracles.format_walk(walk, graph) for walk in walks]


@given(
    spec=any_user_graphs, top_n=st.integers(1, 6), steps=st.integers(1, 3), flat=st.booleans(),
    shuffle=st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_extract_paths_match_chains_oracle(spec, top_n, steps, flat, shuffle):
    graph, table, attention, encoder = setup(spec, flat=flat)  # flat: equal weights, the hops decide
    users = graph.entities_of_kind(EntityKind.USER)
    batch = diffuse(graph, table, attention, users, DiffusionConfig(steps, top_n))
    chunk_states = [oracles.user_subgraph(batch, segment) for segment in range(len(users))]
    hand_built = [rebuilt(graph, s) for s in chunk_states]
    # a subgraph built by hand without traversed edges has candidates but no paths
    edgeless = [rebuilt(graph, s, edges=False) for s in chunk_states]
    graph.intern_entity("i_late", EntityKind.ITEM)  # an item added after diffusion
    # every subgraph, a segment of the chunk or built by hand as a batch of one, has the
    # oracle's candidates; any other id (out of range, a user, a property, an unreached
    # item, i_late) raises the oracle's error
    states = chunk_states + hand_built + edgeless
    scored = score_candidates(batch, graph, table, encoder)
    candidates = [user_rows(scored, segment).items.tolist() for segment in range(len(users))] + [
        user_rows(score_candidates(state, graph, table, encoder), 0).items.tolist() for state in hand_built + edgeless
    ]
    subgraphs = [(batch, segment) for segment in range(len(users))] + [(state, 0) for state in hand_built + edgeless]
    for (of_batch, segment), state, items in zip(subgraphs, states, candidates, strict=True):
        _, outside, inside = oracles.collect_candidates(state, graph)
        assert sorted(items) == sorted(set(outside) | set(inside))
        for entity in range(-1, graph.n_entities + 1):
            if entity not in items:
                with pytest.raises(EntityNotFoundError, match=not_a_candidate(graph, entity)):
                    oracles.extract_paths(state, graph, entity, limit=3)
                with pytest.raises(EntityNotFoundError, match=not_a_candidate(graph, entity)):
                    extract_paths(of_batch, graph, [segment], [entity], limit=3)

    # the whole chunk in one call: several items per segment, an item in several segments, in any order
    queries = [(segment, item) for segment, items in enumerate(candidates[:len(users)]) for item in items]
    shuffle.shuffle(queries)
    segments, items = [q[0] for q in queries], [q[1] for q in queries]
    for limit in (1, 3, 50):
        got = extract_paths(batch, graph, segments, items, limit)
        assert_paths_match_oracle(got, chunk_states, graph, queries, limit)
        assert (np.bincount(got.query, minlength=len(queries)) > 0).all()
    traversed = [True] * len(hand_built) + [False] * len(edgeless)
    for state, state_items, has_paths in zip(states[len(users):], candidates[len(users):], traversed):
        for limit in (1, 3, 50):  # each a batch of one
            got = extract_paths(state, graph, [0] * len(state_items), state_items, limit)
            assert_paths_match_oracle(got, [state], graph, [(0, item) for item in state_items], limit)
            assert ((np.bincount(got.query, minlength=len(state_items)) > 0) == has_paths).all()

    # a bad query among the chunk's good ones: the first bad query is named
    for segment, state_items in enumerate(candidates[:len(users)]):
        bad = [entity for entity in range(-1, graph.n_entities + 1) if entity not in state_items]
        for entity in bad:
            with pytest.raises(EntityNotFoundError, match=not_a_candidate(graph, entity)):
                extract_paths(batch, graph, segments + [segment] * 2, items + [entity, bad[0]], limit=3)


def test_equal_weights_are_ordered_by_hops():
    # u1 reaches i1 through p1 and p2 with equal v, so each walk has weight 0.5:
    # the hops decide, by node, then relation, then direction, forward first
    graph = make_graph(
        [("u1", "user"), ("p1", "property"), ("p2", "property"), ("i1", "item")],
        [
            ("u1", "ra", "p1"), ("p1", "ra", "u1"), ("u1", "rb", "p1"), ("u1", "ra", "p2"),
            ("p1", "rc", "i1"), ("i1", "rc", "p1"), ("p2", "rc", "i1"),
        ],
    )
    u1, p1, p2, i1 = (graph.entity_id(name) for name in ("u1", "p1", "p2", "i1"))
    ra, rb, rc = (graph.relation_id(name) for name in ("ra", "rb", "rc"))
    forward, inverse = False, True
    state = oracles.subgraph(graph, u1, [([p2, p1], [0.5, 0.5], oracles.traversed([
        (u1, ra, p2, forward), (u1, rb, p1, forward), (u1, ra, p1, inverse), (u1, ra, p1, forward),
    ]))])
    paths = paths_of(state, 0, graph, i1, 50)
    assert [[(h.node, h.relation, h.inverse) for h in path.hops] for path in paths] == [
        [(p1, ra, forward), (i1, rc, forward)],
        [(p1, ra, forward), (i1, rc, inverse)],
        [(p1, ra, inverse), (i1, rc, forward)],
        [(p1, ra, inverse), (i1, rc, inverse)],
        [(p1, rb, forward), (i1, rc, forward)],
        [(p1, rb, forward), (i1, rc, inverse)],
        [(p2, ra, forward), (i1, rc, forward)],
    ]
    assert {path.weight for path in paths} == {0.5}
    assert paths == oracles.extract_paths(state, graph, i1, limit=50)
    assert paths_of(state, 0, graph, i1, 3) == paths[:3]


def test_chunk_state_paths_close_from_their_own_last_step():
    # u1's frontier empties after one step; u2 reaches i1 through its second step
    graph = make_graph(
        [("u1", "user"), ("u2", "user"), ("p1", "property"), ("p2", "property"), ("p3", "property"), ("i1", "item")],
        [("u1", "r", "p1"), ("u2", "r", "p2"), ("p2", "r", "p3"), ("p3", "r", "i1")],
    )
    table = random_embeddings(np.random.default_rng(0), graph, 4)
    attention = AttentionParams.init(4, np.random.default_rng(1))
    users = [graph.entity_id("u1"), graph.entity_id("u2")]
    batch = diffuse(graph, table, attention, users, DiffusionConfig(2, 3))
    state = oracles.user_subgraph(batch, 1)
    assert populated_steps(state) == [0, 1]
    i1 = graph.entity_id("i1")
    paths = paths_of(batch, 1, graph, i1, 5)
    assert [graph.entity_name(node) for node in paths[0].nodes()] == ["u2", "p2", "p3", "i1"]
    assert paths == paths_of(rebuilt(graph, state), 0, graph, i1, 5)
    # u1's last step is its first, and no node of it links to i1
    with pytest.raises(EntityNotFoundError, match=not_a_candidate(graph, i1)):
        extract_paths(batch, graph, [1, 0], [i1, i1], 5)


def test_walks_through_a_source_not_kept_yield_nothing():
    graph = make_graph(
        [("u1", "user"), ("p1", "property"), ("p2", "property"), ("p3", "property"), ("i1", "item")],
        [("u1", "r", "p1"), ("u1", "r", "p2"), ("p1", "r", "p3"), ("p2", "r", "p3"), ("p3", "r", "i1")],
    )
    u1, p1, p2, p3, i1 = (graph.entity_id(name) for name in ("u1", "p1", "p2", "p3", "i1"))
    r = graph.relation_id("r")
    # built by hand: p3's second edge leaves p2, which step 1 did not keep
    state = oracles.subgraph(
        graph,
        u1,
        [
            ([p1], [1.0], oracles.traversed([(u1, r, p1, False)])),
            ([p3], [1.0], oracles.traversed([
                (p1, r, p3, False), (p2, r, p3, False)
            ])),
        ],
    )
    paths = paths_of(state, 0, graph, i1, 50)
    assert [path.nodes() for path in paths] == [[u1, p1, p3, i1]]
    assert paths == oracles.extract_paths(state, graph, i1, limit=50)


def test_format_path_matches_the_per_hop_renderer():
    """format_path on random chunks, against the oracle's hop-by-hop
    rendering: inverse hops, walks shorter than the table is wide, and an
    empty table all occur."""
    inverse_hops = padded_rows = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n_users=3, n_edges=25)
        table = random_embeddings(rng, graph, 4)
        attention, encoder = AttentionParams.init(4, rng), EncoderParams.init(4, rng)
        users = graph.entities_of_kind(EntityKind.USER)
        batch = diffuse(graph, table, attention, users, DiffusionConfig(2, 3))
        scored = score_candidates(batch, graph, table, encoder)
        for queries in (slice(0, 0), slice(None)):
            segments, items = scored.segments[queries], scored.items[queries]
            got = extract_paths(batch, graph, segments, items, 50)
            walks = [walk for q in range(len(items)) for walk in table_walks(got, q)]
            assert format_path(got, graph) == [oracles.format_walk(walk, graph) for walk in walks]
        inverse_hops += int((got.inverse[got.node >= 0] == 1).sum())
        padded_rows += int((got.node[:, -1] < 0).sum())
    assert inverse_hops and padded_rows


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
