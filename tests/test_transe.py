"""Translation pretraining: scoring, corruption sampling and the SGD loop."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_graph
from kgsr.errors import EntityNotFoundError
from kgsr import graph as graph_module
from kgsr import transe
from kgsr.graph import EntityKind, KnowledgeGraph, Triple
from kgsr.transe import (
    EmbeddingTable,
    TranseConfig,
    initialize_embeddings,
    pair_margin_gradients,
    sample_negative,
    transe_pretrain,
    transe_score,
)


def table_2d(vectors, relations):
    return EmbeddingTable(np.array(vectors, dtype=float), np.array(relations, dtype=float))


class TestScore:
    def test_translation_identity(self):
        table = table_2d([[1, 0], [1, 1]], [[0, 1]])
        assert transe_score(table, Triple(0, 0, 1)) == pytest.approx(0.0)

    def test_l2(self):
        table = table_2d([[0, 0], [0, 1]], [[1, 0]])
        assert transe_score(table, Triple(0, 0, 1), norm=2) == pytest.approx(1.41421, abs=1e-5)

    def test_l1(self):
        table = table_2d([[0, 0], [0, 1]], [[1, 0]])
        assert transe_score(table, Triple(0, 0, 1), norm=1) == pytest.approx(2.0)

    def test_unknown_id(self):
        table = table_2d([[0, 0]], [[1, 0]])
        with pytest.raises(EntityNotFoundError):
            transe_score(table, Triple(0, 0, 5))


def negatives_of(graph, triple, rng, count):
    """count negatives of one positive, drawn as one epoch of count pairs."""
    return [Triple(*row) for row in sample_negative(graph, np.tile(triple, (count, 1)), rng).tolist()]


class TestSampleNegative:
    def test_forced_single_corruption(self):
        # corruption space: head->(b,r,b) [free], tail->(a,r,a) [a self edge,
        # not storable, but (a,r,a) is simply absent]. Enumerate the space
        # the sampler may return and pin the fixture where one option exists.
        graph = make_graph([("a", "property"), ("b", "property")], [("a", "r", "b")])
        stored = set(graph.triples)
        valid = set()
        for entity in range(graph.n_entities):
            for cand in (Triple(entity, 0, 1), Triple(0, 0, entity)):
                if cand not in stored and cand != Triple(0, 0, 1):
                    valid.add(cand)
        negatives = negatives_of(graph, Triple(0, 0, 1), np.random.default_rng(0), 10)
        assert set(negatives) <= valid

    def test_differs_in_exactly_one_slot(self):
        graph = make_graph(
            [("a", "property"), ("b", "property"), ("c", "property")],
            [("a", "r", "b"), ("b", "r", "c")],
        )
        t = Triple(0, 0, 1)
        for neg in negatives_of(graph, t, np.random.default_rng(1), 50):
            changed = sum(
                1 for a, b in ((neg.head, t.head), (neg.relation, t.relation), (neg.tail, t.tail)) if a != b
            )
            assert changed == 1

    def test_same_seed_same_sequence(self):
        graph = make_graph(
            [("a", "property"), ("b", "property"), ("c", "property")],
            [("a", "r", "b")],
        )
        t = Triple(0, 0, 1)
        a = negatives_of(graph, t, np.random.default_rng(7), 20)
        b = negatives_of(graph, t, np.random.default_rng(7), 20)
        assert a == b
        # draw for draw: two epochs of ten continue where one of twenty goes
        split = np.random.default_rng(7)
        assert negatives_of(graph, t, split, 10) + negatives_of(graph, t, split, 10) == a

    def test_needs_two_entities(self):
        graph = KnowledgeGraph()
        graph.intern_entity("solo", EntityKind.PROPERTY)
        with pytest.raises(ValueError):
            sample_negative(graph, np.array([[0, 0, 0]]), np.random.default_rng(0))

    def test_no_positives_draw_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        negatives = sample_negative(chain_graph(), np.empty((0, 3), dtype=np.intp), rng)
        assert negatives.shape == (0, 3)
        assert rng.bit_generator.state == state

    def test_packed_key_bound_is_named(self, monkeypatch):
        monkeypatch.setattr(graph_module, "PACKED_KEY_MAX", 6 * 6 * 2 - 1)
        with pytest.raises(ValueError, match="PACKED_KEY_MAX"):
            sample_negative(chain_graph(6), np.array([[0, 0, 1]]), np.random.default_rng(0))


@pytest.mark.parametrize("n", [1_000_003, 2**31 + 5])
def test_array_bounded_integers_read_the_stream_as_scalar_calls(n):
    # sample_negative relies on this: one integers(0, [2, n - 1, ...]) call
    # returns the values of the interleaved scalar calls and leaves the same
    # state, Lemire rejections (frequent at 2**31 + 5) and a buffered 32-bit
    # half included. A numpy release that changes it must fail here.
    for seed in range(4):
        scalar, array = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (scalar, array):
            rng.integers(0, 2)  # leaves half of a 64-bit word buffered
        values = [int(scalar.integers(0, high)) for _ in range(3000) for high in (2, n - 1)]
        assert array.integers(0, np.tile([2, n - 1], 3000)).tolist() == values
        assert array.bit_generator.state == scalar.bit_generator.state


def chain_graph(n=6):
    graph = KnowledgeGraph()
    for i in range(n):
        graph.intern_entity(f"e{i}", EntityKind.PROPERTY)
    r = graph.intern_relation("next")
    for i in range(n - 1):
        graph.add_triple(i, r, i + 1)
    return graph


class TestPretrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            transe_pretrain(chain_graph(), TranseConfig(dim=4, epochs=0))

    def test_positive_scores_improve(self):
        graph = chain_graph(6)
        config = TranseConfig(dim=16, epochs=10, learning_rate=0.05, seed=3)
        initial = initialize_embeddings(graph.n_entities, graph.n_relations, config)
        trained = transe_pretrain(graph, config)
        before = np.mean([transe_score(initial, t) for t in graph.triples])
        after = np.mean([transe_score(trained, t) for t in graph.triples])
        assert after < before

    def test_entity_rows_unit_norm(self):
        trained = transe_pretrain(chain_graph(), TranseConfig(dim=8, epochs=3, seed=0))
        norms = np.linalg.norm(trained.entities, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_bitwise_determinism(self):
        graph = chain_graph()
        config = TranseConfig(dim=8, epochs=5, seed=11)
        a = transe_pretrain(graph, config)
        b = transe_pretrain(graph, config)
        assert np.array_equal(a.entities, b.entities)
        assert np.array_equal(a.relations, b.relations)

    def test_empty_graph_rejected(self):
        graph = KnowledgeGraph()
        graph.intern_entity("a", EntityKind.PROPERTY)
        graph.intern_entity("b", EntityKind.PROPERTY)
        with pytest.raises(ValueError):
            transe_pretrain(graph, TranseConfig(dim=4))


def row_gradients(table, result):
    """{(family, row id): gradient} of an active kernel result; a row in
    two of its entries fails."""
    rows = {}
    for sign, grad, views in result[1]:
        for view in views:
            family = "entity" if np.shares_memory(view, table.entities) else "relation"
            matrix = table.entities if family == "entity" else table.relations
            key = (family, (view.ctypes.data - matrix.ctypes.data) // matrix.strides[0])
            assert key not in rows, f"{key} updated twice"
            rows[key] = sign * grad
    return rows


def test_margin_gradients_match_finite_differences():
    # d = 4; the loss comes from the reference pair_margin_loss
    rng = np.random.default_rng(5)
    entities = rng.normal(size=(5, 4))
    relations = rng.normal(size=(2, 4))
    margin = 2.0
    cases = [
        (Triple(0, 1, 2), Triple(3, 1, 2), [0, 2, 3], [1]),  # shared relation and tail
        (Triple(0, 1, 2), Triple(2, 1, 2), [0, 2], [1]),  # head corrupted to the tail: row 2 three times
        (Triple(0, 1, 2), Triple(0, 1, 0), [0, 2], [1]),  # tail corrupted to the head: row 0 three times
        (Triple(0, 1, 2), Triple(3, 0, 4), [0, 2, 3, 4], [1, 0]),  # two relation rows
        (Triple(0, 1, 2), Triple(0, 1, 3), [0, 2, 3], [1]),  # shared head and relation
    ]
    for pos, neg, entity_rows, relation_rows in cases:
        for norm in (1, 2):
            table = EmbeddingTable(entities.copy(), relations.copy())
            result = pair_margin_gradients(table, pos, neg, margin, norm)
            assert result, "hinge should be active for this fixture"
            assert result[0] == oracles.pair_margin_loss(table, pos, neg, margin, norm)
            rows = row_gradients(table, result)
            assert sorted(rows) == sorted([("entity", row) for row in entity_rows]
                                          + [("relation", row) for row in relation_rows])
            h = 1e-6
            for (family, row), grad in rows.items():
                matrix = table.entities if family == "entity" else table.relations
                for col in range(4):
                    original = matrix[row, col]
                    matrix[row, col] = original + h
                    up = oracles.pair_margin_loss(table, pos, neg, margin, norm)
                    matrix[row, col] = original - h
                    down = oracles.pair_margin_loss(table, pos, neg, margin, norm)
                    matrix[row, col] = original
                    fd = (up - down) / (2 * h)
                    assert abs(fd - grad[col]) <= 1e-4 * max(1.0, abs(grad[col]))


def test_kernel_is_falsy_exactly_when_the_hinge_is_zero():
    rng = np.random.default_rng(8)
    inactive = 0
    for _ in range(300):
        table = EmbeddingTable(rng.normal(size=(4, 3)), rng.normal(size=(2, 3)))
        pos = Triple(*(int(x) for x in rng.integers(0, [4, 2, 4])))
        neg = Triple(*(int(x) for x in rng.integers(0, [4, 2, 4])))
        margin = float(rng.uniform(0.01, 1.0))
        for norm in (1, 2):
            hinge = oracles.pair_margin_loss(table, pos, neg, margin, norm)
            result = pair_margin_gradients(table, pos, neg, margin, norm)
            assert bool(result) == (hinge > 0)
            inactive += not result
            if result:
                assert result[0] == hinge
    assert 0 < inactive < 600


def kernel_step(table, positive, negative, margin, norm, lr):
    """One SGD step through the kernel's views, as transe_pretrain takes it."""
    active = pair_margin_gradients(table, positive, negative, margin, norm)
    if active:
        for sign, grad, views in active[1]:
            step = lr * grad
            for view in views:
                if sign > 0:
                    view -= step
                else:
                    view += step


def reference_step(table, positive, negative, margin, norm, lr):
    """One SGD step through the dict-merging reference kernel."""
    for (family, row), grad in oracles.pair_margin_gradients(table, positive, negative, margin, norm).items():
        matrix = table.entities if family == "entity" else table.relations
        matrix[row] -= lr * grad


# How a negative relates to its positive (h, r, t).
_NEGATIVE_SHAPES = {
    "tail": lambda h, r, t, other, rel: (h, r, other),
    "head": lambda h, r, t, other, rel: (other, r, t),
    "tail is the head": lambda h, r, t, other, rel: (h, r, h),
    "head is the tail": lambda h, r, t, other, rel: (t, r, t),
    "the positive": lambda h, r, t, other, rel: (h, r, t),
    "another relation": lambda h, r, t, other, rel: (other, rel, t),
    "head is the tail, tail another": lambda h, r, t, other, rel: (t, rel, other),
    "any": lambda h, r, t, other, rel: (other, rel, h),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    n_entities=st.integers(2, 6),
    n_relations=st.integers(1, 3),
    dim=st.integers(1, 6),
    shape=st.sampled_from(sorted(_NEGATIVE_SHAPES)),
    zero_distance=st.booleans(),
    lattice=st.booleans(),
    norm=st.sampled_from([1, 2]),
    margin=st.sampled_from([0.1, 1.0, 4.0]),
    lr=st.sampled_from([0.01, 0.3]),
)
@settings(max_examples=300, deadline=None)
def test_kernel_step_is_bytewise_the_reference_step(
    seed, n_entities, n_relations, dim, shape, zero_distance, lattice, norm, margin, lr
):
    rng = np.random.default_rng(seed)
    if lattice:  # exact cancellations next to -0 and +0 entries, where the sign of a zero shows
        draw = lambda rows: rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(rows, dim))
    else:
        draw = lambda rows: rng.normal(size=(rows, dim))
    table = EmbeddingTable(draw(n_entities), draw(n_relations))
    h, r, t, other, rel = (int(x) for x in rng.integers(0, [n_entities, n_relations, n_entities] * 2)[:5])
    positive = Triple(h, r, t)
    if zero_distance and h != t:  # h + r - t == 0 exactly
        table.entities[t] = table.entities[h] + table.relations[r]
    negative = Triple(*_NEGATIVE_SHAPES[shape](h, r, t, other, rel))
    got, expected = table.copy(), table.copy()
    kernel_step(got, positive, negative, margin, norm, lr)
    reference_step(expected, positive, negative, margin, norm, lr)
    assert got.entities.tobytes() == expected.entities.tobytes()
    assert got.relations.tobytes() == expected.relations.tobytes()


@pytest.mark.parametrize("norm", [1, 2])
def test_a_row_lowered_twice_keeps_the_references_zero(norm):
    # Entity 1 is the positive's tail and the negative's head, so its
    # gradient is (-g_pos) + (-g_neg); here the two cancel to +0, and
    # -(g_pos + g_neg) would be -0, which turns the row's -0 into +0.
    table = EmbeddingTable(np.array([[0.5], [-0.0], [0.7]]), np.array([[0.2]]))
    positive, negative = Triple(0, 0, 1), Triple(1, 0, 2)
    got, expected = table.copy(), table.copy()
    kernel_step(got, positive, negative, 4.0, norm, 0.3)
    reference_step(expected, positive, negative, 4.0, norm, 0.3)
    assert got.entities.tobytes() == expected.entities.tobytes()
    assert got.relations.tobytes() == expected.relations.tobytes()
    assert np.signbit(got.entities[1, 0])


def property_graph(n_entities, n_relations, triples):
    graph = KnowledgeGraph()
    for i in range(n_entities):
        graph.intern_entity(f"e{i}", EntityKind.PROPERTY)
    for i in range(n_relations):
        graph.intern_relation(f"r{i}")
    graph.add_triples(*zip(*triples))
    return graph


def random_transe_graph(rng, n_entities, n_relations, density):
    """Every non-self-loop (h, r, t) slot stored with probability density."""
    slots = [(h, r, t) for h in range(n_entities) for r in range(n_relations)
             for t in range(n_entities) if h != t]
    return property_graph(n_entities, n_relations, [s for s in slots if rng.random() < density] or slots[:1])


def saturated_graph(n_entities=60):
    """One relation, every triple into e0 and every triple out of e1.

    Every corruption of (e1, r, e0) is stored except the two self-loops,
    so its sampler exhausts NEGATIVE_TRIES about one time in six."""
    into_e0 = [(x, 0, 0) for x in range(1, n_entities)]
    out_of_e1 = [(1, 0, x) for x in range(2, n_entities)]
    return property_graph(n_entities, 1, into_e0 + out_of_e1)


def assert_same_tables(got, expected):
    assert np.array_equal(got.entities, expected.entities)
    assert np.array_equal(got.relations, expected.relations)


transe_configs = st.builds(
    TranseConfig,
    dim=st.integers(1, 8),
    epochs=st.integers(1, 3),
    negatives=st.integers(1, 3),
    norm=st.sampled_from([1, 2]),
    learning_rate=st.sampled_from([0.01, 0.1, 0.5]),
    margin=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)


@given(
    graph_seed=st.integers(0, 2**32 - 1),
    n_entities=st.integers(2, 8),
    n_relations=st.integers(1, 3),
    density=st.floats(0.05, 1.0),
    config=transe_configs,
)
@settings(max_examples=150, deadline=None)
def test_pretrain_tables_are_bitwise_the_reference(graph_seed, n_entities, n_relations, density, config):
    graph = random_transe_graph(np.random.default_rng(graph_seed), n_entities, n_relations, density)
    assert_same_tables(transe_pretrain(graph, config), oracles.transe_pretrain(graph, config))


# How the generator starts before the epoch's permutation: fresh, with
# half of a 64-bit word buffered, or after an odd-length permutation,
# which leaves a buffered half for some seeds.
_STARTS = {
    "fresh": lambda rng: None,
    "buffered": lambda rng: rng.integers(0, 2),
    "permuted": lambda rng: rng.permutation(977),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    n_entities=st.integers(2, 12),
    n_relations=st.integers(1, 3),
    density=st.floats(0.05, 1.0),
    saturated=st.booleans(),
    negatives=st.integers(1, 3),
    start=st.sampled_from(sorted(_STARTS)),
)
@settings(max_examples=150, deadline=None)
def test_bulk_negatives_are_the_scalar_draws(seed, n_entities, n_relations, density, saturated, negatives, start):
    # The scalar sampler, called pair after pair, is the reference: the same
    # negatives, exhausted pairs included, and the same generator state after.
    graph = saturated_graph() if saturated else random_transe_graph(
        np.random.default_rng(seed), n_entities, n_relations, density
    )
    bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    triples = np.array(graph.triples)
    for rng in (bulk, scalar):
        _STARTS[start](rng)
    if start == "buffered":
        assert bulk.bit_generator.state["has_uint32"] == 1
    for rng in (bulk, scalar):
        order = rng.permutation(len(triples))
    positives = np.repeat(triples[order], negatives, axis=0)
    got = sample_negative(graph, positives, bulk)
    expected = [oracles.sample_negative(graph, Triple(*row), scalar) for row in positives.tolist()]
    assert got.tolist() == [list(triple) for triple in expected]
    assert bulk.bit_generator.state == scalar.bit_generator.state


class CountingHooks:
    """Wraps the two names that transe_pretrain looks up: the sampler,
    called once per epoch, and the kernel, called once per pair."""

    def __init__(self, monkeypatch, graph):
        self.samples = self.kernels = self.self_loops = self.exhausted = 0
        sample, kernel = transe.sample_negative, transe.pair_margin_gradients

        def counting_sample(*args, **kwargs):
            negatives = sample(*args, **kwargs)
            self.samples += 1
            self.self_loops += int((negatives[:, 0] == negatives[:, 2]).sum())
            self.exhausted += sum(graph.has_triple(Triple(*row)) for row in negatives.tolist())
            return negatives

        def counting_kernel(*args, **kwargs):
            self.kernels += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(transe, "sample_negative", counting_sample)
        monkeypatch.setattr(transe, "pair_margin_gradients", counting_kernel)


@pytest.mark.parametrize("norm", [1, 2])
def test_self_loop_and_exhausted_negatives_match_the_reference(monkeypatch, norm):
    # The complete 3-entity graph leaves only self-loop negatives, whose
    # entity row takes three contributions; the saturated graph also makes
    # the sampler give up and return a stored triple.
    complete = random_transe_graph(np.random.default_rng(3), 3, 1, 1.0)
    for graph, must_exhaust in ((complete, False), (saturated_graph(), True)):
        config = TranseConfig(dim=4, epochs=3, negatives=3, norm=norm, seed=9)
        expected = oracles.transe_pretrain(graph, config)
        with monkeypatch.context() as patch:
            hooks = CountingHooks(patch, graph)
            got = transe_pretrain(graph, config)
        assert hooks.self_loops > 0
        assert (hooks.exhausted > 0) == must_exhaust
        assert_same_tables(got, expected)


def test_benchmark_hooks_fire_once_per_pair(monkeypatch):
    # perfbench wraps kgsr.transe.sample_negative (a span, once per epoch)
    # and kgsr.transe.pair_margin_gradients (a counter, once per pair)
    # through the module globals; a refactor that stops calling them drops
    # the transe.* metrics.
    graph = chain_graph(7)
    config = TranseConfig(dim=4, epochs=3, negatives=2, seed=4)
    unpatched = transe_pretrain(graph, config)
    hooks = CountingHooks(monkeypatch, graph)
    got = transe_pretrain(graph, config)
    assert hooks.samples == config.epochs
    assert hooks.kernels == config.epochs * graph.n_triples * config.negatives
    assert_same_tables(got, unpatched)


def test_initialize_embeddings_unit_rows():
    config = TranseConfig(dim=12, seed=2)
    table = initialize_embeddings(10, 3, config)
    np.testing.assert_allclose(np.linalg.norm(table.entities, axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(table.relations, axis=1), 1.0, atol=1e-9)
