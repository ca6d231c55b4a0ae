"""Graph store: ingestion, adjacency, interactions and splitting."""
from __future__ import annotations

import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, neighbor_entries, random_graph
from kgsr import graph as graph_module
from kgsr.cli import CONFIG_SCHEMA, UsageError, load_config
from kgsr.errors import ConsistencyError, EntityNotFoundError, KindError, ParseError
from kgsr.graph import (
    KIND_CODE,
    EntityKind,
    InteractionSet,
    Triple,
    add_purchase_triples,
    ingest_interactions,
    ingest_triples,
    split_interactions,
    write_triples,
)
from kgsr.llm import load_lexicon, load_reviews, load_targets


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestTriples:
    def test_empty_file(self, tmp_path):
        graph = ingest_triples(write(tmp_path / "t.tsv", ""))
        assert graph.n_entities == 0
        assert graph.n_triples == 0

    def test_duplicate_lines_collapse(self, tmp_path):
        lines = [
            "u1\tuser\tbuys\ti1\titem",
            "u1\tuser\tbuys\ti2\titem",
            "i1\titem\thas\tp1\tproperty",
            "u1\tuser\tbuys\ti2\titem",
        ]
        graph = ingest_triples(write(tmp_path / "t.tsv", "\n".join(lines) + "\n"))
        assert graph.n_triples == 3

    def test_wrong_field_count_names_line(self, tmp_path):
        path = write(tmp_path / "t.tsv", "u1\tuser\tbuys\ti1\titem\nu2\tuser\tbuys\ti1\n")
        with pytest.raises(ParseError) as err:
            ingest_triples(path)
        assert err.value.line_no == 2

    def test_kind_conflict(self, tmp_path):
        path = write(tmp_path / "t.tsv", "x\tuser\tbuys\ty\titem\ny\tproperty\thas\tz\tproperty\n")
        with pytest.raises(ConsistencyError) as err:
            ingest_triples(path)
        assert str(err.value) == f"{path}:2: entity 'y' declared as property but already interned as item"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write(tmp_path / "t.tsv", "# header\n\nu1\tuser\tbuys\ti1\titem\n")
        assert ingest_triples(path).n_triples == 1

    def test_unknown_kind(self, tmp_path):
        path = write(tmp_path / "t.tsv", "u1\tcustomer\tbuys\ti1\titem\n")
        with pytest.raises(ParseError):
            ingest_triples(path)

    def test_self_loop_rejected(self, tmp_path):
        path = write(tmp_path / "t.tsv", "x\tuser\tknows\tx\tuser\n")
        with pytest.raises(ParseError):
            ingest_triples(path)


class TestNeighbors:
    def test_isolated_entity(self):
        graph = make_graph([("u1", "user"), ("i1", "item")], [])
        assert neighbor_entries(graph, graph.entity_id("u1")) == []

    def test_forward_and_inverse_entries(self):
        graph = make_graph([("a", "user"), ("b", "item")], [("a", "r", "b")])
        a, b = graph.entity_id("a"), graph.entity_id("b")
        r = graph.relation_id("r")
        assert neighbor_entries(graph, a) == [(r, b, False)]
        assert neighbor_entries(graph, b) == [(r, a, True)]

    def test_sorted_by_neighbor_then_relation(self):
        graph = make_graph(
            [("c", "property"), ("a", "user"), ("b", "item")],
            [("a", "r1", "b"), ("c", "r2", "a")],
        )
        a = graph.entity_id("a")
        entries = neighbor_entries(graph, a)
        assert [n for _, n, _ in entries] == sorted(n for _, n, _ in entries)
        assert len(entries) == 2
        assert entries[0][2] is True  # c interned first, id 0

    def test_rows_are_concatenated_in_query_order(self):
        graph = make_graph(
            [("a", "user"), ("b", "item"), ("c", "property")],
            [("a", "r", "b"), ("b", "s", "c")],
        )
        a, b, c = (graph.entity_id(name) for name in "abc")
        r, s = graph.relation_id("r"), graph.relation_id("s")
        position, relation, neighbor, inverse = graph.neighbors([b, c, b])
        assert position.tolist() == [0, 0, 1, 2, 2]
        assert relation.tolist() == [r, s, s, r, s]
        assert neighbor.tolist() == [a, c, b, a, c]
        assert inverse.tolist() == [True, False, True, True, False]
        assert all(len(column) == 0 for column in graph.neighbors([]))

    def test_unknown_entity(self):
        graph = make_graph([("a", "user")], [])
        for entity in (99, -1):
            with pytest.raises(EntityNotFoundError, match=f"unknown entity id {entity}"):
                graph.neighbors([0, entity])

    def test_adjacency_matches_rebuild(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            graph = random_graph(rng)
            rebuilt: dict[int, set] = {e: set() for e in range(graph.n_entities)}
            for t in graph.triples:
                rebuilt[t.head].add((t.relation, t.tail, False))
                rebuilt[t.tail].add((t.relation, t.head, True))
            for entity in range(graph.n_entities):
                assert set(neighbor_entries(graph, entity)) == rebuilt[entity]

    def test_index_order_does_not_depend_on_the_sort_key(self, monkeypatch):
        # a graph too large for one packed int key is ordered by lexsort instead
        def index(seed):
            adjacency = random_graph(np.random.default_rng(seed), n_edges=40).adjacency()
            return [column.tolist() for column in (adjacency.indptr, adjacency.neighbor, adjacency.relation, adjacency.inverse)]

        packed = [index(seed) for seed in range(10)]
        monkeypatch.setattr(graph_module, "PACKED_KEY_MAX", 0)
        assert [index(seed) for seed in range(10)] == packed

    def test_add_triple_after_read_rebuilds_index(self):
        graph = make_graph([("a", "user"), ("b", "item"), ("c", "property")], [("a", "r", "b")])
        a, b, c = (graph.entity_id(n) for n in "abc")
        r = graph.relation_id("r")
        assert neighbor_entries(graph, a) == [(r, b, False)]
        before = graph.adjacency()
        graph.add_triple(c, r, a)
        assert graph.adjacency() is not before
        assert neighbor_entries(graph, a) == [(r, b, False), (r, c, True)]
        assert neighbor_entries(graph, c) == [(r, a, False)]
        d = graph.intern_entity("d", EntityKind.ITEM)
        assert neighbor_entries(graph, d) == []
        assert graph.adjacency().kind[d] == KIND_CODE[EntityKind.ITEM]
        assert graph.adjacency().name.tolist() == ["a", "b", "c", "d"]

    def test_duplicate_triple_keeps_index(self):
        graph = make_graph([("a", "user"), ("b", "item")], [("a", "r", "b")])
        before = graph.adjacency()
        assert not graph.add_triple(graph.entity_id("a"), graph.relation_id("r"), graph.entity_id("b"))
        assert graph.adjacency() is before

    def test_concurrent_first_reads_build_one_index(self):
        rng = np.random.default_rng(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(20):
                    graph = random_graph(rng, n_edges=30)
                    barrier = threading.Barrier(4, timeout=10)

                    def first_read(_, graph=graph, barrier=barrier):
                        barrier.wait()
                        return graph.adjacency()

                    built = list(pool.map(first_read, range(4), timeout=30))
                    assert all(index is built[0] for index in built)
        finally:
            sys.setswitchinterval(interval)


def test_kind_partition():
    rng = np.random.default_rng(1)
    graph = random_graph(rng)
    kinds = [graph.entities_of_kind(k) for k in EntityKind]
    assert sum(len(k) for k in kinds) == graph.n_entities
    union = set().union(*map(set, kinds))
    assert len(union) == graph.n_entities
    assert graph.kind_counts() == {k: len(entities) for k, entities in zip(EntityKind, kinds)}


def test_serialize_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    graph = random_graph(rng)
    out = tmp_path / "round.tsv"
    write_triples(graph, out)
    again = ingest_triples(out)

    def content(g):
        return {
            (
                g.entity_name(t.head),
                g.entity_kind(t.head),
                g.relation_name(t.relation),
                g.entity_name(t.tail),
                g.entity_kind(t.tail),
            )
            for t in g.triples
        }

    connected = {g for t in graph.triples for g in (t.head, t.tail)}
    assert content(again) == content(graph)
    assert again.n_entities == len(connected)


def test_failed_write_keeps_the_previous_file_and_no_temporary(tmp_path, monkeypatch):
    out = tmp_path / "triples.tsv"
    write_triples(random_graph(np.random.default_rng(3)), out)
    before = out.read_bytes()
    partial = []

    class FullDisk:
        """A handle on the temporary file whose write stores half its text, then fails."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return self.handle.__exit__(*exc_info)

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            partial.append(Path(self.handle.name).stat().st_size)
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(graph_module, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_triples(random_graph(np.random.default_rng(4)), out)
    assert partial and partial[0] > 0  # the temporary held part of the new file
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["triples.tsv"]


def test_atomic_open_syncs_the_temporary_file_before_the_replace(tmp_path, monkeypatch):
    out = tmp_path / "out.txt"
    out.write_text("old\n", encoding="utf-8")
    temporary = tmp_path / f"out.txt.{graph_module.os.getpid()}.tmp"
    synced, replace = [], graph_module.os.replace

    def fsync(fd):
        # the descriptor is the temporary file's, its text is flushed and the old file is still in place
        synced.append((graph_module.os.path.samestat(graph_module.os.fstat(fd), temporary.stat()),
                       temporary.read_text(encoding="utf-8"), out.read_text(encoding="utf-8")))

    def replaced(source, target):
        synced.append("replace")
        replace(source, target)

    monkeypatch.setattr(graph_module.os, "fsync", fsync)
    monkeypatch.setattr(graph_module.os, "replace", replaced)
    with graph_module.atomic_open(out, "w", encoding="utf-8") as handle:
        handle.write("new\n")
    assert synced == [(True, "new\n", "old\n"), "replace"]
    assert out.read_text(encoding="utf-8") == "new\n"


class TestInteractions:
    def graph(self):
        return make_graph(
            [("u1", "user"), ("u2", "user"), ("i1", "item"), ("p1", "property")],
            [("u1", "buys", "i1")],
        )

    def test_empty(self, tmp_path):
        interactions = ingest_interactions(write(tmp_path / "i.tsv", ""), self.graph())
        assert len(interactions) == 0

    def test_dedupe(self, tmp_path):
        path = write(tmp_path / "i.tsv", "u1\ti1\nu1\ti1\n")
        interactions = ingest_interactions(path, self.graph())
        assert len(interactions) == 1

    def test_property_as_item_is_kind_error(self, tmp_path):
        path = write(tmp_path / "i.tsv", "u1\ti1\n\nu1\tp1\n")
        with pytest.raises(KindError) as err:
            ingest_interactions(path, self.graph())
        assert str(err.value) == f"{path}:3: 'p1' is property, not item"

    def test_unknown_name(self, tmp_path):
        path = write(tmp_path / "i.tsv", "u1\ti1\nghost\ti1\n")
        with pytest.raises(EntityNotFoundError) as err:
            ingest_interactions(path, self.graph())
        assert str(err.value) == f"{path}:2: unknown entity 'ghost'"

    def test_item_as_user_is_kind_error(self, tmp_path):
        path = write(tmp_path / "i.tsv", "i1\ti1\n")
        with pytest.raises(KindError) as err:
            ingest_interactions(path, self.graph())
        assert str(err.value) == f"{path}:1: 'i1' is item, not user"


def _interactions(spec):
    interactions = InteractionSet()
    for user, items in spec.items():
        for item in items:
            interactions.add(user, item)
    return interactions


class TestSplit:
    def test_fraction_one_gives_empty_test(self):
        interactions = _interactions({0: [1, 2, 3]})
        train, test = split_interactions(interactions, 1.0, seed=0)
        assert len(test) == 0
        assert len(train) == 3

    def test_same_seed_identical(self):
        interactions = _interactions({0: [1, 2, 3, 4], 5: [6, 7]})
        a = split_interactions(interactions, 0.5, seed=9)
        b = split_interactions(interactions, 0.5, seed=9)
        for x, y in zip(a, b):
            assert {u: x.items_for(u) for u in x.users()} == {u: y.items_for(u) for u in y.users()}

    def test_five_items_at_080(self):
        interactions = _interactions({0: [10, 11, 12, 13, 14]})
        train, test = split_interactions(interactions, 0.8, seed=3)
        assert len(train.items_for(0)) == 4
        assert len(test.items_for(0)) == 1

    def test_singleton_user_stays_in_train(self):
        interactions = _interactions({0: [1]})
        train, test = split_interactions(interactions, 0.5, seed=0)
        assert train.items_for(0) == [1]
        assert test.items_for(0) == []

    def test_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            split_interactions(_interactions({0: [1]}), 0.0, seed=0)
        with pytest.raises(ValueError):
            split_interactions(_interactions({0: [1]}), 1.5, seed=0)

    @given(st.integers(0, 2**31), st.floats(0.1, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_union_and_disjointness(self, seed, fraction):
        interactions = _interactions({0: [1, 2, 3, 4, 5], 9: [7], 4: [5, 6]})
        train, test = split_interactions(interactions, fraction, seed=seed)
        for user in interactions.users():
            full = set(interactions.items_for(user))
            tr, te = set(train.items_for(user)), set(test.items_for(user))
            assert tr | te == full
            assert tr & te == set()
            assert tr


def test_add_purchase_triples():
    graph = make_graph([("u1", "user"), ("i1", "item"), ("i2", "item")], [])
    interactions = _interactions(
        {graph.entity_id("u1"): [graph.entity_id("i1"), graph.entity_id("i2")]}
    )
    assert add_purchase_triples(graph, interactions) == 2
    assert add_purchase_triples(graph, interactions) == 0
    relation = graph.relation_id("purchase")
    assert graph.has_triple(Triple(graph.entity_id("u1"), relation, graph.entity_id("i1")))


def _users_and_items():
    return make_graph([("u1", "user"), ("i1", "item")], [("u1", "buys", "i1")])


# Each reader with a valid first line of its format.
READERS = {
    "triples": (ingest_triples, "u1\tuser\tbuys\ti1\titem"),
    "interactions": (lambda path: ingest_interactions(path, _users_and_items()), "u1\ti1"),
    "lexicon": (load_lexicon, "reliable\treview\treliable"),
    "targets": (load_targets, "like\tlike\tuser"),
    "config": (load_config, "seed=7"),
    "reviews": (
        lambda path: load_reviews(path, _users_and_items()),
        json.dumps({"user": "u1", "item": "i1", "text": "ok"}),
    ),
}


# Lines built from arbitrary text and from the tokens the readers look for:
# tab-separated fields, key=value pairs, comment marks, entity kinds and the
# names of the fixture graph's user and item.
_TOKENS = st.sampled_from(
    sorted(CONFIG_SCHEMA) + ["user", "item", "property", "value", "u1", "i1", "#", "=", " ", ""]
)
_LINE = st.one_of(
    st.text(max_size=30),
    st.lists(st.one_of(st.text(max_size=8), _TOKENS), min_size=1, max_size=5).map("\t".join),
    st.tuples(st.one_of(_TOKENS, st.text(max_size=8)), st.text(max_size=12)).map("=".join),
)
# JSON objects with the review keys, any of them missing, of any JSON type
# or naming the fixture's entities in either role.
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)
_REVIEW_LINE = st.dictionaries(
    st.sampled_from(["user", "item", "text", "extra"]), _TOKENS | _JSON_VALUE, max_size=4
).map(json.dumps)
# Each reader's lines, with tab-separated lines of its field count.
_FIELDS = {"triples": 5, "interactions": 2, "lexicon": 3, "targets": 4, "config": 1}
_LINES = {
    name: st.lists(st.one_of(_LINE, st.lists(_TOKENS, min_size=k, max_size=k).map("\t".join)), max_size=6)
    for name, k in _FIELDS.items()
}
_LINES["reviews"] = st.lists(st.one_of(_REVIEW_LINE, _LINE), max_size=6)
# What a reader may raise: an error of the file's content, naming its line.
_READER_ERRORS = (ParseError, UsageError, ConsistencyError, EntityNotFoundError, KindError)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.data(), newline=st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=300, deadline=None)
def test_arbitrary_lines_load_or_raise_a_reader_error(fuzz_dir, name, data, newline):
    read, _ = READERS[name]
    path = fuzz_dir / name
    path.write_bytes(newline.join(data.draw(_LINES[name])).encode("utf-8"))
    try:
        read(path)
    except _READER_ERRORS as err:
        assert str(err).startswith(f"{path}:")


def test_deeply_nested_review_json_is_a_parse_error(tmp_path):
    path = tmp_path / "reviews.jsonl"
    path.write_text(READERS["reviews"][1] + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: invalid JSON: nested too deeply"):
        READERS["reviews"][0](path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_invalid_utf8_is_a_parse_error_at_its_line(tmp_path, name, newline):
    read, first = READERS[name]
    path = tmp_path / name
    path.write_bytes(f"{newline}{first}{newline}".encode())
    read(path)
    path.write_bytes(first.encode() + newline.encode() + b"bad \xff byte" + newline.encode() + first.encode())
    with pytest.raises(ParseError) as err:
        read(path)
    assert err.value.line_no == 2
    assert str(err.value).startswith(f"{path}:2: invalid UTF-8 byte 0xff")
