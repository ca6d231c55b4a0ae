"""Bulk graph ingest against the per-row readers in ``oracles.py``: line
splitting, triples, interactions and purchases, the first error of a bad
file, and a guard that ingest stores its triples in one call."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_graph
from kgsr.errors import EntityNotFoundError, KgsrError
from kgsr.graph import (
    InteractionSet,
    KnowledgeGraph,
    Triple,
    _data_lines,
    add_purchase_triples,
    ingest_interactions,
    ingest_triples,
)

NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
# Characters str.splitlines would break a line on, and whitespace that str.strip removes.
ODD = "\x0b\x0c\x1c\u2028\u2029\x85"
FIELD_TEXT = st.text(alphabet="ab #\t " + ODD, max_size=8)


@st.composite
def files(draw, line):
    """Lines drawn from `line`, each ended by its own newline style, the last
    one with or without its newline."""
    lines = draw(st.lists(line, max_size=12))
    ends = [draw(NEWLINES) for _ in lines]
    text = "".join(body + end for body, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


def blank_or_comment():
    return st.sampled_from(["", "   ", "\t", "# note", "   # indented", "\t#x", ODD, " \x0c "])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def outcome(read, *args):
    """What a reader returns, or the class and message of its error."""
    try:
        return read(*args)
    except KgsrError as exc:
        return type(exc), str(exc)


def graph_state(graph: KnowledgeGraph):
    return (
        graph.triples,
        graph.entity_names(),
        [graph.entity_kind(e) for e in range(graph.n_entities)],
        graph.relation_names(),
    )


def interaction_state(interactions: InteractionSet):
    return [(user, interactions.items_for(user)) for user in interactions.users()], len(interactions)


@given(text=files(st.one_of(FIELD_TEXT, blank_or_comment())))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_data_lines_match_the_lazy_reader(tmp_path, text):
    path = write(tmp_path, "lines.txt", text)
    assert _data_lines(path) == list(oracles.data_lines(path))


NAMES = {"u1": "user", "u2": "user", "i1": "item", "i2": "item", "i3": "item", "p1": "property"}
RELATIONS = ["purchase", "has", "likes"]


@st.composite
def triple_lines(draw):
    """Mostly well-formed rows over a small name pool, so duplicates and
    purchases that repeat a triple are common; some rows are bad."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([
            "u1\tuser\thas\ti1",                 # 4 fields
            "u1\tuser\t\ti1\titem",              # empty relation
            "u1\tbuyer\thas\ti1\titem",          # unknown kind
            "i1\titem\thas\ti1\titem",           # self-loop
            "u1\titem\thas\tp1\tproperty",       # kind conflict
            "u\u20281\tuser\thas\ti\x1c1\titem",  # odd characters stay in the names
        ]))
    head, tail = draw(st.sampled_from(sorted(NAMES))), draw(st.sampled_from(sorted(NAMES)))
    if head == tail:
        tail = "p1" if head != "p1" else "i1"
    relation = draw(st.sampled_from(RELATIONS))
    return f"{head}\t{NAMES[head]}\t{relation}\t{tail}\t{NAMES[tail]}"


@st.composite
def interaction_lines(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(["u1", "ghost\ti1", "u1\tghost", "i1\ti2", "u1\tp1", "u1\tu2"]))
    return f"{draw(st.sampled_from(['u1', 'u2']))}\t{draw(st.sampled_from(['i1', 'i2', 'i3']))}"


@given(
    triples=files(st.one_of(triple_lines(), triple_lines(), blank_or_comment())),
    interactions=files(st.one_of(interaction_lines(), blank_or_comment())),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ingest_matches_the_per_row_oracle(tmp_path, triples, interactions):
    triples_path = write(tmp_path, "triples.tsv", triples)
    interactions_path = write(tmp_path, "interactions.tsv", interactions)
    graph = outcome(ingest_triples, triples_path)
    expected_graph = outcome(oracles.ingest_triples, triples_path)
    if not isinstance(expected_graph, KnowledgeGraph):
        assert graph == expected_graph
        return
    assert graph_state(graph) == graph_state(expected_graph)

    got = outcome(ingest_interactions, interactions_path, graph)
    expected = outcome(oracles.ingest_interactions, interactions_path, expected_graph)
    if not isinstance(expected, InteractionSet):
        assert got == expected
        return
    assert interaction_state(got) == interaction_state(expected)

    added = add_purchase_triples(graph, got)
    assert added == oracles.add_purchase_triples(expected_graph, expected)
    assert graph_state(graph) == graph_state(expected_graph)
    for head in range(graph.n_entities):
        for relation in range(graph.n_relations):
            for tail in range(graph.n_entities):
                triple = Triple(head, relation, tail)
                assert graph.has_triple(triple) == expected_graph.has_triple(triple)


def test_first_bad_line_wins(tmp_path):
    path = write(tmp_path, "t.tsv", "u1\tuser\thas\ti1\titem\nx\tuser\tr\tx\tuser\nu1\titem\thas\ti2\titem\n")
    assert outcome(ingest_triples, path) == outcome(oracles.ingest_triples, path)
    assert str(outcome(ingest_triples, path)[1]).startswith(f"{path}:2: self-loops")


class Counted:
    """Counts the calls of KnowledgeGraph.add_triple and add_triples."""

    def __init__(self, monkeypatch):
        self.calls = {"add_triple": 0, "add_triples": 0}
        for name in self.calls:
            original = getattr(KnowledgeGraph, name)

            def counted(graph, *args, _name=name, _original=original):
                self.calls[_name] += 1
                return _original(graph, *args)

            monkeypatch.setattr(KnowledgeGraph, name, counted)

    def take(self):
        calls, self.calls = self.calls, dict.fromkeys(self.calls, 0)
        return calls


def test_ingest_stores_triples_and_purchases_in_one_call(tmp_path, monkeypatch):
    triples = write(tmp_path, "t.tsv", "".join(
        f"u{i}\tuser\thas\ti{i % 3}\titem\ni{i % 3}\titem\thas\tp1\tproperty\n" for i in range(20)
    ))
    interactions_path = write(tmp_path, "i.tsv", "".join(f"u{i}\ti{(i + 1) % 3}\n" for i in range(20)))
    counted = Counted(monkeypatch)
    graph = ingest_triples(triples)
    assert counted.take() == {"add_triple": 0, "add_triples": 1}
    interactions = ingest_interactions(interactions_path, graph)
    assert counted.take() == {"add_triple": 0, "add_triples": 0}
    assert add_purchase_triples(graph, interactions) == 20
    assert counted.take() == {"add_triple": 0, "add_triples": 1}


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ((9, 0, 1), EntityNotFoundError, "unknown entity id 9"),
        ((0, 0, -1), EntityNotFoundError, "unknown entity id -1"),
        ((0, 5, 1), EntityNotFoundError, "unknown relation id 5"),
        ((2, 0, 2), ValueError, "self-loops are not allowed"),
    ],
)
def test_add_triples_stores_nothing_when_any_row_is_invalid(bad, error, message):
    graph = make_graph([("u1", "user"), ("i1", "item"), ("i2", "item")], [("u1", "r", "i1")])
    adjacency = graph.adjacency()
    before = graph.triples
    rows = [(0, 0, 2), (1, 0, 2), bad, (2, 0, 0)]
    with pytest.raises(error, match=message):
        graph.add_triples(*map(list, zip(*rows)))
    assert graph.triples == before
    assert not graph.has_triple(Triple(0, 0, 2))
    assert graph.adjacency() is adjacency


def test_add_triples_keeps_first_occurrences_and_counts_new_ones():
    graph = make_graph([("u1", "user"), ("i1", "item"), ("i2", "item")], [("u1", "r", "i1")])
    rows = [(1, 0, 2), (0, 0, 1), (2, 0, 0), (1, 0, 2), (0, 0, 2)]
    assert graph.add_triples(*map(list, zip(*rows))) == 3
    assert graph.triples == (Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 0, 0), Triple(0, 0, 2))
    assert graph.add_triples([], [], []) == 0
    with pytest.raises(ValueError, match="differ in length"):
        graph.add_triples([0], [0], [])


def test_interaction_set_extend_keeps_order_and_dedupes():
    interactions = InteractionSet()
    interactions.add(5, 1)
    assert interactions.extend([5, 3, 5, 3, 5], [2, 1, 1, 1, 2]) == 2
    assert interactions.items_for(5) == [1, 2]
    assert interactions.items_for(3) == [1]
    assert interactions.columns() == ([3, 5, 5], [1, 1, 2])
    assert len(interactions) == 3

