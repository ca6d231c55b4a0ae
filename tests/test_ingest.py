"""Bulk graph ingest against the per-row readers in ``oracles.py``: line
splitting, triples, interactions and purchases, the first error of a bad
file, and a guard that ingest stores its triples in one call. The inline
readers, ``InteractionSet`` and ``split_interactions`` also against the
interned line readers and the list-and-pair-set interactions they replaced."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_graph
from kgsr.errors import EntityNotFoundError, KgsrError
from kgsr.graph import (
    EntityKind,
    InteractionSet,
    KnowledgeGraph,
    Triple,
    _data_lines,
    add_purchase_triples,
    ingest_interactions,
    ingest_triples,
    split_interactions,
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



# -- the inline readers against the interned line readers ---------------------

OTHER_KIND = {"user": "item", "item": "property", "property": "user"}
# Each fault rewrites the fields of a triple line: the checks on the names
# and kinds, then those on the line's shape, which come first.
NAME_FAULTS = {
    "unknown head kind": lambda f: [f[0], "buyer", *f[2:]],
    "unknown tail kind": lambda f: [*f[:4], "Item"],
    "head kind conflict": lambda f: [f[0], OTHER_KIND.get(f[1], "user"), *f[2:]],
    "tail kind conflict": lambda f: [*f[:4], OTHER_KIND.get(f[4], "item")],
    "self-loop": lambda f: [*f[:3], f[0], f[1]],
}
SHAPE_FAULTS = {
    "missing field": lambda f: f[:4],
    "extra field": lambda f: [*f, "x"],
    "empty head": lambda f: ["", *f[1:]],
    "empty relation": lambda f: [*f[:2], "", *f[3:]],
    "empty tail": lambda f: [*f[:3], "", *f[4:]],
}


@st.composite
def faulty_triple_lines(draw):
    """A triple line over a name pool with new names. One time in six it
    has up to three name and kind faults, and a quarter of those lines also
    up to two shape faults, each set applied in drawn order. A kind
    conflict needs a name seen before, so the pool is small."""
    kind_of = {**NAMES, "n1": "item", "n2": "property", "n3": "user"}
    head, tail = draw(st.lists(st.sampled_from(sorted(kind_of)), min_size=2, max_size=2, unique=True))
    fields = [head, kind_of[head], draw(st.sampled_from(RELATIONS + ["also"])), tail, kind_of[tail]]
    if draw(st.integers(0, 5)) == 0:
        faults = [NAME_FAULTS[name] for name in draw(st.lists(st.sampled_from(sorted(NAME_FAULTS)),
                                                              min_size=1, max_size=3, unique=True))]
        if draw(st.integers(0, 3)) == 0:
            faults += [SHAPE_FAULTS[name] for name in draw(st.lists(st.sampled_from(sorted(SHAPE_FAULTS)),
                                                                    min_size=1, max_size=2, unique=True))]
        for fault in faults:
            fields = fault(fields)
    return "\t".join(fields)


@st.composite
def faulty_interaction_lines(draw, graph):
    """An interaction line over the graph's names: a user and an item, or
    one time in eight a fault: two names of any kind, an unknown name, an
    empty name, or one or three fields."""
    names = graph.entity_names() or ("ghost",)
    users, items = ([graph.entity_name(e) for e in graph.entities_of_kind(kind)] or ["ghost"]
                    for kind in (EntityKind.USER, EntityKind.ITEM))
    if draw(st.integers(0, 7)):
        return f"{draw(st.sampled_from(users))}\t{draw(st.sampled_from(items))}"
    user, item = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    return draw(st.sampled_from([
        f"{user}\t{item}", f"{item}\t{user}", f"ghost\t{item}", f"{user}\tghost", f"ghost\t{user}",
        f"\t{item}", f"{user}\t", user, f"{user}\t{item}\t{item}",
    ]))


def reader_state(graph):
    """A graph's name, kind, relation and triple tables, in their order."""
    return graph.entity_names(), list(graph._entity_kinds), graph.relation_names(), graph.triples


def pairs_state(interactions):
    users = interactions.users()
    return (users, [interactions.items_for(user) for user in users], interactions.columns(),
            len(interactions), interactions.n_users)


@given(
    triples=files(st.one_of(faulty_triple_lines(), faulty_triple_lines(), faulty_triple_lines(), blank_or_comment())),
    data=st.data(),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readers_match_the_interned_line_readers(tmp_path, triples, data):
    triples_path = write(tmp_path, "triples.tsv", triples)
    graph = outcome(ingest_triples, triples_path)
    expected_graph = outcome(oracles.interned_ingest_triples, triples_path)
    if not isinstance(expected_graph, KnowledgeGraph):
        assert graph == expected_graph
        assert f"{triples_path}:" in expected_graph[1]
        return
    assert reader_state(graph) == reader_state(expected_graph)
    lines = st.one_of(faulty_interaction_lines(graph), faulty_interaction_lines(graph), blank_or_comment())
    interactions_path = write(tmp_path, "interactions.tsv", data.draw(files(lines)))
    got = outcome(ingest_interactions, interactions_path, graph)
    expected = outcome(oracles.listed_ingest_interactions, interactions_path, expected_graph)
    if not isinstance(expected, oracles.ListInteractionSet):
        assert got == expected
        assert f"{interactions_path}:" in expected[1]
        return
    assert pairs_state(got) == pairs_state(expected)


@pytest.mark.parametrize("line", [
    "u1\titem\thas\ti1\tbuyer",          # head kind conflict, unknown tail kind
    "u1\tbuyer\thas\ti1\tuser",          # unknown head kind, tail kind conflict
    "u1\titem\thas\tu1\tbuyer",          # head kind conflict, self-loop, unknown tail kind
    "i1\titem\thas\ti1\tuser",           # tail kind conflict, self-loop
    "n1\tuser\thas\ti1\tproperty",       # a new head, then a tail kind conflict
    "u1\tuser\t\ti1\tbuyer",             # empty relation, unknown tail kind
    "\tuser\thas\ti1\titem\tx",          # extra field, empty head
])
def test_a_line_with_several_faults_reports_the_same_one(tmp_path, line):
    path = write(tmp_path, "t.tsv", f"# header\nu1\tuser\thas\ti1\titem\n{line}\n")
    got = outcome(ingest_triples, path)
    assert got == outcome(oracles.interned_ingest_triples, path)
    assert got[1].startswith(f"{path}:3: ")


OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 4), st.integers(0, 6)),
    st.tuples(st.just("extend"), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)), max_size=8)),
), max_size=12)


def apply(interactions, ops):
    """Each op's return value, then the set's state."""
    returns = []
    for op in ops:
        if op[0] == "add":
            returns.append(interactions.add(op[1], op[2]))
        else:
            returns.append(interactions.extend([u for u, _ in op[1]], [i for _, i in op[1]]))
    return returns, pairs_state(interactions), [interactions.items_for(user) for user in range(-1, 6)]


@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_interaction_set_matches_the_list_and_pair_set(ops):
    assert apply(InteractionSet(), ops) == apply(oracles.ListInteractionSet(), ops)


@given(
    ops=OPS,
    fraction=st.one_of(st.floats(0.01, 1.0), st.just(1.0), st.sampled_from([0.0, -0.5, 1.5])),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_split_matches_the_list_split(ops, fraction, seed):
    interactions, listed = InteractionSet(), oracles.ListInteractionSet()
    apply(interactions, ops)
    apply(listed, ops)

    def split(read, source):
        try:
            return [pairs_state(part) for part in read(source, fraction, seed)]
        except ValueError as exc:
            return str(exc)

    assert split(split_interactions, interactions) == split(oracles.listed_split_interactions, listed)
