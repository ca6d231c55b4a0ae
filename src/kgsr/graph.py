"""In-memory knowledge graph with typed entities and a CSR adjacency index.

Entities are interned to dense integer ids in first-seen order and carry
exactly one kind (user, item or property). Triples are stored once, in
insertion order, as the (head, relation, tail) id keys of one dict.

Traversal reads a compressed-sparse-row index (``Adjacency``) in which every
triple appears twice, once in its head's row (forward) and once in its
tail's row (inverse), so it never has to care about edge orientation. Each
row is ordered by neighbor id, then relation id, then forward before
inverse. The index is built lazily, on the first read after the last
mutation; any new entity or triple drops it. The build is guarded by a
lock, so any number of threads may read a graph concurrently once
construction and augmentation are done; mutation requires exclusive access.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import re
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, EntityNotFoundError, KgsrError, KindError, ParseError, at_line
from .numerics import expand_ranges

PACKED_KEY_MAX = np.iinfo(np.intp).max  # the largest key adjacency_key packs


def adjacency_key(rows, neighbor, relation, inverse, n_entities: int, n_relations: int) -> np.ndarray | None:
    """The packed (row, neighbor, relation, inverse) key that orders the
    index, one int per entry; None when a key could pass PACKED_KEY_MAX."""
    n, r = n_entities, max(n_relations, 1)
    if n * n * r * 2 > PACKED_KEY_MAX:
        return None
    return ((rows * n + neighbor) * r + relation) * 2 + inverse


class EntityKind(Enum):
    USER = "user"
    ITEM = "item"
    PROPERTY = "property"


# Entity-kind codes used by Adjacency.kind.
KIND_CODE = {kind: code for code, kind in enumerate(EntityKind)}
# Entity kinds by the name the data files use.
KIND_BY_NAME = {kind.value: kind for kind in EntityKind}


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class Adjacency:
    """CSR index: row e spans entries ``indptr[e]:indptr[e + 1]``."""

    indptr: np.ndarray    # (n_entities + 1,)
    neighbor: np.ndarray  # (2 * n_triples,) entity at the other end
    relation: np.ndarray  # (2 * n_triples,)
    inverse: np.ndarray   # (2 * n_triples,) bool; True where the row entity is the tail
    kind: np.ndarray      # (n_entities,) KIND_CODE of every entity
    name: np.ndarray      # (n_entities,) object array of every entity's name

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated entries of the given rows, in row order, as (position
        in rows, entry index) per entry."""
        return expand_ranges(self.indptr[rows], self.indptr[rows + 1])


class KnowledgeGraph:
    def __init__(self) -> None:
        self._entity_names: list[str] = []
        self._entity_kinds: list[EntityKind] = []
        self._kind_codes: list[int] = []  # KIND_CODE of each entity, kept beside its kind
        self._entity_ids: dict[str, int] = {}
        self._relation_names: list[str] = []
        self._relation_ids: dict[str, int] = {}
        self._triples: dict[tuple[int, int, int], None] = {}  # an insertion-ordered set
        self._csr: Adjacency | None = None
        self._csr_lock = threading.Lock()

    # -- entity / relation interning --------------------------------------

    def intern_entity(self, name: str, kind: EntityKind) -> int:
        existing = self._entity_ids.get(name)
        if existing is not None:
            if self._entity_kinds[existing] is not kind:
                raise ConsistencyError(
                    f"entity {name!r} declared as {kind.value} but already "
                    f"interned as {self._entity_kinds[existing].value}"
                )
            return existing
        eid = len(self._entity_names)
        self._entity_names.append(name)
        self._entity_kinds.append(kind)
        self._kind_codes.append(KIND_CODE[kind])
        self._entity_ids[name] = eid
        self._csr = None
        return eid

    def intern_relation(self, name: str) -> int:
        existing = self._relation_ids.get(name)
        if existing is not None:
            return existing
        rid = len(self._relation_names)
        self._relation_names.append(name)
        self._relation_ids[name] = rid
        return rid

    def add_triple(self, head: int, relation: int, tail: int) -> bool:
        """Store a triple; returns False if it was already present."""
        return self.add_triples([head], [relation], [tail]) == 1

    def add_triples(self, heads, relations, tails) -> int:
        """Store the (head, relation, tail) rows not stored yet, in
        first-occurrence order; returns how many were new.

        Every row is checked before any is stored: an unknown entity or
        relation id raises EntityNotFoundError and a self-loop ValueError,
        for the first bad row, and the graph is left as it was.
        """
        if not len(heads) == len(relations) == len(tails):
            raise ValueError("heads, relations and tails differ in length")
        n_entities = len(self._entity_names)
        if len(heads) and not (
            0 <= min(heads) and max(heads) < n_entities
            and 0 <= min(tails) and max(tails) < n_entities
            and 0 <= min(relations) and max(relations) < len(self._relation_names)
            and not any(map(operator.eq, heads, tails))
        ):
            for head, relation, tail in zip(heads, relations, tails):
                self._check_entity(head)
                self._check_entity(tail)
                if not 0 <= relation < len(self._relation_names):
                    raise EntityNotFoundError(f"unknown relation id {relation}")
                if head == tail:
                    raise ValueError("self-loops are not allowed")
        before = len(self._triples)
        self._triples.update(dict.fromkeys(zip(heads, relations, tails)))
        added = len(self._triples) - before
        if added:
            self._csr = None
        return added

    # -- adjacency index ---------------------------------------------------

    def adjacency(self) -> Adjacency:
        """The CSR index of the current graph, built on first use."""
        adjacency = self._csr
        if adjacency is None:
            with self._csr_lock:
                adjacency = self._csr
                if adjacency is None:
                    adjacency = self._csr = self._build_adjacency()
        return adjacency

    def _build_adjacency(self) -> Adjacency:
        ids = itertools.chain.from_iterable(self._triples)
        heads, relations, tails = np.fromiter(ids, np.intp, 3 * self.n_triples).reshape(-1, 3).T
        rows = np.concatenate([heads, tails])
        neighbor = np.concatenate([tails, heads])
        relation = np.concatenate([relations, relations])
        inverse = np.repeat([False, True], len(heads))
        key = adjacency_key(rows, neighbor, relation, inverse, self.n_entities, self.n_relations)
        order = np.lexsort((inverse, relation, neighbor, rows)) if key is None else key.argsort(kind="stable")
        indptr = np.zeros(self.n_entities + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.n_entities), out=indptr[1:])
        kind = np.array(self._kind_codes, dtype=np.int8)
        name = np.array(self._entity_names, dtype=object)
        return Adjacency(indptr, neighbor[order], relation[order], inverse[order], kind, name)

    # -- lookups -----------------------------------------------------------

    def _check_entity(self, entity: int) -> None:
        if not 0 <= entity < len(self._entity_names):
            raise EntityNotFoundError(f"unknown entity id {entity}")

    @property
    def n_entities(self) -> int:
        return len(self._entity_names)

    @property
    def n_relations(self) -> int:
        return len(self._relation_names)

    @property
    def n_triples(self) -> int:
        return len(self._triples)

    @property
    def triples(self) -> tuple[Triple, ...]:
        """Every stored triple, in insertion order."""
        return tuple(itertools.starmap(Triple, self._triples))

    def has_triple(self, triple: Triple) -> bool:
        return triple in self._triples

    def entity_id(self, name: str) -> int:
        try:
            return self._entity_ids[name]
        except KeyError:
            raise EntityNotFoundError(f"unknown entity {name!r}") from None

    def entity_name(self, entity: int) -> str:
        self._check_entity(entity)
        return self._entity_names[entity]

    def entity_kind(self, entity: int) -> EntityKind:
        self._check_entity(entity)
        return self._entity_kinds[entity]

    def relation_id(self, name: str) -> int:
        try:
            return self._relation_ids[name]
        except KeyError:
            raise EntityNotFoundError(f"unknown relation {name!r}") from None

    def relation_name(self, relation: int) -> str:
        if not 0 <= relation < len(self._relation_names):
            raise EntityNotFoundError(f"unknown relation id {relation}")
        return self._relation_names[relation]

    def entity_names(self) -> tuple[str, ...]:
        return tuple(self._entity_names)

    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relation_names)

    def entities_of_kind(self, kind: EntityKind) -> list[int]:
        return [i for i, k in enumerate(self._entity_kinds) if k is kind]

    def kind_counts(self) -> dict[EntityKind, int]:
        """How many entities there are of each kind."""
        return {kind: self._kind_codes.count(code) for kind, code in KIND_CODE.items()}

    def neighbors(self, entities) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The index rows of the given entities, concatenated in their order,
        as (position in entities, relation, neighbor, inverse) per entry: an
        entity's forward entries are its triples as head, its inverse ones
        its triples as tail, ordered as the index orders its rows."""
        entities = np.asarray(entities, dtype=np.intp).reshape(-1)
        unknown = (entities < 0) | (entities >= self.n_entities)
        if unknown.any():
            raise EntityNotFoundError(f"unknown entity id {entities[unknown][0]}")
        adjacency = self.adjacency()
        position, entry = adjacency.gather(entities)
        return position, adjacency.relation[entry], adjacency.neighbor[entry], adjacency.inverse[entry]


class InteractionSet:
    """Each user's purchased items, without repeats, in insertion order."""

    def __init__(self) -> None:
        self._by_user: dict[int, dict[int, None]] = {}  # user -> an insertion-ordered item set

    def add(self, user: int, item: int) -> bool:
        return self.extend((user,), (item,)) == 1

    def extend(self, users, items) -> int:
        """Add the (user, item) pairs in order; returns how many were new."""
        by_user, added = self._by_user, 0
        for user, item in zip(users, items):
            row = by_user.get(user)
            if row is None:
                row = by_user[user] = {}
            if item not in row:
                row[item] = None
                added += 1
        return added

    def columns(self) -> tuple[list[int], list[int]]:
        """(users, items) of every pair: users ascending, each user's items
        in insertion order."""
        users = sorted(self._by_user)
        return (
            [user for user in users for _ in self._by_user[user]],
            [item for user in users for item in self._by_user[user]],
        )

    def users(self) -> list[int]:
        return sorted(self._by_user)

    def items_for(self, user: int) -> list[int]:
        return list(self._by_user.get(user, ()))

    def __len__(self) -> int:
        return sum(map(len, self._by_user.values()))

    @property
    def n_users(self) -> int:
        return len(self._by_user)


def _numbered_lines(path):
    """(line_no, line) of every line of a UTF-8 text file, read in one go
    with universal newlines and without line ends. A file that ends with a
    newline yields one last empty line. A leading byte-order mark is
    dropped. Bytes that are not UTF-8 raise ParseError at their line."""
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        message = f"invalid UTF-8 byte {data[exc.start]:#04x}"
        raise ParseError(path, before.count(b"\n") + 1, message) from None
    # str.splitlines would also break on \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029
    return enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1)


def _data_lines(path) -> list[tuple[int, str]]:
    """(line_no, line) of every line that is neither blank nor a '#' comment."""
    return [
        (line_no, line)
        for line_no, line in _numbered_lines(path)
        if (content := line.lstrip()) and content[0] != "#"
    ]


def _parse_kind(path, line_no: int, token: str) -> EntityKind:
    kind = KIND_BY_NAME.get(token)
    if kind is None:
        raise ParseError(
            path, line_no, f"unknown entity kind {token!r} (expected user/item/property)"
        )
    return kind


def ingest_triples(path) -> KnowledgeGraph:
    """Load a graph from a 5-field TSV: head, head_kind, relation, tail, tail_kind.

    Duplicate triples collapse silently (set semantics). Malformed lines
    raise ParseError, and a name appearing with two different kinds
    ConsistencyError, each naming the file and line. Names are interned
    line by line, so the first bad line wins; the triples are stored at the
    end in one call.
    """
    graph = KnowledgeGraph()
    heads, relations, tails = [], [], []
    ids, kinds, relation_ids = graph._entity_ids, graph._entity_kinds, graph._relation_ids
    intern_entity, kind_by_name = graph.intern_entity, KIND_BY_NAME
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 5:
            raise ParseError(path, line_no, f"expected 5 tab-separated fields, got {len(fields)}")
        head_name, head_kind, relation_name, tail_name, tail_kind = fields
        if not head_name or not relation_name or not tail_name:
            raise ParseError(path, line_no, "empty field")
        # a name seen before with the same kind is looked up here; intern_entity
        # adds a new one, or raises ConsistencyError for another kind
        try:
            kind = kind_by_name.get(head_kind) or _parse_kind(path, line_no, head_kind)
            head = ids.get(head_name)
            if head is None or kinds[head] is not kind:
                head = intern_entity(head_name, kind)
            kind = kind_by_name.get(tail_kind) or _parse_kind(path, line_no, tail_kind)
            tail = ids.get(tail_name)
            if tail is None or kinds[tail] is not kind:
                tail = intern_entity(tail_name, kind)
        except ConsistencyError as exc:
            raise at_line(exc, path, line_no) from None
        relation = relation_ids.get(relation_name)
        if relation is None:
            relation = graph.intern_relation(relation_name)
        if head == tail:
            raise ParseError(path, line_no, "self-loops are not allowed")
        heads.append(head)
        relations.append(relation)
        tails.append(tail)
    graph.add_triples(heads, relations, tails)
    return graph


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """open() for writing through a temporary file in the same directory
    that replaces path only once the block has finished, so path holds
    either its old or its new content and a failed write leaves no
    temporary file behind. An error opening the temporary file names path."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        handle = open(temporary, mode, **kwargs)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())  # the content is on disk before the name points at it
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


_COMMENT_LINE = re.compile(r"\n\s*#")  # a line of "\n" + text that _data_lines skips


def write_triples(graph: KnowledgeGraph, path) -> None:
    """Serialize a graph back to the triples file format (insertion order).

    Entities that participate in no triple cannot be represented and are
    dropped; re-ingesting reproduces the same name/kind/triple content for
    graphs without isolated entities. A written name that holds a tab or a
    line break, or a head name that starts with '#' once stripped, would
    read back differently, so it raises ValueError, naming it, before
    anything is written.
    """
    names, relations = graph._entity_names, graph._relation_names
    labels = [f"{name}\t{kind.value}" for name, kind in zip(names, graph._entity_kinds)]
    text = "".join([f"{labels[h]}\t{relations[r]}\t{labels[t]}\n" for h, r, t in graph._triples])
    n = len(graph._triples)
    if text.count("\t") != 4 * n or text.count("\n") != n or "\r" in text or _COMMENT_LINE.search("\n" + text):
        for h, r, t in graph._triples:
            for role, name in (("entity", names[h]), ("relation", relations[r]), ("entity", names[t])):
                if "\t" in name or "\n" in name or "\r" in name:
                    raise ValueError(f"cannot write {role} {name!r}: it holds a tab or a line break")
            if names[h].lstrip().startswith("#"):
                raise ValueError(f"cannot write entity {names[h]!r} as a head: its line would read as a comment")
    with atomic_open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def ingest_interactions(path, graph: KnowledgeGraph) -> InteractionSet:
    """Load a user->items map from a 2-field TSV of user_name, item_name.

    A name the graph does not know raises EntityNotFoundError, and one of
    the wrong kind KindError, each naming the file and line.
    """
    ids, kinds = graph._entity_ids, graph._entity_kinds
    user_kind, item_kind = EntityKind.USER, EntityKind.ITEM  # enum attribute reads are slow
    interactions = InteractionSet()
    by_user = interactions._by_user
    for line_no, line in _data_lines(path):
        user_name, tab, item_name = line.partition("\t")
        if not tab or "\t" in item_name:
            fields = line.count("\t") + 1
            raise ParseError(path, line_no, f"expected 2 tab-separated fields, got {fields}")
        user, item = ids.get(user_name), ids.get(item_name)
        if user is None or item is None or kinds[user] is not user_kind or kinds[item] is not item_kind:
            raise _interaction_error(graph, path, line_no, user_name, item_name)
        row = by_user.get(user)
        if row is None:
            row = by_user[user] = {}
        row[item] = None
    return interactions


def _interaction_error(graph: KnowledgeGraph, path, line_no: int, user_name: str, item_name: str) -> KgsrError:
    """The error of an interaction row whose names are not a known user and
    a known item: the first unknown name, else the first of the wrong kind."""
    for name in (user_name, item_name):
        if name not in graph._entity_ids:
            return EntityNotFoundError(f"{path}:{line_no}: unknown entity {name!r}")
    for name, role in ((user_name, EntityKind.USER), (item_name, EntityKind.ITEM)):
        kind = graph._entity_kinds[graph._entity_ids[name]]
        if kind is not role:
            return KindError(f"{path}:{line_no}: {name!r} is {kind.value}, not {role.value}")


def split_interactions(
    interactions: InteractionSet, train_fraction: float, seed: int
) -> tuple[InteractionSet, InteractionSet]:
    """Per-user stratified split; deterministic for a given seed.

    Users with a single interaction go entirely to train (they cannot be
    ranked). Within each split the original interaction order is kept.
    """
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    rng = np.random.default_rng(seed)
    train, test = InteractionSet(), InteractionSet()
    for user in interactions.users():
        items = interactions._by_user[user]
        n = len(items)
        if n == 1 or train_fraction == 1.0:
            train._by_user[user] = dict(items)
            continue
        n_train = max(1, math.floor(train_fraction * n))
        train_positions = set(rng.permutation(n)[:n_train].tolist())
        train_items, test_items = {}, {}
        for pos, item in enumerate(items):
            (train_items if pos in train_positions else test_items)[item] = None
        train._by_user[user] = train_items
        if test_items:
            test._by_user[user] = test_items
    return train, test


def add_purchase_triples(
    graph: KnowledgeGraph, interactions: InteractionSet, relation_name: str = "purchase"
) -> int:
    """Materialize interactions as purchase triples; returns how many were new."""
    users, items = interactions.columns()
    return graph.add_triples(users, [graph.intern_relation(relation_name)] * len(users), items)
