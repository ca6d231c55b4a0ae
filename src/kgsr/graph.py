"""In-memory knowledge graph with typed entities and a CSR adjacency index.

Entities are interned to dense integer ids in first-seen order and carry
exactly one kind (user, item or property). Triples are stored once, in
insertion order, as flat head, relation and tail id lists.

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

import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, EntityNotFoundError, KindError, ParseError


class EntityKind(Enum):
    USER = "user"
    ITEM = "item"
    PROPERTY = "property"


# Entity-kind codes used by Adjacency.kind.
KIND_CODE = {kind: code for code, kind in enumerate(EntityKind)}


class Direction(Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


# Direction by Adjacency.inverse value.
DIRECTIONS = (Direction.FORWARD, Direction.INVERSE)


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

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated entries of the given rows, in row order.

        Returns (position in rows, entry index) per entry.
        """
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        row_pos = np.repeat(np.arange(len(rows)), counts)
        shift = starts - (np.cumsum(counts) - counts)
        return row_pos, np.arange(len(row_pos)) + shift[row_pos]


class KnowledgeGraph:
    def __init__(self) -> None:
        self._entity_names: list[str] = []
        self._entity_kinds: list[EntityKind] = []
        self._entity_ids: dict[str, int] = {}
        self._relation_names: list[str] = []
        self._relation_ids: dict[str, int] = {}
        self._triple_set: set[tuple[int, int, int]] = set()
        self._heads: list[int] = []
        self._relations: list[int] = []
        self._tails: list[int] = []
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
        self._check_entity(head)
        self._check_entity(tail)
        if not 0 <= relation < len(self._relation_names):
            raise EntityNotFoundError(f"unknown relation id {relation}")
        if head == tail:
            raise ValueError("self-loops are not allowed")
        triple = (head, relation, tail)
        if triple in self._triple_set:
            return False
        self._triple_set.add(triple)
        self._heads.append(head)
        self._relations.append(relation)
        self._tails.append(tail)
        self._csr = None
        return True

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
        heads = np.array(self._heads, dtype=np.intp)
        tails = np.array(self._tails, dtype=np.intp)
        relations = np.array(self._relations, dtype=np.intp)
        rows = np.concatenate([heads, tails])
        neighbor = np.concatenate([tails, heads])
        relation = np.concatenate([relations, relations])
        inverse = np.repeat([False, True], len(heads))
        order = np.lexsort((inverse, relation, neighbor, rows))
        indptr = np.zeros(self.n_entities + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.n_entities), out=indptr[1:])
        kind = np.array([KIND_CODE[k] for k in self._entity_kinds], dtype=np.int8)
        return Adjacency(indptr, neighbor[order], relation[order], inverse[order], kind)

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
        return len(self._heads)

    @property
    def triples(self) -> tuple[Triple, ...]:
        """Every stored triple, in insertion order."""
        return tuple(map(Triple, self._heads, self._relations, self._tails))

    def has_triple(self, triple: Triple) -> bool:
        return triple in self._triple_set

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

    def neighbors(self, entity: int) -> list[tuple[int, int, Direction]]:
        """All (relation, neighbor, direction) entries incident to an entity.

        Forward entries come from triples with the entity as head, inverse
        entries from triples with it as tail. Order is deterministic:
        neighbor id, then relation id, then direction.
        """
        self._check_entity(entity)
        adjacency = self.adjacency()
        row = slice(adjacency.indptr[entity], adjacency.indptr[entity + 1])
        return [
            (relation, neighbor, DIRECTIONS[inverse])
            for relation, neighbor, inverse in zip(
                adjacency.relation[row].tolist(),
                adjacency.neighbor[row].tolist(),
                adjacency.inverse[row].tolist(),
            )
        ]

    def degree(self, entity: int) -> int:
        self._check_entity(entity)
        indptr = self.adjacency().indptr
        return int(indptr[entity + 1] - indptr[entity])


class InteractionSet:
    """Per-user ordered purchase lists with set-based deduplication."""

    def __init__(self) -> None:
        self._by_user: dict[int, list[int]] = {}
        self._pairs: set[tuple[int, int]] = set()

    def add(self, user: int, item: int) -> bool:
        if (user, item) in self._pairs:
            return False
        self._pairs.add((user, item))
        self._by_user.setdefault(user, []).append(item)
        return True

    def users(self) -> list[int]:
        return sorted(self._by_user)

    def items_for(self, user: int) -> list[int]:
        return list(self._by_user.get(user, ()))

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def n_users(self) -> int:
        return len(self._by_user)


def _numbered_lines(path):
    """Yield (line_no, line) of a UTF-8 text file read with universal
    newlines. Bytes that are not UTF-8 raise ParseError at their line."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield from enumerate(handle, start=1)
        except UnicodeDecodeError:
            handle.buffer.seek(0)
            data = handle.buffer.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                message = f"invalid UTF-8 byte {data[exc.start]:#04x}"
                raise ParseError(path, before.count(b"\n") + 1, message) from None
            raise


def _data_lines(path):
    """Yield (line_no, stripped_line) skipping blanks and '#' comments."""
    for line_no, raw in _numbered_lines(path):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield line_no, line


def _parse_kind(path, line_no: int, token: str) -> EntityKind:
    try:
        return EntityKind(token)
    except ValueError:
        raise ParseError(
            path, line_no, f"unknown entity kind {token!r} (expected user/item/property)"
        ) from None


def ingest_triples(path) -> KnowledgeGraph:
    """Load a graph from a 5-field TSV: head, head_kind, relation, tail, tail_kind.

    Duplicate triples collapse silently (set semantics). A name appearing
    with two different kinds raises ConsistencyError; malformed lines raise
    ParseError with the offending line number.
    """
    graph = KnowledgeGraph()
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 5:
            raise ParseError(path, line_no, f"expected 5 tab-separated fields, got {len(fields)}")
        head_name, head_kind, relation_name, tail_name, tail_kind = fields
        if not head_name or not relation_name or not tail_name:
            raise ParseError(path, line_no, "empty field")
        head = graph.intern_entity(head_name, _parse_kind(path, line_no, head_kind))
        tail = graph.intern_entity(tail_name, _parse_kind(path, line_no, tail_kind))
        relation = graph.intern_relation(relation_name)
        try:
            graph.add_triple(head, relation, tail)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return graph


def write_triples(graph: KnowledgeGraph, path) -> None:
    """Serialize a graph back to the triples file format (insertion order).

    Entities that participate in no triple cannot be represented and are
    dropped; re-ingesting reproduces the same name/kind/triple content for
    graphs without isolated entities.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for t in graph.triples:
            handle.write(
                "\t".join(
                    (
                        graph.entity_name(t.head),
                        graph.entity_kind(t.head).value,
                        graph.relation_name(t.relation),
                        graph.entity_name(t.tail),
                        graph.entity_kind(t.tail).value,
                    )
                )
                + "\n"
            )


def ingest_interactions(path, graph: KnowledgeGraph) -> InteractionSet:
    """Load a user->items map from a 2-field TSV of user_name, item_name."""
    interactions = InteractionSet()
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(path, line_no, f"expected 2 tab-separated fields, got {len(fields)}")
        user_name, item_name = fields
        user = graph.entity_id(user_name)
        item = graph.entity_id(item_name)
        if graph.entity_kind(user) is not EntityKind.USER:
            raise KindError(f"{user_name!r} is {graph.entity_kind(user).value}, not user")
        if graph.entity_kind(item) is not EntityKind.ITEM:
            raise KindError(f"{item_name!r} is {graph.entity_kind(item).value}, not item")
        interactions.add(user, item)
    return interactions


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
    train = InteractionSet()
    test = InteractionSet()
    for user in interactions.users():
        items = interactions.items_for(user)
        n = len(items)
        if n == 1 or train_fraction == 1.0:
            for item in items:
                train.add(user, item)
            continue
        n_train = max(1, math.floor(train_fraction * n))
        perm = rng.permutation(n)
        train_positions = set(int(p) for p in perm[:n_train])
        for pos, item in enumerate(items):
            (train if pos in train_positions else test).add(user, item)
    return train, test


def add_purchase_triples(
    graph: KnowledgeGraph, interactions: InteractionSet, relation_name: str = "purchase"
) -> int:
    """Materialize interactions as purchase triples; returns how many were new."""
    relation = graph.intern_relation(relation_name)
    added = 0
    for user in interactions.users():
        for item in interactions.items_for(user):
            if graph.add_triple(user, relation, item):
                added += 1
    return added
