"""Review-triple extraction, graph injection and explanation rendering.

Two extractors share one output shape: a chat-completion client prompted to
answer in ``relation<TAB>value`` lines, and a deterministic offline lexicon
scanner used by default in tests and batch runs. Extracted triples are
injected into the graph under analyst-configured targets that decide who
the subject of each minted edge is.
"""
from __future__ import annotations

import functools
import json
import logging
import re
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Mapping, NamedTuple, Protocol, Sequence

from .errors import ClientError, EntityNotFoundError, InjectionError, KindError, ParseError, at_line
from .graph import EntityKind, KnowledgeGraph, _data_lines, _numbered_lines

logger = logging.getLogger(__name__)

ROLE_USER = "user"
ROLE_ITEM = "item"
ROLE_VALUE = "value"
_ROLES = (ROLE_USER, ROLE_ITEM, ROLE_VALUE)


@dataclass(frozen=True)
class ExtractionTarget:
    """One analyst-configured extraction rule.

    subject_role decides which entity the minted edge starts from: the
    reviewing user, the reviewed item, or (role "value") the property value
    extracted for subject_source in the same review, which lets one review
    mint chained edges such as user -> liked thing -> brand.
    """

    name: str
    relation: str
    subject_role: str = ROLE_USER
    subject_source: str | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.relation:
            raise ValueError("target name and relation must be nonempty")
        if self.subject_role not in _ROLES:
            raise ValueError(f"subject_role must be one of {_ROLES}, got {self.subject_role!r}")
        if self.subject_role == ROLE_VALUE and not self.subject_source:
            raise ValueError("subject_role 'value' requires a subject_source target")


DEFAULT_TARGETS: tuple[ExtractionTarget, ...] = (
    ExtractionTarget("like", "like", ROLE_USER),
    ExtractionTarget("belong", "belong", ROLE_VALUE, subject_source="like"),
    ExtractionTarget("review", "review", ROLE_USER),
    ExtractionTarget("positive", "positive", ROLE_USER),
    ExtractionTarget("negative", "negative", ROLE_USER),
    ExtractionTarget("date", "date", ROLE_USER),
)


@dataclass(frozen=True)
class ExtractedTriple:
    """One extraction: the relation to mint, the property value, and where
    it came from. The subject is resolved at injection time from the
    matching target's configuration."""

    relation: str
    value: str
    review_id: int = 0

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("extracted value must be nonempty")
        if not self.relation:
            raise ValueError("extracted relation must be nonempty")


EXTRACTION_EXAMPLES = (
    'Review: "very reliable and no smell"\n'
    "review\treliable\n"
    "review\tno smell\n"
    'Review: "arrived on June 3rd, love the colour"\n'
    "date\tJune 3rd\n"
    "positive\tcolour"
)


def extraction_prompt(review: str, target: ExtractionTarget) -> str:
    """The text sent to ask for one target's findings in a review."""
    return (
        f'Read the customer review "{review}" and report every {target.name} signal '
        "you find. Answer with one line per finding: the relation name, a tab "
        "character, then the extracted value. Output nothing else. Some sample "
        f"answers follow.\n{EXTRACTION_EXAMPLES}"
    )


def explanation_prompt(walk: str, user: str, item: str, targets: Sequence[ExtractionTarget]) -> str:
    """The text sent to explain a walk's arrow text, from the names of its
    user and item, grounded in the targets."""
    names = ", ".join(t.name for t in targets)
    return (
        f'Write a short explanation for the recommendation "{item} -> {user}". '
        f'Ground it in the configured targets "{names}" and walk the '
        f'reasoning path "{walk}" hop by hop. Some sample answers follow.\n'
        "Sample: the user praised reliability in a review, the channel that "
        "carries this item is tagged reliable, so the system recommends it."
    )


class ChatClient(Protocol):
    def complete(self, prompt: str) -> str:  # pragma: no cover - protocol
        ...


@dataclass
class ChatClientConfig:
    endpoint: str
    model: str = "gpt-4o-mini"
    timeout: float = 30.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class HttpChatClient:
    """Minimal JSON-over-HTTP chat-completions client with bounded retries."""

    def __init__(self, config: ChatClientConfig, api_key: str):
        self.config = config
        self._api_key = api_key

    def complete(self, prompt: str) -> str:
        import urllib.error  # loads http.client and email, so only where a request is sent
        import urllib.request

        body = json.dumps(
            {"model": self.config.model, "messages": [{"role": "user", "content": prompt}]}
        ).encode("utf-8")
        request = urllib.request.Request(
            self.config.endpoint,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self._api_key}",
            },
            method="POST",
        )
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            try:
                with urllib.request.urlopen(request, timeout=self.config.timeout) as response:
                    payload = json.loads(response.read().decode("utf-8"))
                content = payload["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"reply content is {type(content).__name__}, not a string")
                return content
            # a body that is not UTF-8 (UnicodeDecodeError), not JSON, or JSON
            # of another shape (KeyError, IndexError, TypeError) is a bad reply
            except (urllib.error.URLError, TimeoutError, OSError, KeyError, IndexError, TypeError,
                    ValueError) as exc:
                last_error = exc
                logger.warning("chat request attempt %d failed: %s", attempt + 1, exc)
                if attempt < self.config.max_retries:
                    time.sleep(min(0.5 * (attempt + 1), 2.0))
        raise ClientError(
            f"chat completion failed after {self.config.max_retries + 1} attempts: {last_error}"
        )


class ExtractionResult(NamedTuple):
    triples: list[ExtractedTriple]
    dropped_lines: int


def extract_review_triples(
    review: str,
    targets: Sequence[ExtractionTarget],
    client: ChatClient,
    review_id: int = 0,
) -> ExtractionResult:
    """Prompt the client once per target and parse its tab-separated reply.

    Lines without exactly one tab, with an empty value, or naming a
    relation outside the configured targets are dropped and counted. An
    empty review makes no client call at all.
    """
    if not targets:
        raise ValueError("targets must be nonempty")
    if not review.strip():
        return ExtractionResult([], 0)
    known = {t.relation for t in targets}
    triples: list[ExtractedTriple] = []
    seen: set[tuple[str, str]] = set()
    dropped = 0
    for target in targets:
        reply = client.complete(extraction_prompt(review, target))
        for line in reply.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.count("\t") != 1:
                dropped += 1
                continue
            relation, _, value = line.partition("\t")
            relation = relation.strip()
            value = value.strip()
            if not value or relation not in known:
                dropped += 1
                continue
            key = (relation, value)
            if key in seen:
                continue
            seen.add(key)
            triples.append(ExtractedTriple(relation, value, review_id))
    if dropped:
        logger.warning("dropped %d unparseable extraction lines for review %d", dropped, review_id)
    return ExtractionResult(triples, dropped)


def load_lexicon(path) -> dict[str, tuple[str, str]]:
    """Keyword -> (relation, value) table from a 3-field TSV, keyed by the
    lowercased keyword. A keyword that its lowercase form does not match
    (such as 'İstanbul', whose lowercase gains a combining dot) could never
    be found, and one that an earlier keyword's pattern matches (such as 's'
    after 'ſ') is a duplicate; both raise ParseError. re.IGNORECASE equates
    single code points, so only keywords of one length are compared."""
    lexicon: dict[str, tuple[str, str]] = {}
    by_length: dict[int, list[tuple[str, Callable]]] = {}  # (keyword, its pattern's fullmatch)
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(path, line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        keyword, relation, value = fields
        if not keyword or not relation or not value:
            raise ParseError(path, line_no, "empty field")
        key = keyword.lower()
        fullmatch = re.compile(re.escape(key), re.IGNORECASE).fullmatch
        if not fullmatch(keyword):
            raise ParseError(path, line_no, f"keyword {keyword!r} does not match its lowercase form {key!r}")
        for earlier, matches in by_length.setdefault(len(key), []):
            if matches(key):
                raise ParseError(path, line_no, f"duplicate keyword {keyword!r}: it matches {earlier!r}")
        by_length[len(key)].append((keyword, fullmatch))
        lexicon[key] = (relation, value)
    return lexicon


def demo_lexicon_path():
    """Location of the demo lexicon shipped with the package."""
    return resources.files("kgsr").joinpath("data/demo_lexicon.tsv")


@functools.lru_cache(maxsize=64)
def _keyword_searches(keywords: tuple[str, ...]) -> tuple[tuple[str, Callable], ...]:
    """(keyword, search) in sorted keyword order, each keyword's whole-word,
    case-insensitive pattern compiled once per set of keywords.

    The pattern is (?<!\\w)keyword(?!\\w) with the lookbehind moved past the
    keyword (a match spans len(keyword) characters), so the search skips
    ahead to the keyword's first character instead of testing the
    lookbehind at every position."""
    return tuple(
        (keyword, re.compile(rf"{re.escape(keyword)}(?<!\w.{{{len(keyword)}}})(?!\w)", re.I | re.S).search)
        for keyword in sorted(keywords)
    )


def offline_extract(
    review: str, lexicon: Mapping[str, tuple[str, str]], review_id: int = 0
) -> list[ExtractedTriple]:
    """Case-insensitive whole-word keyword scan; pure and deterministic.

    One triple per matched keyword, deduplicated on (relation, value).
    """
    triples: list[ExtractedTriple] = []
    seen: set[tuple[str, str]] = set()
    for keyword, search in _keyword_searches(tuple(lexicon)):
        relation, value = lexicon[keyword]
        if (relation, value) not in seen and search(review):
            seen.add((relation, value))
            triples.append(ExtractedTriple(relation, value, review_id))
    return triples


class ReviewRecord(NamedTuple):
    review_id: int
    user: int
    item: int
    text: str


def load_reviews(path, graph: KnowledgeGraph) -> list[ReviewRecord]:
    """One JSON object per line: {"user": name, "item": name, "text": string}."""
    records: list[ReviewRecord] = []
    loads, entity_id, entity_kind = json.loads, graph.entity_id, graph.entity_kind
    user_kind, item_kind = EntityKind.USER, EntityKind.ITEM  # enum attribute reads are slow
    for line_no, raw in _numbered_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from None
        except RecursionError:
            raise ParseError(path, line_no, "invalid JSON: nested too deeply") from None
        try:
            user_name, item_name, text = obj["user"], obj["item"], obj["text"]
        except (KeyError, TypeError):
            raise ParseError(path, line_no, "expected keys user, item, text") from None
        if not (type(user_name) is type(item_name) is type(text) is str):  # json.loads makes no str subclass
            for key, value in (("user", user_name), ("item", item_name), ("text", text)):
                if not isinstance(value, str):
                    raise ParseError(path, line_no, f"{key} must be a JSON string, got {json.dumps(value)}")
        try:
            user = entity_id(user_name)
            item = entity_id(item_name)
            if entity_kind(user) is not user_kind:
                raise KindError(f"{user_name!r} is not a user entity")
            if entity_kind(item) is not item_kind:
                raise KindError(f"{item_name!r} is not an item entity")
        except (EntityNotFoundError, KindError) as exc:
            raise at_line(exc, path, line_no) from None
        records.append(ReviewRecord(line_no, user, item, text))
    return records


def inject_triples(
    graph: KnowledgeGraph,
    extracted: Sequence[ExtractedTriple],
    review_index: Mapping[int, tuple[int, int]],
    targets: Sequence[ExtractionTarget] = DEFAULT_TARGETS,
) -> int:
    """Intern property values and mint the configured edges, stored in one
    call once every extraction has been checked; returns how many triples
    were actually new.

    Extractions whose relation matches no configured target, or whose
    review id is not in the index, raise InjectionError. Value-subject
    extractions whose source target produced nothing in the same review are
    skipped with a warning, as is a value-subject edge whose head starts with
    '#' once stripped, which write_triples cannot write. A value colliding
    with an existing user or item name raises ConsistencyError, preserving
    the kind partition.
    """
    by_relation = {t.relation: t for t in targets}
    values_by_review: dict[tuple[int, str], list[str]] = {}
    for triple in extracted:
        target = by_relation.get(triple.relation)
        if target is not None:
            values_by_review.setdefault((triple.review_id, target.name), []).append(triple.value)
    heads, relations, tails = [], [], []
    intern_entity, intern_relation, prop = graph.intern_entity, graph.intern_relation, EntityKind.PROPERTY
    for triple in extracted:
        target = by_relation.get(triple.relation)
        if target is None:
            raise InjectionError(
                f"relation {triple.relation!r} does not match any configured target"
            )
        pair = review_index.get(triple.review_id)
        if pair is None:
            raise InjectionError(f"review {triple.review_id} is not in the review index")
        user, item = pair
        value_entity = intern_entity(triple.value, prop)
        relation = intern_relation(target.relation)
        if target.subject_role == ROLE_USER:
            subjects = [user]
        elif target.subject_role == ROLE_ITEM:
            subjects = [item]
        else:
            source_values = values_by_review.get((triple.review_id, target.subject_source), [])
            if not source_values:
                logger.warning("review %d: no %r extraction to anchor %r; skipped",
                               triple.review_id, target.subject_source, target.name)
                continue
            subjects = []
            for v in source_values:
                if v.lstrip().startswith("#"):  # its line would read as a comment
                    logger.warning("review %d: %r cannot head a %r edge; skipped", triple.review_id, v, target.name)
                else:
                    subjects.append(intern_entity(v, prop))
        for subject in subjects:
            if subject == value_entity:
                raise InjectionError(
                    f"review {triple.review_id}: {triple.value!r} would link to itself"
                )
            heads.append(subject)
            relations.append(relation)
            tails.append(value_entity)
    return graph.add_triples(heads, relations, tails)


def render_template_explanation(walk: str, user: str, item: str) -> str:
    """Deterministic fallback sentence around a walk's arrow text (format_path's),
    from the names of its user and item."""
    return f"Because {walk}, the system recommends {item} to {user}."


def generate_explanation(
    walk: str,
    user: str,
    item: str,
    targets: Sequence[ExtractionTarget],
    client: ChatClient | None = None,
) -> str:
    """Render the explanation prompt for a walk's arrow text and the names of
    its user and item, and return the client's reply verbatim; without a
    client (or when it fails) fall back to the template sentence."""
    template = render_template_explanation(walk, user, item)
    if client is None:
        return template
    try:
        return client.complete(explanation_prompt(walk, user, item, targets))
    except ClientError as exc:
        logger.warning("explanation client failed, using template: %s", exc)
        return template


def load_targets(path) -> list[ExtractionTarget]:
    """Targets file: name, relation, subject_role[, subject_source] per line.
    Names and relations are unique, and a value target's subject_source
    names a target of the file."""
    targets: list[ExtractionTarget] = []
    declared: dict[tuple[str, str], int] = {}  # ("name" or "relation", value) -> its line
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise ParseError(path, line_no, f"expected 3 or 4 tab-separated fields, got {len(fields)}")
        try:
            target = ExtractionTarget(*fields)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        for key in (("name", target.name), ("relation", target.relation)):
            if key in declared:
                raise ParseError(path, line_no, f"{key[0]} {key[1]!r} already declared on line {declared[key]}")
            declared[key] = line_no
        targets.append(target)
    for target in targets:
        if target.subject_role == ROLE_VALUE and ("name", target.subject_source) not in declared:
            line_no = declared["name", target.name]
            raise ParseError(path, line_no, f"subject_source {target.subject_source!r} names no target")
    return targets
