"""Extraction, injection, prompt rendering and explanation generation."""
from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_graph, neighbor_entries
from kgsr.errors import ClientError, ConsistencyError, EntityNotFoundError, InjectionError, KindError, ParseError
from kgsr.graph import EntityKind
from kgsr.llm import (
    DEFAULT_TARGETS,
    EXTRACTION_EXAMPLES,
    ExtractedTriple,
    ExtractionTarget,
    demo_lexicon_path,
    explanation_prompt,
    extract_review_triples,
    extraction_prompt,
    generate_explanation,
    inject_triples,
    load_lexicon,
    load_reviews,
    load_targets,
    offline_extract,
    render_template_explanation,
)


class StubClient:
    def __init__(self, reply):
        self.reply = reply
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        return self.reply


class FailingClient:
    def complete(self, prompt: str) -> str:
        raise ClientError("boom")


SENTIMENT = ExtractionTarget("sentiment", "sentiment", "user")


# The parent template engine's output, copied byte for byte: the fixed text
# around each value the prompts take.
EXTRACTION_FRAGMENTS = (
    'Read the customer review "',
    '" and report every ',
    " signal you find. Answer with one line per finding: the relation name, a tab character, then the extracted "
    "value. Output nothing else. Some sample answers follow.\n"
    'Review: "very reliable and no smell"\nreview\treliable\nreview\tno smell\n'
    'Review: "arrived on June 3rd, love the colour"\ndate\tJune 3rd\npositive\tcolour',
)
EXPLANATION_FRAGMENTS = (
    'Write a short explanation for the recommendation "',
    " -> ",
    '". Ground it in the configured targets "',
    '" and walk the reasoning path "',
    '" hop by hop. Some sample answers follow.\n'
    "Sample: the user praised reliability in a review, the channel that carries this item is tagged reliable, so "
    "the system recommends it.",
)
# the markers of the old template engine, format-string braces and non-ASCII text
prompt_text = st.lists(
    st.one_of(st.text(), st.sampled_from(["<Review>", "<targets>", "<item->user>", "<path>", "{", "}", "{0}", "é中"]))
).map("".join)
target_names = prompt_text.filter(bool)  # a target's name is nonempty


def interleave(fragments, values):
    return fragments[0] + "".join(value + fragment for value, fragment in zip(values, fragments[1:]))


class TestPrompts:
    def test_extraction_prompt_is_the_published_text(self):
        assert extraction_prompt("good stuff", SENTIMENT) == (
            'Read the customer review "good stuff" and report every sentiment signal you find. Answer with one line '
            "per finding: the relation name, a tab character, then the extracted value. Output nothing else. Some "
            'sample answers follow.\nReview: "very reliable and no smell"\nreview\treliable\nreview\tno smell\n'
            'Review: "arrived on June 3rd, love the colour"\ndate\tJune 3rd\npositive\tcolour'
        )
        assert extraction_prompt("good stuff", SENTIMENT).endswith("follow.\n" + EXTRACTION_EXAMPLES)

    def test_explanation_prompt_is_the_published_text(self):
        targets = [ExtractionTarget("like", "like"), ExtractionTarget("review", "review")]
        assert explanation_prompt("u1 -review-> reliable", "u1", "oven", targets) == (
            'Write a short explanation for the recommendation "oven -> u1". Ground it in the configured targets '
            '"like, review" and walk the reasoning path "u1 -review-> reliable" hop by hop. Some sample answers '
            "follow.\nSample: the user praised reliability in a review, the channel that carries this item is "
            "tagged reliable, so the system recommends it."
        )

    @given(review=prompt_text, name=target_names)
    @example(review="I love <targets> here", name="review, positive")
    @settings(max_examples=200, deadline=None)
    def test_extraction_values_land_verbatim_between_the_fixed_text(self, review, name):
        prompt = extraction_prompt(review, ExtractionTarget(name, "r"))
        assert prompt == interleave(EXTRACTION_FRAGMENTS, [review, name])

    @given(walk=prompt_text, user=prompt_text, item=prompt_text, names=st.lists(target_names, max_size=3))
    @example(walk="u1 -r-> <path>", user="u1", item="<path>", names=["<item->user>"])
    @settings(max_examples=200, deadline=None)
    def test_explanation_values_land_verbatim_between_the_fixed_text(self, walk, user, item, names):
        targets = [ExtractionTarget(name, f"r{i}") for i, name in enumerate(names)]
        prompt = explanation_prompt(walk, user, item, targets)
        assert prompt == interleave(EXPLANATION_FRAGMENTS, [item, user, ", ".join(names), walk])


class TestExtractReviewTriples:
    def test_fixed_stub_reply(self):
        client = StubClient("sentiment\tPositive")
        result = extract_review_triples("lovely machine", [SENTIMENT], client)
        assert result.triples == [ExtractedTriple("sentiment", "Positive", 0)]
        assert result.dropped_lines == 0

    def test_prose_reply_dropped_with_count(self):
        client = StubClient("I think the user is quite happy overall.")
        result = extract_review_triples("lovely machine", [SENTIMENT], client)
        assert result.triples == []
        assert result.dropped_lines == 1

    def test_empty_review_makes_no_call(self):
        client = StubClient("sentiment\tPositive")
        result = extract_review_triples("   ", [SENTIMENT], client)
        assert result.triples == []
        assert client.prompts == []

    def test_one_prompt_per_target(self):
        client = StubClient("sentiment\tPositive")
        targets = [SENTIMENT, ExtractionTarget("date", "date", "user")]
        extract_review_triples("bought on June 3rd, great", targets, client)
        assert len(client.prompts) == 2
        assert "sentiment" in client.prompts[0]
        assert "date" in client.prompts[1]

    def test_a_line_with_two_tabs_is_dropped(self):
        # a value holding a tab would split into two fields of the triples file
        client = StubClient("like\tfoo\tbar\nlike\tbaz")
        result = extract_review_triples("nice", [ExtractionTarget("like", "like", "user")], client)
        assert result.triples == [ExtractedTriple("like", "baz", 0)]
        assert result.dropped_lines == 1

    def test_unknown_relation_dropped(self):
        client = StubClient("sentiment\tPositive\ncolour\tred")
        result = extract_review_triples("nice", [SENTIMENT], client)
        assert [t.relation for t in result.triples] == ["sentiment"]
        assert result.dropped_lines == 1

    def test_no_targets_rejected(self):
        with pytest.raises(ValueError):
            extract_review_triples("nice", [], StubClient("x"))

    def test_client_error_propagates(self):
        with pytest.raises(ClientError):
            extract_review_triples("nice", [SENTIMENT], FailingClient())


class TestOfflineExtract:
    LEXICON = {
        "reliable": ("review", "reliable"),
        "no smell": ("review", "no smell"),
    }

    def test_empty_review(self):
        assert offline_extract("", self.LEXICON) == []

    def test_two_keyword_scan(self):
        triples = offline_extract("very reliable and no smell", self.LEXICON)
        assert {(t.relation, t.value) for t in triples} == {
            ("review", "reliable"),
            ("review", "no smell"),
        }

    def test_case_insensitive_dedupe(self):
        triples = offline_extract("RELIABLE reliable", self.LEXICON)
        assert len(triples) == 1

    def test_whole_word_only(self):
        assert offline_extract("unreliable!", self.LEXICON) == []
        assert offline_extract("reliable!", self.LEXICON) != []

    @given(st.text(max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_pure_function(self, review):
        first = offline_extract(review, self.LEXICON)
        second = offline_extract(review, self.LEXICON)
        assert first == second

    def test_definition_example_with_shipped_lexicon(self):
        lexicon = load_lexicon(demo_lexicon_path())
        triples = offline_extract("I like METC's wash machine colour", lexicon)
        assert {(t.relation, t.value) for t in triples} == {
            ("like", "wash machine"),
            ("belong", "METC"),
        }


def injection_graph():
    return make_graph(
        [("User_1", "user"), ("Item_1", "item")],
        [("User_1", "purchase", "Item_1")],
    )


class TestInjectTriples:
    INDEX = {1: (0, 1)}

    def test_definition_example_injection(self):
        graph = injection_graph()
        lexicon = load_lexicon(demo_lexicon_path())
        extracted = offline_extract("I like METC's wash machine colour", lexicon, review_id=1)
        added = inject_triples(graph, extracted, self.INDEX, DEFAULT_TARGETS)
        assert added == 2
        wash = graph.entity_id("wash machine")
        metc = graph.entity_id("METC")
        assert graph.entity_kind(wash) is EntityKind.PROPERTY
        like = graph.relation_id("like")
        belong = graph.relation_id("belong")
        assert (like, wash, False) in neighbor_entries(graph, graph.entity_id("User_1"))
        assert (belong, metc, False) in neighbor_entries(graph, wash)
        # idempotent on re-injection
        assert inject_triples(graph, extracted, self.INDEX, DEFAULT_TARGETS) == 0

    def test_shared_value_interned_once(self):
        graph = make_graph(
            [("u1", "user"), ("u2", "user"), ("i1", "item")],
            [("u1", "purchase", "i1"), ("u2", "purchase", "i1")],
        )
        extracted = [
            ExtractedTriple("review", "reliable", 1),
            ExtractedTriple("review", "reliable", 2),
        ]
        index = {1: (graph.entity_id("u1"), graph.entity_id("i1")),
                 2: (graph.entity_id("u2"), graph.entity_id("i1"))}
        entities_before = graph.n_entities
        added = inject_triples(graph, extracted, index, DEFAULT_TARGETS)
        assert added == 2
        assert graph.n_entities == entities_before + 1

    def test_unconfigured_target_rejected(self):
        graph = injection_graph()
        with pytest.raises(InjectionError):
            inject_triples(graph, [ExtractedTriple("nonsense", "x", 1)], self.INDEX, DEFAULT_TARGETS)

    def test_unknown_review_rejected(self):
        graph = injection_graph()
        with pytest.raises(InjectionError):
            inject_triples(graph, [ExtractedTriple("review", "x", 42)], self.INDEX, DEFAULT_TARGETS)

    def test_triple_count_delta_equals_return(self):
        graph = injection_graph()
        extracted = [
            ExtractedTriple("review", "reliable", 1),
            ExtractedTriple("positive", "Positive", 1),
            ExtractedTriple("review", "reliable", 1),
        ]
        before = graph.n_triples
        added = inject_triples(graph, extracted, self.INDEX, DEFAULT_TARGETS)
        assert graph.n_triples == before + added
        assert added == 2

    def test_item_subject_role(self):
        graph = injection_graph()
        targets = [ExtractionTarget("madeby", "madeby", "item")]
        added = inject_triples(
            graph, [ExtractedTriple("madeby", "METC", 1)], self.INDEX, targets
        )
        assert added == 1
        metc = graph.entity_id("METC")
        assert (graph.relation_id("madeby"), metc, False) in neighbor_entries(
            graph, graph.entity_id("Item_1")
        )

    def test_value_collision_with_item_name(self):
        graph = injection_graph()
        with pytest.raises(ConsistencyError):
            inject_triples(graph, [ExtractedTriple("review", "Item_1", 1)], self.INDEX, DEFAULT_TARGETS)

    def test_value_subject_without_source_skipped(self):
        graph = injection_graph()
        # "belong" anchors to the review's "like" value; none here
        added = inject_triples(
            graph, [ExtractedTriple("belong", "METC", 1)], self.INDEX, DEFAULT_TARGETS
        )
        assert added == 0


class TestGenerateExplanation:
    WALK = ("User_1 -review-> reliable -tag-> C_1 -sale-> Item_4", "User_1", "Item_4")

    def test_template_names_every_hop(self):
        explanation = generate_explanation(*self.WALK, DEFAULT_TARGETS, client=None)
        for name in ("User_1", "reliable", "C_1", "Item_4", "review", "tag", "sale"):
            assert name in explanation
        assert explanation.startswith("Because ")
        assert explanation.endswith("recommends Item_4 to User_1.")

    def test_direct_edge_template(self):
        explanation = generate_explanation("u -purchase-> it", "u", "it", DEFAULT_TARGETS, client=None)
        assert explanation == "Because u -purchase-> it, the system recommends it to u."
        assert render_template_explanation("u -purchase-> it", "u", "it") == explanation

    def test_echo_client_receives_serialized_path(self):
        class Echo:
            def complete(self, prompt):
                return prompt

        explanation = generate_explanation(*self.WALK, DEFAULT_TARGETS, client=Echo())
        assert "User_1 -review-> reliable -tag-> C_1 -sale-> Item_4" in explanation
        assert '"Item_4 -> User_1"' in explanation

    def test_a_walk_naming_a_placeholder_reaches_the_client_as_written(self):
        client = StubClient("fine")
        walk = "u1 -likes-> <targets> <-sale- <path>"
        assert generate_explanation(walk, "u1", "<path>", DEFAULT_TARGETS, client=client) == "fine"
        assert f'reasoning path "{walk}" hop by hop' in client.prompts[0]
        assert 'recommendation "<path> -> u1"' in client.prompts[0]

    def test_failed_client_falls_back_degraded(self, caplog):
        explanation = generate_explanation(*self.WALK, DEFAULT_TARGETS, client=FailingClient())
        assert explanation == render_template_explanation(*self.WALK)
        assert [r.getMessage() for r in caplog.records] == ["explanation client failed, using template: boom"]


class TestHttpChatClient:
    def config(self, retries=0):
        from kgsr.llm import ChatClientConfig

        return ChatClientConfig(
            endpoint="http://example.invalid/v1/chat/completions",
            model="test-model",
            timeout=5.0,
            max_retries=retries,
        )

    def test_wire_format_and_reply_extraction(self, monkeypatch):
        from kgsr.llm import HttpChatClient

        seen = {}

        class FakeResponse:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": "sentiment\tPositive"}}]}
                ).encode("utf-8")

        def fake_urlopen(request, timeout):
            seen["url"] = request.full_url
            seen["timeout"] = timeout
            seen["body"] = json.loads(request.data.decode("utf-8"))
            seen["auth"] = request.get_header("Authorization")
            return FakeResponse()

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        client = HttpChatClient(self.config(), api_key="secret-key")
        reply = client.complete("hello there")
        assert reply == "sentiment\tPositive"
        assert seen["url"].endswith("/chat/completions")
        assert seen["timeout"] == 5.0
        assert seen["body"] == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "hello there"}],
        }
        assert seen["auth"] == "Bearer secret-key"

    def test_exhausted_retries_raise_client_error(self, monkeypatch):
        from kgsr.llm import HttpChatClient
        import urllib.error

        calls = {"n": 0}

        def always_fail(request, timeout):
            calls["n"] += 1
            raise urllib.error.URLError("unreachable")

        monkeypatch.setattr("urllib.request.urlopen", always_fail)
        client = HttpChatClient(self.config(retries=0), api_key="k")
        with pytest.raises(ClientError):
            client.complete("x")
        assert calls["n"] == 1

    def test_malformed_payload_is_client_error(self, monkeypatch):
        from kgsr.llm import HttpChatClient

        class BadResponse:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return b'{"unexpected": true}'

        monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: BadResponse())
        client = HttpChatClient(self.config(retries=0), api_key="k")
        with pytest.raises(ClientError):
            client.complete("x")

    @pytest.mark.parametrize(
        "body",
        [
            b"[1, 2]",  # JSON, but not an object
            b"\xff\xfe{}",  # not UTF-8
            json.dumps({"choices": [{"message": {"content": 5}}]}).encode("utf-8"),  # content not a string
            json.dumps({"choices": "none"}).encode("utf-8"),  # choices not a list
        ],
        ids=["json-list", "not-utf8", "int-content", "str-choices"],
    )
    def test_bad_reply_is_retried_then_client_error(self, monkeypatch, body):
        from kgsr.llm import HttpChatClient

        calls = {"n": 0}

        class BadResponse:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return body

        def bad_urlopen(request, timeout):
            calls["n"] += 1
            return BadResponse()

        monkeypatch.setattr("urllib.request.urlopen", bad_urlopen)
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        client = HttpChatClient(self.config(retries=2), api_key="k")
        with pytest.raises(ClientError):
            client.complete("x")
        assert calls["n"] == 3


class TestFileLoading:
    def test_lexicon_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\nreliable\treview\treliable\n", encoding="utf-8")
        assert load_lexicon(path) == {"reliable": ("review", "reliable")}

    def test_lexicon_bad_fields(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("just-two\tfields\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_lexicon(path)

    def test_lexicon_duplicate_keyword(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("x\ta\tb\nX\tc\td\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_lexicon(path)

    def test_reviews_loading_and_validation(self, tmp_path):
        graph = injection_graph()
        path = tmp_path / "reviews.jsonl"
        path.write_text(json.dumps({"user": "User_1", "item": "Item_1", "text": "ok"}) + "\n")
        records = load_reviews(path, graph)
        assert len(records) == 1
        assert records[0].review_id == 1

        path.write_text(json.dumps({"user": "Item_1", "item": "Item_1", "text": "ok"}) + "\n")
        with pytest.raises(KindError):
            load_reviews(path, graph)

        path.write_text("\n" + json.dumps({"user": "User_1", "item": "Item_1", "text": "ok"}) + "\n"
                        + json.dumps({"user": "User_1", "item": "User_1", "text": "ok"}) + "\n")
        with pytest.raises(KindError) as err:
            load_reviews(path, graph)
        assert str(err.value) == f"{path}:3: 'User_1' is not an item entity"

        path.write_text(json.dumps({"user": "ghost", "item": "Item_1", "text": "ok"}) + "\n")
        with pytest.raises(EntityNotFoundError) as err:
            load_reviews(path, graph)
        assert str(err.value) == f"{path}:1: unknown entity 'ghost'"

        path.write_text("{not json\n")
        with pytest.raises(ParseError):
            load_reviews(path, graph)

    @pytest.mark.parametrize("key", ["user", "item", "text"])
    @pytest.mark.parametrize("value", [["User_1"], {"name": "User_1"}, 7, None])
    def test_review_fields_must_be_strings(self, tmp_path, key, value):
        path = tmp_path / "reviews.jsonl"
        review = {"user": "User_1", "item": "Item_1", "text": "ok", key: value}
        path.write_text("\n" + json.dumps(review) + "\n")
        with pytest.raises(ParseError) as err:
            load_reviews(path, injection_graph())
        assert str(err.value) == f"{path}:2: {key} must be a JSON string, got {json.dumps(value)}"

    def test_targets_file(self, tmp_path):
        path = tmp_path / "targets.tsv"
        path.write_text("like\tlike\tuser\nbelong\tbelong\tvalue\tlike\n", encoding="utf-8")
        targets = load_targets(path)
        assert targets[1].subject_source == "like"
        path.write_text("bad\tonly\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_targets(path)

    def test_default_targets_load_from_a_file(self, tmp_path):
        path = tmp_path / "targets.tsv"
        path.write_text("".join(
            "\t".join([t.name, t.relation, t.subject_role, *([t.subject_source] if t.subject_source else [])]) + "\n"
            for t in DEFAULT_TARGETS
        ), encoding="utf-8")
        assert load_targets(path) == list(DEFAULT_TARGETS)

    @pytest.mark.parametrize("lines, message", [
        (["like\tlike\tuser", "like\tlike_item\titem"], "2: name 'like' already declared on line 1"),
        (["like\tlike\tuser", "like_item\tlike\titem"], "2: relation 'like' already declared on line 1"),
        (["belong\tbelong\tvalue\tlikes", "like\tlike\tuser"], "1: subject_source 'likes' names no target"),
    ])
    def test_conflicting_targets_are_rejected(self, tmp_path, lines, message):
        path = tmp_path / "targets.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_targets(path)
        assert str(err.value) == f"{path}:{message}"


def test_target_validation():
    with pytest.raises(ValueError):
        ExtractionTarget("x", "y", "owner")
    with pytest.raises(ValueError):
        ExtractionTarget("x", "y", "value")  # missing subject_source
    with pytest.raises(ValueError):
        ExtractedTriple("rel", "")
