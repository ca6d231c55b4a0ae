"""Review augmentation against the per-call oracles in ``oracles.py``: the
lexicon scan, the lexicon keyword rule, the one-pass triples writer, the
augmented files of the planted seeds, and a guard that the written outputs
of augment, pretrain and train do not depend on the interpreter's hash seed."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kgsr.cli import main
from kgsr.demo import write_planted_dataset
from kgsr.errors import KgsrError, ParseError
from kgsr.graph import EntityKind, KnowledgeGraph, ingest_triples, write_triples
from kgsr.llm import load_lexicon, offline_extract

SRC = Path(__file__).resolve().parent.parent / "src"

# Keywords with regex metacharacters, overlaps, case-folding pairs (long s and
# s, Kelvin sign and k, dotted capital I and i, final and medial sigma) and
# word characters or newlines at their edges.
KEYWORDS = [
    "no", "no smell", "smell", "c++", "a.b", "(x)", "ſ", "s", "K", "k", "\u212a",
    "İstanbul", "istanbul", "ς", "σ", "Σ", "_a", "a1", "1", "-", "a b", "ß", "\na", "a\n",
]
# Characters to put next to keywords: word characters (letters, digits, _)
# and others (space, punctuation, newline).
NEIGHBOURS = "ab_19 .,+()-\nſsSkK\u212aİiσς"  # \u212a is the Kelvin sign
PAIRS = st.tuples(st.sampled_from(["review", "like"]), st.sampled_from(["x", "y", "z"]))


@st.composite
def lexicons(draw):
    keywords = draw(st.lists(
        st.one_of(st.sampled_from(KEYWORDS), st.text(alphabet=NEIGHBOURS, min_size=1, max_size=4)),
        max_size=8, unique=True,
    ))
    return {keyword: draw(PAIRS) for keyword in keywords}


@st.composite
def reviews(draw):
    parts = draw(st.lists(
        st.one_of(st.sampled_from(KEYWORDS), st.text(alphabet=NEIGHBOURS, max_size=3)), max_size=8,
    ))
    return "".join(parts)


@given(lexicons(), reviews())
@settings(max_examples=400, deadline=None)
def test_offline_extract_matches_the_per_call_scan(lexicon, review):
    assert offline_extract(review, lexicon, 5) == oracles.offline_extract(review, lexicon, 5)


@pytest.mark.parametrize("review, lexicon, expected", [
    ("no smell", {"no": ("review", "no"), "no smell": ("review", "no smell")},
     [("review", "no"), ("review", "no smell")]),
    ("c++ and a.b (x)", {"c++": ("t", "c"), "a.b": ("t", "ab"), "(x)": ("t", "x"), "axb": ("t", "axb")},
     [("t", "x"), ("t", "ab"), ("t", "c")]),
    ("c+++", {"c++": ("t", "c")}, [("t", "c")]),  # + is no word character
    ("Kelvin \u212a, long ſ", {"k": ("t", "k"), "s": ("t", "s")}, [("t", "k"), ("t", "s")]),
    ("ai _a a_ a1 1a", {"a": ("t", "a")}, []),
    ("a", {"a": ("t", "a")}, [("t", "a")]),
    ("x\na", {"a": ("t", "a"), "x": ("t", "x")}, [("t", "a"), ("t", "x")]),
    ("b\na -\nb", {"\na": ("t", "a"), "\nb": ("t", "b")}, [("t", "b")]),  # a newline inside the keyword
    # (t, shared) comes from "c", the first matching keyword in sorted order
    ("c b", {"a": ("t", "shared"), "b": ("t", "other"), "c": ("t", "shared")},
     [("t", "other"), ("t", "shared")]),
    ("a b", {"a": ("t", "shared"), "b": ("t", "other"), "c": ("t", "shared")},
     [("t", "shared"), ("t", "other")]),
])
def test_offline_extract_cases(review, lexicon, expected):
    got = offline_extract(review, lexicon, 2)
    assert [(t.relation, t.value) for t in got] == expected
    assert got == oracles.offline_extract(review, lexicon, 2)


def test_keyword_its_lowercase_form_cannot_match_is_rejected(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("# keyword\trelation\tvalue\nİstanbul\tlike\tİstanbul\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_lexicon(path)
    assert str(err.value) == f"{path}:2: keyword 'İstanbul' does not match its lowercase form 'i̇stanbul'"
    path.write_text("istanbul\tlike\tİstanbul\nSMELL\treview\tsmell\n", encoding="utf-8")
    lexicon = load_lexicon(path)
    assert lexicon == {"istanbul": ("like", "İstanbul"), "smell": ("review", "smell")}
    found = offline_extract("İstanbul trip, no Smell", lexicon)
    assert [(t.relation, t.value) for t in found] == [("like", "İstanbul"), ("review", "smell")]


@pytest.mark.parametrize("first, second", [("ſ", "s"), ("ς", "σ"), ("ı", "i"), ("µ", "μ"), ("x", "X")])
def test_keywords_the_matcher_equates_are_duplicates(tmp_path, first, second):
    # lowercasing keeps each pair apart, but re.IGNORECASE equates it
    path = tmp_path / "lexicon.tsv"
    for earlier, later in ((first, second), (second, first)):
        path.write_text(f"{earlier}\tt\ta\n{later}\tt\tb\nk\tt\tc\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_lexicon(path)
        assert str(err.value) == f"{path}:2: duplicate keyword {later!r}: it matches {earlier!r}"


def test_keywords_of_different_lengths_are_not_duplicates(tmp_path):
    # casefold equates ß and ss, but re.IGNORECASE does not
    path = tmp_path / "lexicon.tsv"
    path.write_text("ß\tt\ta\nss\tt\tb\n", encoding="utf-8")
    lexicon = load_lexicon(path)
    assert lexicon == {"ß": ("t", "a"), "ss": ("t", "b")}
    assert sorted(t.value for t in offline_extract("ß ss SS", lexicon)) == ["a", "b"]


@given(st.text(alphabet=NEIGHBOURS.replace("\n", "") + "\u1e9eΣΑǅ", min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_a_loaded_keyword_matches_itself_as_written(tmp_path_factory, keyword):
    path = tmp_path_factory.mktemp("lexicon") / "lexicon.tsv"
    path.write_text(f"{keyword}\tt\tv\n", encoding="utf-8")
    try:
        lexicon = load_lexicon(path)
    except ParseError as exc:
        assert "does not match its lowercase form" in str(exc)
        return
    assert [(t.relation, t.value) for t in offline_extract(keyword, lexicon)] == [("t", "v")]


@st.composite
def graphs(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=12, unique=True))
    relation_names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
    graph = KnowledgeGraph()
    for name in names:
        graph.intern_entity(name, draw(st.sampled_from(list(EntityKind))))
    for name in relation_names:
        graph.intern_relation(name)
    rows = draw(st.lists(st.tuples(
        st.integers(0, len(names) - 1), st.integers(0, len(relation_names) - 1), st.integers(0, len(names) - 1),
    ).filter(lambda row: row[0] != row[2]), max_size=30))
    graph.add_triples(*([row[i] for row in rows] for i in range(3)))
    return graph


def reads_back(graph, path) -> bool:
    """Whether ingesting path yields graph's triples, by name and kind, in order."""
    try:
        again = ingest_triples(path)
    except KgsrError:
        return False
    return oracles.named_triples(again) == oracles.named_triples(graph)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_write_triples_matches_the_per_triple_writer(tmp_path_factory, graph):
    """The writer writes what the per-triple writer writes, and raises,
    writing nothing, exactly when that file would not read back."""
    root = tmp_path_factory.mktemp("written")
    oracles.write_triples(graph, root / "per_triple.tsv")
    try:
        write_triples(graph, root / "one_pass.tsv")
    except ValueError:
        assert not (root / "one_pass.tsv").exists()
        assert not reads_back(graph, root / "per_triple.tsv")
        return
    assert (root / "one_pass.tsv").read_bytes() == (root / "per_triple.tsv").read_bytes()
    assert reads_back(graph, root / "one_pass.tsv")


@pytest.mark.parametrize("head, tail, message", [
    ("#1 pick", "premium", "entity '#1 pick' as a head"),
    (" \u3000#x", "premium", "entity ' \\u3000#x' as a head"),
    ("wash", "foo\tbar", "entity 'foo\\tbar': it holds a tab"),
    ("wash", "a\rb", "entity 'a\\rb': it holds a tab or a line break"),
])
def test_write_triples_rejects_a_name_it_cannot_read_back(tmp_path, head, tail, message):
    graph = KnowledgeGraph()
    graph.add_triple(graph.intern_entity(head, EntityKind.PROPERTY), graph.intern_relation("belong"),
                     graph.intern_entity(tail, EntityKind.PROPERTY))
    with pytest.raises(ValueError, match=re.escape(message)):
        write_triples(graph, tmp_path / "out.tsv")
    assert list(tmp_path.iterdir()) == []


def test_a_tail_that_starts_with_a_hash_reads_back(tmp_path):
    graph = KnowledgeGraph()
    graph.add_triple(graph.intern_entity("wash", EntityKind.PROPERTY), graph.intern_relation("belong"),
                     graph.intern_entity("#1 pick", EntityKind.PROPERTY))
    write_triples(graph, tmp_path / "out.tsv")
    assert reads_back(graph, tmp_path / "out.tsv")


def test_augment_refuses_a_value_its_file_would_read_as_a_comment(tmp_path, capsys):
    # "love" mints User_1 -like-> "#1 pick", then "finish" mints "#1 pick" -belong-> premium,
    # a line that ingest would skip as a comment
    files = write_planted_dataset(tmp_path, n_users=2, n_items=2, n_properties=1, seed=1)
    lexicon, reviews = tmp_path / "lexicon.tsv", tmp_path / "reviews.jsonl"
    lexicon.write_text("love\tlike\t#1 pick\nfinish\tbelong\tpremium\n", encoding="utf-8")
    user, item = files["interactions"].read_text(encoding="utf-8").splitlines()[0].split("\t")
    reviews.write_text(json.dumps({"user": user, "item": item, "text": "love the finish"}) + "\n", encoding="utf-8")
    out = tmp_path / "augmented.tsv"
    code = main(["augment", "--offline", "--lexicon", str(lexicon), "--triples", str(files["triples"]),
                 "--reviews", str(reviews), "--out", str(out)])
    assert code == 1
    assert "cannot write entity '#1 pick' as a head" in capsys.readouterr().err
    assert not out.exists()


# sha256 of augmented.tsv from `augment --offline` with the demo lexicon on
# write_planted_dataset(n_users=200, n_items=100, n_properties=25, seed=s),
# as written by the per-call scan and the per-triple writer.
AUGMENTED_SHA256 = {
    1: "2daef82d3e61c0382ef8c90342ad30ab32c2553e6ba659847544b24ca30d586b",
    2: "3f627c5c66b2fd456afe63bd56cc9b55cf303bba46a65735f17ebc9e0e1f1875",
    3: "006da8498c30364799aab26ce452aca26803515582a5ceeaf350a545072a3535",
}


@pytest.mark.parametrize("seed", sorted(AUGMENTED_SHA256))
def test_augmented_file_of_the_planted_seeds_is_unchanged(tmp_path, seed):
    files = write_planted_dataset(tmp_path, n_users=200, n_items=100, n_properties=25, seed=seed)
    out = tmp_path / "augmented.tsv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["augment", "--offline", "--triples", str(files["triples"]),
                     "--reviews", str(files["reviews"]), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == AUGMENTED_SHA256[seed]


def test_written_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """augment -> pretrain -> train, each stage its own interpreter, under two
    hash seeds: a set or dict order that leaks into a file shows here."""
    data = write_planted_dataset(tmp_path / "data", n_users=24, n_items=12, n_properties=6, seed=3)
    outputs = {}
    for hash_seed in ("0", "1"):
        root = tmp_path / f"hash{hash_seed}"
        root.mkdir()
        aug, pre, model = root / "augmented.tsv", root / "pretrained.ckpt", root / "model.ckpt"
        common = ["--triples", str(aug), "--interactions", str(data["interactions"]),
                  "--seed", "7", "--dim", "16", "--pretrain-epochs", "3"]
        stages = [
            ["augment", "--offline", "--triples", str(data["triples"]), "--reviews", str(data["reviews"]),
             "--out", str(aug)],
            ["pretrain", *common, "--out", str(pre)],
            ["train", *common, "--init", str(pre), "--epochs", "1", "--batch-size", "8", "--n", "10",
             "--out", str(model)],
        ]
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        for argv in stages:
            done = subprocess.run([sys.executable, "-m", "kgsr.cli", *argv], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        outputs[hash_seed] = [path.read_bytes() for path in (aug, pre, model)]
    assert outputs["0"] == outputs["1"]
