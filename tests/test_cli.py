"""Command-line pipeline: stage wiring, exit codes, config handling."""
from __future__ import annotations

import argparse
import json
import logging
import os
import re
from pathlib import Path

import pytest

import oracles
from kgsr import diffusion, llm, training
from kgsr.cli import (
    COMMANDS,
    CONFIG_SCHEMA,
    DEFAULTS,
    PipelineConfig,
    UsageError,
    _llm_client,
    _parse_bool,
    _sizes,
    _stage_config,
    build_parser,
    main,
)
from kgsr.demo import write_planted_dataset
from kgsr.diffusion import DiffusionConfig, diffuse, user_chunks
from kgsr.graph import EntityKind, InteractionSet, add_purchase_triples, ingest_interactions, ingest_triples
from kgsr.training import TrainConfig, load_checkpoint
from kgsr.transe import TranseConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    paths = write_planted_dataset(root, n_users=24, n_items=12, n_properties=6, seed=3)
    return {name: str(path) for name, path in paths.items()}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL = ["--seed", "7", "--train-fraction", "0.5"]
FAST_PRETRAIN = ["--dim", "16", "--pretrain-epochs", "10"]


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    """augment -> pretrain -> train, shared by the downstream stage tests."""
    root = tmp_path_factory.mktemp("stages")
    augmented = str(root / "augmented.tsv")
    pre = str(root / "pretrained.ckpt")
    ckpt = str(root / "model.ckpt")
    assert main(["augment", "--triples", dataset["triples"], "--reviews", dataset["reviews"],
                 "--out", augmented]) == 0
    assert main(["pretrain", "--triples", augmented, "--interactions", dataset["interactions"],
                 *SMALL, *FAST_PRETRAIN, "--out", pre]) == 0
    assert main(["train", "--triples", augmented, "--interactions", dataset["interactions"],
                 *SMALL, *FAST_PRETRAIN, "--init", pre, "--epochs", "2", "--batch-size", "8",
                 "--n", "20", "--out", ckpt]) == 0
    return {"augmented": augmented, "pretrained": pre, "checkpoint": ckpt}


def test_help_lists_subcommands_and_defaults(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for sub in ("ingest", "augment", "pretrain", "train", "evaluate", "recommend", "explain"):
        assert sub in out
    code, out, _ = run(capsys, "train", "--help")
    assert code == 0
    assert "--batch-size" in out and "default: 256" in out
    assert "--epochs" in out and "default: 10" in out


def test_ingest_reports_stats(capsys, dataset):
    code, out, _ = run(capsys, "ingest", "--triples", dataset["triples"],
                       "--interactions", dataset["interactions"])
    assert code == 0
    stats = json.loads(out)
    assert stats["users"] == 24
    assert stats["items"] == 12
    assert stats["interactions"] == 48


def test_train_with_no_flags_echoes_defaults_and_fails_usage(capsys):
    code, _, err = run(capsys, "train")
    assert code == 2
    assert "batch_size=256" in err
    assert "epochs=10" in err
    assert "dim=100" in err
    assert "top_n=100" in err
    assert "missing required" in err


def test_augment_llm_without_api_key_names_variable(capsys, dataset, monkeypatch):
    monkeypatch.delenv("KGSR_LLM_API_KEY", raising=False)
    code, _, err = run(capsys, "augment", "--llm", "--triples", dataset["triples"],
                       "--reviews", dataset["reviews"], "--out", "/tmp/nope.tsv")
    assert code == 2
    assert "KGSR_LLM_API_KEY" in err


def test_missing_input_file_is_usage_error(capsys):
    code, _, err = run(capsys, "ingest", "--triples", "/nonexistent/x.tsv")
    assert code == 2
    assert "no such file" in err


def test_invalid_utf8_input_names_file_and_line(capsys, tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"u1\tuser\tbuys\ti1\titem\nu2\tuser\tbuys\t\xff\titem\n")
    code, _, err = run(capsys, "ingest", "--triples", str(path))
    assert code == 1
    assert f"error: {path}:2: invalid UTF-8 byte 0xff" in err


@pytest.mark.parametrize(
    "triples, interactions, message",
    [
        ("a\tuser\tr\tb\titem\nb\titem\tr\tc\tproperty\n", "a\tzz\n", "i.tsv:1: unknown entity 'zz'"),
        ("a\tuser\tr\tb\titem\n", "a\tb\n\nb\tb\n", "i.tsv:3: 'b' is item, not user"),
        ("a\tuser\tr\tb\titem\nc\tuser\tr\tb\titem\n", "a\tc\n", "i.tsv:1: 'c' is user, not item"),
        ("a\tuser\tr\tb\titem\n#\nb\tuser\tr\tc\titem\n", "",
         "t.tsv:3: entity 'b' declared as user but already interned as item"),
    ],
)
def test_ingest_errors_name_file_and_line(capsys, tmp_path, triples, interactions, message):
    (tmp_path / "t.tsv").write_text(triples, encoding="utf-8")
    (tmp_path / "i.tsv").write_text(interactions, encoding="utf-8")
    code, _, err = run(capsys, "ingest", "--triples", str(tmp_path / "t.tsv"),
                       "--interactions", str(tmp_path / "i.tsv"))
    assert code == 1
    assert err == f"error: {tmp_path}/{message}\n"


@pytest.mark.parametrize(
    "review, message",
    [
        ({"user": "ghost", "item": "b", "text": "x"}, "r.jsonl:2: unknown entity 'ghost'"),
        ({"user": "b", "item": "b", "text": "x"}, "r.jsonl:2: 'b' is not a user entity"),
        ({"user": ["a"], "item": "b", "text": "x"}, 'r.jsonl:2: user must be a JSON string, got ["a"]'),
    ],
)
def test_review_errors_name_file_and_line(capsys, tmp_path, review, message):
    (tmp_path / "t.tsv").write_text("a\tuser\tr\tb\titem\n", encoding="utf-8")
    (tmp_path / "r.jsonl").write_text("\n" + json.dumps(review) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "augment", "--triples", str(tmp_path / "t.tsv"),
                       "--reviews", str(tmp_path / "r.jsonl"), "--out", str(tmp_path / "out.tsv"))
    assert code == 1
    assert err == f"error: {tmp_path}/{message}\n"


def test_augment_writes_stats_and_file(capsys, dataset, tmp_path):
    out = tmp_path / "aug.tsv"
    code, stdout, _ = run(capsys, "augment", "--triples", dataset["triples"],
                          "--reviews", dataset["reviews"], "--out", str(out))
    assert code == 0
    stats = json.loads(stdout)
    assert stats["reviews"] == 24
    assert stats["injected"] > 0
    assert out.exists()


def test_evaluate_single_report(capsys, dataset, trained):
    code, out, err = run(capsys, "evaluate", "--checkpoint", trained["checkpoint"],
                         "--triples", trained["augmented"],
                         "--interactions", dataset["interactions"],
                         *SMALL, "--k", "5", "--n", "20")
    assert code == 0
    report = json.loads(out)
    assert report["k"] == 5
    for metric in ("ndcg", "recall", "hit_rate", "precision"):
        assert 0.0 <= report[metric] <= 1.0
    assert "ndcg" in err


def test_evaluate_sweep_three_rows(capsys, dataset, trained):
    code, out, err = run(capsys, "evaluate", "--checkpoint", trained["checkpoint"],
                         "--triples", trained["augmented"],
                         "--interactions", dataset["interactions"],
                         *SMALL, "--k", "5", "--sweep-n", "6,8,10")
    assert code == 0
    rows = json.loads(out)
    assert [row["top_n"] for row in rows] == [6, 8, 10]
    for row in rows:
        for metric in ("ndcg", "recall", "hit_rate", "precision"):
            assert 0.0 <= row[metric] <= 1.0
    assert len([line for line in err.splitlines() if line.strip() and line.lstrip()[0].isdigit()]) == 3


def test_evaluate_threads_write_identical_json(capsys, dataset, trained, tmp_path):
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        code, _, _ = run(capsys, "evaluate", "--checkpoint", trained["checkpoint"],
                         "--triples", trained["augmented"],
                         "--interactions", dataset["interactions"],
                         *SMALL, "--k", "5", "--n", "20", "--threads", threads, "--out", str(out))
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_recommend_writes_tsv_with_paths(capsys, dataset, trained, tmp_path):
    out = tmp_path / "recs.tsv"
    code, _, _ = run(capsys, "recommend", "--checkpoint", trained["checkpoint"],
                     "--triples", trained["augmented"],
                     "--interactions", dataset["interactions"],
                     "--user", "user_000", "--top", "3", "--n", "20", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert 1 <= len(lines) <= 3
    fields = lines[0].split("\t")
    assert fields[0] == "user_000"
    assert fields[1] == "1"
    assert "->" in fields[6] or "<-" in fields[6]


def test_explain_prints_paths_and_sentence(capsys, dataset, trained):
    # find a recommendable item first
    code, out, _ = run(capsys, "recommend", "--checkpoint", trained["checkpoint"],
                       "--triples", trained["augmented"],
                       "--interactions", dataset["interactions"],
                       "--user", "user_000", "--top", "1", "--n", "20")
    assert code == 0
    item = out.strip().splitlines()[0].split("\t")[2]
    code, out, err = run(capsys, "explain", "--checkpoint", trained["checkpoint"],
                         "--triples", trained["augmented"],
                         "--interactions", dataset["interactions"],
                         "--user", "user_000", "--item", item, "--n", "20")
    assert code == 0
    assert "recommends" in out
    assert "path (weight" in err


def test_explain_names_a_non_candidate_item(capsys, dataset, trained):
    code, _, err = run(capsys, "explain", "--checkpoint", trained["checkpoint"],
                       "--triples", trained["augmented"],
                       "--interactions", dataset["interactions"],
                       "--user", "user_000", "--item", "user_001", "--n", "20")
    assert code == 1
    assert err.endswith("error: entity 'user_001' is not a candidate item for this subgraph\n")


def test_explain_rejects_a_limit_below_one_before_reading_any_file(capsys, tmp_path):
    missing = str(tmp_path / "missing")
    code, out, err = run(capsys, "explain", "--checkpoint", missing, "--triples", missing,
                         "--interactions", missing, "--user", "u", "--item", "i", "--limit", "0")
    assert (code, out) == (1, "")
    assert err == "error: limit must be >= 1\n"


@pytest.mark.parametrize("steps", [2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recommend_and_explain_print_the_oracle_walks(capsys, tmp_path, seed, steps):
    files = write_planted_dataset(tmp_path, n_users=24, n_items=12, n_properties=6, seed=seed)
    triples, interactions = str(files["triples"]), str(files["interactions"])
    checkpoint = str(tmp_path / "model.ckpt")
    model_args = ["--n", "10", "--steps", str(steps)]
    assert main(["train", "--triples", triples, "--interactions", interactions, *SMALL, *FAST_PRETRAIN,
                 "--epochs", "1", *model_args, "--out", checkpoint]) == 0
    data = ["--checkpoint", checkpoint, "--triples", triples, "--interactions", interactions, *model_args]
    out = tmp_path / "recommend.tsv"
    assert main(["recommend", *data, "--top", "10", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) > 24

    # the subgraphs recommend reasons over: the same graph, model and chunks
    graph = ingest_triples(triples)
    known = ingest_interactions(interactions, graph)
    add_purchase_triples(graph, known)
    model = load_checkpoint(checkpoint).to_model()
    config = DiffusionConfig(steps, 10)
    users = graph.entities_of_kind(EntityKind.USER)
    subgraphs = {}
    for chunk in user_chunks(users):
        batch = diffuse(graph, model.embeddings, model.attention, chunk, config)
        subgraphs.update((user, oracles.user_subgraph(batch, segment)) for segment, user in enumerate(chunk))
    # every row: the oracle's scores without the user's known items, then its best walk
    expected = []
    for user in users:
        scored, _ = oracles.score_candidates(subgraphs[user], graph, model.embeddings, model.encoder)
        fresh = [row for row in scored if row[0] not in set(known.items_for(user))][:10]
        for rank, (item, similarity, weight, score) in enumerate(fresh, start=1):
            best = oracles.extract_paths(subgraphs[user], graph, item, 1)[0]
            expected.append([
                graph.entity_name(user), str(rank), graph.entity_name(item),
                f"{score:.6f}", f"{weight:.6f}", f"{similarity:.6f}", oracles.format_walk(best, graph),
            ])
    assert rows == expected

    capsys.readouterr()
    for user, _, item, *_ in rows[::9]:
        assert main(["explain", *data, "--user", user, "--item", item, "--limit", "5"]) == 0
        printed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("path (")]
        batch = diffuse(graph, model.embeddings, model.attention, [graph.entity_id(user)], config)
        expected = oracles.extract_paths(batch, graph, graph.entity_id(item), 5)
        assert printed == [f"path (weight {p.weight:.6f}): {oracles.format_walk(p, graph)}" for p in expected]


def test_recommend_and_explain_show_the_same_walk(capsys, dataset, trained):
    data = ["--checkpoint", trained["checkpoint"], "--triples", trained["augmented"],
            "--interactions", dataset["interactions"], "--n", "20"]
    for user in ("user_000", "user_005", "user_011", "user_023"):
        code, out, _ = run(capsys, "recommend", *data, "--user", user, "--top", "1")
        assert code == 0
        (row,) = out.splitlines()
        name, rank, item, *_, walk = row.split("\t")
        assert (name, rank) == (user, "1")
        code, out, err = run(capsys, "explain", *data, "--user", user, "--item", item)
        assert code == 0
        first = next(line for line in err.splitlines() if line.startswith("path (weight "))
        assert first.split("): ", 1)[1] == walk
        assert out == f"Because {walk}, the system recommends {item} to {user}.\n"


@pytest.mark.parametrize("steps", [2, 3])
def test_recommend_rows_do_not_depend_on_where_chunks_are_cut(capsys, dataset, trained, tmp_path, monkeypatch, steps):
    written = []
    for chunk in (1, 6, 16):
        monkeypatch.setattr(diffusion, "CHUNK_USERS", chunk)
        out = tmp_path / f"chunk{chunk}.tsv"
        assert main(["recommend", "--checkpoint", trained["checkpoint"], "--triples", trained["augmented"],
                     "--interactions", dataset["interactions"], "--n", "10", "--steps", str(steps),
                     "--top", "10", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] and written == [written[0]] * 3


def test_a_user_who_bought_every_candidate_gets_no_rows_and_others_keep_theirs(
    capsys, caplog, dataset, trained, monkeypatch
):
    caplog.set_level(logging.INFO, logger="kgsr.cli")
    argv = ["recommend", "--checkpoint", trained["checkpoint"], "--triples", trained["augmented"],
            "--interactions", dataset["interactions"], "--n", "20", "--top", "10"]
    code, before, _ = run(capsys, *argv)
    assert code == 0
    rows = before.splitlines()
    buyer = rows[0].split("\t")[0]
    assert f"recommended {len(rows)} rows for 24 users; " in caplog.text

    # the buyer's known items are every item: the graph, and so every score, stays as it was
    graph = ingest_triples(trained["augmented"])
    everything = graph.entities_of_kind(EntityKind.ITEM)
    items_for = InteractionSet.items_for
    monkeypatch.setattr(InteractionSet, "items_for", lambda self, user: (
        everything if graph.entity_name(user) == buyer else items_for(self, user)))
    caplog.clear()
    code, after, _ = run(capsys, *argv)
    assert code == 0
    assert after.splitlines() == [row for row in rows if row.split("\t")[0] != buyer]
    assert re.search(f"WARNING .*no fresh candidates for {buyer}: all [0-9]+ are purchased", caplog.text)
    assert f"no candidates for {buyer}" not in caplog.text
    assert len(after.splitlines()) < len(rows)
    assert re.search(f"recommended {len(after.splitlines())} rows for 24 users; [1-9][0-9]* users without rows",
                     caplog.text)


@pytest.fixture(scope="module")
def sparse(tmp_path_factory):
    """Three users and a pretrained checkpoint: u_fresh can reach two items
    it has not bought, u_stuck only a property that links nowhere, u_done
    only the one item it bought."""
    root = tmp_path_factory.mktemp("sparse")
    triples = "".join(f"{h}\t{hk}\t{r}\t{t}\t{tk}\n" for h, hk, r, t, tk in (
        ("u_fresh", "user", "likes", "p1", "property"), ("i1", "item", "has", "p1", "property"),
        ("i2", "item", "has", "p1", "property"), ("i3", "item", "has", "p1", "property"),
        ("u_stuck", "user", "likes", "p2", "property"),
        ("u_done", "user", "likes", "p3", "property"), ("i4", "item", "has", "p3", "property"),
    ))
    (root / "t.tsv").write_text(triples, encoding="utf-8")
    (root / "i.tsv").write_text("u_fresh\ti1\nu_done\ti4\n", encoding="utf-8")
    data = ["--triples", str(root / "t.tsv"), "--interactions", str(root / "i.tsv")]
    assert main(["pretrain", *data, "--dim", "4", "--pretrain-epochs", "1", "--out", str(root / "c.ckpt")]) == 0
    return [*data, "--checkpoint", str(root / "c.ckpt"), "--n", "10", "--steps", "2"]


@pytest.mark.parametrize("chunk", [1, 16])
def test_recommend_logs_users_without_rows_and_stops_at_the_fresh_candidates(
    capsys, caplog, sparse, monkeypatch, chunk
):
    monkeypatch.setattr(diffusion, "CHUNK_USERS", chunk)  # at 1, two chunks send extract_paths no query
    caplog.set_level(logging.INFO, logger="kgsr.cli")
    code, out, _ = run(capsys, "recommend", *sparse, "--top", "10")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [row[:3] for row in rows] == [["u_fresh", "1", rows[0][2]], ["u_fresh", "2", rows[1][2]]]
    assert {rows[0][2], rows[1][2]} == {"i2", "i3"}
    assert all(row[6].startswith("u_fresh ") and row[6].endswith(" " + row[2]) for row in rows)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["no candidates for u_stuck", "no fresh candidates for u_done: all 1 are purchased"]
    assert "recommended 2 rows for 3 users; 2 users without rows" in caplog.text

    code, first, _ = run(capsys, "recommend", *sparse, "--top", "1")
    assert code == 0
    assert first.splitlines() == out.splitlines()[:1]


@pytest.mark.parametrize("stage", ["evaluate", "recommend"])
def test_failed_out_write_keeps_the_previous_file(capsys, dataset, trained, tmp_path, monkeypatch, stage):
    out = tmp_path / "out.txt"
    out.write_text("previous\n", encoding="utf-8")
    replace = os.replace

    def fail(source, target):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, stage, "--checkpoint", trained["checkpoint"],
                       "--triples", trained["augmented"], "--interactions", dataset["interactions"],
                       "--n", "20", "--out", str(out))
    assert code == 1
    assert "error: rename failed" in err
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    monkeypatch.setattr(os, "replace", replace)
    assert run(capsys, stage, "--checkpoint", trained["checkpoint"],
               "--triples", trained["augmented"], "--interactions", dataset["interactions"],
               "--n", "20", "--out", str(out))[0] == 0
    assert out.read_text(encoding="utf-8") != "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_config_file_supplies_values_and_flags_override(capsys, dataset, tmp_path):
    config = tmp_path / "kgsr.conf"
    config.write_text(f"triples={dataset['triples']}\nseed=7\n", encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--config", str(config))
    assert code == 0
    assert json.loads(out)["users"] == 24

    unknown = tmp_path / "bad.conf"
    unknown.write_text("not_a_key=1\n", encoding="utf-8")
    code, _, err = run(capsys, "ingest", "--config", str(unknown))
    assert code == 2
    assert "unknown config key" in err


def test_config_file_errors_name_their_line(tmp_path):
    path = tmp_path / "kgsr.conf"
    for text, message in (
        ("seed=7\nnot_a_key=1\n", "2: unknown config key 'not_a_key'"),
        ("# comment\nseed=7\nseed\n", "3: expected key=value"),
        ("seed=7\ncontrastive=maybe\n", "2: not a boolean: 'maybe'"),
        ("seed=seven\n", "1: invalid literal for int() with base 10: 'seven'"),
        ("seed=7\nleaky_slope=0.2\n", "2: unknown config key 'leaky_slope'"),
        ("sweep_n=60,a\n", "1: expected comma-separated sizes >= 1, got '60,a'"),
        ("sweep_n=60,0\n", "1: expected comma-separated sizes >= 1, got '60,0'"),
        ("seed=1\n# comment\nseed=2\n", "3: config key 'seed' already set on line 1"),
        ("seed=1\ntop_n=20\n top_n = 30\n", "3: config key 'top_n' already set on line 2"),
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(UsageError) as err:
            PipelineConfig.load(path)
        assert str(err.value) == f"{path}:{message}"


def test_stage_rerun_is_idempotent(capsys, dataset, tmp_path):
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    for out in (first, second):
        code, _, _ = run(capsys, "augment", "--triples", dataset["triples"],
                         "--reviews", dataset["reviews"], "--out", str(out))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_recommend_all_users_by_default(capsys, dataset, trained):
    code, out, _ = run(capsys, "recommend", "--checkpoint", trained["checkpoint"],
                       "--triples", trained["augmented"],
                       "--interactions", dataset["interactions"],
                       "--top", "1", "--n", "20")
    assert code == 0
    users = {line.split("\t")[0] for line in out.strip().splitlines()}
    assert len(users) > 10  # most of the 24 users are reachable


def test_checkpoint_graph_mismatch_is_stage_error(capsys, dataset, trained):
    # raw (non-augmented) triples disagree with the checkpoint's name table
    code, _, err = run(capsys, "evaluate", "--checkpoint", trained["checkpoint"],
                       "--triples", dataset["triples"],
                       "--interactions", dataset["interactions"], *SMALL)
    assert code == 1
    assert "error" in err
    # the raw graph's names are a prefix of the augmented checkpoint's, so the counts are named
    saved, raw = load_checkpoint(trained["checkpoint"]).entity_names, ingest_triples(dataset["triples"]).entity_names()
    assert saved[: len(raw)] == raw and len(saved) > len(raw)
    assert err == (
        f"error: {trained['checkpoint']}: checkpoint entity names do not match the graph of {dataset['triples']}: "
        f"the checkpoint has {len(saved)}, the graph {len(raw)}\n"
    )


@pytest.mark.parametrize("kind, column, old, new", [("entity", 3, "prop_00", "prop_x"),
                                                     ("relation", 2, "sold_in", "sold_at")])
def test_checkpoint_graph_mismatch_names_files_and_first_difference(capsys, dataset, trained, tmp_path,
                                                                    kind, column, old, new):
    triples = tmp_path / "renamed.tsv"
    rows = [line.split("\t") for line in Path(trained["augmented"]).read_text(encoding="utf-8").splitlines()]
    for row in rows:
        row[column] = new if row[column] == old else row[column]
    triples.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    checkpoint = load_checkpoint(trained["checkpoint"])
    at = getattr(checkpoint, f"{kind}_names").index(old)
    for stage, flag, path in [("evaluate", "--checkpoint", trained["checkpoint"]),
                              ("train", "--init", trained["pretrained"])]:
        code, out, err = run(capsys, stage, flag, path, "--triples", str(triples),
                             "--interactions", dataset["interactions"], *SMALL, "--out", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            f"error: {path}: checkpoint {kind} names do not match the graph of {triples}: "
            f"{kind} {at} is {old!r} in the checkpoint, {new!r} in the graph"
        )
        assert not (tmp_path / "out").exists()


def test_train_init_takes_its_dim_from_the_checkpoint(capsys, caplog, dataset, trained, tmp_path):
    assert load_checkpoint(trained["pretrained"]).sizes.dim == 16  # pretrained with --dim 16
    common = ["--triples", trained["augmented"], "--interactions", dataset["interactions"], *SMALL,
              "--init", trained["pretrained"], "--epochs", "1", "--batch-size", "8", "--n", "20"]
    out = tmp_path / "model.ckpt"
    code, _, err = run(capsys, "train", *common, "--out", str(out))
    assert code == 0
    assert "dim=16 " in err
    assert load_checkpoint(out).sizes.dim == 16
    assert "ignored" not in caplog.text

    given = tmp_path / "given.ckpt"
    code, _, err = run(capsys, "train", *common, "--dim", "8", "--out", str(given))
    assert code == 0
    assert "dim=16 " in err
    assert "--dim 8 ignored: the --init checkpoint has dim 16" in caplog.text
    assert load_checkpoint(given) == load_checkpoint(out)


def test_checkpoint_name_that_is_not_utf8_is_a_corrupt_file(capsys, dataset, trained, tmp_path):
    payload = bytearray(Path(trained["checkpoint"]).read_bytes()[:-8])
    last = load_checkpoint(trained["checkpoint"]).relation_names[-1].encode("utf-8")
    payload[-len(last)] = 0xFF
    path = tmp_path / "model.ckpt"
    path.write_bytes(bytes(payload) + training._checksum(bytes(payload)))  # re-checksummed
    code, out, err = run(capsys, "evaluate", "--checkpoint", str(path), "--triples", trained["augmented"],
                         "--interactions", dataset["interactions"], *SMALL)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: checkpoint file is corrupt: a name is not valid UTF-8\n"
    out_path = tmp_path / "trained.ckpt"
    code, out, err = run(capsys, "train", "--init", str(path), "--triples", trained["augmented"],
                         "--interactions", dataset["interactions"], *SMALL, *FAST_PRETRAIN, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: checkpoint file is corrupt: a name is not valid UTF-8\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--slope", "0.2"], "unrecognized arguments: --slope 0.2"),
        (["evaluate", "--sweep-n", "a"], "argument --sweep-n: expected comma-separated sizes >= 1, got 'a'"),
        (["evaluate", "--sweep-n", "60,0"], "argument --sweep-n: expected comma-separated sizes >= 1, got '60,0'"),
    ],
)
def test_removed_or_malformed_flags_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("top", ["0", "-1"])
def test_recommend_top_below_one_is_an_error(capsys, dataset, trained, tmp_path, top):
    out = tmp_path / "recs.tsv"
    code, stdout, err = run(capsys, "recommend", "--checkpoint", trained["checkpoint"],
                            "--triples", trained["augmented"], "--interactions", dataset["interactions"],
                            "--user", "user_000", "--top", top, "--n", "20", "--out", str(out))
    assert code == 1
    assert (stdout, err) == ("", "error: top must be >= 1\n")
    assert not out.exists()


# The built-in defaults as the command line wrote them out by hand before
# they were derived from the stage configs.
PUBLISHED_DEFAULTS = {
    "seed": 0,
    "train_fraction": 0.8,
    "k": 10,
    "dim": 100,
    "batch_size": 256,
    "epochs": 10,
    "learning_rate": 0.001,
    "top_n": 100,
    "steps": 2,
    "contrastive": False,
    "pretrain_epochs": 100,
    "pretrain_lr": 0.01,
    "margin": 1.0,
    "negatives": 1,
    "norm": 2,
    "llm": False,
    "llm_model": "gpt-4o-mini",
    "llm_timeout": 30.0,
    "llm_retries": 2,
    "limit": 3,
    "top": 10,
    "log_level": "info",
}

# Help defaults that describe a fallback rather than name a value.
DESCRIBED_DEFAULTS = {"shipped demo lexicon", "built-in targets", "$KGSR_LLM_ENDPOINT", "every user", "stdout"}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_derived_defaults_equal_the_published_ones():
    derived = {key: value for key, value in DEFAULTS.items() if value is not None}
    assert derived == PUBLISHED_DEFAULTS
    assert {key: type(value) for key, value in derived.items()} == {
        key: type(value) for key, value in PUBLISHED_DEFAULTS.items()
    }


@pytest.mark.parametrize(
    "command, cls",
    [("pretrain", TranseConfig), ("train", TranseConfig), ("train", TrainConfig), ("train", DiffusionConfig),
     ("evaluate", DiffusionConfig), ("recommend", DiffusionConfig), ("explain", DiffusionConfig)],
)
def test_stage_configs_without_flags_are_the_dataclass_defaults(command, cls):
    args = build_parser().parse_args([command])
    assert _stage_config(cls, args, PipelineConfig()) == cls()


def test_renamed_config_keys_reach_their_fields_and_flags_win(tmp_path, monkeypatch):
    monkeypatch.setenv("KGSR_LLM_API_KEY", "secret")
    path = tmp_path / "kgsr.conf"
    path.write_text(
        "pretrain_lr=0.05\npretrain_epochs=7\nllm_timeout=5.5\nllm_retries=4\nllm=true\n"
        "llm_endpoint=http://localhost:1/chat\n",
        encoding="utf-8",
    )
    config = PipelineConfig.load(path)

    transe = _stage_config(TranseConfig, build_parser().parse_args(["pretrain"]), config)
    assert (transe.learning_rate, transe.epochs) == (0.05, 7)
    client = _llm_client(build_parser().parse_args(["explain"]), config)
    assert (client.config.timeout, client.config.max_retries) == (5.5, 4)
    assert client.config.endpoint == "http://localhost:1/chat"
    assert client.config.model == DEFAULTS["llm_model"]

    flags = build_parser().parse_args(["pretrain", "--pretrain-lr", "0.2", "--pretrain-epochs", "3"])
    transe = _stage_config(TranseConfig, flags, config)
    assert (transe.learning_rate, transe.epochs) == (0.2, 3)
    flags = build_parser().parse_args(["explain", "--timeout", "9", "--retries", "0", "--model", "m"])
    client = _llm_client(flags, config)
    assert (client.config.timeout, client.config.max_retries, client.config.model) == (9.0, 0, "m")


def test_config_schema_keys_are_the_flag_dests():
    dests = {action.dest for sub in subparsers().values() for action in sub._actions}
    assert dests - {"help", "config"} == set(CONFIG_SCHEMA)


# The config-file schema as it was written out before it was derived from the parser.
WRITTEN_SCHEMA = {
    **dict.fromkeys(
        ("triples", "interactions", "reviews", "lexicon", "targets", "checkpoint", "init", "out", "llm_model",
         "llm_endpoint", "user", "item", "log_level"),
        str,
    ),
    **dict.fromkeys(
        ("seed", "threads", "k", "dim", "batch_size", "epochs", "top_n", "steps", "pretrain_epochs", "negatives",
         "norm", "llm_retries", "limit", "top"),
        int,
    ),
    **dict.fromkeys(
        ("train_fraction", "learning_rate", "pretrain_lr", "margin", "llm_timeout"), float
    ),
    "sweep_n": _sizes,
    "contrastive": _parse_bool,
    "llm": _parse_bool,
}


def test_config_schema_is_derived_from_the_flags():
    assert CONFIG_SCHEMA == WRITTEN_SCHEMA
    for sub in subparsers().values():  # no key converts one way in one subcommand and another way elsewhere
        for action in sub._actions:
            if action.dest in CONFIG_SCHEMA and action.nargs != 0:
                assert (action.type or str) is CONFIG_SCHEMA[action.dest]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_defaults_are_the_built_in_defaults(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    text = " ".join(out.split())
    with_default = [
        action for action in subparsers()[command]._actions if action.dest in DEFAULTS and action.nargs != 0
    ]
    for action in with_default:
        assert f"{action.help} (default: {DEFAULTS[action.dest]})" in text
    stated = [value for value in re.findall(r"\(default: ([^)]*)\)", text) if value not in DESCRIBED_DEFAULTS]
    assert sorted(stated) == sorted(str(DEFAULTS[action.dest]) for action in with_default)


def test_successive_calls_reuse_the_parser_and_leak_no_flag(capsys, dataset, trained):
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["recommend", "--user", "user_000"]).user == "user_000"
    assert build_parser().parse_args(["recommend"]).user is None
    common = ["recommend", "--checkpoint", trained["checkpoint"], "--triples", trained["augmented"],
              "--interactions", dataset["interactions"], "--top", "1", "--n", "20"]
    _, every, _ = run(capsys, *common)
    _, one, _ = run(capsys, *common, "--user", "user_000")
    _, again, _ = run(capsys, *common)
    assert {line.split("\t")[0] for line in one.splitlines()} == {"user_000"}
    assert again == every
    assert len({line.split("\t")[0] for line in again.splitlines()}) > 10
