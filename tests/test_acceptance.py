"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    batch_loss_and_selections,
    gradient_fixture,
    make_graph,
    neighbor_entries,
    random_embeddings,
    random_graph,
    table_walks,
)
from kgsr.cli import main
from kgsr.demo import write_planted_dataset
from kgsr.diffusion import AttentionParams, DiffusionConfig, _attention_forward, _node_scores, _top_n, diffuse
from kgsr.evaluation import evaluate_model, evaluate_ranking
from kgsr.graph import (
    EntityKind,
    KnowledgeGraph,
    Triple,
    add_purchase_triples,
    ingest_interactions,
    ingest_triples,
    split_interactions,
)
from kgsr.llm import DEFAULT_TARGETS, demo_lexicon_path, generate_explanation, inject_triples, load_lexicon, offline_extract
from kgsr.numerics import segment_softmax, stable_softmax
from kgsr.scoring import EncoderParams, extract_paths, format_path, score_candidates
from kgsr.training import TrainConfig, forward_backward, train
from kgsr.transe import TranseConfig, transe_pretrain, transe_score


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number:2d} PASS ({elapsed:5.1f}s) {description}")


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Shared planted-preference run: dataset, split, pretrain, train."""
    started = time.perf_counter()
    root = tmp_path_factory.mktemp("planted")
    paths = write_planted_dataset(root, n_users=200, n_items=100, n_properties=50, seed=11)
    graph = ingest_triples(paths["triples"])
    interactions = ingest_interactions(paths["interactions"], graph)
    train_set, test_set = split_interactions(interactions, 0.8, seed=5)
    add_purchase_triples(graph, train_set)
    table = transe_pretrain(graph, TranseConfig(dim=100, epochs=30, seed=5))
    config = TrainConfig(seed=5)  # published defaults: d=100, batch 256, epochs 10, N=100
    losses: list[float] = []
    checkpoint = train(graph, table, train_set, config, epoch_losses=losses)
    return {
        "graph": graph,
        "train": train_set,
        "test": test_set,
        "checkpoint": checkpoint,
        "config": config,
        "losses": losses,
        "elapsed": time.perf_counter() - started,
    }


def test_c01_softmax_invariants():
    with criterion(1, "edge, node and selected weights each sum to 1 over 1000 instances"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        checked = 0
        for trial in range(1000):
            graph = random_graph(rng, n_items=5, n_properties=4, n_edges=12)
            table = random_embeddings(rng, graph, 6)
            params = AttentionParams.init(6, rng)
            user = graph.entity_id("u0")
            adjacency = graph.adjacency()
            _, entry = adjacency.gather(np.array([user]))
            dst = adjacency.neighbor[entry]  # the graph holds no self-loop, so no edge returns to the user
            if not len(dst):
                continue
            seg, centrals, source_pos = np.array([0]), np.array([user]), np.zeros(len(dst), dtype=np.intp)
            alpha = _attention_forward(params, table.entities[[user]], seg, centrals, source_pos, dst, table.entities).alpha
            assert abs(sum(alpha.tolist()) - 1.0) <= 1e-6
            assert all(0.0 < a <= 1.0 for a in alpha.tolist())
            candidates, _, raw = _node_scores(dst, alpha)
            assert abs(sum(stable_softmax(raw).tolist()) - 1.0) <= 1e-6
            kept = _top_n(np.zeros(len(candidates), dtype=np.intp), candidates, raw, int(rng.integers(1, 5)))
            weights = segment_softmax(raw[kept], np.zeros(len(kept), dtype=np.intp))
            assert abs(float(weights.sum()) - 1.0) <= 1e-6
            checked += 1
        assert checked >= 990
        assert time.perf_counter() - started < 30.0


def test_c02_gradient_fidelity():
    with criterion(2, "reverse-mode gradients match central finite differences (<1e-3)"):
        started = time.perf_counter()
        graph, model, interactions, config = gradient_fixture()
        users = [graph.entity_id("u0")]
        base_loss, base_sel = batch_loss_and_selections(model, graph, interactions, config, users)
        result = forward_backward(users, model, graph, interactions, config)
        assert result.loss == pytest.approx(base_loss, abs=1e-12)
        h = 1e-4
        worst = 0.0
        for family, grad in result.grads.families().items():
            param = model.families()[family]
            for idx in np.ndindex(*param.shape):
                if family == "entities" and abs(grad[idx]) < 1e-14:
                    continue
                original = param[idx]
                param[idx] = original + h
                up, sel_up = batch_loss_and_selections(model, graph, interactions, config, users)
                param[idx] = original - h
                down, sel_down = batch_loss_and_selections(model, graph, interactions, config, users)
                param[idx] = original
                assert sel_up == base_sel and sel_down == base_sel, "selection flipped"
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-8))
        assert worst < 1e-3
        assert time.perf_counter() - started < 10.0


def test_c03_top_n_selection_oracle():
    with criterion(3, "select_frontier equals brute-force sort-and-take on 1000 maps"):
        rng = np.random.default_rng(303)
        for trial in range(1000):
            n_nodes = int(rng.integers(1, 20))
            ids = rng.choice(500, size=n_nodes, replace=False)
            # coarse scores force frequent ties
            scores = {int(i): float(rng.integers(0, 5)) / 5.0 for i in ids}
            top_n = int(rng.integers(1, 8))
            expected = [n for n, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))][:top_n]
            raw = np.array(list(scores.values()))
            assert ids[_top_n(np.zeros(n_nodes, dtype=np.intp), ids, raw, top_n)].tolist() == expected


def test_c04_metric_oracle():
    with criterion(4, "evaluate_ranking matches the definitional oracle"):
        assert evaluate_ranking([5, 1, 2], {5}, 10) == pytest.approx((1.0, 1.0, 1.0, 0.1))
        at_three = evaluate_ranking([1, 2, 5, 3], {5}, 10)
        assert at_three.ndcg == pytest.approx(1.0 / math.log2(4))
        assert at_three == pytest.approx((0.5, 1.0, 1.0, 0.1))
        assert evaluate_ranking([1, 2, 3], {9}, 10) == pytest.approx((0.0, 0.0, 0.0, 0.0))
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            ranked = list(rng.permutation(n))
            relevant = set(int(x) for x in rng.choice(n, size=int(rng.integers(1, max(2, n // 2))), replace=False))
            k = int(rng.integers(1, 30))
            got = evaluate_ranking(ranked, relevant, k)
            top = ranked[:k]
            hit_positions = [p for p, item in enumerate(top, start=1) if item in relevant]
            dcg = sum(1.0 / math.log2(p + 1) for p in hit_positions)
            idcg = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(relevant)) + 1))
            expected = (dcg / idcg, len(hit_positions) / len(relevant),
                        1.0 if hit_positions else 0.0, len(hit_positions) / k)
            for a, b in zip(got, expected):
                assert abs(a - b) <= 1e-9


def test_c05_planted_preference_learning(planted):
    with criterion(5, "planted-preference HR@10 >= 0.5 (null model ~ 0.10)"):
        started = time.perf_counter()
        report = evaluate_model(
            planted["checkpoint"],
            planted["graph"],
            planted["test"],
            10,
            train=planted["train"],
            diffusion=planted["config"].diffusion(),
        )
        null_hr = 10 / 100
        assert report.hit_rate >= 0.5, f"HR@10 {report.hit_rate} below 0.5"
        assert report.hit_rate >= 3 * null_hr
        assert planted["losses"][-1] < planted["losses"][0]
        total = planted["elapsed"] + (time.perf_counter() - started)
        assert total < 300.0, f"planted run took {total:.0f}s"
        print(f"    HR@10={report.hit_rate:.3f} ndcg={report.ndcg:.3f} "
              f"(loss {planted['losses'][0]:.3f} -> {planted['losses'][-1]:.3f})")


def test_c06_transe_sanity():
    with criterion(6, "filtered tail-prediction hits@1 >= 0.8 on planted translations"):
        started = time.perf_counter()
        graph = KnowledgeGraph()
        heads = [graph.intern_entity(f"a{i}", EntityKind.PROPERTY) for i in range(25)]
        tails = [graph.intern_entity(f"b{i}", EntityKind.PROPERTY) for i in range(25)]
        relation = graph.intern_relation("maps_to")
        for head, tail in zip(heads, tails):
            graph.add_triple(head, relation, tail)
        table = transe_pretrain(graph, TranseConfig(dim=32, epochs=200, learning_rate=0.05, seed=4))
        hits = 0
        for triple in graph.triples:
            true_score = transe_score(table, triple)
            best = True
            for candidate in range(graph.n_entities):
                if candidate == triple.tail:
                    continue
                alternative = Triple(triple.head, triple.relation, candidate)
                if graph.has_triple(alternative):
                    continue
                if transe_score(table, alternative) < true_score:
                    best = False
                    break
            hits += best
        assert hits / graph.n_triples >= 0.8
        assert time.perf_counter() - started < 60.0


def test_c07_pipeline_determinism(tmp_path, capsys):
    with criterion(7, "two seeded pipeline runs are bitwise identical"):
        data = tmp_path / "data"
        paths = write_planted_dataset(data, n_users=24, n_items=12, n_properties=6, seed=3)
        outputs = []
        for run in ("one", "two"):
            out = tmp_path / run
            out.mkdir()
            augmented = out / "augmented.tsv"
            pretrained = out / "pretrained.ckpt"
            model = out / "model.ckpt"
            common = ["--seed", "7", "--train-fraction", "0.5"]
            fast = ["--dim", "16", "--pretrain-epochs", "10"]
            assert main(["ingest", "--triples", str(paths["triples"]),
                         "--interactions", str(paths["interactions"])]) == 0
            ingest_out = capsys.readouterr().out
            assert main(["augment", "--offline", "--triples", str(paths["triples"]),
                         "--reviews", str(paths["reviews"]), "--out", str(augmented)]) == 0
            capsys.readouterr()
            assert main(["pretrain", "--triples", str(augmented),
                         "--interactions", str(paths["interactions"]),
                         *common, *fast, "--out", str(pretrained)]) == 0
            capsys.readouterr()
            assert main(["train", "--triples", str(augmented),
                         "--interactions", str(paths["interactions"]),
                         *common, *fast, "--init", str(pretrained),
                         "--epochs", "3", "--batch-size", "8", "--n", "20",
                         "--out", str(model)]) == 0
            capsys.readouterr()
            assert main(["evaluate", "--checkpoint", str(model),
                         "--triples", str(augmented),
                         "--interactions", str(paths["interactions"]),
                         *common, "--k", "5", "--n", "20"]) == 0
            report = capsys.readouterr().out
            outputs.append(
                {
                    "ingest": ingest_out,
                    "augmented": augmented.read_bytes(),
                    "pretrained": pretrained.read_bytes(),
                    "model": model.read_bytes(),
                    "report": report,
                }
            )
        assert outputs[0]["ingest"] == outputs[1]["ingest"]
        assert outputs[0]["augmented"] == outputs[1]["augmented"]
        assert outputs[0]["pretrained"] == outputs[1]["pretrained"]
        assert outputs[0]["model"] == outputs[1]["model"]
        assert outputs[0]["report"] == outputs[1]["report"]


def test_c08_paper_default_conformance():
    with criterion(8, "training defaults are d=100, batch=256, epochs=10, N=100"):
        config = TrainConfig()
        assert TranseConfig().dim == 100  # the pretrained embeddings fix the trained dim
        assert config.batch_size == 256
        assert config.epochs == 10
        assert config.top_n == 100


def test_c09_extraction_fidelity():
    with criterion(9, "the worked review yields the two chained edges exactly once"):
        graph = make_graph(
            [("User_1", "user"), ("Item_1", "item")],
            [("User_1", "purchase", "Item_1")],
        )
        lexicon = load_lexicon(demo_lexicon_path())
        review = "I like METC's wash machine colour"
        extracted = offline_extract(review, lexicon, review_id=1)
        assert {(t.relation, t.value) for t in extracted} == {
            ("like", "wash machine"),
            ("belong", "METC"),
        }
        index = {1: (graph.entity_id("User_1"), graph.entity_id("Item_1"))}
        before = graph.n_triples
        added = inject_triples(graph, extracted, index, DEFAULT_TARGETS)
        assert added == 2
        assert graph.n_triples == before + 2
        user = graph.entity_id("User_1")
        wash = graph.entity_id("wash machine")
        metc = graph.entity_id("METC")
        assert graph.has_triple(Triple(user, graph.relation_id("like"), wash))
        assert graph.has_triple(Triple(wash, graph.relation_id("belong"), metc))
        assert inject_triples(graph, extracted, index, DEFAULT_TARGETS) == 0


def test_c10_explanation_validity():
    with criterion(10, "explanation paths validate edge-by-edge and the template names every hop"):
        graph = make_graph(
            [
                ("User_1", "user"),
                ("reliable", "property"),
                ("no smell", "property"),
                ("car owner", "property"),
                ("C_1", "property"),
                ("C_2", "property"),
                ("Item_4", "item"),
                ("auto wiper", "item"),
            ],
            [
                ("User_1", "review", "reliable"),
                ("User_1", "review", "no smell"),
                ("User_1", "profile", "car owner"),
                ("User_1", "purchase", "auto wiper"),
                ("reliable", "tag", "C_1"),
                ("car owner", "tag", "C_2"),
                ("auto wiper", "sold_by", "C_1"),
                ("C_1", "sale", "Item_4"),
                ("C_2", "sale", "Item_4"),
            ],
        )
        rng = np.random.default_rng(2)
        table = random_embeddings(rng, graph, 8)
        params = AttentionParams.init(8, rng)
        encoder = EncoderParams.init(8, rng)
        user = graph.entity_id("User_1")
        batch = diffuse(graph, table, params, [user], DiffusionConfig(steps=2, top_n=10))
        scored = score_candidates(batch, graph, table, encoder)
        item = graph.entity_id("Item_4")
        assert item in scored.items.tolist()
        walks = extract_paths(batch, graph, [0], [item], 10)
        paths = table_walks(walks, 0)
        assert paths
        for path in paths:
            assert path.user == user
            assert path.item == item
            current = user
            for hop in path.hops:
                assert (hop.relation, hop.node, hop.inverse) in neighbor_entries(graph, current)
                current = hop.node
        top = paths[0]
        explanation = generate_explanation(format_path(walks, graph)[0], "User_1", "Item_4", DEFAULT_TARGETS)
        for node in top.nodes():
            assert graph.entity_name(node) in explanation.text
        for hop in top.hops:
            assert graph.relation_name(hop.relation) in explanation.text
        shapes = {tuple(graph.entity_name(n) for n in p.nodes()) for p in paths}
        assert ("User_1", "reliable", "C_1", "Item_4") in shapes


def test_c11_subgraph_size_sensitivity(planted):
    with criterion(11, "evaluation sweep over N in {60, 80, 100} emits three valid rows"):
        rows = []
        for top_n in (60, 80, 100):
            report = evaluate_model(
                planted["checkpoint"],
                planted["graph"],
                planted["test"],
                10,
                train=planted["train"],
                diffusion=DiffusionConfig(steps=2, top_n=top_n),
            )
            rows.append({"top_n": top_n, **report.to_dict()})
        assert len(rows) == 3
        for row in rows:
            for metric in ("ndcg", "recall", "hit_rate", "precision"):
                assert 0.0 <= row[metric] <= 1.0
        print("    " + json.dumps(rows))
