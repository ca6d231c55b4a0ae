"""Ranking metrics against a definitional oracle, plus the evaluation protocol."""
from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import make_graph, random_embeddings, random_graph
from kgsr import diffusion
from kgsr.diffusion import DiffusionStep, SubgraphState
from kgsr.evaluation import EvalReport, evaluate_model, evaluate_ranking
from kgsr.graph import EntityKind, InteractionSet
from kgsr.training import TrainConfig, initialize_model, make_checkpoint
from kgsr.transe import EmbeddingTable


def oracle_metrics(ranked, relevant, k):
    """Straight-from-the-definitions reimplementation."""
    top = list(ranked)[:k]
    hit_positions = [p for p, item in enumerate(top, start=1) if item in relevant]
    dcg = sum(1.0 / math.log2(p + 1) for p in hit_positions)
    ideal = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(relevant)) + 1))
    return (
        dcg / ideal,
        len(hit_positions) / len(relevant),
        1.0 if hit_positions else 0.0,
        len(hit_positions) / k,
    )


class TestEvaluateRanking:
    def test_relevant_at_rank_one(self):
        m = evaluate_ranking([5, 1, 2], {5}, k=10)
        assert m == pytest.approx((1.0, 1.0, 1.0, 0.1))

    def test_relevant_at_rank_three(self):
        m = evaluate_ranking([1, 2, 5, 3], {5}, k=10)
        assert m.ndcg == pytest.approx(0.5)
        assert m.recall == pytest.approx(1.0)
        assert m.hit_rate == 1.0
        assert m.precision == pytest.approx(0.1)

    def test_no_hit(self):
        m = evaluate_ranking([1, 2, 3], {99}, k=10)
        assert m == pytest.approx((0.0, 0.0, 0.0, 0.0))

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            evaluate_ranking([1, 2], set(), k=5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            evaluate_ranking([1], {1}, k=0)

    def test_matches_oracle_on_random_rankings(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            ranked = list(rng.permutation(n))
            n_rel = int(rng.integers(1, max(2, n // 2)))
            relevant = set(int(x) for x in rng.choice(n, size=n_rel, replace=False))
            k = int(rng.integers(1, 25))
            got = evaluate_ranking(ranked, relevant, k)
            expected = oracle_metrics(ranked, relevant, k)
            for a, b in zip(got, expected):
                assert abs(a - b) < 1e-9

    def test_invariant_to_shuffles_beyond_k(self):
        rng = np.random.default_rng(3)
        ranked = list(range(30))
        relevant = {2, 7, 25}
        k = 10
        base = evaluate_ranking(ranked, relevant, k)
        for _ in range(20):
            tail = ranked[k:]
            rng.shuffle(tail)
            assert evaluate_ranking(ranked[:k] + tail, relevant, k) == base

    def test_ndcg_monotone_under_promotion(self):
        relevant = {9}
        k = 10
        previous = 0.0
        for position in range(9, -1, -1):
            ranked = [x for x in range(10) if x != 9]
            ranked.insert(position, 9)
            ndcg = evaluate_ranking(ranked, relevant, k).ndcg
            assert ndcg >= previous
            previous = ndcg


def forced_fixture():
    """Each user's held-out item is the only outside candidate."""
    graph = make_graph(
        [
            ("u1", "user"),
            ("i_train", "item"),
            ("i_test", "item"),
            ("p", "property"),
        ],
        [
            ("u1", "purchase", "i_train"),
            ("i_train", "has", "p"),
            ("i_test", "has", "p"),
        ],
    )
    train = InteractionSet()
    train.add(graph.entity_id("u1"), graph.entity_id("i_train"))
    test = InteractionSet()
    test.add(graph.entity_id("u1"), graph.entity_id("i_test"))
    rng = np.random.default_rng(0)
    entities = rng.normal(size=(graph.n_entities, 4))
    table = EmbeddingTable(entities, rng.normal(size=(graph.n_relations, 4)))
    config = TrainConfig(dim=4, top_n=5, steps=2, seed=0)
    checkpoint = make_checkpoint(initialize_model(table, config, np.random.default_rng(0)), graph)
    return graph, train, test, checkpoint, config


class TestEvaluateModel:
    def test_forced_hit(self):
        graph, train, test, checkpoint, config = forced_fixture()
        report = evaluate_model(checkpoint, graph, test, 10, train=train, diffusion=config.diffusion())
        assert report.hit_rate == 1.0
        assert report.recall == 1.0
        assert report.evaluated_users == 1
        assert report.skipped_users == 0

    def test_user_with_no_candidates_skipped(self):
        graph, train, test, checkpoint, config = forced_fixture()
        # second user with no edges at all: diffusion yields nothing
        lonely = graph.intern_entity("u_lonely", EntityKind.USER)
        entities = np.vstack([checkpoint.entities, np.zeros((1, 4), dtype=np.float32)])
        checkpoint.entities = entities
        checkpoint = make_checkpoint(checkpoint.to_model(), graph)
        test.add(lonely, graph.entity_id("i_test"))
        report = evaluate_model(checkpoint, graph, test, 10, train=train, diffusion=config.diffusion())
        assert report.evaluated_users == 1
        assert report.skipped_users == 1

    def test_empty_test_rejected(self):
        graph, train, _, checkpoint, config = forced_fixture()
        with pytest.raises(ValueError):
            evaluate_model(checkpoint, graph, InteractionSet(), 10, train=train)

    def test_null_model_calibration(self):
        # protocol sanity: scoring items at random must land HR@10 near k/|catalog|
        rng = np.random.default_rng(99)
        catalog = list(range(100))
        k = 10
        trials = 1000
        hits = []
        for _ in range(trials):
            ranked = list(rng.permutation(catalog))
            relevant = {int(rng.integers(0, 100))}
            hits.append(evaluate_ranking(ranked, relevant, k).hit_rate)
        mean = float(np.mean(hits))
        expected = k / len(catalog)
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(mean - expected) <= 3 * sigma

    def test_batched_matches_per_user_oracle(self, monkeypatch):
        # users run 2 at a time, so 5 users span three chunks, one of them partial
        monkeypatch.setattr(diffusion, "CHUNK_USERS", 2)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            graph = random_graph(rng, n_users=5, n_items=8, n_properties=5, n_edges=30)
            train, test = InteractionSet(), InteractionSet()
            items = graph.entities_of_kind(EntityKind.ITEM)
            for user in graph.entities_of_kind(EntityKind.USER):
                for item in rng.choice(items, size=3, replace=False).tolist():
                    (train if rng.random() < 0.5 else test).add(user, item)
            table = random_embeddings(rng, graph, 4)
            config = TrainConfig(dim=4, top_n=int(rng.integers(1, 5)), steps=2, seed=seed)
            checkpoint = make_checkpoint(initialize_model(table, config, rng), graph)
            k = 3
            report = evaluate_model(checkpoint, graph, test, k, train=train, diffusion=config.diffusion())

            model = checkpoint.to_model()
            expected, skipped = [], 0
            for user in test.users():
                steps, visited = oracles.diffuse(graph, model.embeddings, model.attention, user, config.diffusion())
                state = SubgraphState(user, [DiffusionStep(s.nodes, s.weights, []) for s in steps], visited)
                rows, _ = oracles.score_candidates(state, graph, model.embeddings, model.encoder)
                if not rows:
                    skipped += 1
                    continue
                exclude = set(train.items_for(user))
                scored = [row[0] for row in rows]
                ranked = [item for item in scored if item not in exclude]
                ranked += [item for item in items if item not in scored and item not in exclude]
                expected.append(evaluate_ranking(ranked, set(test.items_for(user)), k))
            assert (report.evaluated_users, report.skipped_users) == (len(expected), skipped)
            if expected:
                for field in ("ndcg", "recall", "hit_rate", "precision"):
                    mean = sum(getattr(m, field) for m in expected) / len(expected)
                    assert getattr(report, field) == pytest.approx(mean, abs=1e-12)


def test_report_serialization():
    report = EvalReport(10, 0.5, 0.25, 1.0, 0.1, 7, 2)
    payload = report.to_json()
    assert '"k": 10' in payload
    text = report.to_text()
    assert "ndcg" in text and "0.500000" in text
