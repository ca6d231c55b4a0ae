"""Trainer: gradient fidelity, the Adam update, the epoch loop, checkpoints."""
from __future__ import annotations

import copy
import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_loss_and_selections, gradient_fixture, multi_user_gradient_fixture
from kgsr import diffusion, training
from kgsr.diffusion import AttentionParams
from kgsr.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    NumericError,
)
from kgsr.evaluation import evaluate_model
from kgsr.graph import EntityKind, InteractionSet, KnowledgeGraph
from kgsr.scoring import EncoderParams
from kgsr.training import (
    CHECKPOINT_ARRAYS,
    AdamState,
    Checkpoint,
    ModelParams,
    TrainConfig,
    adam_step,
    forward_backward,
    initialize_model,
    load_checkpoint,
    make_checkpoint,
    save_checkpoint,
    train,
    zero_families,
)
from kgsr.transe import EmbeddingTable, TranseConfig


class TestGradients:
    def test_matches_finite_differences(self):
        graph, model, interactions, config = gradient_fixture()
        users = [graph.entity_id("u0")]
        base_loss, base_sel = batch_loss_and_selections(model, graph, interactions, config, users)
        result = forward_backward(users, model, graph, interactions, config)
        assert result.loss == pytest.approx(base_loss, abs=1e-12)

        h = 1e-4
        worst = 0.0
        for family, grad in result.grads.items():
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
                denom = max(abs(grad[idx]), abs(fd), 1e-8)
                worst = max(worst, abs(grad[idx] - fd) / denom)
        assert worst < 1e-3

    @staticmethod
    def central_differences(model, graph, interactions, config, users, family, h=1e-4):
        """Central finite difference of the forward loss for every coordinate
        of one parameter family; a probe must not flip any selection."""
        _, base_sel = batch_loss_and_selections(model, graph, interactions, config, users)
        param = model.families()[family]
        fd = np.zeros_like(param)
        for idx in np.ndindex(*param.shape):
            original = param[idx]
            param[idx] = original + h
            up, sel_up = batch_loss_and_selections(model, graph, interactions, config, users)
            param[idx] = original - h
            down, sel_down = batch_loss_and_selections(model, graph, interactions, config, users)
            param[idx] = original
            assert sel_up == base_sel and sel_down == base_sel, "selection flipped"
            fd[idx] = (up - down) / (2 * h)
        return fd

    @pytest.mark.parametrize("chunk", [2, 24])
    def test_batched_path_matches_finite_differences(self, monkeypatch, chunk):
        monkeypatch.setattr(diffusion, "CHUNK_USERS", chunk)
        graph, model, interactions, config = multi_user_gradient_fixture()
        users = [graph.entity_id(name) for name in ("u0", "u1", "u2")]
        base_loss, _ = batch_loss_and_selections(model, graph, interactions, config, users)
        result = forward_backward(users, model, graph, interactions, config)
        assert result.users_used == 3
        assert result.loss == pytest.approx(base_loss, abs=1e-12)
        worst = 0.0
        for family, grad in result.grads.items():
            fd = self.central_differences(model, graph, interactions, config, users, family)
            rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-3

    @pytest.mark.parametrize("chunk", [2, 24])
    def test_zero_entity_gradients_are_zero_by_finite_differences(self, monkeypatch, chunk):
        # the complement of c02, which skips coordinates whose analytic gradient
        # is ~0: a contribution missing from the backward pass would show here
        monkeypatch.setattr(diffusion, "CHUNK_USERS", chunk)
        graph, model, interactions, config = multi_user_gradient_fixture()
        users = [graph.entity_id(name) for name in ("u0", "u1", "u2")]
        grad = forward_backward(users, model, graph, interactions, config).grads["entities"]
        fd = self.central_differences(model, graph, interactions, config, users, "entities")
        zero = np.abs(grad) < 1e-14
        assert zero.any() and not zero.all()
        assert np.abs(fd[zero]).max() < 1e-7

    def test_untouched_entity_rows_zero(self):
        graph, model, interactions, config = gradient_fixture()
        # a disconnected island the diffusion can never reach
        island_item = graph.intern_entity("island_item", EntityKind.ITEM)
        island_prop = graph.intern_entity("island_prop", EntityKind.PROPERTY)
        graph.add_triple(island_item, graph.relation_id("has"), island_prop)
        rng = np.random.default_rng(1)
        extra = rng.normal(size=(2, 4))
        model = ModelParams(
            model.attention,
            model.encoder,
            EmbeddingTable(np.vstack([model.embeddings.entities, extra]), model.embeddings.relations),
        )
        result = forward_backward([graph.entity_id("u0")], model, graph, interactions, config)
        assert np.all(result.grads["entities"][island_item] == 0.0)
        assert np.all(result.grads["entities"][island_prop] == 0.0)

    def test_one_adam_step_decreases_loss(self):
        graph, model, interactions, config = gradient_fixture()
        users = [graph.entity_id("u0")]
        result = forward_backward(users, model, graph, interactions, config)
        adam = AdamState.for_model(model, config.learning_rate)
        adam_step(model, result.grads, adam)
        after = forward_backward(users, model, graph, interactions, config)
        assert after.loss < result.loss

    def test_contrastive_flag_changes_gradients(self):
        graph, model, _, config = gradient_fixture()
        users = [graph.entity_id("u0")]
        positives_only_i1 = InteractionSet()
        positives_only_i1.add(graph.entity_id("u0"), graph.entity_id("i1"))
        plain = forward_backward(users, model, graph, positives_only_i1, config)
        config_on = TrainConfig(top_n=2, steps=2, seed=3, batch_size=8, epochs=1, contrastive=True
        )
        contrast = forward_backward(
            users, model, graph, positives_only_i1, config_on, rng=np.random.default_rng(0)
        )
        assert contrast.loss > plain.loss
        assert not np.allclose(contrast.grads["w3"], plain.grads["w3"])

    def test_contrastive_without_rng_is_an_error(self):
        graph, model, interactions, _ = gradient_fixture()
        config = TrainConfig(top_n=2, steps=2, seed=3, batch_size=8, epochs=1, contrastive=True)
        with pytest.raises(ValueError, match="contrastive TrainConfig needs an rng"):
            forward_backward([graph.entity_id("u0")], model, graph, interactions, config)

    def test_user_without_scoreable_positive_skipped(self):
        graph, model, interactions, config = gradient_fixture()
        lonely = graph.intern_entity("u_lonely", EntityKind.USER)
        rng = np.random.default_rng(2)
        model = ModelParams(
            model.attention,
            model.encoder,
            EmbeddingTable(
                np.vstack([model.embeddings.entities, rng.normal(size=(1, 4))]),
                model.embeddings.relations,
            ),
        )
        interactions.add(lonely, graph.entity_id("i2"))
        result = forward_backward([lonely], model, graph, interactions, config)
        assert result.users_used == 0
        assert result.users_skipped == 1
        assert result.loss == 0.0


class TestAdam:
    def scalar_model(self):
        table = EmbeddingTable(np.array([[0.1], [0.2]]), np.zeros((1, 1)))
        attention = AttentionParams(np.full((1, 2), 0.3), np.full((1, 1), 0.4))
        encoder = EncoderParams(np.full((1, 3), 0.5), np.full((1, 1), 0.6))
        return ModelParams(attention, encoder, table)

    def test_zero_gradients_fixed_point(self):
        model = self.scalar_model()
        before = {k: v.copy() for k, v in model.families().items()}
        adam = AdamState.for_model(model, 0.001)
        adam_step(model, zero_families(model), adam)
        for name, arr in model.families().items():
            np.testing.assert_array_equal(arr, before[name])
        assert adam.step == 1

    def test_first_step_magnitude(self):
        model = self.scalar_model()
        grads = zero_families(model)
        grads["w4"][0, 0] = 0.5
        before = model.encoder.w4[0, 0]
        adam_step(model, grads, AdamState.for_model(model, 0.001))
        delta = model.encoder.w4[0, 0] - before
        # first bias-corrected step: -lr * mhat / (sqrt(vhat) + eps) with
        # mhat = 0.5, vhat = 0.25
        assert delta == pytest.approx(-0.001, abs=1e-6)

    def test_two_steps_exact(self):
        # beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, in adam_step's operation order
        model = self.scalar_model()
        adam = AdamState.for_model(model, 0.01)
        param, m, v = model.encoder.w4[0, 0], 0.0, 0.0
        for step, g in enumerate((0.5, -0.25), start=1):
            grads = zero_families(model)
            grads["w4"][0, 0] = g
            adam_step(model, grads, adam)
            m = m * 0.9 + (1.0 - 0.9) * g
            v = v * 0.999 + (1.0 - 0.999) * (g * g)
            param = param - 0.01 * (m / (1.0 - 0.9**step)) / (math.sqrt(v / (1.0 - 0.999**step)) + 1e-8)
            assert model.encoder.w4[0, 0] == param
            assert adam.m["w4"][0, 0] == m
            assert adam.v["w4"][0, 0] == v
        assert adam.step == 2

    def test_deterministic(self):
        results = []
        for _ in range(2):
            model = self.scalar_model()
            grads = zero_families(model)
            grads["w1"][:] = 0.25
            grads["entities"][:] = -0.5
            adam = AdamState.for_model(model, 0.01)
            adam_step(model, grads, adam)
            adam_step(model, grads, adam)
            results.append({k: v.copy() for k, v in model.families().items()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_non_finite_gradient_aborts(self):
        model = self.scalar_model()
        grads = zero_families(model)
        grads["w2"][0, 0] = np.nan
        adam = AdamState.for_model(model, 0.001)
        before = model.attention.w2.copy()
        with pytest.raises(NumericError):
            adam_step(model, grads, adam)
        np.testing.assert_array_equal(model.attention.w2, before)
        assert adam.step == 0


def planted_mini(seed=0):
    graph = KnowledgeGraph()
    users = [graph.intern_entity(f"u{i}", EntityKind.USER) for i in range(8)]
    items = [graph.intern_entity(f"i{i}", EntityKind.ITEM) for i in range(6)]
    props = [graph.intern_entity(f"p{i}", EntityKind.PROPERTY) for i in range(3)]
    has = graph.intern_relation("has")
    buy = graph.intern_relation("purchase")
    for i, item in enumerate(items):
        graph.add_triple(item, has, props[i % 3])
    interactions = InteractionSet()
    for i, user in enumerate(users):
        pref = i % 3
        chosen = [items[pref], items[pref + 3]]
        graph.add_triple(user, buy, chosen[0])
        for item in chosen:
            interactions.add(user, item)
    return graph, interactions


class TestTrain:
    def test_defaults_match_published_settings(self):
        config = TrainConfig()
        assert TranseConfig().dim == 100  # the pretrained embeddings fix the trained dim
        assert config.batch_size == 256
        assert config.epochs == 10
        assert config.top_n == 100
        assert config.steps == 2

    def test_loss_decreases_on_planted_data(self):
        graph, interactions = planted_mini()
        rng = np.random.default_rng(0)
        entities = rng.normal(size=(graph.n_entities, 6))
        entities /= np.linalg.norm(entities, axis=1, keepdims=True)
        table = EmbeddingTable(entities, rng.normal(size=(graph.n_relations, 6)))
        config = TrainConfig(top_n=8, steps=2, seed=1, batch_size=4, epochs=6)
        losses: list[float] = []
        train(graph, table, interactions, config, epoch_losses=losses)
        assert len(losses) == 6
        assert losses[-1] < losses[0]

    def test_bitwise_determinism(self):
        graph, interactions = planted_mini()
        rng = np.random.default_rng(5)
        entities = rng.normal(size=(graph.n_entities, 4))
        table = EmbeddingTable(entities, rng.normal(size=(graph.n_relations, 4)))
        config = TrainConfig(top_n=5, steps=2, seed=9, batch_size=3, epochs=3)
        a = train(graph, table.copy(), interactions, config)
        b = train(graph, table.copy(), interactions, config)
        assert a == b


class TestCheckpointIO:
    def checkpoint(self):
        graph, interactions = planted_mini()
        rng = np.random.default_rng(2)
        entities = rng.normal(size=(graph.n_entities, 4))
        table = EmbeddingTable(entities, rng.normal(size=(graph.n_relations, 4)))
        model = initialize_model(table, np.random.default_rng(2))
        return make_checkpoint(model, graph)

    def test_round_trip_bitwise(self, tmp_path):
        checkpoint = self.checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded == checkpoint
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_failed_save_keeps_the_previous_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.checkpoint(), path)
        before = path.read_bytes()

        def fail(payload):
            raise OSError("disk full")

        monkeypatch.setattr(training, "_checksum", fail)  # after the payload is written
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(self.checkpoint(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_array_table_covers_every_array_field_with_its_shape(self):
        checkpoint = self.checkpoint()
        arrays = [f.name for f in fields(Checkpoint) if isinstance(getattr(checkpoint, f.name), np.ndarray)]
        assert arrays == list(CHECKPOINT_ARRAYS)
        for name, shape in CHECKPOINT_ARRAYS.items():
            assert getattr(checkpoint, name).shape == shape(checkpoint.sizes)

    @pytest.mark.parametrize("name", [f.name for f in fields(Checkpoint)])
    def test_equality_sees_every_field(self, name):
        checkpoint = self.checkpoint()
        assert copy.deepcopy(checkpoint) == checkpoint
        value = getattr(checkpoint, name)
        if isinstance(value, np.ndarray):
            changed = value.copy()
            changed.flat[-1] += 1.0
        elif isinstance(value, tuple):
            changed = value[:-1] + (value[-1] + "_changed",)
        else:
            changed = value + 1
        assert replace(checkpoint, **{name: changed}) != checkpoint

    def test_hidden_widths_other_than_dim_save_load_and_run(self, tmp_path):
        graph, interactions = planted_mini()
        rng = np.random.default_rng(4)
        shapes = {"w1": (3, 8), "w2": (4, 3), "w3": (5, 12), "w4": (4, 5)}
        arrays = {name: rng.normal(size=shape).astype(np.float32) for name, shape in shapes.items()}
        checkpoint = replace(self.checkpoint(), **arrays)
        assert checkpoint.sizes[:3] == (4, 3, 5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded == checkpoint
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        report = evaluate_model(loaded, graph, interactions, k=3, diffusion=diffusion.DiffusionConfig(2, 5))
        assert report.evaluated_users + report.skipped_users == interactions.n_users

    @pytest.mark.parametrize(
        "name, shape",
        [("w1", (4, 9)), ("w2", (4, 5)), ("w3", (3, 12)), ("w4", (5, 4)), ("entities", (16, 4)),
         ("relations", (2, 5)), ("w1", (8,))],
    )
    def test_arrays_that_disagree_are_rejected(self, name, shape):
        with pytest.raises(ValueError):
            replace(self.checkpoint(), **{name: np.zeros(shape, dtype=np.float32)})

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        checkpoint = self.checkpoint()
        checkpoint.version = 99
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.checkpoint(), path)
        blob = path.read_bytes()
        for cut in range(len(blob)):  # every prefix, as written: too short, or its checksum fails
            path.write_bytes(blob[:cut])
            message = "checkpoint file is truncated" if cut < 16 else "checkpoint checksum mismatch"
            with pytest.raises(CheckpointCorruptError, match=f"^{message}$"):
                load_checkpoint(path)

    def test_round_trip_with_no_entities_or_relations(self, tmp_path):
        checkpoint = replace(
            self.checkpoint(),
            entities=np.zeros((0, 4), dtype=np.float32),
            relations=np.zeros((0, 4), dtype=np.float32),
            entity_names=(),
            relation_names=(),
        )
        assert checkpoint.sizes[3:] == (0, 0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint

    def test_name_table_truncated_at_every_byte_of_first_and_last_name(self, tmp_path):
        checkpoint = self.checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        payload = path.read_bytes()[:-8]
        names = checkpoint.entity_names + checkpoint.relation_names
        first = len(payload) - sum(4 + len(name.encode("utf-8")) for name in names)
        # every cut from the sizes on, through the arrays and both name tables
        for cut in range(8, len(payload)):  # re-checksummed, so the reader parses the payload
            path.write_bytes(payload[:cut] + training._checksum(payload[:cut]))
            with pytest.raises(CheckpointCorruptError, match="^checkpoint file is truncated$"):
                load_checkpoint(path)
        oversized = payload[:first] + struct.pack("<I", 2**32 - 1) + payload[first + 4 :]
        path.write_bytes(oversized + training._checksum(oversized))
        with pytest.raises(CheckpointCorruptError, match="^checkpoint file is truncated$"):
            load_checkpoint(path)

    def test_invalid_utf8_name_is_corrupt(self, tmp_path):
        checkpoint = self.checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, path)
        payload = bytearray(path.read_bytes()[:-8])
        last = checkpoint.relation_names[-1].encode("utf-8")
        payload[-len(last)] = 0xFF
        path.write_bytes(bytes(payload) + training._checksum(bytes(payload)))
        with pytest.raises(CheckpointCorruptError, match="^checkpoint file is corrupt: a name is not valid UTF-8$"):
            load_checkpoint(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_edited_payload_loads_or_raises_a_checkpoint_error(self, tmp_path_factory, data):
        checkpoint = self.checkpoint()
        path = tmp_path_factory.getbasetemp() / "edited.ckpt"
        save_checkpoint(checkpoint, path)
        payload = path.read_bytes()[:-8]
        names = checkpoint.entity_names + checkpoint.relation_names
        first_name = len(payload) - sum(4 + len(name.encode("utf-8")) for name in names)
        if data.draw(st.booleans(), label="cut"):
            edited = payload[: data.draw(st.integers(0, len(payload)), label="length")]
        else:  # any byte, with the header and the name tables drawn more often
            at = data.draw(
                st.one_of(st.integers(0, len(payload) - 1), st.integers(0, 27), st.integers(first_name, len(payload) - 1)),
                label="at",
            )
            edited = payload[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + payload[at + 1 :]
        path.write_bytes(edited + training._checksum(edited))  # re-checksummed, so the payload parser runs
        try:
            assert isinstance(load_checkpoint(path), Checkpoint)
        except CheckpointError:
            pass

    def test_flipped_payload_byte_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)
