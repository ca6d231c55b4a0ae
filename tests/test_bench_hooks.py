"""The benchmark's layer hooks still name program attributes.

``perfbench/layers.py`` wraps the program by patching the targets in its
``SPANS`` and ``COUNTS`` tables, and a target that no longer exists shows
up only as a missing metric of a full benchmark run. This installs the
same tables on a throwaway tracer, so a renamed or deleted boundary fails
here at once. Every target resolves: training, evaluation and the CLI all
call the chunk kernels by the names ``diffuse`` and ``score_candidates``.
A tiny in-process ``recommend --user`` and ``explain`` under the installed
hooks checks that the serving boundaries also fire, which a target that
resolves but is no longer called would not show; a tiny ``train`` does the
same for the training boundaries.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from kgsr.cli import main  # noqa: E402
from kgsr.demo import write_planted_dataset  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_hook_target_resolves():
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing_targets == []


def test_recommend_and_explain_fire_the_serving_hooks(tmp_path, capsys):
    files = write_planted_dataset(tmp_path, n_users=12, n_items=6, n_properties=3, seed=1)
    data = ["--triples", str(files["triples"]), "--interactions", str(files["interactions"]), "--n", "10"]
    checkpoint = str(tmp_path / "model.ckpt")
    assert main(["train", *data, "--dim", "8", "--pretrain-epochs", "2", "--epochs", "1", "--out", checkpoint]) == 0
    capsys.readouterr()
    serve = ["--checkpoint", checkpoint, *data, "--user", "user_000"]
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert main(["recommend", *serve]) == 0
        recommend = [span.name for span in tracer.spans]
        item = capsys.readouterr().out.split("\t")[2]
        assert main(["explain", *serve, "--item", item]) == 0
        explain = [span.name for span in tracer.spans[len(recommend):]]
    finally:
        tracer.uninstall()
    for names in (recommend, explain):
        assert "scoring.extract_paths" in names
        assert "scoring.format_path" in names
    assert tracer.counts["graph.neighbors_calls"] > 0


def test_train_fires_the_training_hooks(tmp_path, capsys):
    files = write_planted_dataset(tmp_path, n_users=12, n_items=6, n_properties=3, seed=1)
    train = ["train", "--triples", str(files["triples"]), "--interactions", str(files["interactions"]), "--n", "10",
             "--dim", "8", "--pretrain-epochs", "1", "--epochs", "1", "--out", str(tmp_path / "model.ckpt")]
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert main(train) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span.name for span in tracer.spans}
    for name in ("scoring.user_loss", "training.forward_backward", "diffusion.diffuse",
                 "scoring.score_candidates", "training.adam_step"):
        assert name in names
