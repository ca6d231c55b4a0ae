"""The benchmark's layer hooks still name program attributes.

``perfbench/layers.py`` wraps the program by patching the targets in its
``SPANS`` and ``COUNTS`` tables, and a target that no longer exists shows
up only as a missing metric of a full benchmark run. This installs the
same tables on a throwaway tracer, so a renamed or deleted boundary fails
here at once. Every target resolves: training, evaluation and the CLI all
call the chunk kernels by the names ``diffuse`` and ``score_candidates``.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_hook_target_resolves():
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing_targets == []
