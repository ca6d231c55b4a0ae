"""The benchmark's layer hooks still name program attributes.

``perfbench/layers.py`` wraps the program by patching the targets in its
``SPANS`` and ``COUNTS`` tables, and a target that no longer exists shows
up only as a missing metric of a full benchmark run. This installs the
same tables on a throwaway tracer, so a renamed or deleted boundary fails
here at once.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

# Names that training and evaluation stopped importing when they moved to
# the chunk kernels; their spans have been empty since.
STALE = {
    "kgsr.training.diffuse",
    "kgsr.training.score_candidates",
    "kgsr.evaluation.diffuse",
    "kgsr.evaluation.score_candidates",
}


def test_every_hook_target_resolves_except_the_stale_ones():
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.uninstall()
    assert sorted(tracer.missing_targets) == sorted(STALE)
