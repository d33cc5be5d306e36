"""The benchmark's tracer wraps functions by name; a rename in ``src/`` must
fail here, in tier 1, and not only in the slow traced benchmark run."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import graphwalk  # noqa: E402
import graphwalk.cli  # noqa: E402,F401  (loads every layer module)
import spans  # noqa: E402

# every (owner, name) pair the tracer replaces while it is installed
PATCHES = 60


def test_every_traced_name_is_patched_and_restored():
    inst = spans.Instrumentation(graphwalk, spans.Recorder())
    saved = []
    try:
        inst.install()
        saved = list(inst._saved)
        patched = [owner.__dict__[attr] is not original for owner, attr, original in saved]
    finally:
        inst.remove()
    assert len(saved) == PATCHES
    assert all(patched)
    assert all(owner.__dict__[attr] is original for owner, attr, original in saved)
