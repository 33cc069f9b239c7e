"""Shared builders and fixtures for the suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from tpshift.graph_core import BasePath, Mode, TemporalKPathGraph

# In CI a failing property also prints the blob that replays it with @reproduce_failure.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def path(pid: int, verts, labels) -> BasePath:
    if isinstance(verts, str):
        verts = verts.split()
    return BasePath(pid, tuple(verts), tuple(labels))


def graph_of(*paths: BasePath, source: str = "s", source_path_id: int = 0):
    return TemporalKPathGraph(len(paths), tuple(paths), source, source_path_id)


@pytest.fixture
def i1() -> TemporalKPathGraph:
    """Two paths crossing at one vertex; a single unit shift unlocks the hop."""
    return graph_of(path(0, "s a b", (1, 2)), path(1, "x a y", (0, 1)))


MODES = (Mode.DELAY, Mode.ADVANCE, Mode.SHIFT)


def solver_matrix(i: int) -> dict:
    """Deterministic parameter mix for the randomized agreement suites."""
    k = 2 if i % 5 < 4 else 3
    return {
        "seed": 1000 + i,
        "k": k,
        "n_per_path": 3 if k == 3 else 3 + (i % 2),
        "lifetime": 8 + (i % 5),
        "share_prob": 0.3 + 0.2 * ((i // 3) % 3),
        "mode": MODES[i % 3],
        "b": i % 4,
    }
