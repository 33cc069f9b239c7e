"""Every solver's full answer, pinned on a small fixed instance set.

The budgeted solvers and solve_mrpt must return exactly the ops, cost,
reach and witness recorded in golden_witnesses.json, so refactors of the
shared walks and search loops are checked for identical witnesses and
tie-breaks rather than only for equal reach.

Regenerate the file (only when an answer is meant to change) with:

    PYTHONPATH=src python tests/test_golden_witnesses.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tpshift.graph_core import Mode
from tpshift.instances import gen_random
from tpshift.solver_budgeted import (
    solve_fixed_spt,
    solve_fpt_delay,
    solve_fpt_general,
    solve_xp_by_b,
    solve_xp_by_k,
)
from tpshift.solver_unbounded import solve_mrpt
from tpshift.switch_structures import enumerate_spts

GOLDEN = Path(__file__).with_name("golden_witnesses.json")
MODES = (Mode.DELAY, Mode.ADVANCE, Mode.SHIFT)
INSTANCES = 24


def _instance(i: int):
    k = 2 + i % 3
    return gen_random(k, 3 + i % 2, 8 + i % 3, 0.6 + 0.1 * (i % 3), seed=500 + i)


def _plain(sol) -> dict:
    witness = None
    if sol.witness_svs is not None:
        witness = sorted(
            [sw.vertex, sw.from_path, sw.to_path] for sw in sol.witness_svs.switches
        )
    return {
        "ops": [[op.path_id, op.edge_index, op.delta] for op in sol.ops],
        "cost": sol.cost,
        "reached": sorted(sol.reached),
        "witness": witness,
    }


def _answers(i: int) -> dict[str, dict]:
    g = _instance(i)
    s = g.source
    out: dict[str, dict] = {}
    temp = solve_mrpt(g.paths, s)
    out["mrpt"] = {
        "labels": [list(block) for block in temp.labels],
        "reached": sorted(temp.reached),
        "spt": [list(edge) for edge in temp.spt.parents],
        "witness": sorted([sw.vertex, sw.from_path, sw.to_path] for sw in temp.svs.switches),
    }
    trees = list(enumerate_spts(g.k, include_partial=True))
    for m, mode in enumerate(MODES):
        b = (i + m) % 4
        tag = f"{mode.value}/b{b}"
        out[f"xp-b/{tag}"] = _plain(solve_xp_by_b(g, s, b, mode))
        out[f"xp-k/{tag}"] = _plain(solve_xp_by_k(g, s, b, mode))
        out[f"fpt-general/{tag}"] = _plain(solve_fpt_general(g, s, b, mode))
        if mode is Mode.DELAY:
            out[f"fpt-delay/{tag}"] = _plain(solve_fpt_delay(g, s, b))
        for spt in trees:
            sol = solve_fixed_spt(g, s, b, mode, spt)
            unrealized = spt.parents and not sol.witness_svs.switches
            out[f"fixed-spt {spt.parents}/{tag}"] = None if unrealized else _plain(sol)
    return out


def _all_answers() -> dict[str, dict[str, dict]]:
    return {str(i): _answers(i) for i in range(INSTANCES)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("i", range(INSTANCES))
def test_answers_match_the_recorded_ones(golden, i):
    assert _answers(i) == golden[str(i)]


if __name__ == "__main__":
    blocks = []
    for i, cases in _all_answers().items():
        rows = ",\n".join(
            f"  {json.dumps(case)}: {json.dumps(answer)}" for case, answer in sorted(cases.items())
        )
        blocks.append(f"{json.dumps(i)}: {{\n{rows}\n}}")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")  # one line per case
