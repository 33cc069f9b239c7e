"""Workloads: seeded instance pools and the solve+verify round trips run on them.

A workload is a pool of units. A unit is one instance and the fixed list of
CLI solves made on it, each followed by a CLI verify.
Every instance comes from ``tpshift.instances.gen_random``; the program only
sees the ``.kpg`` files written here. Instance seeds are ``seed * 1_000_003 +
i``, so different benchmark seeds give disjoint pools.

Why each workload exists, and the ROADMAP item it serves, is in
``perfbench/README.md`` and in each class docstring.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Any

from tpshift import cli
from tpshift.graph_core import write_instance
from tpshift.instances import gen_random

Value = tuple[int, int]  # (len(reached), cost)


def instance_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


class RoundTrips:
    """Runs CLI round trips, times the solves and counts every failure."""

    def __init__(self, workdir: Path, expected: list[dict[str, Value]] | None) -> None:
        self.workdir = workdir
        self.expected = expected
        # Timed samples per distinct round trip (unit, label): the solve alone,
        # and solve plus verify.
        self.solve_s: dict[tuple[int, str], list[float]] = {}
        self.roundtrip_s: dict[tuple[int, str], list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.values: dict[int, dict[str, Value]] = {}
        self.timed = True

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{where}: {why}")

    def run(self, unit: int, label: str, inst: Path, args: list[str]) -> dict[str, Any] | None:
        """One solve then one verify; the solution document, or None if it failed."""
        self.attempted += 1
        where = f"unit {unit} {label}"
        doc = self.workdir / "solution.json"
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter()
                try:
                    code = cli.main(["solve", str(inst), *args, "--output", str(doc)])
                finally:
                    t1 = perf_counter()
                    if self.timed:
                        self.solve_s.setdefault((unit, label), []).append(t1 - t0)
                if code != 0:
                    self.fail(where, f"solve exit {code}: {err.getvalue().strip()}")
                    return None
                vcode = cli.main(["verify", str(inst), str(doc)])
                if self.timed:
                    self.roundtrip_s.setdefault((unit, label), []).append(perf_counter() - t0)
            result = json.loads(doc.read_text())
            value = (len(result["reached"]), result["cost"])
        except Exception as exc:  # a traceback in the program is a failed round trip
            self.fail(where, f"{type(exc).__name__}: {exc}")
            return None
        failures = [ln for ln in out.getvalue().splitlines() if ln.startswith("FAIL")]
        if vcode != 0 or failures:
            self.fail(where, f"verify exit {vcode}: {failures}")
            return None
        self.values.setdefault(unit, {})[label] = value
        pinned = self.expected[unit].get(label) if self.expected and unit < len(self.expected) else None
        if pinned is not None and tuple(pinned) != value:
            self.fail(where, f"got (reach, cost) {value}, pinned {tuple(pinned)}")
            return None
        return result

    def skipped(self, unit: int, label: str) -> None:
        """A round trip that cannot run because the one it depends on failed."""
        self.attempted += 1
        self.fail(f"unit {unit} {label}", "prerequisite round trip failed")

    def check(self, unit: int, label: str, ok: bool, why: str) -> None:
        """Cross-check between round trips; a failure is charged to label."""
        if not ok:
            self.fail(f"unit {unit} {label}", why)


def _value(doc: dict[str, Any] | None) -> Value | None:
    return None if doc is None else (len(doc["reached"]), doc["cost"])


def _write(workdir: Path, name: str, graph) -> Path:
    path = workdir / name
    path.write_text(write_instance(graph))
    return path


class Workload:
    name = ""
    pool_size = 0  # units generated in set-up; the timed loop cycles through them
    trace_units = 0  # units in one traced pass
    family: tuple[int, int, int, float] = (0, 0, 0, 0.0)  # gen_random's k, n, lifetime, share_prob

    def make_units(self, seed: int, workdir: Path) -> list[Path]:
        return [
            _write(workdir, f"u{i}.kpg", gen_random(*self.family, instance_seed(seed, i)))
            for i in range(self.pool_size)
        ]

    def run_unit(self, rt: RoundTrips, i: int, inst: Path) -> None:
        raise NotImplementedError


class XpkFpt(Workload):
    """xp-k and fixed-spt at budget 4, then fpt-delay at b=6 and fpt-general at b=2.

    All six solves run on the same k=4 path instance. The xp-k and fixed-spt
    solves price each SVS with a small integer program of narrow domains, so
    ilp_mini dominates them, with switch_structures second; they serve
    ROADMAP items 3 (pruning, fixed-spt enumerating one tree) and 4
    (generating only valid SVSs). The FPT solves use no integer programs:
    their time goes to the solvers' own guess enumeration, placement walks
    and replays; they serve items 3 (work limits) and 4 (one shared walk).
    """

    name = "xpk-fpt"
    pool_size = 100
    trace_units = 16
    family = (4, 8, 24, 0.6)

    def run_unit(self, rt, i, inst):
        shift = rt.run(i, "xp-k/shift/4", inst, ["--algo", "xp-k", "--mode", "shift", "--budget", "4"])
        delay = _value(rt.run(i, "xp-k/delay/4", inst, ["--algo", "xp-k", "--mode", "delay", "--budget", "4"]))
        if shift is not None and delay is not None:
            rt.check(i, "xp-k/delay/4", delay[0] <= _value(shift)[0],
                     "delay-only reach exceeds shift reach")
        if shift is None:
            rt.skipped(i, "fixed-spt/shift/4")
        else:
            tree = ",".join(f"{w['to_path']}:{w['from_path']}" for w in shift["witness_svs"])
            fixed = rt.run(i, "fixed-spt/shift/4", inst,
                           ["--algo", "fixed-spt", "--mode", "shift", "--budget", "4", "--spt", tree])
            if fixed is not None:
                rt.check(i, "fixed-spt/shift/4", _value(fixed) == _value(shift),
                         f"fixed-spt on the xp-k tree gives {_value(fixed)}, xp-k {_value(shift)}")
        delay6 = _value(rt.run(i, "fpt-delay/delay/6", inst,
                               ["--algo", "fpt-delay", "--mode", "delay", "--budget", "6"]))
        if delay6 is not None and delay is not None:
            rt.check(i, "fpt-delay/delay/6", delay6[0] >= delay[0], "delay reach at b=6 below b=4")
        for mode in ("delay", "advance"):
            label = f"fpt-general/{mode}/2"
            got = _value(rt.run(i, label, inst, ["--algo", "fpt-general", "--mode", mode, "--budget", "2"]))
            if mode == "delay" and got is not None and delay is not None:
                rt.check(i, label, got[0] <= delay[0], "delay reach at b=2 exceeds b=4")


def saturated_budget(graph) -> int:
    labels = [t for p in graph.paths for t in p.labels]
    return graph.k * (max(labels) - min(labels) + graph.total_edges())


class XpbSaturated(Workload):
    """xp-b at the saturated budget 10 and at budget 8, then unbounded.

    The acceptance test's generator, gen_random(2, 3, 3, 0.5 + 0.04 i, .),
    keeping the instances whose saturated budget k * (label span + E) is 10:
    then every solve scans the same C(18, 10) = 43,758 or C(16, 8) = 12,870
    unit multisets, so the work per unit does not depend on the seed. The
    budget-8 rung puts the median solve inside an xp-b rung rather than
    between xp-b and unbounded. Time goes to apply_shift, reach_set and the
    multiset loop. Serves ROADMAP item 2.
    """

    name = "xpb-saturated"
    pool_size = 5
    trace_units = 2
    budget = 10
    # Candidates drawn per seed, whatever their budgets, so set-up work does
    # not depend on the seed. About 8% have budget 10, so 1,000 draws leave a
    # wide margin over the pool_size kept.
    draws = 1000

    def make_units(self, seed, workdir):
        graphs = (gen_random(2, 3, 3, 0.5 + 0.04 * (i % 10), instance_seed(seed, i))
                  for i in range(self.draws))
        saturated = [g for g in graphs if saturated_budget(g) == self.budget]
        if not saturated:
            raise RuntimeError(f"no instance with saturated budget {self.budget} for seed {seed}")
        return [_write(workdir, f"u{j}.kpg", g) for j, g in enumerate(saturated[: self.pool_size])]

    def run_unit(self, rt, i, inst):
        xpb = _value(rt.run(i, "xp-b/shift/10", inst, ["--algo", "xp-b", "--mode", "shift", "--budget", "10"]))
        xpb8 = _value(rt.run(i, "xp-b/shift/8", inst, ["--algo", "xp-b", "--mode", "shift", "--budget", "8"]))
        free = _value(rt.run(i, "unbounded", inst, ["--algo", "unbounded"]))
        if xpb is not None and xpb8 is not None:
            rt.check(i, "xp-b/shift/8", xpb8[0] <= xpb[0], "reach fell as the budget grew")
        if xpb is not None and free is not None:
            rt.check(i, "unbounded", xpb[0] == free[0],
                     f"saturated xp-b reaches {xpb[0]}, unbounded {free[0]}")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (XpkFpt(), XpbSaturated())
}
