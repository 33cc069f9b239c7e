"""Pin the expected answers of every round trip for the default and the held-out seed.

    python3 perfbench/pin.py        # rewrites perfbench/expected.json

For every unit in the pool of seeds 0 (the default) and 1 (held out), this
runs each CLI round trip once and records ``(len(reached), cost)``: values,
not witnesses, so a documented tie-break change keeps the pins valid. Before
writing, it cross-checks the values once against independent solvers:
xp-b on small cases, fpt-delay against xp-k in delay mode, and fpt-general
against xp-k. The timed runs compare every round trip of a pinned seed with
these values and count any difference as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tpshift.graph_core import Mode, normalize_source, parse_instance  # noqa: E402
from tpshift.solver_budgeted import (  # noqa: E402
    solve_fpt_delay,
    solve_xp_by_b,
    solve_xp_by_k,
)
from workloads import WORKLOADS, RoundTrips  # noqa: E402

PIN_SEEDS = (0, 1)

# (workload, units checked, pinned label, budget, reference solver)
CROSS_CHECKS = (
    ("xpk-fpt", 3, "xp-k/delay/4", 4, lambda g, b: solve_xp_by_b(g, "s", b, Mode.DELAY)),
    ("xpk-fpt", 1, "xp-k/shift/4", 4, lambda g, b: solve_xp_by_b(g, "s", b, Mode.SHIFT)),
    ("xpk-fpt", 20, "xp-k/delay/4", 4, lambda g, b: solve_fpt_delay(g, "s", b)),
    ("xpk-fpt", 20, "fpt-delay/delay/6", 6, lambda g, b: solve_xp_by_k(g, "s", b, Mode.DELAY)),
    ("xpk-fpt", 20, "fpt-general/delay/2", 2, lambda g, b: solve_xp_by_k(g, "s", b, Mode.DELAY)),
    ("xpk-fpt", 20, "fpt-general/advance/2", 2, lambda g, b: solve_xp_by_k(g, "s", b, Mode.ADVANCE)),
    ("xpk-fpt", 3, "fpt-general/advance/2", 2, lambda g, b: solve_xp_by_b(g, "s", b, Mode.ADVANCE)),
)


def main() -> int:
    pins: dict[str, dict[str, list]] = {name: {} for name in WORKLOADS}
    agreed: list[str] = []
    problems: list[str] = []
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for seed in PIN_SEEDS:
        for name, workload in WORKLOADS.items():
            workdir = Path(tempfile.mkdtemp(prefix=f"pin-{name}-{seed}-", dir=scratch))
            try:
                units = workload.make_units(seed, workdir)
                rt = RoundTrips(workdir, None)
                for i, unit in enumerate(units):
                    workload.run_unit(rt, i, unit)
                problems += [f"{name} seed {seed}: {e}" for e in rt.errors]
                pins[name][str(seed)] = [rt.values.get(i, {}) for i in range(len(units))]
                print(f"pinned {name} seed {seed}: {rt.attempted} round trips, {rt.failed} failed",
                      flush=True)
                for wname, count, label, budget, solve in CROSS_CHECKS:
                    if wname != name:
                        continue
                    for i in range(count):
                        g = parse_instance(units[i].read_text())
                        sol = solve(normalize_source(g, g.source, budget), budget)
                        got = [len(sol.reached), sol.cost]
                        if list(rt.values[i][label]) != got:
                            problems.append(f"{name} seed {seed} unit {i} {label}: "
                                            f"pinned {rt.values[i][label]}, reference {got}")
                    agreed.append(f"{name} seed {seed}: {label} on {count} units")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems))
        return 1
    doc = {"seeds": list(PIN_SEEDS), "cross_checked": agreed, "pins": pins}
    (HERE / "expected.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print("\n".join(agreed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
