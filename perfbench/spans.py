"""Per-layer tracing for the benchmark, installed from outside the program.

Each traced function is replaced by a wrapper on every ``tpshift`` module
attribute that is bound to it, so a name imported with ``from .x import f``
is patched in the importing module too. A call is one span; a generator is
one span per ``next()``. Spans are kept in memory as flat arrays and reduced
to per-name totals and self times (span length minus the time its direct
children cover) when a pass ends.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

MODULES = (
    "cli",
    "graph_core",
    "ilp_mini",
    "instances",
    "solver_budgeted",
    "solver_unbounded",
    "switch_structures",
)

# (module, function) pairs to wrap; generators are timed per next().
FUNCTIONS = (
    ("cli", "main"),
    ("cli", "cmd_solve"),
    ("cli", "cmd_verify"),
    ("graph_core", "parse_instance"),
    ("graph_core", "validate"),
    ("graph_core", "normalize_source"),
    ("graph_core", "apply_sequence"),
    ("graph_core", "apply_shift"),
    ("graph_core", "reach_set"),
    ("switch_structures", "is_valid_svs"),
    ("switch_structures", "suffix_union"),
    ("switch_structures", "is_temporal_switch"),
    ("ilp_mini", "solve_min"),
    ("solver_budgeted", "min_cost_for_svs"),
    ("solver_budgeted", "solve_xp_by_b"),
    ("solver_budgeted", "solve_xp_by_k"),
    ("solver_budgeted", "solve_fixed_spt"),
    ("solver_budgeted", "solve_fpt_delay"),
    ("solver_budgeted", "solve_fpt_general"),
    ("solver_unbounded", "solve_mrpt"),
    ("solver_unbounded", "best_svs_for_spt"),
)
GENERATORS = (
    ("switch_structures", "enumerate_spts"),
    ("switch_structures", "enumerate_svss"),
)
OBSERVED = (
    "switch_structures.is_valid_svs",
    "ilp_mini.solve_min",
    "solver_budgeted.min_cost_for_svs",
)  # functions whose results feed a ratio or maximum
LAYERS = ("cli", "graph_core", "switch_structures", "ilp_mini", "solver_budgeted", "solver_unbounded")


def _ilp_domain(instance: Any) -> int:
    return max((v.hi - v.lo for v in instance.variables), default=0)


class Tracer:
    """Span recorder plus outcome counters for one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._originals: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.domain_max = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def _observe(self, name: str, args: tuple, result: Any) -> None:
        if name == "switch_structures.is_valid_svs":
            self.counts[name + ".true"] += bool(result)
        elif name == "ilp_mini.solve_min":
            self.counts[name + ".feasible"] += result is not None
            self.domain_max = max(self.domain_max, _ilp_domain(args[0]))
        elif name == "solver_budgeted.min_cost_for_svs":
            self.counts[name + ".priced"] += result is not None

    def _wrap_function(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        observed = name in OBSERVED

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observed:
                self._observe(name, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        key = name + ".yielded"

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.counts[key] += 1
                yield item

        return traced

    def install(self) -> None:
        """Replace every traced function on every module that binds it."""
        modules = [importlib.import_module(f"tpshift.{m}") for m in MODULES]
        modules.append(importlib.import_module("tpshift"))
        for group, wrap in ((FUNCTIONS, self._wrap_function), (GENERATORS, self._wrap_generator)):
            for mod_name, attr in group:
                original = getattr(importlib.import_module(f"tpshift.{mod_name}"), attr)
                wrapper = wrap(f"{mod_name}.{attr}", original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._originals.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def reduce(self) -> dict[str, float]:
        """Per-name spans, total ms and self ms of the recorded pass."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            self_s = dur - child[i]
            out[name + ".spans"] += 1
            if self.parent[i] < 0 or self.names[self.name[self.parent[i]]] != name:
                out[name + ".ms"] += dur * 1000  # outermost span of a name only
            out[name + ".self_ms"] += self_s * 1000
            out["layer." + name.split(".", 1)[0] + ".self_ms"] += self_s * 1000
        for key, value in self.counts.items():
            out[key] = value
        out["ilp_mini.solve_min.domain_max"] = self.domain_max
        return out


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(passes: list[dict[str, float]], overhead: float) -> dict[str, float]:
    """The per-layer metric set: counts from the first pass, times as medians over passes."""
    first = passes[0]

    def ms(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in passes)

    def spans(name: str) -> int:
        return int(first.get(name + ".spans", 0))

    out: dict[str, float] = {
        "cli.main.self_ms": ms("cli.main.self_ms"),
        "cli.cmd_solve.self_ms": ms("cli.cmd_solve.self_ms"),
        "cli.cmd_verify.ms": ms("cli.cmd_verify.ms"),
    }
    for fn in ("parse_instance", "validate", "normalize_source"):
        out[f"graph_core.{fn}.ms"] = ms(f"graph_core.{fn}.ms")
    for fn in ("apply_sequence", "apply_shift", "reach_set"):
        out[f"graph_core.{fn}.calls"] = spans(f"graph_core.{fn}")
        out[f"graph_core.{fn}.ms"] = ms(f"graph_core.{fn}.ms")
    ss = "switch_structures"
    out[f"{ss}.enumerate_spts.yielded"] = int(first.get(f"{ss}.enumerate_spts.yielded", 0))
    out[f"{ss}.enumerate_spts.ms"] = ms(f"{ss}.enumerate_spts.ms")
    out[f"{ss}.enumerate_svss.yielded"] = int(first.get(f"{ss}.enumerate_svss.yielded", 0))
    out[f"{ss}.enumerate_svss.self_ms"] = ms(f"{ss}.enumerate_svss.self_ms")
    valid = spans(f"{ss}.is_valid_svs")
    out[f"{ss}.is_valid_svs.calls"] = valid
    out[f"{ss}.is_valid_svs.true_frac"] = _frac(first.get(f"{ss}.is_valid_svs.true", 0), valid)
    out[f"{ss}.suffix_union.calls"] = spans(f"{ss}.suffix_union")
    out[f"{ss}.suffix_union.ms"] = ms(f"{ss}.suffix_union.ms")
    out[f"{ss}.is_temporal_switch.calls"] = spans(f"{ss}.is_temporal_switch")
    ilp = spans("ilp_mini.solve_min")
    out["ilp_mini.solve_min.calls"] = ilp
    out["ilp_mini.solve_min.ms"] = ms("ilp_mini.solve_min.ms")
    out["ilp_mini.solve_min.feasible_frac"] = _frac(first.get("ilp_mini.solve_min.feasible", 0), ilp)
    out["ilp_mini.solve_min.domain_max"] = int(first.get("ilp_mini.solve_min.domain_max", 0))
    sb = "solver_budgeted"
    priced = spans(f"{sb}.min_cost_for_svs")
    out[f"{sb}.min_cost_for_svs.calls"] = priced
    out[f"{sb}.min_cost_for_svs.self_ms"] = ms(f"{sb}.min_cost_for_svs.self_ms")
    out[f"{sb}.min_cost_for_svs.priced_frac"] = _frac(first.get(f"{sb}.min_cost_for_svs.priced", 0), priced)
    for solver in ("solve_xp_by_b", "solve_xp_by_k", "solve_fixed_spt", "solve_fpt_delay", "solve_fpt_general"):
        out[f"{sb}.{solver}.self_ms"] = ms(f"{sb}.{solver}.self_ms")
    out["solver_unbounded.solve_mrpt.ms"] = ms("solver_unbounded.solve_mrpt.ms")
    out["solver_unbounded.best_svs_for_spt.calls"] = spans("solver_unbounded.best_svs_for_spt")
    layer_ms = {layer: ms(f"layer.{layer}.self_ms") for layer in LAYERS}
    total = sum(layer_ms.values())
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = _frac(layer_ms[layer], total)
    out["trace.overhead_ratio"] = overhead
    return out


COUNT_SUFFIXES = (".calls", ".yielded", "_frac", ".domain_max")


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between two runs of one seed."""
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
