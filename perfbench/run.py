"""tpshift benchmark: timed CLI solve+verify round trips, and a traced per-layer split.

Closed loop, one process, one client, no threads: each round trip calls
``tpshift.cli.main(["solve", ...])`` in-process, then ``main(["verify", ...])``.
Set-up is repeated in fresh processes (``--setup-only``) for ``setup_s`` only.

    python3 perfbench/run.py                      # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1            # every workload, per-layer metrics,
                                                  # plus the determinism self-check
    python3 perfbench/run.py --workload xpk-fpt --seed 3 --seconds 55 --trace 0

A single-workload run prints human-readable lines, then one JSON object as
its last line. It exits 1 if any round trip failed and 2 if the tpshift
sources are missing. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("xpk-fpt", "xpb-saturated")
SETUP_REPS = 5  # this process's set-up plus SETUP_REPS - 1 in fresh processes
MIN_PASSES = 3  # the timed loop goes over the pool at least this often
DEFAULT_SEED = 0
DEFAULT_SECONDS = 55


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_frac", "_share", "_ratio")):
        return "fraction"
    return "count"


def _set_up(workloads, workload, seed: int, workdir: Path, expected):
    """Generate the pool, write it, and make one warm-up round trip.

    The warm-up is an unbounded solve, cheap on every instance, so set-up
    time does not depend on how hard the seed's first instance is.
    """
    units = workload.make_units(seed, workdir)
    rt = workloads.RoundTrips(workdir, expected)
    rt.timed = False
    rt.run(0, "unbounded", units[0], ["--algo", "unbounded"])
    rt.timed = True
    return units, rt


def _setup_elsewhere(name: str, seed: int) -> float | None:
    """Seconds one fresh process takes to import, set up and warm up; None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    try:
        return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"]) if proc.returncode == 0 else None
    except (IndexError, ValueError, KeyError):
        return None


def run_one(name: str, seed: int, seconds: float, trace: bool, setup_only: bool = False) -> int:
    if not (SRC / "tpshift" / "__init__.py").is_file():
        print(f"error: no tpshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TPSHIFT_LIMIT_STATES", None)  # run with the CLI's default limits
    import workloads  # needs src/ on the path
    workload = workloads.WORKLOADS[name]

    expected = None
    pins_file = HERE / "expected.json"
    if pins_file.is_file():
        expected = json.loads(pins_file.read_text())["pins"].get(name, {}).get(str(seed))

    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch_root))
    try:
        units, rt = _set_up(workloads, workload, seed, workdir, expected)
        setups = [time.perf_counter() - _T_START]
        if setup_only:
            print(json.dumps({"setup_s": setups[0], "failed": rt.failed}))
            return 0 if rt.failed == 0 else 1
        warm_attempted = rt.attempted
        if trace:
            metrics, lines = _traced(workload, rt, units, seconds)
        else:
            # The other set-ups are spread over the timed loop, with the clock
            # stopped, so that their median sees the host's speed over the whole
            # run and not only at its start.
            setup_at = [seconds * j / SETUP_REPS for j in range(1, SETUP_REPS)]
            t0 = time.perf_counter()
            paused, n = 0.0, 0
            while n < MIN_PASSES * len(units) or time.perf_counter() - t0 - paused < seconds:
                if setup_at and time.perf_counter() - t0 - paused >= setup_at[0]:
                    setup_at.pop(0)
                    p0 = time.perf_counter()
                    setups.append(_setup_elsewhere(name, seed))
                    paused += time.perf_counter() - p0
                i = n % len(units)
                workload.run_unit(rt, i, units[i])
                n += 1
            wall = time.perf_counter() - t0 - paused
            setups += [_setup_elsewhere(name, seed) for _ in setup_at]
            if None in setups:
                print("error: a set-up in a fresh process failed", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed_attempted = rt.attempted - warm_attempted
    fail_frac = rt.failed / rt.attempted
    print(f"workload {name} seed {seed} units {len(units)} trace {int(trace)}")
    if not trace and not rt.roundtrip_s:
        print(f"error: no round trip succeeded; {rt.errors[:3]}", file=sys.stderr)
        return 1
    if not trace:
        # Each distinct round trip ran once per pass over the pool; its time is
        # the median over those repeats, so a stretch of the run in which the
        # host was slow moves it only if it covers half the passes.
        solve_ms = sorted(statistics.median(v) * 1000 for v in rt.solve_s.values())
        roundtrip_s = [statistics.median(v) for v in rt.roundtrip_s.values()]
        metrics = {
            "setup_s": statistics.median(setups),
            "roundtrips_per_s": len(roundtrip_s) / sum(roundtrip_s),
            "solve_ms_p50": statistics.median(solve_ms),
            "solve_ms_p90": statistics.quantiles(solve_ms, n=10, method="inclusive")[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = {"setup_s": "s", "roundtrips_per_s": "1/s", "peak_rss_mb": "MB"}
        lines = [(k, v, units_of.get(k, "ms")) for k, v in metrics.items()]
        repeats = [len(v) for v in rt.solve_s.values()]
        lines += [
            ("setup_s_this_process", setups[0],
             "s; others " + " ".join(f"{t:.4f}" for t in setups[1:])),
            ("solve_ms_gmean", statistics.geometric_mean(solve_ms), f"ms (n={len(solve_ms)} solves)"),
            ("solve_ms_max", solve_ms[-1], f"ms (n={len(solve_ms)} solves)"),
            ("fail_frac", fail_frac, f"({rt.failed} of {rt.attempted} round trips)"),
            ("timed_s", wall, f"s ({timed_attempted} timed round trips, "
                              f"{min(repeats)}-{max(repeats)} repeats each)"),
            ("roundtrips_per_s_wall", timed_attempted / wall, "1/s (timed round trips / timed_s)"),
        ]
    for key, value, unit in lines:
        print(f"  {key:48s} {_fmt(value):>12s} {unit}")
    for err in rt.errors:
        print(f"  FAILED {err}")
    unit_of = {key: unit for key, _, unit in lines}
    result = {
        "correct": rt.failed == 0,
        "attempted": rt.attempted,
        "failed": rt.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if rt.failed == 0 else 1


def _traced(workload, rt, units, seconds: float):
    """Traced passes over a fixed prefix of the pool, then one untraced pass for the overhead."""
    prefix = units[: workload.trace_units]
    tracer = spans.Tracer()
    passes, walls = [], []
    tracer.install()
    try:
        t0 = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            for i, unit in enumerate(prefix):
                workload.run_unit(rt, i, unit)
            walls.append(time.perf_counter() - p0)
            passes.append(tracer.reduce())
            tracer.reset()
            if time.perf_counter() - t0 >= seconds:
                break
    finally:
        tracer.uninstall()
    p0 = time.perf_counter()
    for i, unit in enumerate(prefix):
        workload.run_unit(rt, i, unit)
    plain = time.perf_counter() - p0
    metrics = spans.per_layer_metrics(passes, statistics.median(walls) / plain - 1)
    shares = {k.split(".")[1]: v for k, v in metrics.items() if k.endswith(".self_share")}
    top = max(shares, key=shares.get)
    lines = [(k, v, _unit_of(k)) for k, v in metrics.items()]
    lines.append(("dominant_layer", shares[top], f"fraction of self time: {top}"))
    lines.append(("traced_passes", len(passes), f"count ({len(prefix)} units each)"))
    return metrics, lines


def _child(name: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str], dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            pass
    if proc.stderr.strip():
        lines.append(proc.stderr.rstrip())
    return proc.returncode, lines, result


def run_all(seed: int, seconds: float, trace: int, save: str | None) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    status, saved = 0, {}
    for name in WORKLOAD_NAMES:
        code, lines, result = _child(name, seed, seconds, trace)
        print("\n".join(lines))
        status = status or code or (result is None)
        saved[name] = result
        if trace and result is not None:
            _, _, again = _child(name, seed, 1, trace)
            first = spans.count_metrics({k: m["value"] for k, m in result["metrics"].items()})
            second = spans.count_metrics({k: m["value"] for k, m in (again or {"metrics": {}})["metrics"].items()})
            differ = sorted(k for k in first if first[k] != second.get(k))
            if differ:
                status = 1
                print(f"  DETERMINISM FAILED on {name}: {differ}")
            else:
                print(f"  determinism: {len(first)} count metrics repeat exactly in a second traced run")
    if save:
        Path(save).write_text(json.dumps({"seed": seed, "seconds": seconds, "trace": trace,
                                          "results": saved}, indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="with --workload all: write the results here as JSON")
    parser.add_argument("--setup-only", action="store_true",
                        help="with one --workload: set up, print the set-up time as JSON and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.save)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only)


if __name__ == "__main__":
    sys.exit(main())
