"""Command line front end.

Subcommands: solve (run a solver, emit a JSON solution document), verify
(replay a document against its instance), gen (instance generators), enum
(count switch-path trees or switch vertex sets).

Exit codes: 0 success, 1 failed verification, 2 usage or parse problems,
3 invalid instance, 4 resource limit hit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from .graph_core import (
    AddressingError,
    InvalidInstanceError,
    Mode,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ShiftOperation,
    TemporalKPathGraph,
    apply_sequence,
    normalize_source,
    parse_instance,
    reach_set,
    shift_labels,
    validate,
    write_instance,
)
from .instances import gen_mcis_delay_gadget, gen_random, parse_mcis
from .solver_budgeted import (
    DEFAULT_STATE_LIMIT,
    DEFAULT_SVS_LIMIT,
    BudgetedSolution,
    solve_fixed_spt,
    solve_fpt_delay,
    solve_fpt_general,
    solve_xp_by_b,
    solve_xp_by_k,
)
from .solver_unbounded import solve_mrpt
from .switch_structures import (
    Switch,
    SwitchPathTree,
    SwitchVertexSet,
    enumerate_spts,
    enumerate_svss,
    is_temporal_switch,
    is_valid_svs,
    make_svs,
    suffix_union,
)

DOC_FORMAT = "tpshift-solution v1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_LIMIT = 4

ALGOS = ("unbounded", "xp-b", "xp-k", "fpt-delay", "fpt-general", "fixed-spt")

# sha256 from the built-in module, as the standard library's random module
# takes sha512: importing hashlib loads OpenSSL, 3.7 MB of RSS on Python 3.11.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def _decode(data: bytes, what: str) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text: {exc}") from None


def _sha256_hex(data: bytes) -> str:
    """The hex SHA-256 digest of data, as hashlib.sha256 gives it."""
    return _sha256(data).hexdigest()


def _load_instance(path: str) -> tuple[TemporalKPathGraph, str]:
    """The instance in the file, parsed and validated, and the file's SHA-256."""
    data = Path(path).read_bytes()
    graph = parse_instance(_decode(data, "instance"))
    problems = validate(graph)
    if problems:
        raise InvalidInstanceError("; ".join(problems))
    return graph, _sha256_hex(data)


def _state_limit(limit: int | None) -> int | None:
    """limit (--limit-states), else TPSHIFT_LIMIT_STATES, else None; never negative."""
    if limit is None:
        env = os.environ.get("TPSHIFT_LIMIT_STATES")
        if env is None:
            return None
        try:
            limit = int(env)
        except ValueError:
            raise ParameterError(f"TPSHIFT_LIMIT_STATES={env!r} is not an integer") from None
    if limit < 0:
        raise ParameterError(f"state limit must be >= 0, got {limit}")
    return limit


def _emit(text: str, output: str | None) -> None:
    """Write text to the --output file as UTF-8, or to stdout without one.

    The file is overwritten in place and then cut to the new length, not
    truncated first: on ext4, a file truncated to length 0 has its blocks
    allocated and its writeback started when it is closed (auto_da_alloc),
    which costs more than the write. A target that is not a regular file
    (/dev/null, a FIFO) is not cut, as ftruncate fails on it. Symlinks are
    followed. Nothing is synced to disk.
    """
    if not output:
        sys.stdout.write(text)
        return
    data = text.encode()
    fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _parse_spt_flag(text: str) -> SwitchPathTree:
    """The tree "child:parent,..." names; a lone "-" (as _spt_text writes it) or
    nothing is the root-only tree."""
    parents: dict[int, int] = {}
    if text.strip() == "-":
        return SwitchPathTree(())
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        child_s, _, parent_s = part.partition(":")
        try:
            child, parent = int(child_s), int(parent_s)
        except ValueError:
            raise ParameterError(f"--spt entry {part!r} is not child:parent") from None
        if child in parents:
            raise ParameterError(f"--spt gives path {child} two parents")
        parents[child] = parent
    return SwitchPathTree(tuple(parents.items()))


def _spt_text(spt: SwitchPathTree) -> str:
    return ",".join(f"{c}:{p}" for c, p in spt.parents) or "-"


def _ordered(svs: SwitchVertexSet) -> list[Switch]:
    """The switches by target path, then source path, then vertex."""
    return sorted(svs.switches, key=lambda sw: (sw.to_path, sw.from_path, sw.vertex))


def _svs_text(svs: SwitchVertexSet) -> str:
    if not svs.switches:
        return "empty"
    return " ".join(f"{sw.vertex}:{sw.from_path}->{sw.to_path}" for sw in _ordered(svs))


def _relabel_ops(
    graph: TemporalKPathGraph, labels: Sequence[Sequence[int]]
) -> tuple[ShiftOperation, ...]:
    """Ops that rewrite every label to the given target, left to right."""
    ops: list[ShiftOperation] = []
    for pid, targets in enumerate(labels):
        cur = graph.paths[pid].labels
        for ei, t in enumerate(targets):
            if cur[ei] != t:
                ops.append(ShiftOperation(pid, ei, t - cur[ei]))
                cur = shift_labels(cur, ei, t - cur[ei])
        assert cur == tuple(targets)
    return tuple(ops)


def _doc(
    sha: str, algo: str, mode: Mode, budget: int | None, sol: BudgetedSolution, started: float
) -> dict[str, Any]:
    """The solution document for sol; wall_time_ms counts from started."""
    witness_json = None
    if sol.witness_svs is not None:
        witness_json = [
            {"vertex": sw.vertex, "from_path": sw.from_path, "to_path": sw.to_path}
            for sw in _ordered(sol.witness_svs)
        ]
    return {
        "format": DOC_FORMAT,
        "instance_sha256": sha,
        "algo": algo,
        "mode": mode.value,
        "budget": budget,
        "ops": [
            {"path": op.path_id, "edge_index": op.edge_index, "delta": op.delta}
            for op in sol.ops
        ],
        "cost": sol.cost,
        "reached": sorted(sol.reached),
        "witness_svs": witness_json,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }


def cmd_solve(args: argparse.Namespace) -> int:
    graph, sha = _load_instance(args.instance)
    started = time.perf_counter()
    limit = _state_limit(args.limit_states)
    state_limit = DEFAULT_STATE_LIMIT if limit is None else limit
    if args.algo == "unbounded":
        g = normalize_source(graph, graph.source, 0)
        temp = solve_mrpt(g.paths, g.source, limit_states=state_limit)
        ops = _relabel_ops(g, temp.labels)
        mode, budget = Mode.SHIFT, None
        sol = BudgetedSolution(ops, sum(op.cost for op in ops), temp.reached, temp.svs)
    else:
        mode, budget = Mode(args.mode), args.budget
        g = normalize_source(graph, graph.source, budget)
        s, b = g.source, budget
        svs_limit = DEFAULT_SVS_LIMIT if limit is None else limit
        if args.algo == "xp-b":
            sol = solve_xp_by_b(g, s, b, mode, limit_states=state_limit)
        elif args.algo == "xp-k":
            sol = solve_xp_by_k(g, s, b, mode, limit_svss=svs_limit)
        elif args.algo == "fpt-delay":
            if mode is not Mode.DELAY:
                raise ParameterError("fpt-delay handles --mode delay only")
            sol = solve_fpt_delay(g, s, b, limit_states=state_limit)
        elif args.algo == "fpt-general":
            sol = solve_fpt_general(g, s, b, mode, limit_states=state_limit)
        else:
            if args.spt is None:
                raise ParameterError("--algo fixed-spt requires --spt")
            spt = _parse_spt_flag(args.spt)
            sol = solve_fixed_spt(g, s, b, mode, spt, limit_svss=svs_limit)
    doc = _doc(sha, args.algo, mode, budget, sol, started)
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


_FieldTypes = dict[str, tuple[str, Callable[[Any], bool]]]

_INT = ("an integer", _is_int)
_STR = ("a string", _is_str)
_DOC_FIELD_TYPES: _FieldTypes = {
    "instance_sha256": _STR,
    "algo": _STR,
    "mode": _STR,
    "budget": ("an integer or null", lambda v: v is None or _is_int(v)),
    "cost": _INT,
    "reached": ("a list of strings", lambda v: isinstance(v, list) and all(map(_is_str, v))),
}
_OP_FIELD_TYPES: _FieldTypes = {"path": _INT, "edge_index": _INT, "delta": _INT}
_SWITCH_FIELD_TYPES: _FieldTypes = {"vertex": _STR, "from_path": _INT, "to_path": _INT}


def _doc_field(doc: dict[str, Any], key: str) -> Any:
    if key not in doc:
        raise ParseError(f"solution document lacks {key!r}")
    return doc[key]


def _doc_entries(doc: dict[str, Any], key: str, fields: _FieldTypes) -> list[list[Any]]:
    """The field values, in fields order, of each object in the list doc[key]."""
    entries = doc[key]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError(f"solution document field {key!r} must be a list of objects")
    for entry in entries:
        for name, (kind, has_type) in fields.items():
            if not has_type(entry.get(name)):
                raise ParseError(f"each entry of {key!r} needs {name!r} as {kind}")
    return [[entry[name] for name in fields] for entry in entries]


def cmd_verify(args: argparse.Namespace) -> int:
    graph, sha = _load_instance(args.instance)
    try:
        doc = json.loads(Path(args.solution).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes that are not text, deep nesting
        raise ParseError(f"solution document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != DOC_FORMAT:
        raise ParseError(f"solution document must declare format {DOC_FORMAT!r}")
    for key in ("instance_sha256", "algo", "mode", "budget", "ops", "cost", "reached"):
        _doc_field(doc, key)
    for key, (kind, has_type) in _DOC_FIELD_TYPES.items():
        if not has_type(doc[key]):
            raise ParseError(f"solution document field {key!r} must be {kind}")
    try:
        mode = Mode(doc["mode"])
    except ValueError:
        raise ParseError(f"unknown mode {doc['mode']!r}") from None
    ops = tuple(ShiftOperation(*op) for op in _doc_entries(doc, "ops", _OP_FIELD_TYPES))
    cost = sum(op.cost for op in ops)
    try:
        str(cost)  # each delta is within the integer digit limit, but a sum may pass it
    except ValueError:
        raise ParseError("solution document ops cost past the integer digit limit") from None
    witness = None
    if doc.get("witness_svs") is not None:
        witness = make_svs(
            Switch(*sw) for sw in _doc_entries(doc, "witness_svs", _SWITCH_FIELD_TYPES)
        )

    failures = 0

    def report(name: str, good: bool, detail: str = "") -> None:
        nonlocal failures
        if good:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}" + (f": {detail}" if detail else ""))

    report(
        "instance-hash",
        doc["instance_sha256"] == sha,
        f"document says {doc['instance_sha256']}, file is {sha}",
    )
    report("cost-consistent", doc["cost"] == cost, f"ops cost {cost}, document says {doc['cost']}")
    budget = doc["budget"]
    report(
        "within-budget",
        budget is None or cost <= budget,
        f"cost {cost} exceeds budget {budget}",
    )
    report("mode-respected", all(mode.allows(op.delta) for op in ops))

    g = normalize_source(graph, graph.source, budget if budget is not None else 0)
    try:
        replayed, _ = apply_sequence(g, ops)
    except AddressingError as exc:
        report("reached-correct", False, f"ops do not address this instance: {exc}")
        return EXIT_FAIL

    if witness is not None:
        valid = is_valid_svs(replayed, witness)
        report("witness-valid", valid)
        temporal = valid and all(
            is_temporal_switch(replayed, sw) for sw in witness.switches
        )
        report("witness-temporal", temporal)
    else:
        valid = temporal = False

    claimed = set(doc["reached"])
    if doc["algo"] == "fixed-spt":
        expected = (
            suffix_union(replayed, witness, g.source)
            if witness is not None and valid and temporal
            else None
        )
        report(
            "reached-correct",
            expected is not None and claimed == expected,
            "claimed set is not the witness suffix union",
        )
    else:
        expected = reach_set(replayed, g.source)
        report(
            "reached-correct",
            claimed == expected,
            f"replay reaches {len(expected)} vertices, document says {len(claimed)}",
        )
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_gen_random(args: argparse.Namespace) -> int:
    graph = gen_random(args.k, args.n, args.lifetime, args.share_prob, args.seed)
    _emit(write_instance(graph), args.output)
    return EXIT_OK


def cmd_gen_mcis(args: argparse.Namespace) -> int:
    mcis = parse_mcis(_decode(Path(args.mcis_file).read_bytes(), "MCIS file"))
    gadget = gen_mcis_delay_gadget(mcis, args.omega)
    _emit(write_instance(gadget.graph), args.output)
    print(f"budget {gadget.budget}", file=sys.stderr)
    return EXIT_OK


def _spt_count(k: int, partial: bool, limit: int) -> int:
    """How many trees enum spt yields, counted up front; past limit, a
    ResourceLimitError, raised before any count grows much past limit.

    At a fixed root, the trees spanning it and m other paths number
    (m + 1)^(m - 1) (Cayley's formula), one for m = 0. enum spt yields those
    with m = k - 1, and with --partial those of every m, over C(k - 1, m)
    choices of the other paths.
    """
    total = 0
    for m in range(0 if partial else k - 1, k):
        term = math.comb(k - 1, m)
        for _ in range(m - 1):
            if term > limit:
                break
            term *= m + 1
        total += term
        if total > limit:
            raise ResourceLimitError(
                f"more than {limit} switch-path trees; raise TPSHIFT_LIMIT_STATES"
            )
    return total


def cmd_enum(args: argparse.Namespace) -> int:
    """Print each tree or switch set with --list, then how many there are.

    Trees are counted up front against TPSHIFT_LIMIT_STATES, else
    DEFAULT_STATE_LIMIT (_spt_count), so a large k exits 4 at once. Switch
    sets are those of the source-normalized instance, the graph that solve
    searches and its witnesses name."""
    if args.what == "spt":
        if args.k < 1:
            raise ParameterError(f"need k >= 1, got {args.k}")
        limit = _state_limit(None)
        _spt_count(args.k, args.partial, DEFAULT_STATE_LIMIT if limit is None else limit)
        items, text = enumerate_spts(args.k, include_partial=args.partial), _spt_text
    else:
        graph = _load_instance(args.instance)[0]
        items, text = enumerate_svss(normalize_source(graph, graph.source)), _svs_text
    count = 0
    for count, item in enumerate(items, 1):
        if args.list:
            print(text(item))
    print(count)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpshift",
        description="Reachability maximization on temporal k-path graphs "
        "under budgeted label shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run a solver on an instance file")
    sp.add_argument("instance")
    sp.add_argument("--algo", required=True, choices=ALGOS)
    sp.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default=Mode.SHIFT.value,
        help="allowed shift directions (default: shift)",
    )
    sp.add_argument("--budget", type=int, default=0, help="total |delta| allowed")
    sp.add_argument("--seed", type=int, default=0, help="reserved; solvers are deterministic")
    sp.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; runs sequentially"
    )
    sp.add_argument(
        "--limit-states",
        type=int,
        default=None,
        help="cap on switch sets or guesses tried, on unbounded's trees grown, or on"
        " xp-b's net shift vectors (counted up front); also honored via"
        " TPSHIFT_LIMIT_STATES",
    )
    sp.add_argument("--spt", default=None, help='fixed-spt tree, e.g. "1:0,2:1"')
    sp.add_argument("--output", default=None, help="write the JSON document here")
    sp.set_defaults(func="cmd_solve")

    vp = sub.add_parser("verify", help="replay a solution document")
    vp.add_argument("instance")
    vp.add_argument("solution")
    vp.set_defaults(func="cmd_verify")

    gp = sub.add_parser("gen", help="instance generators")
    gsub = gp.add_subparsers(dest="kind", required=True)
    gr = gsub.add_parser("random", help="seeded random normalized instance")
    gr.add_argument("--k", type=int, required=True)
    gr.add_argument("--n", type=int, required=True, help="vertices per path")
    gr.add_argument("--lifetime", type=int, default=12)
    gr.add_argument("--share-prob", type=float, default=0.35)
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--output", default=None)
    gr.set_defaults(func="cmd_gen_random")
    gm = gsub.add_parser("mcis-delay", help="delay-budget gadget from an MCIS file")
    gm.add_argument("mcis_file")
    gm.add_argument("--omega", type=int, default=None)
    gm.add_argument("--output", default=None)
    gm.set_defaults(func="cmd_gen_mcis")

    ep = sub.add_parser("enum", help="enumerate combinatorial objects")
    esub = ep.add_subparsers(dest="what", required=True)
    es = esub.add_parser("spt", help="switch-path trees on k paths")
    es.add_argument("--k", type=int, required=True)
    es.add_argument("--partial", action="store_true", help="include non-spanning trees")
    es.add_argument("--list", action="store_true")
    es.set_defaults(func="cmd_enum")
    ev = esub.add_parser("svs", help="valid switch vertex sets of an instance")
    ev.add_argument("instance")
    ev.add_argument("--list", action="store_true")
    ev.set_defaults(func="cmd_enum")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every main call.

    parse_args leaves the parser as it found it and starts each call from a
    fresh namespace, so one call's values never reach the next. The parser
    holds each subcommand's function by name, looked up when main runs it,
    so a wrapper later put on the module attribute (the benchmark's
    per-layer tracer does this) still sees every call.
    """
    return _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return globals()[args.func](args)
    except (ParseError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
