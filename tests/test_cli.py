"""End-to-end runs of the command line front end."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import graph_of, path
from oracles import relabel_ops_by_copies
from tpshift import cli
from tpshift.cli import DOC_FORMAT, main
from tpshift.graph_core import (
    ResourceLimitError,
    normalize_source,
    parse_instance,
    validate,
    write_instance,
)
from tpshift.instances import gen_random
from tpshift.solver_unbounded import solve_mrpt
from tpshift.switch_structures import enumerate_spts

I1_TEXT = """\
kpathgraph v1
k 2
source s
path 0 : s -1-> a -2-> b
path 1 : x -0-> a -1-> y
"""


@pytest.fixture
def i1_file(tmp_path):
    f = tmp_path / "i1.kpg"
    f.write_text(I1_TEXT)
    return f


@pytest.fixture
def boarded_file(tmp_path):
    """test_budgeted's boarded_twice: every path holds a, the only vertex
    paths 1 and 2 share."""
    f = tmp_path / "boarded.kpg"
    f.write_text(
        "kpathgraph v1\nk 3\nsource s\n"
        "path 0 : s -1-> a -5-> b\n"
        "path 1 : x -0-> a -3-> c -4-> d\n"
        "path 2 : y -2-> a -6-> e\n"
    )
    return f


def solve_doc(tmp_path, capsys, i1_file, *args):
    rc = main(["solve", str(i1_file), *args])
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


class TestSolve:
    def test_xp_k_document_is_frozen(self, tmp_path, capsys, i1_file):
        doc = solve_doc(
            tmp_path, capsys, i1_file, "--algo", "xp-k", "--mode", "delay",
            "--budget", "1",
        )
        assert doc["format"] == DOC_FORMAT
        assert doc["algo"] == "xp-k" and doc["mode"] == "delay"
        assert doc["budget"] == 1 and doc["cost"] == 1
        assert doc["ops"] == [{"path": 1, "edge_index": 1, "delta": 1}]
        assert doc["reached"] == ["a", "b", "s", "y"]
        assert doc["witness_svs"] == [
            {"vertex": "a", "from_path": 0, "to_path": 1}
        ]
        assert isinstance(doc["wall_time_ms"], int)
        assert len(doc["instance_sha256"]) == 64

    @pytest.mark.parametrize(
        "args",
        [
            ("--algo", "xp-b", "--budget", "1"),
            ("--algo", "xp-k", "--budget", "1"),
            ("--algo", "fpt-delay", "--mode", "delay", "--budget", "1"),
            ("--algo", "fpt-general", "--budget", "1"),
            ("--algo", "fixed-spt", "--spt", "1:0", "--budget", "1"),
            ("--algo", "unbounded"),
        ],
    )
    def test_every_algo_emits_a_document(self, tmp_path, capsys, i1_file, args):
        doc = solve_doc(tmp_path, capsys, i1_file, *args)
        assert doc["format"] == DOC_FORMAT
        assert set(doc["reached"]) >= {"s", "a", "b"}

    def test_unbounded_has_null_budget_and_shift_mode(
        self, tmp_path, capsys, i1_file
    ):
        doc = solve_doc(tmp_path, capsys, i1_file, "--algo", "unbounded")
        assert doc["budget"] is None and doc["mode"] == "shift"
        assert doc["reached"] == ["a", "b", "s", "y"]
        assert doc["cost"] == sum(abs(o["delta"]) for o in doc["ops"])

    def test_output_flag_writes_the_file_quietly(self, tmp_path, capsys, i1_file):
        out = tmp_path / "sol.json"
        rc = main(
            ["solve", str(i1_file), "--algo", "xp-b", "--budget", "1",
             "--output", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0 and captured.out == ""
        assert json.loads(out.read_text())["format"] == DOC_FORMAT

    def test_inert_compat_flags_are_accepted(self, tmp_path, capsys, i1_file):
        doc = solve_doc(
            tmp_path, capsys, i1_file, "--algo", "xp-b", "--budget", "1",
            "--seed", "7", "--threads", "4",
        )
        assert doc["cost"] == 1

    def test_solver_normalizes_a_mid_path_source(self, tmp_path, capsys):
        g = graph_of(path(0, "a m b", (0, 1)), path(1, "m c d", (5, 6)), source="m")
        f = tmp_path / "mid.kpg"
        f.write_text(write_instance(g))
        doc = solve_doc(tmp_path, capsys, f, "--algo", "xp-b", "--budget", "1")
        assert "m" in doc["reached"]

    def test_fixed_spt_names_the_appended_source_path(self, tmp_path, capsys):
        # m is path 0's second vertex and heads path 1, so normalize_source
        # appends path 2 for it, and --spt must be rooted at path 2
        g = graph_of(path(0, "a m b", (0, 1)), path(1, "m c d", (5, 6)), source="m")
        f = tmp_path / "mid.kpg"
        f.write_text(write_instance(g))
        args = ["solve", str(f), "--algo", "fixed-spt", "--budget", "1", "--spt"]
        assert main([*args, "1:0"]) == 2
        assert "under the source path (path 2)" in capsys.readouterr().err
        assert main([*args, "2:0"]) == 2
        assert "none to the root (path 2)" in capsys.readouterr().err
        assert main([*args, "0:2"]) == 0
        assert json.loads(capsys.readouterr().out)["witness_svs"]

    def test_usage_errors(self, tmp_path, capsys, i1_file):
        assert main(["solve", str(i1_file), "--algo", "nope"]) == 2
        assert main(["solve", str(i1_file), "--algo", "fixed-spt", "--budget", "1"]) == 2
        assert (
            main(
                ["solve", str(i1_file), "--algo", "fixed-spt", "--budget", "1",
                 "--spt", "bogus"]
            )
            == 2
        )
        assert (
            main(
                ["solve", str(i1_file), "--algo", "fixed-spt", "--budget", "1",
                 "--spt", "1:0,1:0"]
            )
            == 2
        )
        assert (
            main(
                ["solve", str(i1_file), "--algo", "fpt-delay", "--mode", "shift",
                 "--budget", "1"]
            )
            == 2
        )
        # a negative budget is each budgeted solver's own usage error
        for args in ("xp-b", "xp-k", "fpt-delay --mode delay", "fpt-general",
                     "fixed-spt --spt 1:0"):
            argv = ["solve", str(i1_file), "--algo", *args.split(), "--budget", "-1"]
            assert main(argv) == 2, args
            assert "budget must be nonnegative, got -1" in capsys.readouterr().err, args
        assert main(["solve", str(tmp_path / "missing.kpg"), "--algo", "xp-b"]) == 2

    def test_unparseable_instance(self, tmp_path, capsys):
        f = tmp_path / "junk.kpg"
        f.write_text("not an instance\n")
        assert main(["solve", str(f), "--algo", "xp-b"]) == 2

    def test_semantically_invalid_instance(self, tmp_path, capsys):
        f = tmp_path / "bad.kpg"
        f.write_text(
            "kpathgraph v1\nk 1\nsource s\npath 0 : s -5-> a -3-> b\n"
        )
        assert main(["solve", str(f), "--algo", "xp-b"]) == 3

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("source a\npath 0 : a\n", "fewer than two vertices"),
            ("source s\nsourcepath 5\npath 0 : s -1-> b\n", "out of range"),
            ("source s\nsourcepath -1\npath 0 : s -1-> b\n", "out of range"),
        ],
        ids=["one-vertex-path", "sourcepath-5", "sourcepath-minus-1"],
    )
    def test_an_invalid_instance_names_its_fault(self, tmp_path, capsys, lines, message):
        f = tmp_path / "bad.kpg"
        f.write_text("kpathgraph v1\nk 1\n" + lines)
        assert main(["solve", str(f), "--algo", "xp-b"]) == 3
        assert message in capsys.readouterr().err

    def test_state_limit_flag(self, tmp_path, capsys, i1_file):
        rc = main(
            ["solve", str(i1_file), "--algo", "xp-b", "--budget", "2",
             "--limit-states", "5"]
        )
        assert rc == 4
        # xp-k searches tree 1:0 first, the best bound, and its one set
        # reaches that bound; the root-only tree's bound is lower, so it is
        # not searched
        args = ["solve", str(i1_file), "--algo", "xp-k", "--budget", "1"]
        assert main([*args, "--limit-states", "1"]) == 0
        assert main([*args, "--limit-states", "0"]) == 4

    @pytest.mark.parametrize("mode, count", [("shift", 41), ("delay", 15)])
    def test_xp_b_limit_counts_net_vectors(self, tmp_path, capsys, i1_file, mode, count):
        # i1 has 4 edges; at b=2 that is 41 net shift vectors (45 unit
        # multisets) in shift mode and C(4 + 2, 2) = 15 in delay mode. The
        # scan stops after 3 or 4 of them, but the limit counts them all.
        args = ["solve", str(i1_file), "--algo", "xp-b", "--budget", "2", "--mode", mode]
        assert main([*args, "--limit-states", str(count)]) == 0
        assert main([*args, "--limit-states", str(count - 1)]) == 4
        assert f"{count} net shift vectors" in capsys.readouterr().err

    def test_fpt_delay_limit_counts_guesses(self, tmp_path, capsys, i1_file):
        # trees under path 0: the root-only tree and 1:0; at b=2 fpt-delay
        # tries 1:0 first, the best bound, at delay 1: its switch is short by
        # 1, so delay 0 is not tried. Delay 1 reaches the tree's bound, so
        # delay 2 is cut, and the root-only tree, bounded lower, is not
        # searched: 1 of the C(0 + 2, 2) + C(1 + 2, 2) = 4 (tree, delay
        # split) guesses.
        args = ["solve", str(i1_file), "--algo", "fpt-delay", "--mode", "delay", "--budget", "2"]
        assert main([*args, "--limit-states", "1"]) == 0
        assert main([*args, "--limit-states", "0"]) == 4
        assert "more than 0 fpt-delay guesses" in capsys.readouterr().err

    def test_fpt_general_limit_counts_guesses(self, tmp_path, capsys, boarded_file):
        # fpt-general makes 2 guesses on boarded_twice at b=1 in delay mode:
        # tree 1:0, 2:0 has the best bound, all 6 vertices, and its first
        # guess of both children (no delay on either) reaches it at no cost,
        # so no other tree is searched (18 guesses without skipping)
        args = ["solve", str(boarded_file), "--algo", "fpt-general", "--mode", "delay",
                "--budget", "1"]
        assert main([*args, "--limit-states", "2"]) == 0
        assert main([*args, "--limit-states", "1"]) == 4
        assert "more than 1 fpt-general guesses" in capsys.readouterr().err

    def test_xp_k_limit_counts_the_sets_of_the_trees_searched(
        self, tmp_path, capsys, i1_file, boarded_file
    ):
        # xp-k counts only the sets of the trees it searches. On
        # boarded_twice at b=1 in delay mode it searches tree 1:0, 2:0 first,
        # the best bound, and its set at a reaches all 6 vertices at no cost;
        # every other tree is bounded lower, and 2:1 and 1:2 have no placement
        args = ["solve", str(boarded_file), "--algo", "xp-k", "--mode", "delay", "--budget", "1"]
        assert main([*args, "--limit-states", "1"]) == 0
        assert main([*args, "--limit-states", "0"]) == 4
        assert "more than 0 switch-vertex-sets" in capsys.readouterr().err
        # on i1 at b=0 tree 1:0's one slot is short by 1, more than b, so the
        # tree has no placement and only the root-only tree's empty set is
        # counted
        args = ["solve", str(i1_file), "--algo", "xp-k", "--budget", "0"]
        assert main([*args, "--limit-states", "1"]) == 0
        assert main([*args, "--limit-states", "0"]) == 4

    def test_fixed_spt_limit_counts_only_that_trees_sets(self, tmp_path, capsys):
        # tree 1:0 has two switch sets (at a and at b); the empty set of the
        # root-only tree is not counted against the limit
        f = tmp_path / "two.kpg"
        f.write_text(
            "kpathgraph v1\nk 2\nsource s\n"
            "path 0 : s -1-> a -2-> b -3-> c\n"
            "path 1 : x -0-> a -1-> b -2-> y\n"
        )
        args = ["solve", str(f), "--algo", "fixed-spt", "--spt", "1:0", "--budget", "1"]
        assert main([*args, "--limit-states", "1"]) == 4
        assert main([*args, "--limit-states", "2"]) == 0

    def test_unbounded_limit_counts_the_trees_grown(
        self, tmp_path, capsys, i1_file, monkeypatch
    ):
        # two trees under path 0 place on i1, the root-only tree and 1:0
        args = ["solve", str(i1_file), "--algo", "unbounded"]
        assert main([*args, "--limit-states", "2"]) == 0
        assert main([*args, "--limit-states", "1"]) == 4
        assert "more than 1 switch-path trees" in capsys.readouterr().err
        monkeypatch.setenv("TPSHIFT_LIMIT_STATES", "1")
        assert main(args) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 10**6), st.integers(0, 5))
    def test_unbounded_relabels_as_the_per_op_copies(self, k, n, seed, at):
        # _relabel_ops follows each path's label tuple; the reference replays
        # every op on a copy of the graph before it reads the next label
        g = gen_random(k, n, 12, 0.6, seed)
        g = normalize_source(g, g.paths[0].vertices[at % n], 0)  # maybe mid-path
        temp = solve_mrpt(g.paths, g.source)
        assert cli._relabel_ops(g, temp.labels) == relabel_ops_by_copies(g, temp.labels)

    def test_state_limit_env(self, tmp_path, capsys, i1_file, monkeypatch):
        monkeypatch.setenv("TPSHIFT_LIMIT_STATES", "5")
        assert main(["solve", str(i1_file), "--algo", "xp-b", "--budget", "2"]) == 4
        rc = main(
            ["solve", str(i1_file), "--algo", "xp-b", "--budget", "2",
             "--limit-states", "1000000"]
        )
        assert rc == 0
        monkeypatch.setenv("TPSHIFT_LIMIT_STATES", "abc")
        assert main(["solve", str(i1_file), "--algo", "xp-b", "--budget", "2"]) == 2

    def test_negative_state_limit_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "r.kpg"
        assert main(["gen", "random", "--k", "3", "--n", "4", "--seed", "11",
                     "--output", str(f)]) == 0
        args = ["solve", str(f), "--algo", "xp-b", "--budget", "2"]
        assert main([*args, "--limit-states", "-1"]) == 2
        assert "state limit must be >= 0, got -1" in capsys.readouterr().err
        monkeypatch.setenv("TPSHIFT_LIMIT_STATES", "-1")
        assert main(args) == 2
        assert "state limit must be >= 0, got -1" in capsys.readouterr().err
        # zero is a valid limit that no scan fits under
        assert main([*args, "--limit-states", "0"]) == 4
        monkeypatch.setenv("TPSHIFT_LIMIT_STATES", "0")
        assert main(args) == 4
        assert "above the limit of 0" in capsys.readouterr().err


class TestOutputFile:
    """--output overwrites a file in place and cuts it to the new length."""

    GEN = ["gen", "random", "--k", "3", "--n", "4", "--seed", "11"]

    def test_gen_over_a_longer_file_is_the_stdout_text(self, tmp_path, capsys):
        assert main(self.GEN) == 0
        text = capsys.readouterr().out
        out = tmp_path / "inst.kpg"
        out.write_bytes(b"#" * (3 * len(text)))
        assert main([*self.GEN, "--output", str(out)]) == 0
        assert out.read_bytes() == text.encode()

    def test_solve_over_a_larger_file_is_the_stdout_document(self, tmp_path, capsys, i1_file):
        flags = ["--algo", "xp-k", "--budget", "1"]
        doc = solve_doc(tmp_path, capsys, i1_file, *flags)
        out = tmp_path / "sol.json"
        out.write_bytes(b" " * 5000 + b"{}")
        assert main(["solve", str(i1_file), *flags, "--output", str(out)]) == 0
        written = json.loads(out.read_text())
        del written["wall_time_ms"], doc["wall_time_ms"]
        assert written == doc

    @pytest.mark.parametrize("command", ["solve", "gen"])
    def test_a_device_is_written_without_cutting(self, capsys, i1_file, command):
        argv = {
            "solve": ["solve", str(i1_file), "--algo", "unbounded"],
            "gen": self.GEN,
        }[command]
        assert main([*argv, "--output", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    def test_a_symlink_writes_its_target_and_stays(self, tmp_path, capsys):
        target = tmp_path / "target.kpg"
        target.write_text("old\n" * 500)
        link = tmp_path / "link.kpg"
        link.symlink_to(target)
        assert main(self.GEN) == 0
        text = capsys.readouterr().out
        assert main([*self.GEN, "--output", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == text


class TestParserReuse:
    """main reuses one parser; no call may see another call's values."""

    def test_consecutive_calls_do_not_share_values(self, tmp_path, capsys, i1_file):
        fixed = ["solve", str(i1_file), "--algo", "fixed-spt", "--budget", "1"]
        out = tmp_path / "doc.json"
        assert main([*fixed, "--spt", "1:0", "--output", str(out), "--limit-states", "1"]) == 0
        # --spt, --output and --limit-states fall back to their defaults
        assert main(fixed) == 2
        assert "requires --spt" in capsys.readouterr().err
        doc = solve_doc(tmp_path, capsys, i1_file, "--algo", "xp-b", "--budget", "2")
        assert doc["algo"] == "xp-b" and doc["mode"] == "shift"
        assert main(["verify", str(i1_file), str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", str(i1_file), "--algo", "nope"]) == 2
        assert main(["enum", "spt", "--k", "3"]) == 0
        assert capsys.readouterr().out == "3\n"
        assert main(["solve", str(i1_file), "--algo", "xp-k", "--budget", "1",
                     "--mode", "delay"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "delay"
        assert main(["verify", str(i1_file)]) == 2
        assert main(["enum", "spt", "--k", "3", "--partial"]) == 0
        assert capsys.readouterr().out == "6\n"

    def test_a_wrapper_put_on_a_subcommand_later_sees_its_calls(
        self, capsys, i1_file, monkeypatch
    ):
        # perfbench/spans.py wraps cli.cmd_solve after the parser exists
        assert main(["enum", "spt", "--k", "2"]) == 0
        seen = []
        real = cli.cmd_solve
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.algo) or real(args))
        assert main(["solve", str(i1_file), "--algo", "xp-b"]) == 0
        assert seen == ["xp-b"]


class TestVerify:
    @pytest.mark.parametrize(
        "args",
        [
            ("--algo", "xp-b", "--budget", "2"),
            ("--algo", "xp-k", "--budget", "2"),
            ("--algo", "fpt-delay", "--mode", "delay", "--budget", "2"),
            ("--algo", "fpt-general", "--mode", "advance", "--budget", "2"),
            ("--algo", "fixed-spt", "--spt", "1:0", "--budget", "2"),
            ("--algo", "unbounded"),
        ],
    )
    def test_fresh_documents_verify_clean(self, tmp_path, capsys, i1_file, args):
        sol = tmp_path / "sol.json"
        assert main(["solve", str(i1_file), *args, "--output", str(sol)]) == 0
        rc = main(["verify", str(i1_file), str(sol)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert lines and all(ln.startswith("PASS ") for ln in lines)

    def tampered(self, tmp_path, capsys, i1_file, **changes):
        sol = tmp_path / "sol.json"
        rc = main(
            ["solve", str(i1_file), "--algo", "xp-k", "--budget", "1",
             "--output", str(sol)]
        )
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(sol.read_text())
        doc.update(changes)
        sol.write_text(json.dumps(doc))
        rc = main(["verify", str(i1_file), str(sol)])
        return rc, capsys.readouterr().out

    def test_tampered_cost(self, tmp_path, capsys, i1_file):
        rc, out = self.tampered(tmp_path, capsys, i1_file, cost=0)
        assert rc == 1 and "FAIL cost-consistent" in out

    def test_tampered_budget(self, tmp_path, capsys, i1_file):
        rc, out = self.tampered(tmp_path, capsys, i1_file, cost=1, budget=0)
        assert rc == 1 and "FAIL within-budget" in out

    def test_tampered_hash(self, tmp_path, capsys, i1_file):
        rc, out = self.tampered(tmp_path, capsys, i1_file, instance_sha256="0" * 64)
        assert rc == 1 and "FAIL instance-hash" in out

    def test_tampered_reached(self, tmp_path, capsys, i1_file):
        rc, out = self.tampered(
            tmp_path, capsys, i1_file, reached=["a", "b", "s", "x", "y"]
        )
        assert rc == 1 and "FAIL reached-correct" in out

    def test_tampered_mode(self, tmp_path, capsys, i1_file):
        rc, out = self.tampered(
            tmp_path, capsys, i1_file,
            ops=[{"path": 0, "edge_index": 0, "delta": -1}], mode="delay",
        )
        assert rc == 1 and "FAIL mode-respected" in out

    def test_ops_off_the_instance(self, tmp_path, capsys, i1_file):
        rc, out = self.tampered(
            tmp_path, capsys, i1_file,
            ops=[{"path": 9, "edge_index": 0, "delta": 1}], cost=1,
        )
        assert rc == 1 and "FAIL reached-correct" in out

    def test_tampered_witness(self, tmp_path, capsys, i1_file):
        rc, out = self.tampered(
            tmp_path, capsys, i1_file,
            witness_svs=[{"vertex": "b", "from_path": 0, "to_path": 1}],
        )
        assert rc == 1 and "FAIL witness-valid" in out

    def test_malformed_documents(self, tmp_path, capsys, i1_file):
        sol = tmp_path / "sol.json"
        sol.write_text("{ not json")
        assert main(["verify", str(i1_file), str(sol)]) == 2
        sol.write_bytes(b'{"format": "\xff"}')
        assert main(["verify", str(i1_file), str(sol)]) == 2
        sol.write_text(json.dumps({"format": "something else"}))
        assert main(["verify", str(i1_file), str(sol)]) == 2
        sol.write_text(json.dumps({"format": DOC_FORMAT, "algo": "xp-b"}))
        assert main(["verify", str(i1_file), str(sol)]) == 2
        # an unknown mode is rejected before any check is printed
        rc, out = self.tampered(tmp_path, capsys, i1_file, mode="sideways")
        assert rc == 2 and "PASS" not in out and "FAIL" not in out

    def test_invalid_instance_is_rejected_before_any_check(self, tmp_path, capsys, i1_file):
        sol = tmp_path / "sol.json"
        assert main(["solve", str(i1_file), "--algo", "xp-k", "--output", str(sol)]) == 0
        bad = tmp_path / "bad.kpg"
        bad.write_text("kpathgraph v1\nk 1\nsource s\npath 0 : s -3-> a -1-> b\n")
        capsys.readouterr()
        assert main(["verify", str(bad), str(sol)]) == 3
        out = capsys.readouterr().out
        assert "PASS" not in out and "FAIL" not in out

    @pytest.mark.parametrize(
        "changes",
        [
            {"budget": "3"},
            {"reached": 5},
            {"reached": ["a", 5]},
            {"cost": "1"},
            {"cost": True},
            {"budget": 1.0},
            {"instance_sha256": 7},
            {"algo": None},
            {"mode": ["delay"]},
            # op and witness fields: truncating 0.9 to 0 would let a document pass
            {"ops": [{"path": 1, "edge_index": 0.9, "delta": 1.7}]},
            {"ops": [{"path": True, "edge_index": 1, "delta": 1}]},
            {"ops": [{"path": 1, "edge_index": 1, "delta": "1"}]},
            {"ops": [{"path": 1, "edge_index": 1}]},
            {"ops": [[1, 1, 1]]},
            {"ops": {"path": 1, "edge_index": 1, "delta": 1}},
            {"witness_svs": [{"vertex": 5, "from_path": 0, "to_path": 1}]},
            {"witness_svs": [{"vertex": "a", "from_path": 0.0, "to_path": 1}]},
            {"witness_svs": [{"vertex": "a", "from_path": 0}]},
            {"witness_svs": "a:0->1"},
        ],
    )
    def test_mistyped_fields_are_parse_errors(self, tmp_path, capsys, i1_file, changes):
        # a wrong type is a parse problem (2), not a failed check (1) or a crash
        rc, out = self.tampered(tmp_path, capsys, i1_file, **changes)
        assert rc == 2 and "PASS" not in out


class TestGen:
    def test_random_is_deterministic(self, capsys):
        args = ["gen", "random", "--k", "3", "--n", "4", "--seed", "11"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        g = parse_instance(first)
        assert g.k == 3 and validate(g) == []

    def test_random_rejects_bad_parameters(self, capsys):
        assert main(["gen", "random", "--k", "0", "--n", "3", "--seed", "1"]) == 2

    def test_mcis_delay_reports_budget_on_stderr(self, tmp_path, capsys):
        mfile = tmp_path / "m.mcis"
        mfile.write_text("color C: c1 c2\ncolor D: d1 d2\nedge c1 d1\n")
        assert main(["gen", "mcis-delay", str(mfile)]) == 0
        captured = capsys.readouterr()
        assert "budget 767" in captured.err
        g = parse_instance(captured.out)
        assert g.k == 5

    def test_mcis_delay_output_flag(self, tmp_path, capsys):
        mfile = tmp_path / "m.mcis"
        mfile.write_text("color C: c1 c2\ncolor D: d1 d2\n")
        out = tmp_path / "gadget.kpg"
        rc = main(
            ["gen", "mcis-delay", str(mfile), "--omega", "32", "--output", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0 and captured.out == ""
        assert "budget 95" in captured.err
        assert parse_instance(out.read_text()).k == 5

    def test_mcis_delay_bad_file(self, tmp_path, capsys):
        mfile = tmp_path / "m.mcis"
        mfile.write_text("color C: c1\nedge c1 ghost\n")
        assert main(["gen", "mcis-delay", str(mfile)]) == 3
        mfile.write_text("edge lonely\n")
        assert main(["gen", "mcis-delay", str(mfile)]) == 2

    def test_mcis_delay_rejects_an_omega_below_the_bound(self, tmp_path, capsys):
        # boarding a1 and b1 costs 10 past the pair delays, so the budget,
        # omega - 1 here, must be at least 10
        mfile = tmp_path / "m.mcis"
        mfile.write_text("color A: a1\ncolor B: b1\n")
        assert main(["gen", "mcis-delay", str(mfile), "--omega", "10"]) == 2
        assert "need >= 11" in capsys.readouterr().err
        assert main(["gen", "mcis-delay", str(mfile), "--omega", "11"]) == 0
        assert "budget 10" in capsys.readouterr().err
        # by default omega is at least the bound: 4 here, not 1**4
        mfile.write_text("color A: a1\n")
        assert main(["gen", "mcis-delay", str(mfile)]) == 0
        assert "budget 3" in capsys.readouterr().err

    def test_mcis_delay_non_utf8_file(self, tmp_path, capsys):
        mfile = tmp_path / "m.mcis"
        mfile.write_bytes(b"\xffcolor C: c1 c2\n")
        assert main(["gen", "mcis-delay", str(mfile)]) == 2
        assert "not UTF-8" in capsys.readouterr().err


class TestEnum:
    def test_spt_counts(self, capsys):
        assert main(["enum", "spt", "--k", "4"]) == 0
        assert capsys.readouterr().out.strip() == "16"
        assert main(["enum", "spt", "--k", "3", "--partial"]) == 0
        assert capsys.readouterr().out.strip() == "6"
        assert main(["enum", "spt", "--k", "0"]) == 2

    def test_spt_count_is_checked_against_the_limit_up_front(self, capsys, monkeypatch):
        # 12^10 spanning trees: past the default limit, so exit 4 before
        # any is built; enumerating them would take days
        assert main(["enum", "spt", "--k", "12"]) == 4
        assert "more than 10000000 switch-path trees;" in capsys.readouterr().err
        monkeypatch.setenv("TPSHIFT_LIMIT_STATES", "3")
        assert main(["enum", "spt", "--k", "4", "--partial"]) == 4
        assert "more than 3 switch-path trees" in capsys.readouterr().err
        # 29 trees with --partial at k=4 fit a limit of 29 exactly
        monkeypatch.setenv("TPSHIFT_LIMIT_STATES", "29")
        assert main(["enum", "spt", "--k", "4", "--partial"]) == 0
        assert capsys.readouterr().out.strip() == "29"
        monkeypatch.delenv("TPSHIFT_LIMIT_STATES")
        assert main(["enum", "spt", "--k", "5"]) == 0
        assert capsys.readouterr().out.strip() == "125"

    @pytest.mark.parametrize("k", range(1, 8))
    def test_spt_count_matches_the_trees_enumerated(self, k):
        for partial in (False, True):
            trees = sum(1 for _ in enumerate_spts(k, include_partial=partial))
            assert cli._spt_count(k, partial, trees) == trees
            with pytest.raises(ResourceLimitError):
                cli._spt_count(k, partial, trees - 1)

    def test_spt_list_starts_with_the_bare_root(self, capsys):
        assert main(["enum", "spt", "--k", "2", "--partial", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["-", "1:0", "2"]

    def test_listed_bare_root_solves_as_the_root_only_tree(self, tmp_path, capsys, i1_file):
        fixed = ["--algo", "fixed-spt", "--budget", "1"]
        dash = solve_doc(tmp_path, capsys, i1_file, *fixed, "--spt", "-")
        empty = solve_doc(tmp_path, capsys, i1_file, *fixed, "--spt", "")
        del dash["wall_time_ms"], empty["wall_time_ms"]
        assert dash == empty
        assert dash["witness_svs"] == [] and dash["reached"] == ["a", "b", "s"]

    @pytest.mark.parametrize("spt", ["1:0,-", "-,1:0", "- -"])
    def test_a_dash_among_edges_is_a_usage_error(self, capsys, i1_file, spt):
        # --spt=... so that argparse hands a value starting with "-" to the tree parser
        args = ["solve", str(i1_file), "--algo", "fixed-spt", "--budget", "1", f"--spt={spt}"]
        assert main(args) == 2
        assert "is not child:parent" in capsys.readouterr().err

    def test_svs_count_and_list(self, tmp_path, capsys, i1_file):
        assert main(["enum", "svs", str(i1_file)]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["enum", "svs", str(i1_file), "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["empty", "a:0->1", "2"]

    def test_svs_lists_the_sets_solve_searches(self, tmp_path, capsys):
        # a mid-path source: solve works on the graph with a's own source
        # path appended, and its witness must be among the listed sets
        f = tmp_path / "mid.kpg"
        f.write_text(
            "kpathgraph v1\nk 2\nsource a\n"
            "path 0 : s -1-> a -2-> b -4-> c\n"
            "path 1 : x -0-> b -5-> y\n"
        )
        doc = solve_doc(tmp_path, capsys, f, "--algo", "xp-k", "--budget", "2")
        witness = " ".join(
            f"{w['vertex']}:{w['from_path']}->{w['to_path']}" for w in doc["witness_svs"]
        )
        assert witness == "a':2->0 b:0->1"
        assert main(["enum", "svs", str(f), "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["empty", "a':2->0", witness, "3"]

    def test_svs_needs_a_valid_instance(self, tmp_path, capsys):
        f = tmp_path / "bad.kpg"
        f.write_text("kpathgraph v1\nk 1\nsource s\npath 0 : s -5-> a -3-> b\n")
        assert main(["enum", "svs", str(f)]) == 3


class TestUsage:
    @pytest.mark.parametrize("command", ["solve", "verify", "enum"])
    def test_non_utf8_instance_is_a_parse_error(self, tmp_path, capsys, i1_file, command):
        bad = tmp_path / "bad.kpg"
        bad.write_bytes(I1_TEXT.encode() + b"\xff\n")
        sol = tmp_path / "sol.json"
        assert main(["solve", str(i1_file), "--algo", "xp-k", "--output", str(sol)]) == 0
        argv = {
            "solve": ["solve", str(bad), "--algo", "xp-k"],
            "verify": ["verify", str(bad), str(sol)],
            "enum": ["enum", "svs", str(bad)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_too_long_instance_name_is_a_usage_error(self, tmp_path, capsys):
        # past the file system's name limit: OSError, errno ENAMETOOLONG
        assert main(["solve", str(tmp_path / ("x" * 300)), "--algo", "xp-b"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_too_long_output_name_is_a_usage_error(self, tmp_path, capsys):
        args = ["gen", "random", "--k", "2", "--n", "3", "--seed", "1"]
        assert main([*args, "--output", str(tmp_path / ("x" * 300))]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_symlink_loop_is_a_usage_error(self, tmp_path, capsys, i1_file, command):
        # a link to itself: OSError, errno ELOOP
        loop = tmp_path / "loop.kpg"
        loop.symlink_to(loop)
        sol = tmp_path / "sol.json"
        assert main(["solve", str(i1_file), "--algo", "xp-k", "--output", str(sol)]) == 0
        argv = {
            "solve": ["solve", str(loop), "--algo", "xp-k"],
            "verify": ["verify", str(loop), str(sol)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


_SOLVE_EACH = """
import contextlib, io, re, sys
from tpshift.cli import main

for inst in sys.argv[1:]:
    for args in (
        ["--algo", "xp-b", "--mode", "shift", "--budget", "2"],
        ["--algo", "xp-k", "--mode", "shift", "--budget", "3"],
        ["--algo", "fpt-delay", "--mode", "delay", "--budget", "3"],
        ["--algo", "fpt-general", "--mode", "shift", "--budget", "2"],
        ["--algo", "unbounded"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["solve", inst, *args])
        print(code, re.sub(r'"wall_time_ms": [0-9]+', "", out.getvalue()))
"""


class TestSolveIsDeterministic:
    def test_documents_do_not_follow_the_hash_seed(self, tmp_path):
        # the solvers keep sets and dicts of vertex names, whose order
        # follows string hashing, which changes with PYTHONHASHSEED; odd
        # instances take a mid-path source, so normalize_source adds a path
        files = []
        for i in range(8):
            g = gen_random(3, 4, 10, 0.6, 700 + i)
            text = write_instance(g)
            if i % 2:
                text = text.replace(f"source {g.source}", f"source {g.paths[0].vertices[1]}")
            files.append(tmp_path / f"g{i}.kpg")
            files[-1].write_text(text)
        src = str(Path(cli.__file__).parents[1])
        runs = [
            subprocess.run(
                [sys.executable, "-c", _SOLVE_EACH, *map(str, files)],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        ]
        assert runs[0] == runs[1]
        assert runs[0].startswith("0 {")
        assert runs[0].count("\n0 {") == 5 * len(files) - 1  # every solve exits 0


class TestInstanceHash:
    def test_importing_the_cli_leaves_openssl_unloaded(self):
        code = "import sys, tpshift.cli; print('_hashlib' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        ).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("size", [0, 1, 5000])
    def test_digest_matches_hashlib(self, size):
        data = random.Random(size).randbytes(size)
        assert cli._sha256_hex(data) == hashlib.sha256(data).hexdigest()


_HUGE = (b"9" * 5000, str(10**30).encode(), str(2**63).encode(), b"-" + str(10**30).encode())
_WRONG_TOKENS = (
    b"", b"x", b"1.5", b"-", b"->", b"-a->", b"--->", b"-1.5->", b"None", b"[]",
    b":", b"path", b"0", b"3", b"-1",
)
_NOT_UTF8 = (b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80abc")


@st.composite
def malformed_instances(draw) -> bytes:
    """I1_TEXT after a few cuts, wrong or huge tokens, stray bytes or repeated lines."""
    lines = I1_TEXT.encode().splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not lines:
            lines.append(b"")
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(["truncate", "drop", "repeat", "token", "huge", "bytes"]))
        if kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(min_value=0, max_value=len(lines[i])))]
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":  # a path line twice is a duplicate path id
            lines.insert(i, lines[i])
        elif kind == "token":
            tokens = lines[i].split(b" ")
            j = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(_WRONG_TOKENS))
            lines[i] = b" ".join(tokens)
        elif kind == "huge":  # one integer of a line, a label or k say, made huge
            numbered = [
                n for n, line in enumerate(lines)
                if re.search(rb"\d", line) and not line.startswith(b"kpathgraph")
            ]
            if numbered:
                n = draw(st.sampled_from(numbered))
                runs = list(re.finditer(rb"\d+", lines[n]))
                run = draw(st.sampled_from(runs))
                line = lines[n]
                lines[n] = line[: run.start()] + draw(st.sampled_from(_HUGE)) + line[run.end() :]
        else:
            stray = draw(st.one_of(st.sampled_from(_NOT_UTF8), st.binary(max_size=8)))
            lines[i] = lines[i] + stray
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"]))


class TestMalformedInstances:
    """Bad instance bytes end in an exit code, never in a traceback."""

    @settings(max_examples=200, deadline=None)
    @example(I1_TEXT.replace("-1->", f"-{'9' * 5000}->", 1).encode(), "xp-k", "shift", 1)
    @example(I1_TEXT.replace("k 2", f"k {10**30}").encode(), "xp-k", "shift", 1)
    @given(
        malformed_instances(),
        st.sampled_from(["xp-b", "xp-k", "fpt-delay", "fpt-general", "unbounded"]),
        st.sampled_from(["delay", "advance", "shift"]),
        st.integers(min_value=0, max_value=2),
    )
    def test_solve_and_verify_exit_cleanly(self, data, algo, mode, budget):
        with tempfile.TemporaryDirectory() as tmp:
            good, bad, sol = (Path(tmp) / name for name in ("i1.kpg", "bad.kpg", "sol.json"))
            good.write_text(I1_TEXT)
            bad.write_bytes(data)
            runs = [
                ["solve", str(good), "--algo", "xp-k", "--budget", "1", "--output", str(sol)],
                ["solve", str(bad), "--algo", algo, "--mode", mode, "--budget", str(budget)],
                ["verify", str(bad), str(sol)],
            ]
            for argv in runs:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main(argv)
                assert rc in {0, 1, 2, 3, 4}, (argv, rc)
                assert "Traceback" not in err.getvalue()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**30, -(10**30), 2**63, 0.9, "1", "delay", "a", DOC_FORMAT]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@functools.cache
def _good_documents() -> tuple[str, ...]:
    """Solution documents for I1_TEXT from xp-k, fixed-spt and unbounded, as JSON text."""
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        inst, sol = Path(tmp) / "i1.kpg", Path(tmp) / "sol.json"
        inst.write_text(I1_TEXT)
        for args in (
            ["--algo", "xp-k", "--mode", "delay", "--budget", "1"],
            ["--algo", "fixed-spt", "--spt", "1:0", "--budget", "1"],
            ["--algo", "unbounded"],
        ):
            assert main(["solve", str(inst), *args, "--output", str(sol)]) == 0
            docs.append(sol.read_text())
    return tuple(docs)


@st.composite
def malformed_documents(draw) -> bytes:
    """A good document after a few dropped keys, retyped fields or stray
    op/witness entries, then perhaps cut short or given stray bytes."""
    doc = json.loads(draw(st.sampled_from(_good_documents())))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        holders = [doc] + [
            entry
            for key in ("ops", "witness_svs")
            if isinstance(doc.get(key), list)
            for entry in doc[key]
            if isinstance(entry, dict)
        ]
        holder = draw(st.sampled_from(holders))
        kind = draw(st.sampled_from(["drop", "retype", "entry"]))
        if kind == "entry":
            key = draw(st.sampled_from(["ops", "witness_svs"]))
            if isinstance(doc.get(key), list):
                doc[key].append(draw(_JSON_VALUES))
            else:
                doc[key] = draw(_JSON_VALUES)
        elif holder:
            key = draw(st.sampled_from(sorted(holder)))
            if kind == "drop":
                del holder[key]
            else:
                holder[key] = draw(_JSON_VALUES)
    data = json.dumps(doc).encode()
    ending = draw(st.sampled_from(["whole", "cut", "bytes"]))
    if ending == "cut":
        data = data[: draw(st.integers(min_value=0, max_value=len(data)))]
    elif ending == "bytes":
        data += draw(st.one_of(st.sampled_from(_NOT_UTF8), st.binary(max_size=8)))
    return data


def _huge_ops_document() -> bytes:
    """xp-k's document with two ops whose deltas are each within the integer
    digit limit but whose cost is past it."""
    doc = json.loads(_good_documents()[0])
    doc["ops"] = [{"path": 1, "edge_index": 1, "delta": int("9" * 4300)}] * 2
    return json.dumps(doc).encode()


class TestMalformedDocuments:
    """Bad solution documents end in an exit code, never in a traceback."""

    @settings(max_examples=150, deadline=None)
    @example(b"[" * 100_000 + b"]" * 100_000)  # nesting past the recursion limit
    @example(_huge_ops_document())
    @given(malformed_documents())
    def test_verify_exits_cleanly(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            inst, sol = Path(tmp) / "i1.kpg", Path(tmp) / "sol.json"
            inst.write_text(I1_TEXT)
            sol.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["verify", str(inst), str(sol)])
            assert rc in {0, 1, 2, 3, 4}
            assert "Traceback" not in err.getvalue()
