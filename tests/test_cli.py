"""End-to-end runs of the command line front end."""

from __future__ import annotations

import json

import pytest

from conftest import graph_of, path
from tpshift import cli
from tpshift.cli import DOC_FORMAT, main
from tpshift.graph_core import parse_instance, validate, write_instance

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
        assert (
            main(["solve", str(i1_file), "--algo", "xp-b", "--budget", "-1"]) == 2
        )
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

    def test_state_limit_flag(self, tmp_path, capsys, i1_file):
        rc = main(
            ["solve", str(i1_file), "--algo", "xp-b", "--budget", "2",
             "--limit-states", "5"]
        )
        assert rc == 4
        rc = main(
            ["solve", str(i1_file), "--algo", "xp-k", "--budget", "1",
             "--limit-states", "1"]
        )
        assert rc == 4

    @pytest.mark.parametrize("mode, count", [("shift", 41), ("delay", 15)])
    def test_xp_b_limit_counts_net_vectors(self, tmp_path, capsys, i1_file, mode, count):
        # i1 has 4 edges; at b=2 that is 41 net shift vectors (45 unit
        # multisets) in shift mode and C(4 + 2, 2) = 15 in delay mode
        args = ["solve", str(i1_file), "--algo", "xp-b", "--budget", "2", "--mode", mode]
        assert main([*args, "--limit-states", str(count)]) == 0
        assert main([*args, "--limit-states", str(count - 1)]) == 4
        assert f"{count} net shift vectors" in capsys.readouterr().err

    def test_fpt_delay_limit_counts_guesses(self, tmp_path, capsys, i1_file):
        # trees under path 0: the root-only tree and 1:0; at b=2 that is
        # C(0 + 2, 2) + C(1 + 2, 2) = 4 (tree, delay split) guesses
        args = ["solve", str(i1_file), "--algo", "fpt-delay", "--mode", "delay", "--budget", "2"]
        assert main([*args, "--limit-states", "4"]) == 0
        assert main([*args, "--limit-states", "3"]) == 4
        assert "4 delay guesses" in capsys.readouterr().err

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

    def test_spt_list_starts_with_the_bare_root(self, capsys):
        assert main(["enum", "spt", "--k", "2", "--partial", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["-", "1:0", "2"]

    def test_svs_count_and_list(self, tmp_path, capsys, i1_file):
        assert main(["enum", "svs", str(i1_file)]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["enum", "svs", str(i1_file), "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["empty", "a:0->1", "2"]

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

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
