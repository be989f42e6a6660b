"""Command-line interface: subcommands, formats, exit codes, round trips."""

import contextlib
import functools
import inspect
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import arcposet
from arcposet import cli, verify
from arcposet import poset as poset_module
from arcposet.errors import InvalidArgumentError, InvariantError, ResourceLimitError
from arcposet.families import build_family
from arcposet.diagram import Diagram, parse
from arcposet.matrix import SymmetricMatrix, enumerate_matrix_keys, matrices_from_keys, upper_positions
from arcposet.verify import CheckPoint, VerificationReport, check_names


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspect:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "inspect", "n=9; arcs=(1,4),(5,9),(6,8)")
        assert code == 0
        assert "free sites: 2 3 7" in out
        assert "tautology: 3" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "inspect", "n=5; arcs=(1,3)")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert payload["free_sites"] == [2, 4, 5]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "inspect", "bogus")
        assert code == 2
        assert "malformed" in err

    def test_repeated_arc_exit_2(self, capsys):
        code, out, err = run(capsys, "inspect", "n=5; arcs=(1,3),(1,3)")
        assert code == 2 and out == "" and err == "error: arc (1,3) is repeated\n"


class TestEmptyFamily:
    # no arc of the pentagon is 2-relevant, so So(5, 2) has no member
    PARAMS = ("--family", "So", "--params", "m=5,k=2")

    def test_stats(self, capsys):
        assert run(capsys, "poset", *self.PARAMS, "--stats") == (0, "elements=0\n", "")

    def test_enum_text_and_json(self, capsys):
        assert run(capsys, "enum", *self.PARAMS) == (0, "", "")
        code, out, err = run(capsys, "--format", "json", "enum", *self.PARAMS)
        assert (code, err) == (0, "")
        assert out == '{"count": 0, "elements": [], "family": "So", "schema": 1}\n'

    def test_dot(self, capsys, tmp_path):
        dot = tmp_path / "empty.dot"
        assert run(capsys, "poset", *self.PARAMS, "--dot", str(dot)) == (0, "", "")
        assert dot.read_text() == "digraph family {\n  rankdir=BT;\n}\n"


class TestTransforms:
    def test_canonicalize_round_trip(self, capsys):
        code, out, _ = run(capsys, "canonicalize", "n=7; arcs=(1,4),(2,6)")
        assert code == 0
        assert parse(out.strip()) == parse("n=7; arcs=(1,6),(2,4)")

    def test_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "n=5; arcs=(2,4)")
        assert code == 0 and out.strip() == "n=6; arcs=(2,5)"

    def test_blowup(self, capsys):
        code, out, _ = run(capsys, "blowup", "n=5; arcs=(1,3),(3,5)")
        assert code == 0 and out.strip() == "n=6; arcs=(1,3),(4,6)"

    def test_equiv(self, capsys):
        code, out, _ = run(
            capsys, "equiv", "n=7; arcs=(1,4),(2,6)", "n=7; arcs=(1,6),(2,4)"
        )
        assert code == 0 and out.strip() == "equivalent"
        code, out, _ = run(capsys, "equiv", "n=5; arcs=(1,3)", "n=5; arcs=(2,4)")
        assert code == 0 and out.strip() == "not equivalent"


class TestRealize:
    def test_from_file(self, capsys, tmp_path):
        matrix = SymmetricMatrix.from_entries(4, {(1, 3): 1})
        path = tmp_path / "matrix.json"
        path.write_text(matrix.to_json())
        code, out, _ = run(capsys, "realize", str(path))
        assert code == 0 and out.strip() == "n=5; arcs=(1,4)"

    def test_inline_json(self, capsys):
        code, out, _ = run(capsys, "realize", '{"order": 4, "rows": [[0,0,1,0],[0,0,0,0],[1,0,0,0],[0,0,0,0]]}')
        assert code == 0 and out.strip() == "n=5; arcs=(1,4)"

    @pytest.mark.parametrize(
        "text",
        [
            '{"order": 2, "rows": 5}',
            '{"order": 4, "rows": [[0,0,1.7,0],[0,0,0,0],[1.7,0,0,0],[0,0,0,0]]}',
            '{"order": 4, "rows": [[0,0,true,0],[0,0,0,0],[true,0,0,0],[0,0,0,0]]}',
        ],
    )
    def test_malformed_matrix_exit_2(self, capsys, text):
        code, out, err = run(capsys, "realize", text)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    # fields the matrix does not read, and orders that are not ints, are refused
    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"order": 4, "rows": [[0,0,1,0],[0,0,0,0],[1,0,0,0],[0,0,0,0]], "cols": 9}', "fields 'order' and 'rows' and no other"),
            ('{"order": 4.0, "rows": [[0,0,1,0],[0,0,0,0],[1,0,0,0],[0,0,0,0]]}', "'order' must be an integer, got 4.0"),
            ('{"order": true, "rows": [[0]]}', "'order' must be an integer, got True"),
        ],
        ids=["unknown-field", "float-order", "bool-order"],
    )
    def test_ignored_or_inexact_field_exit_2(self, capsys, text, message):
        code, out, err = run(capsys, "realize", text)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: matrix JSON ") and err.endswith(f"{message}\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "realize", "no-such-file.json")
        assert code == 2 and "cannot read" in err

    def test_prints_the_regular_representative(self, capsys):
        matrix = '{"order": 4, "rows": [[0,0,1,0],[0,0,0,0],[1,0,0,2],[0,0,2,0]]}'
        code, out, _ = run(capsys, "realize", matrix)
        assert code == 0 and out == "n=9; arcs=(1,4),(5,9),(6,8)\n"

    def test_cap_bounds_the_arcs(self, capsys):
        matrix = SymmetricMatrix.from_entries(4, {(1, 3): 4000}).to_json()
        code, out, err = run(capsys, "--cap", "3999", "realize", matrix)
        assert code == 3 and out == "" and err.startswith("resource cap: ") and err.count("\n") == 1
        code, out, _ = run(capsys, "--cap", "4000", "realize", matrix)
        assert code == 0 and out.count("),(") == 3999


class TestEnumAndPoset:
    def test_enum_counts_and_reparses(self, capsys):
        code, out, _ = run(capsys, "enum", "--family", "S", "--params", "n=5,k=1")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 10
        for line in lines:
            parse(line)

    def test_enum_matrices_reparse(self, capsys):
        code, out, _ = run(capsys, "enum", "--family", "M", "--params", "m=4,k=1,r=0")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        for line in lines:
            SymmetricMatrix.from_json(line)

    def test_poset_stats_and_dot(self, capsys, tmp_path):
        dot = tmp_path / "out.dot"
        code, out, _ = run(
            capsys, "poset", "--family", "P", "--params", "f=4,k=1,r=0",
            "--dot", str(dot), "--stats",
        )
        assert code == 0
        assert "elements=10" in out
        assert dot.read_text().startswith("digraph")

    def test_unwritable_dot_file_exit_2(self, capsys, tmp_path):
        dot = tmp_path / "missing" / "x.dot"
        code, out, err = run(capsys, "poset", "--family", "P", "--params", "f=3,k=1,r=0", "--dot", str(dot))
        assert code == 2 and out == "" and err.startswith("error: cannot write") and err.count("\n") == 1

    def test_regular_family_needs_three_free_sites(self, capsys):
        argv = ("poset", "--family", "P", "--params", "f=2,k=1,r=1", "--stats")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == "error: f must be >= 3, got 2\n"

    def test_cap_exit_3(self, capsys):
        code, _, err = run(
            capsys, "--cap", "5", "enum", "--family", "S", "--params", "n=6,k=2"
        )
        assert code == 3 and "cap" in err

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "enum", "--family", "S", "--params", "n=five")
        assert code == 2

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run(capsys, "enum", "--family", "S", "--params", "n=5")
        assert code == 2 and "parameter k" in err

    @pytest.mark.parametrize("params", ["n=5,k=1,zz=3", "n=5,k=1,r=0", "n=5,k=1,k=2"])
    def test_unknown_or_repeated_params_exit_2(self, capsys, params):
        code, _, err = run(capsys, "enum", "--family", "S", "--params", params)
        assert code == 2 and err.count("\n") == 1

    def test_matrix_cap_counts_search_nodes(self, capsys):
        # the search space predicted for M(7,1,1) is 44,040,192; it has 1,924 members
        argv = ("poset", "--family", "M", "--params", "m=7,k=1,r=1", "--stats")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("elements=1924 ")
        code, _, err = run(capsys, "--cap", "100", *argv)
        assert code == 3 and "cap" in err

    def test_large_matrix_poset_stats_use_no_dense_matrix(self, capsys, monkeypatch):
        # M(6,2,2) has 24,207 elements: its up-sets would take 73 MB
        built = []

        def build_and_keep(*args, **kwargs):
            built.append(build_family(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_family", build_and_keep)
        monkeypatch.setattr(poset_module, "LEQ_BYTE_CAP", 0)
        code, out, _ = run(capsys, "poset", "--family", "M", "--params", "m=6,k=2,r=2", "--stats")
        assert code == 0
        assert out == (
            "elements=24207 covers=134114 minimal=14 maximal=258 "
            "rank_length=9 rank_cardinality=10 pure=True\n"
        )
        monkeypatch.setattr(poset_module, "LEQ_BYTE_CAP", 1 << 20)
        with pytest.raises(ResourceLimitError):
            built[0].up_sets

    def test_matrix_and_regular_stats_build_no_member(self, capsys, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        with monkeypatch.context() as patch:
            patch.setattr(SymmetricMatrix, "__init__", refuse)
            patch.setattr(Diagram, "__init__", refuse)
            code, out, _ = run(capsys, "poset", "--family", "M", "--params", "m=4,k=1,r=9", "--stats")
            assert code == 0 and out.startswith("elements=575 ")
            code, out, _ = run(capsys, "poset", "--family", "P", "--params", "f=4,k=2,r=1", "--stats")
            assert code == 0 and out == (
                "elements=239 covers=759 minimal=9 maximal=9 rank_length=5 rank_cardinality=6 pure=True\n"
            )
        code, out, _ = run(capsys, "enum", "--family", "M", "--params", "m=4,k=1,r=9")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 575
        assert [SymmetricMatrix.from_json(line).entry(2, 4) for line in lines[5:7]] == [10, 1]
        code, out, _ = run(capsys, "enum", "--family", "P", "--params", "f=4,k=2,r=1")
        assert code == 0 and [parse(line).length for line in out.splitlines()[:2]] == [10, 10]

    @pytest.mark.parametrize(
        "family,params,stats",
        [
            ("S", "n=7,k=1", "elements=196 covers=532 minimal=14 maximal=42 rank_length=3 rank_cardinality=4 pure=True"),
            ("So", "m=8,k=2", "elements=912 covers=3696 minimal=12 maximal=84 rank_length=5 rank_cardinality=6 pure=True"),
            ("Sstar", "m=7,k=2", "elements=127 covers=441 minimal=7 maximal=1 rank_length=6 rank_cardinality=7 pure=True"),
            ("D", "f=4,k=1,r=1", "elements=69 covers=135 minimal=9 maximal=30 rank_length=2 rank_cardinality=3 pure=True"),
        ],
        ids=["S", "So", "Sstar", "D"],
    )
    def test_inclusion_and_proper_stats_build_no_member(self, capsys, monkeypatch, family, params, stats):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        with monkeypatch.context() as patch:
            patch.setattr(Diagram, "__init__", refuse)
            code, out, _ = run(capsys, "poset", "--family", family, "--params", params, "--stats")
        assert code == 0 and out == stats + "\n"
        code, out, _ = run(capsys, "enum", "--family", family, "--params", params)
        assert code == 0 and len(out.splitlines()) == int(stats.split()[0].split("=")[1])

    def test_proper_family_stats_and_cap(self, capsys):
        argv = ("poset", "--family", "D", "--params", "f=4,k=1,r=1", "--stats")
        code, out, _ = run(capsys, "--cap", "69", *argv)
        assert code == 0 and out == (
            "elements=69 covers=135 minimal=9 maximal=30 rank_length=2 rank_cardinality=3 pure=True\n"
        )
        code, out, err = run(capsys, "--cap", "68", *argv)
        assert code == 3 and out == "" and err == "resource cap: family exceeds cap 68\n"

    def test_invariant_violation_exit_1(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("family is not closed under decrements")

        monkeypatch.setattr(cli, "build_family", broken)
        code, _, err = run(capsys, "poset", "--family", "M", "--params", "m=4,k=1,r=0")
        assert code == 1 and err == "invariant violated: family is not closed under decrements\n"


class TestComplexAndHomology:
    def test_pipeline(self, capsys, tmp_path):
        facets = tmp_path / "facets.txt"
        code, out, _ = run(capsys, "complex", "--T", "6", "2", "--facets", str(facets))
        assert code == 0 and "3 facets" in out
        code, out, _ = run(capsys, "homology", "--facets", str(facets))
        assert code == 0 and out.strip() == "H~_1 = Z"

    @pytest.mark.parametrize("m, k", [(5, 2), (7, 3)])
    def test_empty_sphere_pipeline(self, capsys, tmp_path, m, k):
        # T(2k+1, k) has no k-relevant diagonal: its one facet is empty
        facets = tmp_path / "facets.txt"
        code, out, _ = run(capsys, "complex", "--T", str(m), str(k), "--facets", str(facets))
        assert code == 0 and out == f"1 facets written to {facets}\n"
        assert facets.read_text() == "\n"
        code, out, _ = run(capsys, "homology", "--facets", str(facets))
        assert code == 0 and out == "H~_-1 = Z\n"

    def test_zero_byte_facet_file_exit_2(self, capsys, tmp_path):
        facets = tmp_path / "facets.txt"
        facets.write_text("")
        code, out, err = run(capsys, "homology", "--facets", str(facets))
        assert code == 2 and out == "" and err == "error: facet list is empty\n"

    @pytest.mark.parametrize(
        "text, message",
        [("a,a,b\n", "facet line 1 names vertex 'a' twice"), ("b,,c\n", "facet line 1 holds an empty field")],
    )
    def test_repeated_vertex_or_empty_field_exit_2(self, capsys, tmp_path, text, message):
        facets = tmp_path / "facets.txt"
        facets.write_text(text)
        code, out, err = run(capsys, "homology", "--facets", str(facets))
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("m", ["-3", "0", "2"])
    def test_complex_needs_a_polygon(self, capsys, m):
        code, out, err = run(capsys, "complex", "--T", m, "1")
        assert code == 2 and out == "" and err == f"error: a polygon needs m >= 3 vertices, got {m}\n"

    def test_complex_to_stdout(self, capsys):
        code, out, _ = run(capsys, "complex", "--T", "6", "2")
        assert code == 0 and len(out.strip().splitlines()) == 3

    def test_complex_cap_counts_visited_subsets(self, capsys):
        # the search on T(6,2) visits 7 nodes: the empty set, each of the 3
        # diagonals and the 3 pairs of them, which are its facets
        code, out, _ = run(capsys, "--cap", "7", "complex", "--T", "6", "2")
        assert code == 0 and len(out.strip().splitlines()) == 3
        code, out, err = run(capsys, "--cap", "6", "complex", "--T", "6", "2")
        assert code == 3 and out == "" and err.startswith("resource cap: ") and err.count("\n") == 1

    def test_homology_json(self, capsys, tmp_path):
        facets = tmp_path / "facets.txt"
        run(capsys, "complex", "--T", "6", "2", "--facets", str(facets))
        code, out, _ = run(capsys, "--format", "json", "homology", "--facets", str(facets))
        payload = json.loads(out)
        assert code == 0
        assert payload["groups"]["1"] == {"betti": 1, "torsion": []}

    def test_missing_facet_file(self, capsys):
        code, _, err = run(capsys, "homology", "--facets", "missing.txt")
        assert code == 2

    def test_unwritable_facet_file_exit_2(self, capsys, tmp_path):
        facets = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "complex", "--T", "6", "1", "--facets", str(facets))
        assert code == 2 and out == "" and err.startswith("error: cannot write") and err.count("\n") == 1


class TestVerify:
    def test_passing_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "thm11", "--grid", "f=4,k=1")
        assert code == 0
        assert "thm11[f=4,k=1]: pass" in out

    def test_grid_splitting(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--check", "thm11", "--grid", "f=4,k=1;f=5,k=1"
        )
        assert code == 0
        assert out.count(": pass") == 3  # two points plus the summary line

    def test_unknown_check_names_the_known_ones(self):
        with pytest.raises(InvalidArgumentError) as raised:
            verify.run_check("nope")
        assert str(raised.value) == "unknown check 'nope'; known: " + ", ".join(check_names())

    @pytest.mark.parametrize("grid", ["f=3", "f=4,k=1,zz=3", "f=4,k=1;k=1"])
    def test_bad_grid_point_exit_2(self, capsys, grid):
        check = "thm12" if grid == "f=3" else "thm11"
        code, out, err = run(capsys, "verify", "--check", check, "--grid", grid)
        assert code == 2 and out == "" and err.count("\n") == 1

    # a valid point first: the refusal comes before any point runs
    @pytest.mark.parametrize(
        "check,grid",
        [
            ("thm12", "f=3,k=1,r=0;f=3,k=3,r=2"),
            ("thm12", "f=3,k=1,r=0;f=4,k=3,r=0"),
            ("thm11", "f=4,k=1;f=1,k=1"),
        ],
    )
    def test_point_outside_the_theorem_exit_2(self, capsys, check, grid):
        code, out, err = run(capsys, "verify", "--check", check, "--grid", grid)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "the theorem needs f >= 3, k >= 1 and f+1 >= 2k" in err

    # points on which the check's loops would be empty, so a pass would check nothing
    @pytest.mark.parametrize(
        "check,grid",
        [
            ("realize-roundtrip", "m=5,k=0,r=2"),
            ("realize-roundtrip", "m=3,k=2,r=2"),
            ("realize-roundtrip", "m=5,k=2,r=-1"),
            ("regular-unique", "n=-2"),
            ("equivalence", "n=3"),
            ("dual-matrix", "n=3"),
            ("length-bound", "n=3"),
            ("theta", "m=3,k=1"),
            ("kappa", "m=3,k=0"),
            ("join", "m=4,k=0"),
        ],
    )
    def test_vacuous_point_exit_2(self, capsys, check, grid):
        code, out, err = run(capsys, "verify", "--check", check, "--grid", grid)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: check {check} at ") and ": the check needs " in err

    # a valid point first, then one outside the families or maps the check builds
    @pytest.mark.parametrize(
        "check,grid,needs",
        [
            ("beta", "f=3,k=1,r=0;f=4,k=0,r=1", "the check needs f >= 3, k >= 1 and r >= 0"),
            ("rho", "f=3,k=1,r=0;f=2,k=1,r=0", "the check needs f >= 3, k >= 1 and r >= 0"),
            ("tau", "f=3,k=1;f=3,k=0", "the check needs f >= 3 and k >= 1"),
            ("thm12", "f=3,k=1,r=0;f=3,k=1,r=-1", "the theorem needs f >= 3, k >= 1 and f+1 >= 2k, and r >= 0"),
        ],
        ids=["beta", "rho", "tau", "thm12"],
    )
    def test_point_outside_the_family_is_refused_before_any_runs(self, capsys, monkeypatch, check, grid, needs):
        func, *rest = verify._CHECKS[check]
        ran = []

        @functools.wraps(func)
        def recorded(**params):
            ran.append(params)
            return func(**params)

        monkeypatch.setitem(verify._CHECKS, check, (recorded, *rest))
        code, out, err = run(capsys, "verify", "--check", check, "--grid", grid)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: check {check} at ") and err.endswith(f": {needs}\n")
        assert ran == []

    # the checks that share passed layouts between points take them as an
    # argument the grid cannot name
    @pytest.mark.parametrize(
        "check,grid,name",
        [
            ("beta", "f=3,k=1,r=0,x=1", "x"),
            ("beta", "f=3,k=1,r=0,laid_out=1", "laid_out"),
            ("realize-roundtrip", "m=4,laid_out=1", "laid_out"),
        ],
    )
    def test_unknown_grid_name_exit_2(self, capsys, check, grid, name):
        code, out, err = run(capsys, "verify", "--check", check, "--grid", grid)
        assert code == 2 and out == ""
        assert err.startswith(f"error: check {check} at ") and err.endswith(f"got an unexpected keyword argument '{name}'\n")

    @pytest.mark.parametrize("grid", [";", ""])
    def test_grid_without_a_point_exit_2(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--check", "beta", "--grid", grid)
        assert code == 2 and out == "" and err == "error: check beta: the grid has no point\n"

    def test_vacuous_point_after_a_valid_one_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--check", "regular-unique", "--grid", "n=5;n=3")
        assert code == 2 and out == "" and err.count("\n") == 1

    # the smallest points each check accepts still test something
    @pytest.mark.parametrize(
        "check,grid,detail",
        [
            ("realize-roundtrip", "m=4,k=1,r=0", "2 matrices up to order 4"),
            ("regular-unique", "n=4", "2 fibers up to length 4"),
            ("dual-matrix", "n=4", "3 diagrams up to length 4"),
            ("length-bound", "n=4", "2 proper diagrams up to length 4"),
            ("theta", "m=4,k=1", "2 faces vs 2 relevant-arc diagrams"),
            ("kappa", "m=4,k=1", "|S|=2, distinct images 2, product size 2 (star 0, relevant 2)"),
        ],
    )
    def test_smallest_accepted_point(self, capsys, check, grid, detail):
        code, out, _ = run(capsys, "verify", "--check", check, "--grid", grid)
        assert code == 0 and out.splitlines()[0] == f"{check}[{grid}]: pass -- {detail}"

    @pytest.mark.parametrize("grid", ["f=3,k=2,r=0", "f=5,k=3,r=0"])
    def test_theorem_holds_where_f_plus_1_is_2k(self, capsys, grid):
        code, out, _ = run(capsys, "verify", "--check", "thm12", "--grid", grid)
        assert code == 0 and out.endswith("thm12: pass\n")

    def test_thm12_failure_names_a_maximal_member_below_the_top(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "thm12", "--grid", "f=3,k=1,r=3")
        assert code == 1
        match = re.fullmatch(
            r"thm12\[f=3,k=1,r=3\]: FAIL -- .*, pure False; maximal (\S+) has upper entry sum (\d+) < (\d+)",
            out.splitlines()[0],
        )
        assert match is not None
        rows = [tuple(map(int, row.split(","))) for row in match.group(1).split(";")]
        key = tuple(rows[i - 1][j - 1] for i, j in upper_positions(4))
        assert SymmetricMatrix(rows) == matrices_from_keys(4, [key])[0]
        family = set(enumerate_matrix_keys(4, 1, 3))
        assert key in family
        assert all(key[:p] + (v + 1,) + key[p + 1 :] not in family for p, v in enumerate(key))
        top = max(map(sum, family))
        assert (int(match.group(2)), int(match.group(3))) == (sum(key), top) and sum(key) < top

    def test_cap_refused_exit_2(self, capsys):
        code, out, err = run(capsys, "--cap", "5", "verify", "--check", "thm11", "--grid", "f=4,k=1")
        assert code == 2 and out == "" and err == "error: verify takes no --cap\n"

    @pytest.mark.parametrize("check", check_names())
    def test_default_grid_binds_and_meets_its_own_needs(self, check):
        func, default_grid, holds, _ = verify._CHECKS[check]
        assert default_grid
        for params in default_grid:
            bound = inspect.signature(func).bind(**params)
            bound.apply_defaults()
            assert holds(**bound.arguments), params

    def test_grid_point_may_leave_out_defaulted_names(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "realize-roundtrip", "--grid", "m=4,k=1")
        assert code == 0 and out.startswith("realize-roundtrip[m=4,k=1]: pass -- ")

    def test_jobs_flag_is_gone(self, capsys):
        code, *_ = run(capsys, "--jobs", "4", "verify", "--check", "thm11", "--grid", "f=4,k=1")
        assert code == 2

    def test_unknown_check_exit_2(self, capsys):
        code, *_ = run(capsys, "verify", "--check", "nope")
        assert code == 2

    def test_failing_report_exit_1(self, capsys, monkeypatch):
        report = VerificationReport(
            "thm11", [CheckPoint({"f": 4, "k": 1}, False, "forced failure")]
        )
        monkeypatch.setattr(cli, "run_check", lambda name, grid: report)
        code, out, _ = run(capsys, "verify", "--check", "thm11")
        assert code == 1
        assert "FAIL" in out


class TestGlobalCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("inspect", "n=5; arcs=(1,3)"),
            ("canonicalize", "n=7; arcs=(1,4),(2,6)"),
            ("dual", "n=5; arcs=(2,4)"),
            ("blowup", "n=5; arcs=(1,3),(3,5)"),
            ("equiv", "n=5; arcs=(1,3)", "n=5; arcs=(2,4)"),
        ],
    )
    def test_commands_that_ignore_a_cap_refuse_it(self, capsys, argv):
        code, out, err = run(capsys, "--cap", "0", *argv)
        assert code == 2 and out == "" and err == f"error: {argv[0]} takes no --cap\n"

    def test_homology_caps_the_faces_it_builds(self, capsys, tmp_path):
        # the facet missing the apex alone has 2^12 faces
        facets = tmp_path / "facets.txt"
        facets.write_text(
            ",".join(f"a{i}" for i in range(12)) + "\n" + ",".join(f"b{i}" for i in range(12)) + "\n"
        )
        code, out, err = run(capsys, "--cap", "100", "homology", "--facets", str(facets))
        assert code == 3 and out == "" and err == "resource cap: homology exceeded 100 faces\n"
        code, out, _ = run(capsys, "--cap", "4096", "homology", "--facets", str(facets))
        assert code == 0 and out == "H~_0 = Z\n"

    def test_negative_cap_exit_2(self, capsys):
        code, out, err = run(capsys, "--cap", "-1", "complex", "--T", "6", "2")
        assert code == 2 and out == "" and err == "error: --cap must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# any command line drawn from the grammar ends in an exit code, never a raise

# r stays below 3, so that no family of proper diagrams gets large
_PARAM = st.sampled_from("nmfkrx").flatmap(
    lambda name: st.integers(-1, 2 if name == "r" else 3).map(lambda value: f"{name}={value}")
)
_DIAGRAMS = st.one_of(
    st.builds(
        lambda n, arcs: f"n={n}; arcs=" + ",".join(f"({a},{b})" for a, b in arcs),
        st.integers(0, 9),
        st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=4),
    ),
    st.text(max_size=12),
)
_MATRICES = st.builds(
    lambda order, rows: json.dumps({"order": order, "rows": rows}),
    st.integers(0, 4),
    st.lists(st.lists(st.integers(-1, 3), max_size=4), max_size=4),
)
_PARAMS = st.lists(_PARAM, max_size=4).map(",".join)
# path kinds, replaced in the test by paths under a fresh directory
_PATHS = st.sampled_from(["<file>", "<dir>", "<missing>/x"])
_COMMANDS = [
    "inspect", "canonicalize", "dual", "blowup", "equiv", "realize",
    "enum", "poset", "complex", "homology", "verify",
]


@st.composite
def _argvs(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.booleans()):
        argv += ["--cap", str(draw(st.sampled_from([-1, 0, 1, 5, 1000])))]
    command = draw(st.sampled_from(_COMMANDS))
    argv.append(command)
    if command in ("inspect", "canonicalize", "dual", "blowup"):
        argv.append(draw(_DIAGRAMS))
    elif command == "equiv":
        argv += [draw(_DIAGRAMS), draw(_DIAGRAMS)]
    elif command == "realize":
        argv.append(draw(st.one_of(_MATRICES, _PATHS)))
    elif command in ("enum", "poset"):
        argv += ["--family", draw(st.sampled_from(["S", "So", "Sstar", "M", "P", "D"])), "--params", draw(_PARAMS)]
        if command == "poset" and draw(st.booleans()):
            argv += ["--dot", draw(_PATHS)]
        if command == "poset" and draw(st.booleans()):
            argv.append("--stats")
    elif command == "complex":
        argv += ["--T", str(draw(st.integers(-1, 8))), str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            argv += ["--facets", draw(_PATHS)]
    elif command == "homology":
        argv += ["--facets", draw(_PATHS)]
    else:
        # always a grid: the default grids take seconds to minutes
        argv += ["--check", draw(st.sampled_from(check_names()))]
        argv += ["--grid", draw(st.lists(_PARAMS, min_size=1, max_size=2).map(";".join))]
    return argv


# Runs the argv lists given as JSON in one fresh process and prints, per
# call, the exit code, stdout and stderr, and the seconds it took, plus
# whether argparse was imported by the end.
_SEQUENCE_PROBE = """
import contextlib, io, json, sys, time
from arcposet import cli
results, seconds = [], []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    seconds.append(time.perf_counter() - start)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"results": results, "seconds": seconds, "argparse": "argparse" in sys.modules}))
"""


def _hold_to_one_gigabyte():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


def _run_in_fresh_process(*argvs):
    # held to 1 GB of address space and 120 s, so that a command which
    # would exhaust memory or never end fails the test, not the suite
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(arcposet.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", _SEQUENCE_PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=120,
        preexec_fn=_hold_to_one_gigabyte,
    )
    return json.loads(done.stdout)


class TestParserCache:
    SEQUENCES = {
        "json then text": (
            ["--format", "json", "inspect", "n=7; arcs=(1,4),(2,6)"],
            ["inspect", "n=7; arcs=(1,4),(2,6)"],
        ),
        "grid then default grid": (
            ["verify", "--check", "length-bound", "--grid", "n=6"],
            ["verify", "--check", "length-bound"],
        ),
        "argument error then valid": (
            ["inspect"],
            ["canonicalize", "n=7; arcs=(1,4),(2,6)"],
        ),
        "cap then no cap": (
            ["--cap", "5", "enum", "--family", "S", "--params", "n=5,k=1"],
            ["enum", "--family", "S", "--params", "n=5,k=1"],
        ),
    }

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_later_calls_match_first_calls(self, name):
        first, second = self.SEQUENCES[name]
        together = _run_in_fresh_process(first, second)["results"]
        alone = [_run_in_fresh_process(argv)["results"][0] for argv in (first, second)]
        assert together == alone
        assert together[0] != together[1]

    def test_argparse_is_never_imported(self):
        # the command line is read from the tables in arcposet.cli, so no
        # call pays for importing argparse and building its parsers
        first, second = self.SEQUENCES["json then text"]
        assert _run_in_fresh_process(first, second)["argparse"] is False


class TestArgumentErrors:
    # int() would read each of these: '_' separators, a '+' sign, and
    # digits of other scripts (Arabic-Indic, fullwidth)
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--check", "beta", "--grid", "f=3,k=1,r=1_0"], "bad parameter 'r=1_0'; expected name=int"),
            (["enum", "--family", "S", "--params", "n=+6,k=2"], "bad parameter 'n=+6'; expected name=int"),
            (["complex", "--T", "\u0667", "2"], "--T needs an integer, got '\u0667'"),
            (["complex", "--T", "6", "\uff12"], "--T needs an integer, got '\uff12'"),
            (["--cap", "1_000", "complex", "--T", "6", "2"], "--cap needs an integer, got '1_000'"),
            (
                ["canonicalize", "n=\u0669; arcs=(1,4),(5,9),(6,8)"],
                "malformed diagram text: 'n=\u0669; arcs=(1,4),(5,9),(6,8)'",
            ),
            (
                ["inspect", "n=9; arcs=(1,4),(5,\u0669),(6,8)"],
                "malformed diagram text: 'n=9; arcs=(1,4),(5,\u0669),(6,8)'",
            ),
        ],
        ids=["grid-underscore", "params-plus", "T-arabic-indic", "T-fullwidth", "cap-underscore", "length", "arc"],
    )
    def test_integer_not_in_ascii_digits_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_negative_integers_still_read(self, capsys):
        code, out, err = run(capsys, "complex", "--T", "6", "-2")
        assert code == 2 and err == "error: k must be >= 1, got -2\n"
        code, out, err = run(capsys, "verify", "--check", "beta", "--grid", "f=3,k=1,r=-1")
        assert code == 2 and err.endswith(": the check needs f >= 3, k >= 1 and r >= 0\n")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nope"],
            ["verify", "--check", "thm11", "--grid", "f=4,k=1", "--jobs", "4"],
            ["verify"],
            ["enum", "--params", "n=5,k=1"],
            ["complex"],
            ["homology"],
            ["poset", "--family", "Q", "--params", "f=4,k=1,r=0"],
            ["verify", "--check", "nope"],
            ["--format", "xml", "inspect", "n=5; arcs=(1,3)"],
            ["--cap", "x", "complex", "--T", "6", "2"],
            ["complex", "--T", "6", "x"],
            ["complex", "--T", "6"],
            ["equiv", "n=5; arcs=(1,3)", "n=5; arcs=(2,4)", "n=5; arcs=(1,4)"],
            ["poset", "--family", "P", "--params", "f=4,k=1,r=0", "--format", "json"],
        ],
        ids=[
            "no-command", "unknown-command", "unknown-option", "missing-check", "missing-family",
            "missing-T", "missing-facets", "bad-family", "bad-check", "bad-format", "non-int-cap",
            "non-int-T", "one-T-value", "extra-positional", "format-after-command",
        ],
    )
    def test_one_error_line_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "usage:" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"], ["--format", "json", "poset", "-h"]])
    def test_help_exit_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: arcposet ")
        if "verify" in argv:
            assert "--check NAME" in out and "thm11" in out

    @pytest.mark.parametrize("argv", [["homology", "--facets"], ["realize"]], ids=["homology", "realize"])
    def test_undecodable_file_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"a,b\n\xff,c\n")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err and "not UTF-8" in err and err.count("\n") == 1


class TestRefusedBeforeBuilt:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--cap", "1000", "poset", "--family", "M", "--params", "m=4,k=1,r=99999999999999999999"],
                "matrix search exceeded 1000 nodes",
            ),
            (["complex", "--T", "100000", "1"], "complex search exceeded 10000000 subsets"),
            (["--cap", "1000", "complex", "--T", "120", "1"], "complex search exceeded 1000 subsets"),
            (
                ["complex", "--T", "20002", "10000"],
                "the crossing graph of the 10001 diagonals of T(20002,10000) takes 50005000 pair tests, "
                "over the cap of 10000000",
            ),
            (
                ["complex", "--T", "2002", "1000"],
                "a facet of T(2002,1000) holds 1000 diagonals, over the search depth limit of 500",
            ),
            (
                ["verify", "--check", "regular-unique", "--grid", "n=600"],
                "a matching of length 600 has 600 sites, over the search depth limit of 500",
            ),
            (
                ["poset", "--family", "M", "--params", "m=50,k=1,r=0", "--stats"],
                "a key of order 50 has 1224 positions, over the search depth limit of 500",
            ),
            (
                ["verify", "--check", "thm12", "--grid", "f=49,k=1,r=0"],
                "a key of order 50 has 1224 positions, over the search depth limit of 500",
            ),
            (
                ["verify", "--check", "tau", "--grid", "f=49,k=1"],
                "a key of order 50 has 1224 positions, over the search depth limit of 500",
            ),
            (
                ["verify", "--check", "realize-roundtrip", "--grid", "m=40,k=1,r=0"],
                "a key of order 40 has 779 positions, over the search depth limit of 500",
            ),
        ],
        ids=[
            "huge-r",
            "huge-polygon",
            "polygon-over-cap",
            "crossing-graph",
            "search-depth",
            "matching-depth",
            "matrix-depth",
            "thm12-depth",
            "tau-depth",
            "roundtrip-depth",
        ],
    )
    def test_a_huge_input_exits_3_within_a_second(self, argv, message):
        done = _run_in_fresh_process(argv)
        assert done["results"] == [[3, "", f"resource cap: {message}\n"]]
        assert done["seconds"][0] < 1


class TestLongInputs:
    # held to 1 GB: S must count its masks against the cap before it makes
    # anything per member, and equiv must not build block matrices of order n-1
    @pytest.mark.parametrize(
        "argv",
        [["poset", "--family", "S", "--params", "n=30,k=1", "--stats"], ["enum", "--family", "S", "--params", "n=40,k=1"]],
        ids=["poset-stats", "enum"],
    )
    def test_an_inclusion_family_over_its_cap_exits_3(self, argv):
        done = _run_in_fresh_process(argv)
        assert done["results"] == [[3, "", "resource cap: family exceeds cap 1000000\n"]]
        assert done["seconds"][0] < 10

    @pytest.mark.parametrize(
        "argv, order",
        [
            (["inspect", "n=1000000; arcs=(1,3)"], 999999),
            (["inspect", "n=1000000000; arcs=(1,3)"], 999999999),
            (["--format", "json", "inspect", "n=1000000; arcs=(1,3)"], 999999),
            (["inspect", "n=4000; arcs=(1,3)"], 3999),
        ],
        ids=["text", "huge", "json", "just-over"],
    )
    def test_inspect_refuses_a_block_matrix_over_the_cap(self, argv, order):
        done = _run_in_fresh_process(argv)
        message = f"inspect would print a block matrix of order {order} ({order * order} entries), over cap 10000000"
        assert done["results"] == [[3, "", f"resource cap: {message}\n"]]
        assert done["seconds"][0] < 5

    def test_equiv_on_a_long_diagram(self):
        same = ["equiv", "n=1000000; arcs=(1,3)", "n=1000000; arcs=(1,3)"]
        other = ["equiv", "n=1000000; arcs=(1,3)", "n=1000000; arcs=(1,4)"]
        done = _run_in_fresh_process(same, other)
        assert done["results"] == [[0, "equivalent\n", ""], [0, "not equivalent\n", ""]]
        assert max(done["seconds"]) < 10


@settings(max_examples=300, deadline=None)
@given(_argvs(), st.sampled_from(["", "1,2,3\n", "{}"]))
def test_any_command_line_returns_an_exit_code(argv, content):
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/file", "w", encoding="utf-8") as handle:
            handle.write(content)
        paths = {"<file>": f"{tmp}/file", "<dir>": tmp, "<missing>": f"{tmp}/missing"}
        for kind, path in paths.items():
            argv = [arg.replace(kind, path) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    assert code in (0, 1, 2, 3)
    # a negative cap, or a cap on a command that does not use one, is refused
    if "--cap" in argv:
        command = next(arg for arg in argv if arg in _COMMANDS)
        if argv[argv.index("--cap") + 1] == "-1" or command not in cli.CAPPED_COMMANDS:
            assert code == 2


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [["complex", "--T", "11", "2"], ["enum", "--family", "M", "--params", "m=6,k=2,r=2"]],
        ids=["complex", "enum"],
    )
    def test_a_reader_that_stops_early_ends_the_command_quietly(self, argv):
        # both outputs far exceed a pipe's buffer, so writes fail once the
        # read end is closed
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(arcposet.__file__))}
        with subprocess.Popen(
            [sys.executable, "-m", "arcposet.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as child:
            assert child.stdout.readline()
            child.stdout.close()
            stderr = child.stderr.read()
            assert child.wait(timeout=120) == 0
        assert b"Traceback" not in stderr
        assert stderr == b""
