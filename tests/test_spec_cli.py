import argparse
import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oblique.group
import oblique.lattice
import oblique.towers
from oblique import PermGroup, SpecError, build_group, parse_spec
from oblique.caps import DEFAULT_CAPS, CapExceeded, Caps
from oblique.cli import main
from oblique.perm import Permutation


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# the spec language


ROUND_TRIP_SPECS = [
    "cyclic(8)",
    "sym(4)",
    "alt(5)",
    "dihedral(6)",
    "perm(4, (1 2)(3 4), (1 3)(2 4))",
    "direct(sym(3), cyclic(2))",
    "wreath(cyclic(2), 3, cyclic(3))",
    "affine(2, 2, [[1, 1], [0, 1]], [[0, 1], [1, 0]])",
    "sylow_of(sym(4), 2)",
    "quotient(sym(4), perm(4, (1 2)(3 4), (1 3)(2 4)))",
    "direct(wreath(sym(3), 2, cyclic(2)), alt(4))",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS)
def test_parse_print_round_trip(text):
    spec = parse_spec(text)
    printed = str(spec)
    assert parse_spec(printed) == spec
    assert str(parse_spec(printed)) == printed


def test_build_examples():
    assert build_group(parse_spec("cyclic(8)")).order == 8
    assert build_group(parse_spec("sym(5)")).order == 120
    assert build_group(parse_spec("dihedral(7)")).order == 14
    assert build_group(parse_spec("wreath(cyclic(2), 2, cyclic(2))")).order == 8
    assert build_group(parse_spec("affine(2, 2, [[1, 1], [0, 1]], [[0, 1], [1, 0]])")).order == 24
    assert build_group(parse_spec("sylow_of(sym(4), 2)")).order == 8
    q = build_group(parse_spec("quotient(sym(4), perm(4, (1 2)(3 4), (1 3)(2 4)))"))
    assert q.order == 6
    g = build_group(parse_spec("perm(5, (1 2 3 4 5), (1 2))"))
    assert g.order == 120


def test_syntax_errors_carry_position():
    with pytest.raises(SpecError) as err:
        parse_spec("cyclic(8")
    assert err.value.line == 1 and err.value.column > 1
    with pytest.raises(SpecError):
        parse_spec("cyclic(8) trailing")
    with pytest.raises(SpecError):
        parse_spec("frobnicate(3)")
    with pytest.raises(SpecError):
        parse_spec("direct(sym(3)")
    with pytest.raises(SpecError):
        parse_spec("")


_KNOWN = "['affine', 'alt', 'cyclic', 'dihedral', 'direct', 'perm', 'quotient', 'sylow_of', 'sym', 'wreath']"

# one malformed spec per error site of the grammar: (text, message, line, column)
ERROR_SITES = [
    ("frobnicate(3)", f"unknown constructor 'frobnicate' (expected one of {_KNOWN})", 1, 1),
    ("", "expected a constructor name", 1, 1),
    ("   ", "expected a constructor name", 1, 4),
    ("cyclic 8", "expected '(', got '8'", 1, 8),
    ("cyclic(8", "expected ')', got 'end of input'", 1, 9),
    ("cyclic(8 9)", "expected ')', got '9'", 1, 10),
    ("sym(4", "expected ')', got 'end of input'", 1, 6),
    ("alt(5 ", "expected ')', got 'end of input'", 1, 7),
    ("dihedral(6,", "expected ')', got ','", 1, 11),
    ("perm(3 (1 2))", "expected ')', got '('", 1, 8),
    ("perm(3, (1 2)", "expected ')', got 'end of input'", 1, 14),
    ("perm(3, (1 2) 4)", "expected ')', got '4'", 1, 15),
    ("direct(sym(3) sym(3))", "expected ',', got 's'", 1, 15),
    ("direct(sym(3)", "expected ',', got 'end of input'", 1, 14),
    ("direct(sym(3), sym(3)", "expected ')', got 'end of input'", 1, 22),
    ("wreath(cyclic(2) 2, cyclic(2))", "expected ',', got '2'", 1, 18),
    ("wreath(cyclic(2), 2 cyclic(2))", "expected ',', got 'c'", 1, 21),
    ("wreath(cyclic(2), 2, cyclic(2)", "expected ')', got 'end of input'", 1, 31),
    ("affine(2 2)", "expected ',', got '2'", 1, 10),
    ("affine(2, 2 [[1]])", "expected ')', got '['", 1, 13),
    ("affine(2, 2, [[1]]", "expected ')', got 'end of input'", 1, 19),
    ("sylow_of(sym(4) 2)", "expected ',', got '2'", 1, 17),
    ("sylow_of(sym(4), 2", "expected ')', got 'end of input'", 1, 19),
    ("quotient(sym(4) sym(4))", "expected ',', got 's'", 1, 17),
    ("quotient(sym(4), sym(4)", "expected ')', got 'end of input'", 1, 24),
    ("cyclic(x)", "expected an integer", 1, 8),
    ("cyclic(-)", "expected an integer", 1, 8),
    ("cyclic(\u00b2)", "expected an integer", 1, 8),
    ("wreath(cyclic(2), two, cyclic(2))", "expected an integer", 1, 19),
    ("direct(3, sym(2))", f"unknown constructor '3' (expected one of {_KNOWN})", 1, 8),
    ("direct(sym(2), foo(1))", f"unknown constructor 'foo' (expected one of {_KNOWN})", 1, 15),
    ("sylow_of(, 2)", "expected a constructor name", 1, 10),
    ("perm(3, 1 2)", "expected a permutation literal such as (1 2 3)(4 5)", 1, 9),
    ("perm(3, (1 2)(1 x))", "expected a permutation literal such as (1 2 3)(4 5)", 1, 14),
    ("perm(3, (0 1))", "cycle notation is 1-based; saw a point < 1", 1, 9),
    ("perm(3, (1 1))", "repeated point in cycle [0, 0]", 1, 9),
    ("perm(3, (1 2)\n  (1 x))", "expected a permutation literal such as (1 2 3)(4 5)", 2, 3),
    ("perm(3, (1 4))", "point 4 exceeds degree 3", 1, 9),
    ("affine(2, 2, 1)", "expected '[', got '1'", 1, 14),
    ("affine(2, 2, [1])", "expected '[', got '1'", 1, 15),
    ("affine(2, 2, [[1 1]])", "expected ']', got '1'", 1, 18),
    ("affine(2, 2, [[1, 1] [0, 1]])", "expected ']', got '['", 1, 22),
    ("affine(2, 2, [[1,]])", "expected an integer", 1, 18),
    ("affine(2, 2, [[1, 1],])", "expected '[', got ']'", 1, 22),
    ("affine(2, 2, [[1, 1]], )", "expected '[', got ')'", 1, 24),
    ("cyclic(8) trailing", "unexpected trailing input 'trailing'", 1, 11),
    ("cyclic(8))", "unexpected trailing input ')'", 1, 10),
]


@pytest.mark.parametrize("text, message, line, column", ERROR_SITES)
def test_each_error_site_reports_its_message_and_position(text, message, line, column):
    with pytest.raises(SpecError) as err:
        build_group(parse_spec(text))
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_malformed_permutation_literals_raise_spec_errors():
    for text in ("perm(3, (1 -2))", "perm(3, (0 1))", "perm(3, (1 2)(3)", "perm(3, (-))", "perm(3, (1 2)(1 x))"):
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert err.value.line == 1, text
    # a malformed cycle is reported where it starts
    with pytest.raises(SpecError) as err:
        parse_spec("perm(3, (1 2)\n  (1 x))")
    assert (err.value.line, err.value.column) == (2, 3)


def test_semantic_errors():
    with pytest.raises(SpecError):
        build_group(parse_spec("alt(2)"))
    with pytest.raises(SpecError):
        build_group(parse_spec("dihedral(2)"))
    with pytest.raises(SpecError):
        # the alleged normal subgroup is not normal
        build_group(parse_spec("quotient(sym(4), perm(4, (1 2)))"))
    with pytest.raises(SpecError):
        # permutation exceeds declared degree
        build_group(parse_spec("perm(3, (1 4))"))


# ---------------------------------------------------------------------------
# CLI commands


def test_invariants_sym4():
    code, out, err = run_cli("invariants", "sym(4)")
    assert code == 0 and err == ""
    report = json.loads(out)
    inv = report["invariants"]
    assert inv["order"] == 24
    assert inv["fitting"] == 4
    assert inv["layer"] == 1
    assert inv["generalized_fitting"] == 4
    assert inv["frattini_normal"] == 12
    assert inv["cores"] == {"2": 4, "3": 1}
    assert report["provenance"]["seed"] == 0


def test_cli_output_is_byte_stable():
    first = run_cli("fusion", "sym(4)", "--p", "2", "--alperin")
    second = run_cli("fusion", "sym(4)", "--p", "2", "--alperin")
    assert first == second
    assert first[0] == 0


def test_ob_table_csv_golden(tmp_path):
    csv_path = tmp_path / "ob.csv"
    code, out, err = run_cli("ob-table", "cyclic(8)", "--max-n", "8", "--csv", str(csv_path))
    assert code == 0
    golden = "n,ob\n1,1\n2,2\n3,2\n4,4\n5,4\n6,4\n7,4\n8,8\n"
    assert csv_path.read_text() == golden
    report = json.loads(out)
    assert [r["ob"] for r in report["ob_table"]] == [1, 2, 2, 4, 4, 4, 4, 8]


def test_ob_table_star_column(tmp_path):
    csv_path = tmp_path / "ob.csv"
    code, out, _ = run_cli(
        "ob-table", "sym(3)", "--max-n", "3", "--star", "--csv", str(csv_path)
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,ob,ob_star"
    report = json.loads(out)
    for row in report["ob_table"]:
        assert row["ob_star"] >= row["ob"]


def test_json_file_matches_stdout(tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run_cli("invariants", "alt(5)", "--json", str(json_path))
    assert code == 0
    assert json_path.read_text() == out


def test_tate_command():
    code, out, _ = run_cli("tate", "sym(3)", "--p", "2", "--K", "self")
    assert code == 0
    tate = json.loads(out)["tate"]
    assert tate == {
        "derived": True,
        "frattini_quotient": True,
        "mixed": True,
        "p_residual": True,
        "controls_transfer": True,
        "all_agree": True,
    }
    code, out, _ = run_cli("tate", "sym(4)", "--p", "2", "--K", "sylow_of(sym(4), 2)")
    assert code == 0
    tate = json.loads(out)["tate"]
    assert tate["controls_transfer"] is False and tate["all_agree"] is True


def test_fusion_command():
    code, out, _ = run_cli("fusion", "sym(4)", "--p", "2", "--alperin")
    assert code == 0
    report = json.loads(out)
    assert report["sylow_order"] == 8
    assert len(report["classes"]) == 8
    assert report["alperin"]["holds"] is True
    k = len(report["classes"])
    matrix = report["fusion_matrix"]
    for i in range(k):
        assert matrix[i][i] == 1
        for j in range(k):
            assert matrix[i][j] == matrix[j][i]


def test_tower_command(tmp_path):
    csv_path = tmp_path / "tower.csv"
    code, out, _ = run_cli(
        "tower", "--family", "cyclic", "--params", "2,4", "--max-n", "3", "--csv", str(csv_path)
    )
    assert code == 0
    report = json.loads(out)["tower"]
    assert [lvl["order"] for lvl in report["levels"]] == [2, 4, 8, 16]
    assert report["fitting_indices"] == [1, 1, 1, 1]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "level,n,ob,stable"
    assert all(line.split(",")[-1] in ("true", "false") for line in lines[1:])


def test_tower_fitting_family():
    code, out, _ = run_cli("tower", "--family", "fitting", "--params", "2,3")
    assert code == 0
    report = json.loads(out)["tower"]
    assert [lvl["order"] for lvl in report["levels"]] == [2, 18]
    assert report["fitting_indices"] == [1, 2]


# ---------------------------------------------------------------------------
# exit codes and diagnostics


def test_exit_code_1_on_bad_spec():
    code, out, err = run_cli("invariants", "frobnicate(3)")
    assert code == 1 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "input"


def test_exit_code_1_on_bad_arguments():
    code, _, err = run_cli("ob-table", "sym(3)")  # missing --max-n
    assert code == 1
    assert json.loads(err)["error"] == "input"
    code, _, err = run_cli("tate", "sym(3)", "--p", "2", "--K", "cyclic(5)")
    assert code == 1  # K is not a subgroup of G
    code, _, err = run_cli("invariants", "sym(3)", "--csv", "/tmp/never.csv")
    assert code == 1  # invariants has no CSV report


def test_exit_code_1_on_cyclic_tower_with_non_prime():
    code, out, err = run_cli("tower", "--family", "cyclic", "--params", "1,3")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "input", "message": "1 is not prime"}


def test_exit_code_1_on_wreath_tower_with_non_prime():
    code, out, err = run_cli("tower", "--family", "wreath", "--params", "4,2")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "input", "message": "4 is not prime"}


def test_exit_code_1_on_fitting_tower_with_non_prime():
    for params, bad in (("4,3", "4"), ("1,2", "1"), ("2,9", "9")):
        code, out, err = run_cli("tower", "--family", "fitting", "--params", params)
        assert code == 1 and out == "" and err.count("\n") == 1, params
        assert json.loads(err) == {"error": "input", "message": f"{bad} is not prime"}


def test_exit_code_1_on_affine_with_negative_dimension():
    code, out, err = run_cli("invariants", "affine(2,-1)")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "input"
    assert "dimension -1 is negative" in json.loads(err)["message"]
    code, out, _ = run_cli("invariants", "affine(2,0)")
    assert code == 0 and json.loads(out)["invariants"]["order"] == 1


def test_exit_code_1_on_integer_without_digits():
    """A '-' with no digits, or a digit that int() rejects, is placed like
    every other spec error."""
    for spec, column in (("cyclic(-)", 8), ("cyclic(²)", 8), ("affine(2, 2, [[1, -]])", 19)):
        code, out, err = run_cli("invariants", spec)
        assert code == 1 and out == "" and err.count("\n") == 1, spec
        assert json.loads(err) == {"error": "input", "message": f"expected an integer (line 1, column {column})"}


def test_exit_code_1_on_tate_with_p_below_two():
    """p = 1 and p = -1 used to loop forever in p_part, so each case runs in
    its own process with a timeout: a hang fails the test instead of the run."""
    for p in ("0", "1", "-1"):
        done = subprocess.run(
            [sys.executable, "-m", "oblique.cli", "tate", "sym(4)", "--p", p],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1 and done.stdout == "", p
        assert done.stderr.count("\n") == 1, p
        assert json.loads(done.stderr) == {"error": "input", "message": f"{p} is not prime"}


def test_exit_code_1_on_tower_max_n_below_one():
    for value in ("0", "-2"):
        code, out, err = run_cli("tower", "--family", "cyclic", "--params", "2,3", "--max-n", value)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "input", "message": "--max-n must be at least 1"}


def test_exit_code_1_on_unwritable_report_path(tmp_path):
    commands = (("--json", ("invariants", "sym(4)")), ("--csv", ("ob-table", "sym(3)", "--max-n", "2")))
    for flag, command in commands:
        target = tmp_path / "missing" / "report.out"
        code, out, err = run_cli(*command, flag, str(target))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "input"


def test_exit_code_2_on_cap():
    code, out, err = run_cli("invariants", "sym(10)", "--cap-degree", "5")
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "cap"
    assert "degree" in diag["message"]


@pytest.mark.parametrize(
    "argv, power",
    [
        (("invariants", "affine(3, 100000)"), "3^100000"),
        (("tower", "--family", "cyclic", "--params", "2,100000"), "2^100000"),
        (("tower", "--family", "wreath", "--params", "2,100000"), "2^100000"),
        (("tower", "--family", "fitting", "--params", "2,61,101"), "101^3721"),
        (("tower", "--family", "fitting", "--params", "2,61,2"), "2^3721"),
        (("tower", "--family", "fitting", "--params", "2,3,2,3"), "level 4 needs degree 3^512"),
    ],
)
def test_degree_cap_refuses_a_huge_power_unformed(monkeypatch, argv, power):
    """A degree p^d whose exponent reaches the cap's bit length is refused
    before p^d is formed, and named as the text p^d, not as a number of
    hundreds of digits (or more than Python converts to a string). A Fitting
    tower checks every level's degree before it builds any level above the head."""
    calls, build = [], oblique.towers.affine_semidirect
    monkeypatch.setattr(oblique.towers, "affine_semidirect", lambda *a, **k: calls.append(a) or build(*a, **k))
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and err.count("\n") == 1 and len(err) < 200
    diag = json.loads(err)
    assert diag["error"] == "cap" and power in diag["message"] and "Traceback" not in err
    assert calls == []


def _record_permutation_degrees(monkeypatch):
    """The degree of every Permutation built from now on."""
    degrees, init = [], Permutation.__init__

    def recording(self, images):
        images = tuple(images)
        degrees.append(len(images))
        init(self, images)

    monkeypatch.setattr(Permutation, "__init__", recording)
    return degrees


@pytest.mark.parametrize(
    "make",
    [
        lambda caps: PermGroup.alternating(100, caps=caps),
        lambda caps: PermGroup.symmetric(100, caps=caps),
        lambda caps: PermGroup.cyclic(100, caps=caps),
        lambda caps: PermGroup.dihedral(100, caps=caps),
        lambda caps: build_group(parse_spec("perm(100, (1 2))"), caps),
    ],
    ids=["alt", "sym", "cyclic", "dihedral", "perm"],
)
def test_degree_cap_is_checked_before_a_permutation_of_that_degree_is_built(monkeypatch, make):
    degrees = _record_permutation_degrees(monkeypatch)
    with pytest.raises(CapExceeded):
        make(Caps(degree=8))
    assert max(degrees, default=0) <= 8


def test_literal_beyond_the_declared_degree_is_refused_before_it_is_built(monkeypatch):
    degrees = _record_permutation_degrees(monkeypatch)
    with pytest.raises(SpecError, match=r"point 100 exceeds degree 3 \(line 1, column 9\)"):
        parse_spec("perm(3, (1 100))")
    assert max(degrees, default=0) <= 3


def test_exit_code_2_on_order_cap_before_fusion_walks():
    code, out, err = run_cli("fusion", "sym(6)", "--p", "2", "--cap-order", "500")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "cap", "message": "cap order_enum=500 exceeded (needed 720)"}


def test_exit_code_1_on_cap_below_one():
    for flag, value in (("--cap-lattice", "-5"), ("--cap-order", "0"), ("--cap-aut", "-1")):
        code, out, err = run_cli("invariants", "sym(4)", flag, value)
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "input", "message": f"{flag} must be at least 1, got {value}"}


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "direct(alt(5),sym(3))"),
        ("ob-table", "sym(4)", "--max-n", "2", "--star"),
        ("tate", "sym(4)", "--p", "2"),
        ("fusion", "sym(4)", "--p", "2", "--alperin"),
        ("tower", "--family", "fitting", "--params", "2,3", "--max-n", "2", "--star"),
        ("tower", "--family", "cyclic", "--params", "2,3"),
        ("tower", "--family", "wreath", "--params", "2,2"),
    ],
)
def test_every_cap_check_uses_the_command_line_caps(monkeypatch, argv):
    seen = []
    check = Caps.check

    def recording(self, cap_name, needed):
        seen.append((self, cap_name))
        return check(self, cap_name, needed)

    monkeypatch.setattr(Caps, "check", recording)
    code, _, err = run_cli(*argv, "--cap-degree", "4000")
    assert code == 0, err
    expected = DEFAULT_CAPS.with_overrides(degree=4000)
    assert seen and [name for caps, name in seen if caps != expected] == []


def test_transitive_class_tables_build_no_factor_group(monkeypatch):
    """A class table tries to split a group over its orbits only when it has
    more than one: the tower levels and S4 build no factor group, S4 x S4
    builds its two."""
    built, restriction = [], oblique.group._restriction
    monkeypatch.setattr(oblique.group, "_restriction", lambda *args: built.append(args) or restriction(*args))
    for argv in (
        ("tower", "--family", "fitting", "--params", "3,5", "--max-n", "4"),
        ("tower", "--family", "fitting", "--params", "7,2"),
        ("tower", "--family", "fitting", "--params", "2,11"),
        ("ob-table", "sym(4)", "--max-n", "4", "--star"),
    ):
        code, _, err = run_cli(*argv)
        assert code == 0 and built == [], (argv, err)
    code, _, err = run_cli("ob-table", "direct(sym(4),sym(4))", "--max-n", "2")
    assert code == 0 and len(built) == 2, err


def test_many_orbit_groups_that_do_not_split_build_no_factor_group(monkeypatch):
    """The semiregular subgroups of C64 have up to 32 orbits and never split:
    one sift per generator rules each orbit out, and no factor group is built."""
    built, restriction = [], oblique.group._restriction
    monkeypatch.setattr(oblique.group, "_restriction", lambda *args: built.append(args) or restriction(*args))
    code, _, err = run_cli("invariants", "cyclic(64)")
    assert code == 0 and built == [], err


def test_ob_star_lists_no_subgroups(monkeypatch):
    """Ob* meets one closure <x^H> per H-class and never lists G's subgroups,
    so S6, with its 1455 subgroups, takes well under the budget."""

    def refuse(*args, **kwargs):
        raise AssertionError("ob* listed every subgroup")

    monkeypatch.setattr(oblique.lattice, "all_subgroups", refuse)
    started = time.perf_counter()
    code, _, err = run_cli("ob-table", "sym(6)", "--max-n", "4", "--star")
    assert code == 0, err
    assert time.perf_counter() - started < 5.0


def test_global_flags_after_subcommand():
    code, out, _ = run_cli("invariants", "sym(3)", "--seed", "7")
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == 7


# ---------------------------------------------------------------------------
# byte stability and process hygiene

GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("ob_table_s4xs4.json", ("ob-table", "direct(sym(4),sym(4))", "--max-n", "12")),
        ("tower_fitting_2_11.json", ("tower", "--family", "fitting", "--params", "2,11", "--max-n", "2")),
        ("invariants_a5xs4.json", ("invariants", "direct(alt(5),sym(4))")),
        ("fusion_s6_p2_alperin.json", ("fusion", "sym(6)", "--p", "2", "--alperin")),
        ("fusion_a7_p3_alperin.json", ("fusion", "alt(7)", "--p", "3", "--alperin")),
        ("ob_table_s4_star.json", ("ob-table", "sym(4)", "--max-n", "4", "--star")),
        # the only reports that close normal-subgroup joins at degree >= 243
        ("invariants_c600.json", ("invariants", "cyclic(600)")),
        ("tower_fitting_2_3_2.json", ("tower", "--family", "fitting", "--params", "2,3,2", "--max-n", "4")),
        # ob* on the order-120 and order-160 groups
        ("ob_table_s5_star.json", ("ob-table", "sym(5)", "--max-n", "6", "--star")),
        ("tower_fitting_5_2_star.json", ("tower", "--family", "fitting", "--params", "5,2", "--max-n", "3", "--star")),
    ],
)
def test_report_bytes_match_golden(name, argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_repeated_main_leaves_no_argparse_garbage():
    argv = ("ob-table", "sym(4)", "--max-n", "2")
    run_cli(*argv)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli(*argv)[0] == 0
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser) or type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_process(*args, **env):
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_importing_the_cli_loads_neither_numpy_nor_sympy():
    code = "import sys, oblique.cli; print([m for m in ('numpy', 'sympy') if m in sys.modules])"
    assert run_process("-c", code) == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("fusion", "direct(alt(4),sym(4))", "--p", "2"),  # in-house Sylow
        ("fusion", "direct(sym(5),sym(5))", "--p", "3"),  # order 14400: sympy Sylow
        ("fusion", "sym(7)", "--p", "2", "--alperin"),  # order 5040: normalizers by orbit-stabilizer
    ],
)
def test_fusion_report_bytes_repeat_across_processes(argv):
    outputs = {run_process("-m", "oblique.cli", *argv, PYTHONHASHSEED=str(seed)) for seed in range(3)}
    assert len(outputs) == 1
