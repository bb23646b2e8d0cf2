"""CLI surface: subcommands, JSON schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ordo.dynamics as ordo_dynamics
from ordo.cli import MAX_INPUT_BYTES, main
from ordo.exactreal import MAX_RADICAND, format_rational
from ordo.groups import MAX_BALL_ELEMENTS, MAX_BALL_LETTERS, parse_element
from ordo.orderings import DehornoyOrdering

from oracles import forest_sort, preorder_forest


@pytest.fixture()
def lex2(tmp_path):
    doc = {
        "group": {"kind": "free_abelian", "rank": 2},
        "ordering": {"type": "flag", "levels": [[{"1": "1"}, {}], [{}, {"1": "1"}]]},
    }
    path = tmp_path / "lex2.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def sqrt2(tmp_path):
    doc = {
        "group": {"kind": "free_abelian", "rank": 2},
        "ordering": {"type": "flag", "levels": [[{"1": "1"}, {"2": "1"}]]},
    }
    path = tmp_path / "sqrt2.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def sqrt3(tmp_path):
    doc = {
        "group": {"kind": "free_abelian", "rank": 2},
        "ordering": {"type": "flag", "levels": [[{"1": "1"}, {"3": "1"}]]},
    }
    path = tmp_path / "sqrt3.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def dehornoy3(tmp_path):
    doc = {
        "group": {"kind": "braid", "strands": 3},
        "ordering": {"type": "dehornoy"},
    }
    path = tmp_path / "dehornoy3.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_rho_lex_dominated(capsys, lex2):
    code, payload = run(capsys, "rho", "--ordering", lex2, "--x", "x1", "x2^5")
    assert code == 0
    assert payload == {"value": 0}


def test_rho_noncofinal_exit_3(capsys, lex2):
    code, payload = run(capsys, "rho", "--ordering", lex2, "--x", "x2", "--cap", "64", "x1")
    assert code == 3
    assert payload["error"] == "NotBracketedWithinCap"


def test_rho_bad_element_exit_2(capsys, lex2):
    code, payload = run(capsys, "rho", "--ordering", lex2, "--x", "x1", "x9")
    assert code == 2
    assert payload["error"] == "ParseError"


def test_unknown_flag_exit_2(capsys, lex2):
    assert main(["rho", "--ordering", lex2, "--nonsense"]) == 2


def test_stable_twisting_number(capsys, dehornoy3):
    code, payload = run(capsys, "stable", "--ordering", dehornoy3,
                        "--x", "s1 s2 s1 s1 s2 s1", "--n", "300", "s1 s2")
    assert code == 0
    assert payload["value"] == "1/3"
    assert payload["radius"] == "1/300"


def test_psi_flag(capsys, sqrt2):
    code, payload = run(capsys, "psi", "--ordering", sqrt2, "--x", "x1")
    assert code == 0
    assert payload["components"][0] == {"exact": {}}
    assert payload["components"][1] == {"exact": {"1": "-1", "2": "1"}}


def test_psitilde_infinity(capsys, lex2):
    code, payload = run(capsys, "psitilde", "--ordering", lex2, "--x", "x2")
    assert code == 0
    assert payload["infinity"] is True


def test_construct_round_trip(capsys, tmp_path):
    out_path = tmp_path / "built.json"
    code, payload = run(capsys, "construct", "--x", "x1",
                        "--tau", '[{"1": "1"}, {"2": "1"}]', "--out", str(out_path))
    assert code == 0
    assert payload["ordering"]["type"] == "flag"
    written = json.loads(out_path.read_text())
    assert written == payload
    code2, psi_payload = run(capsys, "psi", "--ordering", str(out_path), "--x", "x1")
    assert code2 == 0
    assert psi_payload["components"][1] == {"exact": {"1": "-1", "2": "1"}}


@pytest.mark.parametrize("target", ["missing/built.json", "."])
def test_construct_out_unwritable_exit_2(capsys, tmp_path, target):
    out = tmp_path / target
    code, payload = run(capsys, "construct", "--x", "x1", "--tau", '[{"1": "1"}, {"2": "1"}]',
                        "--out", str(out))
    assert code == 2 and payload["error"] == "ParseError"
    assert payload["detail"].startswith(f"cannot write {out}: ")


def test_construct_rejects_bad_tau(capsys):
    code, payload = run(capsys, "construct", "--x", "x1", "--tau", '[{"1": "1/2"}, {}]')
    assert code == 2
    assert payload["error"] == "NotRealizable"


def test_sikora(capsys, sqrt2, lex2):
    code, payload = run(capsys, "sikora", "--ordering", sqrt2)
    assert code == 0
    assert payload["kind"] == "irrational"
    assert payload["slope"] == {"2": "1"}
    code, payload = run(capsys, "sikora", "--ordering", lex2)
    assert payload["kind"] == "rational"
    assert payload["direction"] == [1, 0]
    assert payload["slope"] == {}


def test_convex_verdicts(capsys, lex2):
    code, payload = run(capsys, "convex", "--ordering", lex2, "--x", "x1",
                        "--subgroup", "0 1")
    assert code == 0
    assert payload["outcome"] == "Convex"
    code, payload = run(capsys, "convex", "--ordering", lex2, "--x", "x1",
                        "--subgroup", "1 0", "--brute-radius", "3")
    assert code == 0
    assert payload["outcome"] == "NotConvex"
    assert payload["failed_condition"] == 2
    assert payload["ball_oracle"]["outcome"] == "Violation"


def test_obstruct_infeasible_pair(capsys):
    code, payload = run(capsys, "obstruct", "--anchor", "x",
                        "--expr", "x^1 y^2", "--expr", "x^3 y^-1")
    assert code == 0
    assert payload["outcome"] == "Infeasible"
    intervals = sorted(entry["interval"] for entry in payload["conflict"])
    assert intervals == [["-3/2", "1/2"], ["1", "5"]]


def test_realize_with_action_check(capsys, lex2):
    code, payload = run(capsys, "realize", "--ordering", lex2, "--ball", "2",
                        "--act", "x2")
    assert code == 0
    assert payload["values"][0] == "0"
    assert payload["action_check"]["passed"] is True


def test_realize_custom_enumeration(capsys, lex2, tmp_path):
    enum_path = tmp_path / "enum.json"
    enum_path.write_text(json.dumps(["", "x1", "x1^-1", "x1^2"]))
    code, payload = run(capsys, "realize", "--ordering", lex2,
                        "--enumeration", str(enum_path))
    assert code == 0
    assert payload["values"] == ["0", "1", "-1", "2"]


def test_realize_enumeration_one_past_the_ball_limit_exits_2_fast(capsys, lex2, tmp_path):
    enum_path = tmp_path / "enum.json"
    enum_path.write_text(json.dumps([""] + ["x1"] * MAX_BALL_ELEMENTS))
    start = time.perf_counter()
    code, payload = run(capsys, "realize", "--ordering", lex2, "--enumeration", str(enum_path))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert payload == {"error": "UnsupportedInput", "detail": (
        f"an enumeration of {MAX_BALL_ELEMENTS + 1} elements is past the limit of "
        f"{MAX_BALL_ELEMENTS} elements (MAX_BALL_ELEMENTS)")}


def test_realize_enumeration_at_the_ball_limit_is_counted_before_it_is_parsed(
        capsys, lex2, tmp_path, monkeypatch):
    monkeypatch.setattr(ordo_dynamics, "MAX_BALL_ELEMENTS", 4)
    enum_path = tmp_path / "enum.json"
    enum_path.write_text(json.dumps(["", "x1", "x1^-1", "x1^2"]))
    code, payload = run(capsys, "realize", "--ordering", lex2, "--enumeration", str(enum_path))
    assert (code, payload["values"]) == (0, ["0", "1", "-1", "2"])
    # One past the limit is refused before any expression is read, even a bad one.
    enum_path.write_text(json.dumps(["", "x1", "x1^-1", "x1^2", "x9"]))
    code, payload = run(capsys, "realize", "--ordering", lex2, "--enumeration", str(enum_path))
    assert code == 2
    assert payload["detail"] == \
        "an enumeration of 5 elements is past the limit of 4 elements (MAX_BALL_ELEMENTS)"


def test_cocycle_survey(capsys, lex2):
    code, payload = run(capsys, "cocycle", "--ordering", lex2, "--x", "x1",
                        "--samples", "50", "--seed", "1")
    assert code == 0
    assert payload["total"] == 50
    assert payload["passed"] == 50


def test_equiv_modes(capsys, sqrt2, sqrt3, lex2):
    code, payload = run(capsys, "equiv", "--a", sqrt2, "--b", sqrt2, "--x", "x1",
                        "--mode", "dynamical")
    assert code == 0
    assert payload["outcome"] == "Equivalent"
    code, payload = run(capsys, "equiv", "--a", sqrt2, "--b", sqrt3, "--x", "x1",
                        "--mode", "dynamical")
    assert code == 0
    assert payload["outcome"] == "NotEquivalent"
    code, payload = run(capsys, "equiv", "--a", lex2, "--b", lex2, "--x", "x1",
                        "--mode", "dynamical")
    assert code == 3
    assert payload["outcome"] == "Unknown"
    code, payload = run(capsys, "equiv", "--a", lex2, "--b", lex2, "--x", "x1",
                        "--mode", "semi")
    assert code == 0
    assert payload["outcome"] == "Equivalent"


def test_equiv_conjugates_of_the_dehornoy_cone_exit_0(capsys, tmp_path):
    group = {"kind": "braid", "strands": 3}
    paths = []
    for name, by in (("a", "s1 s2^-1"), ("b", "s2 s2 s1")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"group": group, "ordering": {
            "type": "conjugated", "base": {"type": "dehornoy"}, "by": by}}))
        paths.append(str(path))
    code, payload = run(capsys, "equiv", "--a", paths[0], "--b", paths[1],
                        "--x", "s1 s2 s1 s1 s2 s1", "--mode", "semi")
    assert code == 0
    assert payload["outcome"] == "Equivalent"
    assert payload["left_class"] == payload["right_class"] == \
        {"basis": ["s1"], "components": [{"exact": {}}]}


def test_axioms_report(capsys, dehornoy3):
    code, payload = run(capsys, "axioms", "--ordering", dehornoy3,
                        "--samples", "200", "--seed", "3", "--radius", "5")
    assert code == 0
    assert payload["passed"] is True


def test_byte_identical_output(capsys, dehornoy3):
    main(["cocycle", "--ordering", dehornoy3, "--x", "s1 s2 s1 s1 s2 s1",
          "--samples", "20", "--seed", "9"])
    first = capsys.readouterr().out
    main(["cocycle", "--ordering", dehornoy3, "--x", "s1 s2 s1 s1 s2 s1",
          "--samples", "20", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_exit_2(capsys):
    code, payload = run(capsys, "rho", "--ordering", "/nonexistent.json",
                        "--x", "x1", "x1")
    assert code == 2
    assert payload["error"] == "ParseError"


LEX2_LEVELS = [[{"1": "1"}, {}], [{}, {"1": "1"}]]


@pytest.mark.parametrize("doc", [
    {"group": {"kind": "free_abelian", "rank": "two"},
     "ordering": {"type": "flag", "levels": LEX2_LEVELS}},
    {"group": {"kind": "braid", "strands": [3]}, "ordering": {"type": "dehornoy"}},
    {"group": {"kind": "free_abelian", "rank": 2},
     "ordering": {"type": "flag", "levels": [5]}},
    {"group": {"kind": "free_abelian", "rank": 2.9},
     "ordering": {"type": "flag", "levels": LEX2_LEVELS}},
    {"group": {"kind": "free_abelian", "rank": True},
     "ordering": {"type": "flag", "levels": [[{"1": "1"}]]}},
], ids=["rank-string", "strands-list", "level-not-list", "rank-float", "rank-bool"])
def test_malformed_ordering_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "rho", "--ordering", str(path), "--x", "x1", "x1")
    assert code == 2
    assert payload["error"] == "ParseError"


Z2_GROUP = {"kind": "free_abelian", "rank": 2}
LEX2_DOC = {"group": Z2_GROUP, "ordering": {"type": "flag", "levels": LEX2_LEVELS}}


@pytest.mark.parametrize("doc,enumeration,detail", [
    ({"group": Z2_GROUP, "ordering": {"levels": LEX2_LEVELS}}, None,
     "ordering part needs a 'type' field"),
    ({"group": Z2_GROUP, "ordering": {"type": "flag", "levels": []}}, None,
     "flag ordering needs a nonempty 'levels' list"),
    ({"group": Z2_GROUP, "ordering": {"type": "dehornoy"}}, None,
     "the Dehornoy ordering needs a braid group"),
    ({"group": Z2_GROUP, "ordering": {"type": "lexicographic"}}, None,
     "unknown ordering type: 'lexicographic'"),
    ({"group": {"rank": 2}, "ordering": LEX2_DOC["ordering"]}, None,
     "group object needs a 'kind' field"),
    ({"group": Z2_GROUP, "ordering": {"type": "flag", "levels": [[5, {}], [{}, {"1": "1"}]]}},
     None, "constant must be a JSON object, got int"),
    (LEX2_DOC, {"x1": 1}, "enumeration file must hold a JSON array of expressions"),
    (LEX2_DOC, ["", 7], "element expression must be a string, got int"),
], ids=["part-without-type", "empty-levels", "dehornoy-on-lattice", "unknown-type",
        "group-without-kind", "level-entry-not-object", "enumeration-not-array",
        "enumeration-entry-not-string"])
def test_document_refusals_exit_2(capsys, tmp_path, doc, enumeration, detail):
    path = tmp_path / "ordering.json"
    path.write_text(json.dumps(doc))
    argv = ["realize", "--ordering", str(path), "--ball", "1"]
    if enumeration is not None:
        argv[-2:] = ["--enumeration", str(tmp_path / "enumeration.json")]
        (tmp_path / "enumeration.json").write_text(json.dumps(enumeration))
    payload = run_exit_2(capsys, *argv)
    assert payload == {"error": "ParseError", "detail": detail}


def test_obstruct_tightens_an_upper_bound(capsys):
    # x^1 y^4 tightens both ends of the interval x^1 y^2 leaves, and its upper
    # end is the one x^3 y^-1 then contradicts.
    tight = ["obstruct", "--anchor", "x", "--expr", "x^1 y^2", "--expr", "x^1 y^4"]
    code, payload = run(capsys, *tight)
    assert code == 0
    assert payload == {"outcome": "Feasible", "intervals": {"y": ["-3/4", "1/4"]}}
    code, payload = run(capsys, *tight, "--expr", "x^3 y^-1")
    assert code == 0 and payload["outcome"] == "Infeasible"
    assert sorted((entry["source"], entry["interval"]) for entry in payload["conflict"]) == [
        ("x^1 y^4", ["-3/4", "1/4"]), ("x^3 y^-1", ["1", "5"])]


def run_exit_2(capsys, *argv):
    """Exit 2 with exactly one JSON document (the error) on stdout."""
    code = main(list(argv))
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert set(payload) == {"error", "detail"}
    return payload


@pytest.fixture()
def lex3(tmp_path):
    doc = {
        "group": {"kind": "free_abelian", "rank": 3},
        "ordering": {"type": "flag", "levels": [
            [{"1": "1"}, {}, {}], [{}, {"1": "1"}, {}], [{}, {}, {"1": "1"}]]},
    }
    path = tmp_path / "lex3.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command,ordering,x", [
    ("axioms", "lex3", None), ("axioms", "dehornoy3", None), ("cocycle", "dehornoy3", "s1"),
    ("cocycle", "dehornoy3", "s1 s2 s1 s1 s2 s1"),
])
def test_negative_radius_exit_2(capsys, request, command, ordering, x):
    argv = [command, "--ordering", request.getfixturevalue(ordering), "--radius", "-1"]
    if x is not None:
        argv += ["--x", x]
    assert run_exit_2(capsys, *argv)["error"] == "UnsupportedInput"


@pytest.mark.parametrize("x", ["s1", "s2"])
def test_cocycle_noncentral_anchor_exit_2_before_any_floor(capsys, dehornoy3, x):
    detail = run_exit_2_quickly(capsys, "cocycle", "--ordering", dehornoy3, "--x", x,
                                "--samples", "30", "--seed", "0")
    assert detail == f"anchor {x!r} is not central; the circle quotient needs a central anchor"


HUGE = "1" + "0" * 5000  # past Python's 4300-digit int-string limit
NINES = "9" * 5000


def test_huge_flag_constant_exit_2(capsys, tmp_path):
    doc = {"group": {"kind": "free_abelian", "rank": 2},
           "ordering": {"type": "flag", "levels": [[{"1": "1"}, {"2": HUGE}]]}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    payload = run_exit_2(capsys, "rho", "--ordering", str(path), "--x", "x1", "x2")
    assert payload["error"] == "ParseError"
    assert len(payload["detail"]) < 200


def test_huge_element_exponent_exit_2(capsys, lex2):
    payload = run_exit_2(capsys, "rho", "--ordering", lex2, "--x", "x1", f"x2^{NINES}")
    assert payload["error"] == "ParseError"
    assert len(payload["detail"]) < 200


def test_huge_obstruct_exponent_exit_2(capsys):
    payload = run_exit_2(capsys, "obstruct", "--expr", f"x^1 y^{NINES}", "--anchor", "x")
    assert payload["error"] == "ParseError"
    assert len(payload["detail"]) < 200


def test_huge_obstruct_pin_exit_2(capsys):
    payload = run_exit_2(capsys, "obstruct", "--expr", "x^1 y^2", "--anchor", "x",
                         "--pin", f"y={NINES}")
    assert payload["error"] == "ParseError"
    assert len(payload["detail"]) < 200


def test_huge_json_number_exit_2(capsys, tmp_path):
    path = tmp_path / "huge_rank.json"
    path.write_text('{"group": {"kind": "free_abelian", "rank": %s}, '
                    '"ordering": {"type": "flag", "levels": [[{"1": "1"}]]}}' % HUGE)
    payload = run_exit_2(capsys, "rho", "--ordering", str(path), "--x", "x1", "x1")
    assert payload["error"] == "ParseError"
    assert payload["detail"].startswith(f"invalid JSON in {path}: ")
    assert len(payload["detail"]) < 300


def test_huge_tau_number_exit_2(capsys):
    payload = run_exit_2(capsys, "construct", "--x", "x1", "--tau", f"[{HUGE}]")
    assert payload["error"] == "ParseError"
    assert len(payload["detail"]) < 200


def test_malformed_tau_message(capsys):
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads("[1,")
    payload = run_exit_2(capsys, "construct", "--x", "x1", "--tau", "[1,")
    assert payload == {"error": "ParseError", "detail": str(exc.value)}


def test_equiv_conjugated_flag_is_the_flag(capsys, sqrt2, tmp_path):
    base = json.loads(open(sqrt2).read())
    doc = {"group": base["group"],
           "ordering": {"type": "conjugated", "base": base["ordering"], "by": "x1"}}
    cflag = tmp_path / "cflag.json"
    cflag.write_text(json.dumps(doc))
    outputs = []
    for a in (str(cflag), sqrt2):
        code = main(["equiv", "--a", a, "--b", sqrt2, "--x", "x1"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    json.loads(outputs[0][1])


def test_huge_derived_integer_in_message_exit_2(capsys, tmp_path):
    # Each literal is under the digit limit; the anchor pairing they derive
    # (10^4000 * 10^1000 * sqrt(2)) is past it and appears in the message.
    doc = {"group": {"kind": "free_abelian", "rank": 2},
           "ordering": {"type": "flag", "levels": [[{"2": "1" + "0" * 4000}, {"1": "1"}]]}}
    path = tmp_path / "huge_level.json"
    path.write_text(json.dumps(doc))
    payload = run_exit_2(capsys, "stable", "--ordering", str(path),
                         "--x", "x1^1" + "0" * 1000, "--n", "5", "x2")
    assert payload["error"] == "UnsupportedInput"
    assert "<integer of 5001 digits>*sqrt(2)" in payload["detail"]
    assert len(payload["detail"]) < 200


def test_sikora_skips_a_zero_first_level(capsys, sqrt2, tmp_path):
    doc = {"group": {"kind": "free_abelian", "rank": 2},
           "ordering": {"type": "flag", "levels": [[{}, {}], [{"1": "1"}, {"2": "1"}]]}}
    path = tmp_path / "zero_first.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for ordering in (str(path), sqrt2):
        code = main(["sikora", "--ordering", ordering])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_huge_lattice_exponent_in_message_exit_2(capsys, lex2):
    # Each literal is under the digit limit; their sum, 11 * (10^4299 - 1),
    # is past it and appears in the NotCofinal message.
    anchor = " ".join(["x2^" + "9" * 4299] * 11)
    payload = run_exit_2(capsys, "psi", "--ordering", lex2, "--x", anchor)
    assert payload["error"] == "NotCofinal"
    assert "x2^<integer of 4301 digits>" in payload["detail"]
    assert len(payload["detail"]) < 200


def test_huge_braid_literal_exit_2_quickly(capsys, dehornoy3):
    # Two million letters, far past the parser's limit: refused before any
    # letter is built.
    start = time.perf_counter()
    payload = run_exit_2(capsys, "rho", "--ordering", dehornoy3,
                         "--x", "s1 s2 s1 s1 s2 s1", "s1^2000000")
    assert time.perf_counter() - start < 1.0
    assert payload["error"] == "UnsupportedInput"
    assert "100000 letters" in payload["detail"]


def test_rho_flag_floor_past_the_cap_is_exact(capsys, sqrt2):
    # The doubling search would stop at its 2^62 cap; the flag floor is
    # read off the pairing ratio k*sqrt(2) and certified.
    k = 99999999999999999999999
    code, payload = run(capsys, "rho", "--ordering", sqrt2, "--x", "x1", f"x2^{k}")
    assert code == 0
    assert payload == {"value": math.isqrt(2 * k * k)}


@pytest.mark.parametrize("fixture, element", [
    # floor(k*sqrt(2)) and 2k for k = 10^4300 - 1: 4301 digits each, one
    # past the integer-string limit, so the floor cannot be printed.
    ("sqrt2", "x2^" + "9" * 4300),
    ("lex2", "x1^" + "9" * 4300 + " x1^" + "9" * 4300),
])
def test_rho_unprintable_flag_floor_exit_2(capsys, request, fixture, element):
    payload = run_exit_2(capsys, "rho", "--ordering", request.getfixturevalue(fixture),
                         "--x", "x1", element)
    assert payload["error"] == "UnsupportedInput"
    assert "integer of 4301 digits" in payload["detail"]


def test_parser_is_built_once(capsys, monkeypatch, sqrt2):
    from ordo import cli

    built = []
    cached = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(cached()) or built[-1])
    assert main(["psi", "--ordering", sqrt2, "--nonsense"]) == 2
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        code = main(["psi", "--ordering", sqrt2, "--x", "x1", "--basis", "x2", "--basis", "x1"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert len(json.loads(outputs[0][1])["components"]) == 2
    assert len(built) == 3 and all(p is built[0] for p in built)


def test_sikora_unprintable_direction_exit_2(capsys, tmp_path):
    # The first level (1/B, A) points along (1, A*B): each literal has 4000
    # digits, their product 8000, past the integer-string limit.
    a, b = "7" * 4000, "3" * 4000
    doc = {"group": {"kind": "free_abelian", "rank": 2},
           "ordering": {"type": "flag", "levels": [[{"1": f"1/{b}"}, {"1": a}],
                                                   [{"1": "1"}, {"1": "0"}]]}}
    path = tmp_path / "huge_direction.json"
    path.write_text(json.dumps(doc))
    payload = run_exit_2(capsys, "sikora", "--ordering", str(path))
    assert payload["error"] == "UnsupportedInput"
    assert "integer of 8000 digits" in payload["detail"]


def test_stable_braid_power_past_the_letter_limit_exit_2_quickly(capsys, dehornoy3):
    # h^n would have two million letters: refused before it is built.
    start = time.perf_counter()
    payload = run_exit_2(capsys, "stable", "--ordering", dehornoy3,
                         "--x", "s1 s2 s1 s1 s2 s1", "--n", "1000000", "s1 s2")
    assert time.perf_counter() - start < 1.0
    assert payload["error"] == "UnsupportedInput"
    assert "100000 letters" in payload["detail"]


@pytest.mark.parametrize("anchor, cap", [("s2", "1048576"), ("s2^-1", "1048576"),
                                         ("s2 s2", None)])
def test_rho_braid_floor_probe_past_the_letter_limit_exit_2_quickly(capsys, dehornoy3,
                                                                    anchor, cap):
    # s1 lies above every power of s2, so the floor search doubles N; the
    # probe x^-N is refused once it would pass 100000 letters, before it is
    # built, whether the cap is 2^20 or the default 2^62.
    start = time.perf_counter()
    cap_args = ("--cap", cap) if cap else ()
    payload = run_exit_2(capsys, "rho", "--ordering", dehornoy3, "--x", anchor, *cap_args, "s1")
    assert time.perf_counter() - start < 1.0
    assert payload["error"] == "UnsupportedInput"
    assert "100000 letters" in payload["detail"]


@pytest.mark.parametrize("element", ["s2 s1", "s1 s2 s1 s1 s2 s1"])
def test_rho_pseudo_anosov_anchor_stops_at_the_letter_limit(capsys, dehornoy3, element):
    # The keys of the powers of s1 s2^-1 grow to tens of thousands of bits;
    # the probe limit ends the doubling search at 100000 letters.
    start = time.perf_counter()
    payload = run_exit_2(capsys, "rho", "--ordering", dehornoy3, "--x", "s1 s2^-1", element)
    assert time.perf_counter() - start < 3.0
    assert payload == {"error": "UnsupportedInput", "detail": "floor probe -65536 power of a "
                       "2-letter braid is longer than 100000 letters"}


def test_rho_braid_floor_below_the_letter_limit_still_stops_at_the_cap(capsys, dehornoy3):
    code, payload = run(capsys, "rho", "--ordering", dehornoy3, "--x", "s2",
                        "--cap", "65536", "s1")
    assert code == 3
    assert payload["error"] == "NotBracketedWithinCap"


def test_psitilde_braid_twist_anchor(capsys, dehornoy3):
    # The braid branch of the lift: exact fractional Dehn twist coefficients.
    code, payload = run(capsys, "psitilde", "--ordering", dehornoy3,
                        "--x", "s1 s2 s1 s1 s2 s1", "--basis", "s1", "--basis", "s1 s2")
    assert code == 0
    assert payload == {"infinity": False, "basis": ["s1", "s1 s2"],
                       "components": [{"exact": {}}, {"exact": {"1": "1/3"}}]}
    code, payload = run(capsys, "psi", "--ordering", dehornoy3, "--x", "s1 s2 s1 s1 s2 s1")
    assert code == 0
    assert payload == {"basis": ["s1"], "components": [{"exact": {}}]}


@pytest.mark.parametrize("command", ["psi", "psitilde"])
def test_psi_takes_no_approximation_order(capsys, dehornoy3, command):
    # Braid components are exact, so no order is left to choose.
    payload = run_exit_2(capsys, command, "--ordering", dehornoy3,
                         "--x", "s1 s2 s1 s1 s2 s1", "--n", "5")
    assert payload == {"error": "ParseError", "detail": "ordo: unrecognized arguments: --n 5"}


def test_psi_undecided_right_invariance_exit_3(capsys, dehornoy3):
    code, payload = run(capsys, "psi", "--ordering", dehornoy3, "--x", "s2")
    assert code == 3
    assert payload == {"error": "MembershipUnknown",
                       "detail": "right-invariance under the anchor is undecided"}


def ordering_file(tmp_path, group, ordering):
    path = tmp_path / "ordering.json"
    path.write_text(json.dumps({"group": group, "ordering": ordering}))
    return str(path)


def run_exit_2_quickly(capsys, *argv):
    start = time.perf_counter()
    payload = run_exit_2(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert payload["error"] == "UnsupportedInput"
    return payload["detail"]


@pytest.mark.parametrize("command", [["psi", "--x", "s1"],
                                     ["axioms", "--samples", "3", "--radius", "2"]])
def test_strand_count_past_the_limit_exit_2_quickly(capsys, tmp_path, command):
    path = ordering_file(tmp_path, {"kind": "braid", "strands": 1000000}, {"type": "dehornoy"})
    detail = run_exit_2_quickly(capsys, command[0], "--ordering", path, *command[1:])
    assert detail == "braid strand count 1000000 is past the limit of 64 (MAX_GROUP_N)"


def test_rank_past_the_limit_exit_2_quickly(capsys, tmp_path):
    path = ordering_file(tmp_path, {"kind": "free_abelian", "rank": 1000000},
                         {"type": "flag", "levels": [[{"1": "1"}]]})
    detail = run_exit_2_quickly(capsys, "psi", "--ordering", path, "--x", "x1")
    assert detail == "free abelian rank 1000000 is past the limit of 64 (MAX_GROUP_N)"
    detail = run_exit_2_quickly(capsys, "construct", "--x", "x1",
                                "--tau", json.dumps([{"1": "1"}] + [{}] * 64))
    assert detail == "free abelian rank 65 is past the limit of 64 (MAX_GROUP_N)"


RADICAND = str(10 ** 30 + 57)


def test_radicand_past_the_limit_exit_2_quickly(capsys, tmp_path):
    path = ordering_file(tmp_path, {"kind": "free_abelian", "rank": 2},
                         {"type": "flag", "levels": [[{"1": "1"}, {RADICAND: "1"}]]})
    expected = f"radicand {RADICAND} is past the limit of 4294967296 (MAX_RADICAND)"
    assert run_exit_2_quickly(capsys, "sikora", "--ordering", path) == expected
    tau = json.dumps([{"1": "1"}, {RADICAND: "1"}])
    assert run_exit_2_quickly(capsys, "construct", "--x", "x1", "--tau", tau) == expected


def run_ordo(*argv):
    """Run the CLI in a fresh interpreter: (the completed process, seconds taken)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "ordo.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    return result, time.perf_counter() - start


def test_radicands_at_the_limit_split_quickly(tmp_path):
    # 400 radicands up to the limit: trial division up to sqrt(m) took over 3 s.
    levels = [[{str(MAX_RADICAND - k): "1" for k in range(400)}]]
    path = ordering_file(tmp_path, {"kind": "free_abelian", "rank": 1},
                         {"type": "flag", "levels": levels})
    result, seconds = run_ordo("rho", "--ordering", path, "--x", "x1", "x1")
    assert seconds < 1.0
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"value": 1}


def test_enumeration_one_letter_past_the_limit_exits_2_quickly(tmp_path, dehornoy3):
    # The powers s1^1 .. s1^1999 hold 1999000 letters and s2^1001 one past the
    # limit; with no letter limit, 6000 powers took 17 s and 1.26 GB.
    expressions = ["", *(f"s1^{k}" for k in range(1, 2000)), "s2^1001"]
    path = tmp_path / "enumeration.json"
    path.write_text(json.dumps(expressions))
    result, seconds = run_ordo("realize", "--ordering", dehornoy3, "--enumeration", str(path))
    assert seconds < 3.0
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stdout)["detail"] == (
        f"an enumeration holding more than {MAX_BALL_LETTERS} letters is past the limit "
        f"(MAX_BALL_LETTERS): {MAX_BALL_LETTERS + 1} letters by position 2000")


def test_nested_enumeration_realizes_quickly_in_the_forest_order(tmp_path, dehornoy3):
    # Each station falls in the gap the last one left: s2^k just below the
    # stations s1 s2^-j, which nest down onto them.  Midpoint labels with no
    # respacing run out after 64 such placements.
    expressions = ["", *(f"s2^{k}" for k in range(1, 1001)), "s1",
                   *(f"s1 s2^-{k}" for k in range(1, 1000))]
    path = tmp_path / "enumeration.json"
    path.write_text(json.dumps(expressions))
    result, seconds = run_ordo("realize", "--ordering", dehornoy3, "--enumeration", str(path))
    assert seconds < 2.0
    assert result.returncode == 0, result.stderr
    cone = DehornoyOrdering.create(3)
    enumeration = [parse_element(e, cone.group) for e in expressions]
    order = forest_sort(cone, enumeration, preorder_forest(enumeration))
    assert json.loads(result.stdout)["values"] == \
        [format_rational(v) for v in ordo_dynamics._replay(order)]


@pytest.mark.parametrize("command", [["axioms"], ["cocycle", "--x", "s1 s2 s1 s1 s2 s1"]])
def test_braid_sampling_radius_past_the_limit_exit_2_quickly(capsys, dehornoy3, command):
    detail = run_exit_2_quickly(capsys, command[0], "--ordering", dehornoy3, *command[1:],
                                "--radius", "1000000000")
    assert detail == ("braid sampling radius 1000000000 is past the limit "
                      "of 100000 letters (MAX_BRAID_LETTERS)")


@pytest.mark.parametrize("command", [["axioms"], ["cocycle", "--x", "s1 s2 s1 s1 s2 s1"]])
@pytest.mark.parametrize("samples,radius", [(3, 100_000), (2501, 100), (10_000, 26)])
def test_braid_samples_times_radius_past_the_limit_exit_2_quickly(capsys, dehornoy3, command,
                                                                   samples, radius):
    # Each knob is inside its own limit; their product, the letters drawn, is not.
    detail = run_exit_2_quickly(capsys, command[0], "--ordering", dehornoy3, *command[1:],
                                "--samples", str(samples), "--radius", str(radius))
    assert detail == (f"{samples} samples of radius {radius} are past the limit "
                      "of 250000 letters (MAX_SAMPLE_LETTERS)")


@pytest.mark.parametrize("argv, detail", [
    (["obstruct"], "ordo obstruct: the following arguments are required: --expr"),
    (["obstruct", "--expr"], "ordo obstruct: argument --expr: expected one argument"),
    (["obstruct", "--expr", "x", "--bogus"], "ordo: unrecognized arguments: --bogus"),
    (["axioms", "--ordering", "o.json", "--samples", "x"],
     "ordo axioms: argument --samples: invalid int value: 'x'"),
    (["nosuch"], "ordo: argument command: invalid choice: 'nosuch' (choose from 'axioms', "
     "'rho', 'stable', 'psi', 'psitilde', 'construct', 'sikora', 'convex', 'obstruct', "
     "'realize', 'cocycle', 'equiv')"),
    # Each subcommand alone names its required arguments in declaration order.
    (["axioms"], "ordo axioms: the following arguments are required: --ordering"),
    (["rho"], "ordo rho: the following arguments are required: --ordering, --x, element"),
    (["stable"], "ordo stable: the following arguments are required: --ordering, --x, --n, "
     "element"),
    (["psi"], "ordo psi: the following arguments are required: --ordering, --x"),
    (["psitilde"], "ordo psitilde: the following arguments are required: --ordering, --x"),
    (["construct"], "ordo construct: the following arguments are required: --x, --tau"),
    (["sikora"], "ordo sikora: the following arguments are required: --ordering"),
    (["convex"], "ordo convex: the following arguments are required: --ordering, --x, "
     "--subgroup"),
    (["realize"], "ordo realize: the following arguments are required: --ordering"),
    (["cocycle"], "ordo cocycle: the following arguments are required: --ordering, --x"),
    (["equiv"], "ordo equiv: the following arguments are required: --a, --b, --x"),
])
def test_usage_errors_print_one_json_document(capsys, argv, detail):
    assert run(capsys, *argv) == (2, {"error": "ParseError", "detail": detail})


def test_help_still_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["obstruct", "--help"]) == 0
    assert "usage: ordo obstruct" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["axioms"], ["cocycle", "--x", "s1 s2 s1 s1 s2 s1"]])
@pytest.mark.parametrize("count", [10_001, 10 ** 30])
def test_sample_count_past_the_limit_exit_2_quickly(capsys, dehornoy3, command, count):
    detail = run_exit_2_quickly(capsys, command[0], "--ordering", dehornoy3, *command[1:],
                                "--samples", str(count))
    assert detail == f"sample count {count} is past the limit of 10000 (MAX_SAMPLES)"


@pytest.mark.parametrize("command", [["axioms"], ["cocycle", "--x", "s1 s2 s1 s1 s2 s1"]])
@pytest.mark.parametrize("count", [-1, -4, -10 ** 30])
def test_negative_sample_count_exit_2(capsys, dehornoy3, command, count):
    detail = run_exit_2_quickly(capsys, command[0], "--ordering", dehornoy3, *command[1:],
                                "--samples", str(count))
    assert detail == f"sample count {count} is negative"


def test_zero_samples_still_pass(capsys, dehornoy3):
    code, payload = run(capsys, "axioms", "--ordering", dehornoy3, "--samples", "0")
    assert code == 0 and payload["passed"] and payload["samples"] == 0
    code, payload = run(capsys, "cocycle", "--ordering", dehornoy3, "--x", "s1 s2 s1 s1 s2 s1",
                        "--samples", "0")
    assert code == 0 and payload["total"] == 0


@pytest.mark.parametrize("ordering", ["dehornoy3", "sqrt2"])
@pytest.mark.parametrize("radius", [-1, -10 ** 30])
def test_negative_ball_radius_exit_2(capsys, request, ordering, radius):
    # Braid and lattice balls refuse a negative radius alike.
    detail = run_exit_2_quickly(capsys, "realize", "--ordering", request.getfixturevalue(ordering),
                                "--ball", str(radius))
    assert detail == f"ball radius {radius} is negative"


def test_two_strand_ball_past_the_letter_limit_exit_2_quickly(capsys, tmp_path):
    # The B2 ball is the line of s1 powers: the radius passes the element
    # limit's up-front check, and the walk stops on the letters it keeps.
    path = ordering_file(tmp_path, {"kind": "braid", "strands": 2}, {"type": "dehornoy"})
    detail = run_exit_2_quickly(capsys, "realize", "--ordering", path, "--ball", "49999")
    assert detail.startswith("the radius-49999 ball holds more than 2000000 letters "
                             "(MAX_BALL_LETTERS): ")


@pytest.mark.parametrize("subgroup, detail", [
    ("3 2_0", "bad exponent entry in '3 2_0'"),
    ("+3 2", "bad exponent entry in '+3 2'"),
    ("1 0; 3 " + "7" * 5000, "integer literal of 5000 characters is too long"),
    ("\u0663 2", "bad exponent entry in '\u0663 2'"),
])
def test_convex_subgroup_entries_read_as_integer_literals(capsys, lex2, subgroup, detail):
    payload = run_exit_2(capsys, "convex", "--ordering", lex2, "--x", "x1",
                         "--subgroup", subgroup)
    assert payload == {"error": "ParseError", "detail": detail}


# Arabic-Indic digits (U+0661 one, U+0663 three), which int() reads as 1 and 3.
@pytest.mark.parametrize("argv, detail", [
    (["rho", "--x", "x1", "x2^\u0663"], "bad token 'x2^\u0663'"),
    (["obstruct", "--anchor", "x", "--expr", "x^\u0663 y^2"], "bad syllable 'x^\u0663'"),
    (["construct", "--x", "x1", "--tau", '[{"1": "\u0661"}]'],
     "not a rational literal: '\u0661'"),
    (["obstruct", "--anchor", "x", "--expr", "x y^2", "--pin", "y=\u0661/2"],
     "not a rational literal: '\u0661/2'"),
], ids=["rho_element", "obstruct_expr", "construct_tau", "obstruct_pin"])
def test_integer_literals_take_ascii_digits_only(capsys, sqrt2, argv, detail):
    if argv[0] == "rho":
        argv = argv[:1] + ["--ordering", sqrt2] + argv[1:]
    assert run_exit_2(capsys, *argv) == {"error": "ParseError", "detail": detail}


def test_equiv_dynamical_on_seven_strands_is_unknown_not_dense(capsys, tmp_path):
    # The density search stops at s6, the least positive braid, at the end of
    # level 1 of the radius-5 ball of B7 (20 351 braids, all walked before).
    path = ordering_file(tmp_path, {"kind": "braid", "strands": 7}, {"type": "dehornoy"})
    twist = "s1 s2 s3 s4 s5 s6 s1 s2 s3 s4 s5 s1 s2 s3 s4 s1 s2 s3 s1 s2 s1"
    code, payload = run(capsys, "equiv", "--a", path, "--b", path, "--x", f"{twist} {twist}",
                        "--mode", "dynamical")
    assert code == 3
    assert (payload["outcome"], payload["reason"]) == \
        ("Unknown", "left: not dense (unknown_within_cap)")


# Every option that names an input file, in a command that reads it.
def _reading(option, path, lex2):
    return {"--ordering": ["axioms", "--ordering", path, "--samples", "1"],
            "--enumeration": ["realize", "--ordering", lex2, "--enumeration", path],
            "--a": ["equiv", "--a", path, "--b", lex2, "--x", "x1"]}[option]


@pytest.mark.parametrize("option", ["--ordering", "--enumeration", "--a"])
def test_input_file_that_is_not_utf8_exit_2(capsys, tmp_path, lex2, option):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    payload = run_exit_2(capsys, *_reading(option, str(path), lex2))
    assert payload == {"error": "ParseError", "detail": f"{path} is not UTF-8 text: 'utf-8' "
                       "codec can't decode byte 0xff in position 0: invalid start byte"}


@pytest.mark.parametrize("option", ["--ordering", "--enumeration", "--tau"])
def test_json_nested_past_the_recursion_limit_exit_2(capsys, tmp_path, lex2, option):
    text = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = (["construct", "--x", "x1", "--tau", text] if option == "--tau"
            else _reading(option, str(path), lex2))
    payload = run_exit_2(capsys, *argv)
    assert payload["error"] == "ParseError"
    assert "maximum recursion depth exceeded" in payload["detail"]


def test_input_file_past_the_byte_limit_exit_2_quickly(capsys, tmp_path, lex2):
    assert MAX_INPUT_BYTES == 16 * 1024 * 1024
    # A document padded with whitespace to the limit is read; one byte more is not.
    path = tmp_path / "padded.json"
    doc = open(lex2, "rb").read()
    path.write_bytes(doc + b" " * (MAX_INPUT_BYTES - len(doc)))
    assert run(capsys, *_reading("--ordering", str(path), lex2))[0] == 0
    with open(path, "ab") as out:
        out.write(b" ")
    for option in ("--ordering", "--enumeration", "--a"):
        start = time.perf_counter()
        payload = run_exit_2(capsys, *_reading(option, str(path), lex2))
        assert time.perf_counter() - start < 2.0
        assert payload == {"error": "ParseError",
                           "detail": f"{path} holds more than MAX_INPUT_BYTES = 16777216 bytes"}
    path.unlink()
