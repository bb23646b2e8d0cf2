"""CLI fuzzing: every input ends in exit 0, 2 or 3 with one JSON document.

Hypothesis draws small B3, B4 and Z^2 inputs for the rho, stable, realize,
axioms, sikora, cocycle, equiv, psi, psitilde, construct, convex and
obstruct subcommands, mixing well-formed element tokens with malformed ones
and huge exponents, and mutates the bytes of the golden commands' JSON
inputs.  Each case must print exactly one JSON document on
stdout, exit with 0, 2 or 3, and finish within CASE_SECONDS; a ball past
the ball limit, and a group, radicand or braid sampling radius past its
limit, must exit 2.  Runs are derandomized, so the examples are the same on
every run.
"""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordo.cli import main

from test_golden_cli import CLI_CASES, ROOT

# The slowest case seen takes about 2 s: a pseudo-Anosov braid anchor, whose
# floor search runs until its probe reaches the 100000-letter limit.
CASE_SECONDS = 10.0

ORDERINGS = {
    "b3": {"group": {"kind": "braid", "strands": 3}, "ordering": {"type": "dehornoy"}},
    "b4": {"group": {"kind": "braid", "strands": 4}, "ordering": {"type": "dehornoy"}},
    "lex2": {"group": {"kind": "free_abelian", "rank": 2},
             "ordering": {"type": "flag", "levels": [[{"1": "1"}, {}], [{}, {"1": "1"}]]}},
    "sqrt2": {"group": {"kind": "free_abelian", "rank": 2},
              "ordering": {"type": "flag", "levels": [[{"1": "1"}, {"2": "1"}]]}},
    "conj_b3": {"group": {"kind": "braid", "strands": 3},
                "ordering": {"type": "conjugated", "base": {"type": "dehornoy"},
                             "by": "s1 s2^-1"}},
    "nested_b3": {"group": {"kind": "braid", "strands": 3},
                  "ordering": {"type": "conjugated", "by": "s2",
                               "base": {"type": "conjugated", "base": {"type": "dehornoy"},
                                        "by": "s1 s2^-1"}}},
    "rank_deficient": {"group": {"kind": "free_abelian", "rank": 2},
                       "ordering": {"type": "flag", "levels": [[{"1": "1"}, {"1": "1"}]]}},
}
# Letter names and counts per ordering: (prefix, number of generators).
ALPHABETS = {"b3": ("s", 2), "b4": ("s", 3), "conj_b3": ("s", 2), "nested_b3": ("s", 2),
             "lex2": ("x", 2), "sqrt2": ("x", 2), "rank_deficient": ("x", 2)}

# Central cofinal anchors, so that cocycle and equiv get past their checks.
TWISTS = {"b3": "s1 s2 s1 s1 s2 s1", "conj_b3": "s1 s2 s1 s1 s2 s1",
          "nested_b3": "s1 s2 s1 s1 s2 s1",
          "b4": "s1 s2 s3 s1 s2 s1^2 s2 s3 s1 s2 s1", "lex2": "x1", "sqrt2": "x1",
          "rank_deficient": "x1"}

HUGE_EXPONENTS = ["1000000", "-99999999999999999999", "9" * 4400]
JUNK_TOKENS = ["s", "x", "s1^", "s^2", "y1", "s1^^2", "x1^-", "s01", "1", "s1x2", "s-1",
               "s1^+2", "x0", "s٣"]


def _token(prefix: str, count: int) -> st.SearchStrategy[str]:
    exponent = st.one_of(st.none(), st.integers(-3, 3).map(str), st.sampled_from(HUGE_EXPONENTS))
    well_formed = st.builds(
        lambda i, e: f"{prefix}{i}" + ("" if e is None else f"^{e}"),
        st.integers(1, count + 1), exponent)
    junk = st.one_of(st.sampled_from(JUNK_TOKENS),
                     st.text(alphabet="sx0123456789^-", min_size=1, max_size=5))
    return st.one_of(well_formed, junk)


def _clean_token(prefix: str, count: int) -> st.SearchStrategy[str]:
    return st.builds(lambda i, e: f"{prefix}{i}^{e}", st.integers(1, count),
                     st.sampled_from([-3, -2, -1, 1, 2, 3]))


def _clean_element(name: str) -> st.SearchStrategy[str]:
    return st.lists(_clean_token(*ALPHABETS[name]), min_size=1, max_size=4).map(" ".join)


def _element(name: str) -> st.SearchStrategy[str]:
    """Mostly well-formed words; one in four may hold junk or huge exponents."""
    clean = _clean_element(name)
    dirty = st.lists(_token(*ALPHABETS[name]), max_size=5).map(" ".join)
    return st.one_of(clean, clean, clean, dirty)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("orderings")
    out = {}
    for name, doc in ORDERINGS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
        out[name] = str(root / f"{name}.json")
    (root / "broken.json").write_text("{not json")
    out["broken"] = str(root / "broken.json")
    out["enumeration"] = str(root / "enumeration.json")  # rewritten by each realize case
    return out


def _run(argv: list[str]) -> int:
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (argv, code, buffer.getvalue())
    json.loads(buffer.getvalue())  # exactly one document: trailing text fails to parse
    assert elapsed < CASE_SECONDS, (argv, elapsed)
    return code


FUZZ = settings(max_examples=30, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])
NAMES = st.sampled_from(sorted(ALPHABETS))
# Braid cones are where cocycle and equiv key words down prefixes and anchor powers.
BRAID_HEAVY = st.sampled_from(["b3", "b4", "conj_b3"] * 3 + sorted(ALPHABETS) + ["broken"])


@st.composite
def _anchored(draw):
    name = draw(NAMES)
    argv = ["--ordering", name, "--x", draw(_element(name))]
    cap = draw(st.sampled_from([None, None, -1, 1, 8, 1 << 12, 1 << 20, 1 << 62]))
    if cap is not None:
        argv += ["--cap", str(cap)]
    return name, argv


def _with_paths(argv: list[str], paths: dict) -> list[str]:
    return [paths.get(a, a) if i and argv[i - 1] in ("--ordering", "--a", "--b") else a
            for i, a in enumerate(argv)]


@FUZZ
@given(data=st.data())
def test_fuzz_rho(paths, data):
    name, argv = data.draw(_anchored())
    _run(_with_paths(["rho", *argv, data.draw(_element(name))], paths))


@FUZZ
@given(data=st.data())
def test_fuzz_stable(paths, data):
    name, argv = data.draw(_anchored())
    n = data.draw(st.one_of(st.integers(-2, 40), st.sampled_from([10 ** 6, 10 ** 30])))
    _run(_with_paths(["stable", *argv, "--n", str(n), data.draw(_element(name))], paths))


@FUZZ
@given(data=st.data())
def test_fuzz_realize(paths, data):
    name = data.draw(BRAID_HEAVY)
    alphabet = name if name in ALPHABETS else "b3"
    # One ball in eleven has radius 10^6, past the ball limit on every group; it
    # must be refused unless an enumeration replaces it.
    ball = data.draw(st.sampled_from([-1, 0, 1, 2, 3] * 2 + [10 ** 6]))
    argv = ["realize", "--ordering", name, "--ball", str(ball)]
    enumerated = data.draw(st.booleans())
    if enumerated:
        words = data.draw(st.lists(_element(alphabet), max_size=6))
        text = json.dumps(["", *words]) if data.draw(st.booleans()) else json.dumps(words)
        with open(paths["enumeration"], "w") as out:
            out.write(text if data.draw(st.integers(0, 9)) else text[:-1])
        argv += ["--enumeration", paths["enumeration"]]
    if data.draw(st.booleans()):
        argv += ["--act", data.draw(_element(alphabet))]
    code = _run(_with_paths(argv, paths))
    if ball > 3 and not enumerated:
        assert code == 2, argv


@FUZZ
@given(data=st.data())
def test_fuzz_realize_act_on_an_enumeration(paths, data):
    # Well-formed random words after the identity: a station whose parent
    # word (the word minus its last letter) is missing is a root of the
    # table's prefix tree, keyed from scratch.
    name = data.draw(st.sampled_from(["b3", "b4", "conj_b3", "lex2"]))
    prefix, count = ALPHABETS[name]
    # Short words over single letters, so that some images land in the table.
    letter = st.sampled_from([f"{prefix}{i}{e}" for i in range(1, count + 1) for e in ("", "^-1")])
    word = st.lists(letter, min_size=1, max_size=3).map(" ".join)
    words = data.draw(st.lists(word, max_size=16, unique=True))
    with open(paths["enumeration"], "w") as out:
        json.dump(["", *words], out)
    _run(_with_paths(["realize", "--ordering", name, "--enumeration", paths["enumeration"],
                      "--act", data.draw(word)], paths))


@FUZZ
@given(name=st.sampled_from(sorted(ALPHABETS) + ["broken"]), samples=st.integers(-1, 40),
       seed=st.integers(0, 1000), radius=st.integers(-1, 12))
def test_fuzz_axioms(paths, name, samples, seed, radius):
    _run(_with_paths(["axioms", "--ordering", name, "--samples", str(samples),
                      "--seed", str(seed), "--radius", str(radius)], paths))


@FUZZ
@given(name=st.sampled_from(sorted(ALPHABETS) + ["broken"]))
def test_fuzz_sikora(paths, name):
    _run(_with_paths(["sikora", "--ordering", name], paths))


@FUZZ
@given(data=st.data())
def test_fuzz_cocycle(paths, data):
    name = data.draw(BRAID_HEAVY)
    alphabet = name if name in ALPHABETS else "b3"
    anchor = data.draw(st.one_of(st.just(TWISTS[alphabet]), st.just(TWISTS[alphabet]),
                                 _element(alphabet)))
    _run(_with_paths(["cocycle", "--ordering", name, "--x", anchor,
                      "--samples", str(data.draw(st.integers(-1, 20))),
                      "--seed", str(data.draw(st.integers(0, 1000))),
                      "--radius", str(data.draw(st.integers(-1, 5)))], paths))


@FUZZ
@given(data=st.data())
def test_fuzz_equiv(paths, data):
    left = data.draw(BRAID_HEAVY)
    alphabet = left if left in ALPHABETS else "b3"
    # Mostly a second ordering on the same group.
    same_group = sorted(n for n in ALPHABETS if ALPHABETS[n] == ALPHABETS[alphabet])
    right = data.draw(st.one_of(st.sampled_from(same_group), st.sampled_from(same_group),
                                st.sampled_from(sorted(ALPHABETS))))
    anchor = data.draw(st.one_of(st.just(TWISTS[alphabet]), st.just(TWISTS[alphabet]),
                                 _element(alphabet)))
    mode = data.draw(st.sampled_from(["dynamical", "semi-dynamical", "semi"]))
    _run(_with_paths(["equiv", "--a", left, "--b", right, "--x", anchor, "--mode", mode],
                     paths))


def test_oversized_balls_exit_2(paths):
    for name in sorted(ALPHABETS):
        for radius in (1000, 10 ** 6):
            assert _run(_with_paths(["realize", "--ordering", name, "--ball", str(radius)],
                                    paths)) == 2


BIG_RADICAND = str(10 ** 30 + 57)
# Orderings past one limit each: strand count, rank, radicand.
PAST_LIMITS = {
    "b65": {"group": {"kind": "braid", "strands": 65}, "ordering": {"type": "dehornoy"}},
    "z_million": {"group": {"kind": "free_abelian", "rank": 10 ** 6},
                  "ordering": {"type": "flag", "levels": [[{"1": "1"}]]}},
    "big_radicand": {"group": {"kind": "free_abelian", "rank": 2},
                     "ordering": {"type": "flag",
                                  "levels": [[{"1": "1"}, {BIG_RADICAND: "1"}]]}},
}


@pytest.fixture(scope="module")
def limit_paths(paths, tmp_path_factory):
    root = tmp_path_factory.mktemp("past_limits")
    out = dict(paths)
    for name, doc in PAST_LIMITS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
        out[name] = str(root / f"{name}.json")
    return out


def _orderings(usable: list[str]) -> st.SearchStrategy[str]:
    """Mostly the usable orderings, else a broken one or one past a limit."""
    return st.sampled_from(sorted(PAST_LIMITS) + ["rank_deficient", "broken"] + usable * 4)


def _alphabet(name: str) -> str:
    return name if name in ALPHABETS else ("b3" if name == "b65" else "lex2")


def _run_ordering(name: str, argv: list[str], paths: dict) -> None:
    code = _run(_with_paths(argv, paths))
    if name in PAST_LIMITS:
        assert code == 2, argv


@st.composite
def _rotation_argv(draw, command: str):
    name = draw(_orderings(["b3", "b4", "conj_b3", "lex2", "sqrt2"]))
    alphabet = _alphabet(name)
    anchor = draw(st.sampled_from([TWISTS[alphabet]] * 3 + [draw(_element(alphabet))]))
    # "--opt=value" keeps a drawn value that starts with "-" from reading as an option.
    argv = [command, "--ordering", name, f"--x={anchor}"]
    for word in draw(st.lists(_element(alphabet), max_size=2)):
        argv.append(f"--basis={word}")
    n = draw(st.sampled_from([10 ** 6, -1, 0, 30, 30, None, None, None]))
    if n is not None:
        argv.append(f"--n={n}")
    return name, argv


@FUZZ
@given(data=st.data())
def test_fuzz_psi(limit_paths, data):
    _run_ordering(*data.draw(_rotation_argv("psi")), limit_paths)


@FUZZ
@given(data=st.data())
def test_fuzz_psitilde(limit_paths, data):
    _run_ordering(*data.draw(_rotation_argv("psitilde")), limit_paths)


CLEAN_CONSTANT = st.dictionaries(st.sampled_from(["1", "2", "3", "8", "12"]),
                                 st.sampled_from(["1", "-1/2", "0", "2/3"]), max_size=2)
DIRTY_CONSTANT = st.dictionaries(st.sampled_from([BIG_RADICAND, "1", "0", "-2", "r"]),
                                 st.sampled_from(["1", "1/0", "0.5", "9" * 4400]), max_size=2)


@FUZZ
@given(rank=st.sampled_from([65, 0, 1, 2, 2, 3, 3]), data=st.data())
def test_fuzz_construct(rank, data):
    constant = st.one_of(CLEAN_CONSTANT, CLEAN_CONSTANT, CLEAN_CONSTANT, DIRTY_CONSTANT)
    tau = data.draw(st.lists(constant, min_size=rank, max_size=rank))
    if tau and data.draw(st.integers(0, 3)):
        tau[0] = {"1": "1"}  # the values pair to 1 with x1
    x = data.draw(st.sampled_from(["x1", "x1", "x1", "x1 x2", "x2^-1", ""]))
    code = _run(["construct", f"--x={x}", "--tau", json.dumps(tau)])
    if rank > 64 or any(BIG_RADICAND in c for c in tau):
        assert code == 2, tau


@FUZZ
@given(data=st.data())
def test_fuzz_convex(limit_paths, data):
    name = data.draw(_orderings(["lex2", "sqrt2", "lex2", "sqrt2", "b3"]))
    alphabet = _alphabet(name)
    clean_row = st.lists(st.integers(-3, 3).map(str), min_size=2, max_size=2).map(" ".join)
    dirty_row = st.lists(st.sampled_from(["1", "-2", "a", "9" * 4400]), max_size=3).map(" ".join)
    row = st.one_of(clean_row, clean_row, clean_row, dirty_row)
    rows = data.draw(st.sampled_from([1, 1, 1, 2]))
    subgroup = "; ".join(data.draw(st.lists(row, min_size=rows, max_size=rows)))
    anchor = data.draw(st.sampled_from([TWISTS[alphabet]] * 3 + [data.draw(_element(alphabet))]))
    argv = ["convex", "--ordering", name, f"--x={anchor}", f"--subgroup={subgroup}"]
    radius = data.draw(st.sampled_from([0, 0, 0, 1, 2, 3, 10 ** 6]))
    if radius:
        argv.append(f"--brute-radius={radius}")
    _run_ordering(name, argv, limit_paths)


@FUZZ
@given(data=st.data())
def test_fuzz_obstruct(data):
    exponent = st.one_of(st.integers(-3, 3).map(str), st.integers(-3, 3).map(str),
                         st.sampled_from(HUGE_EXPONENTS))
    syllable = st.builds(lambda g, e: f"{g}^{e}", st.sampled_from("xyz"), exponent)
    token = st.one_of(syllable, syllable, syllable, st.sampled_from(["x", "^2", "1y", "x^^1"]))
    argv = ["obstruct"]
    for expr in data.draw(st.lists(st.lists(token, min_size=1, max_size=4).map(" ".join),
                                   min_size=1, max_size=3)):
        argv.append(f"--expr={expr}")
    anchor = data.draw(st.sampled_from([None, "x", "x", "y", ""]))
    if anchor is not None:
        argv.append(f"--anchor={anchor}")
    pins = ["y=1/2", "z=-1", "x=0", "y=2/3"] * 2 + ["y", "=1", "z=1/0", f"y={'9' * 4400}"]
    for pin in data.draw(st.lists(st.sampled_from(pins), max_size=2)):
        argv.append(f"--pin={pin}")
    if data.draw(st.booleans()):
        argv.append("--abelian")
    _run(argv)


@pytest.mark.parametrize("name", sorted(PAST_LIMITS))
@pytest.mark.parametrize("command", ["psi", "psitilde", "convex"])
def test_orderings_past_a_limit_exit_2(limit_paths, command, name):
    argv = [command, "--ordering", name, "--x", TWISTS[_alphabet(name)]]
    if command == "convex":
        argv += ["--subgroup", "0 1"]
    _run_ordering(name, argv, limit_paths)


@FUZZ
@given(data=st.data())
def test_fuzz_sampling_radius(paths, data):
    name = data.draw(st.sampled_from(["b3", "b4", "conj_b3", "lex2"]))
    radius = data.draw(st.sampled_from([0, 3, 10 ** 5, 10 ** 5 + 1, 10 ** 9, 10 ** 30]))
    argv = [data.draw(st.sampled_from(["axioms", "cocycle"])), "--ordering", name,
            "--samples", str(data.draw(st.integers(1, 3))), "--radius", str(radius)]
    if argv[0] == "cocycle":
        argv += ["--x", TWISTS[name]]
    code = _run(_with_paths(argv, paths))
    if radius > 10 ** 5 and name != "lex2":
        assert code == 2, argv


# The options of the golden commands that take JSON: files, and construct's --tau text.
FILE_OPTIONS = ("--ordering", "--a", "--b", "--enumeration")
GOLDEN_INPUTS = [(argv, i) for argv, _ in CLI_CASES for i in range(1, len(argv))
                 if argv[i - 1] in (*FILE_OPTIONS, "--tau")]
BOM = b"\xef\xbb\xbf"
INVALID_UTF8 = [b"\xff", b"\xfe\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """One to three of: truncation, a byte flip, a BOM, invalid UTF-8, deep
    nesting, or a digit changed to another, so that some inputs still parse
    and reach the computation."""
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["digit", "digit", "flip", "truncate", "bom", "invalid",
                                     "nest"]))
        if kind == "digit":
            digits = [i for i, b in enumerate(data) if 0x30 <= b <= 0x39]
            if digits:
                at = digits[at % len(digits)]
                data = data[:at] + bytes([draw(st.sampled_from(b"0123456789"))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "bom":
            data = BOM + data
        elif kind == "invalid":
            data = data[:at] + draw(st.sampled_from(INVALID_UTF8)) + data[at:]
        elif kind == "nest":
            data = data[:at] + b"[" * draw(st.sampled_from([2000, 100_000])) + data[at:]
    return data


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_fuzz_golden_commands_on_mutated_input_bytes(mutation_dir, data):
    argv, at = data.draw(st.sampled_from(GOLDEN_INPUTS))
    argv = [str(ROOT / a) if i and argv[i - 1] in FILE_OPTIONS else a for i, a in enumerate(argv)]
    if argv[at - 1] == "--tau":
        # Command-line bytes that are not UTF-8 reach argv as surrogate escapes.
        argv[at] = data.draw(_mutated(argv[at].encode())).decode("utf-8", "surrogateescape")
    else:
        path = mutation_dir / "input.json"
        path.write_bytes(data.draw(_mutated(Path(argv[at]).read_bytes())))
        argv[at] = str(path)
    _run(argv)
