"""CLI fuzzing: every input ends in exit 0, 2 or 3 with one JSON document.

Hypothesis draws small B3, B4 and Z^2 inputs for the rho, stable, realize,
axioms, sikora, cocycle and equiv subcommands, mixing well-formed element
tokens with malformed ones and huge exponents.  Each case must print exactly
one JSON document on stdout, exit with 0, 2 or 3, and finish within
CASE_SECONDS; a ball past the ball limit must exit 2.  Runs are
derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ordo.cli import main

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
    "rank_deficient": {"group": {"kind": "free_abelian", "rank": 2},
                       "ordering": {"type": "flag", "levels": [[{"1": "1"}, {"1": "1"}]]}},
}
# Letter names and counts per ordering: (prefix, number of generators).
ALPHABETS = {"b3": ("s", 2), "b4": ("s", 3), "conj_b3": ("s", 2),
             "lex2": ("x", 2), "sqrt2": ("x", 2), "rank_deficient": ("x", 2)}

# Central cofinal anchors, so that cocycle and equiv get past their checks.
TWISTS = {"b3": "s1 s2 s1 s1 s2 s1", "conj_b3": "s1 s2 s1 s1 s2 s1",
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
