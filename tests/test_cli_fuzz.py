"""CLI fuzzing: every input ends in exit 0, 2 or 3 with one JSON document.

Hypothesis draws small B3, B4 and Z^2 inputs for the rho, stable, realize,
axioms and sikora subcommands, mixing well-formed element tokens with
malformed ones and huge exponents.  Each case must print exactly one JSON
document on stdout, exit with 0, 2 or 3, and finish within CASE_SECONDS.
Runs are derandomized, so the examples are the same on every run.
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


def _element(name: str) -> st.SearchStrategy[str]:
    """Mostly well-formed words; one in four may hold junk or huge exponents."""
    clean = st.lists(_clean_token(*ALPHABETS[name]), min_size=1, max_size=4)
    dirty = st.lists(_token(*ALPHABETS[name]), max_size=5)
    return st.one_of(clean, clean, clean, dirty).map(" ".join)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("orderings")
    out = {}
    for name, doc in ORDERINGS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
        out[name] = str(root / f"{name}.json")
    (root / "broken.json").write_text("{not json")
    out["broken"] = str(root / "broken.json")
    return out


def _run(argv: list[str]) -> None:
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (argv, code, buffer.getvalue())
    json.loads(buffer.getvalue())  # exactly one document: trailing text fails to parse
    assert elapsed < CASE_SECONDS, (argv, elapsed)


FUZZ = settings(max_examples=30, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])
NAMES = st.sampled_from(sorted(ALPHABETS))


@st.composite
def _anchored(draw):
    name = draw(NAMES)
    argv = ["--ordering", name, "--x", draw(_element(name))]
    cap = draw(st.sampled_from([None, None, -1, 1, 8, 1 << 12, 1 << 20, 1 << 62]))
    if cap is not None:
        argv += ["--cap", str(cap)]
    return name, argv


def _with_paths(argv: list[str], paths: dict) -> list[str]:
    return [paths.get(a, a) if i and argv[i - 1] == "--ordering" else a
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
    name = data.draw(st.sampled_from(sorted(ALPHABETS) + ["broken"]))
    alphabet = name if name in ALPHABETS else "b3"
    argv = ["realize", "--ordering", name, "--ball", str(data.draw(st.integers(-1, 3)))]
    if data.draw(st.booleans()):
        words = data.draw(st.lists(_element(alphabet), max_size=6))
        text = json.dumps(["", *words]) if data.draw(st.booleans()) else json.dumps(words)
        argv += ["--enumeration", text if data.draw(st.integers(0, 9)) else text[:-1]]
    if data.draw(st.booleans()):
        argv += ["--act", data.draw(_element(alphabet))]
    _run(_with_paths(argv, paths))


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
