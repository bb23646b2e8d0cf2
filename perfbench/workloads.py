"""The three workloads, as lists of queries built from a seed without ordo.

A query is a JSON-able dict with an "op" naming what the runner calls and
the op's inputs.  `build(workload, seed)` returns the queries of one pass;
every pass of a run issues the same queries in the same order.

Why these workloads:
  flag_exact  exact sqrt(m) arithmetic and the flag sign, with no braid code;
              radius 10^6 and beyond-cap floors lengthen the power_floor search.
  braid_long  unique braid words of length 200 to 800, twist floors and
              stable values: handle reduction and free reduction dominate and
              the sign cache almost never hits.
  braid_ball  many short words that repeat: thousands of compare calls, so
              per-call overhead, the sign cache and the binary searches show.

BENCHMARK.json lists flag_exact and braid_ball only.  braid_long stays
runnable by name, for before-and-after figures on long words, but its
figures spread by more than a quarter between seeds: the cost of reducing a
random long word varies by about half from word to word, and a 30 s run
holds only a few of its passes.
"""

from __future__ import annotations

from fractions import Fraction

import gen
from refs import Flag

WORKLOADS = ("flag_exact", "braid_long", "braid_ball")

DATA = "perfbench/data"

# Flag orderings; every floor and stable query anchors at x1, whose first
# pairing is a positive rational on each of them.
FLAGS = {
    "lex3": Flag("lex3", [[{1: 1}, {}, {}], [{}, {1: 1}, {}], [{}, {}, {1: 1}]]),
    "sqrt2": Flag("sqrt2", [[{1: 1}, {2: 1}]]),
    "three": Flag("three", [[{1: 1}, {2: 1}, {3: 1}]]),
    "rat_a": Flag("rat_a", [[{1: 2}, {1: -3}], [{1: 1}, {1: 1}]]),
    "rat_b": Flag("rat_b", [[{1: 3}, {1: 7}], [{1: 2}, {1: -5}]]),
}
# Only the CLI equivalence query uses this one.
CLI_FLAGS = {"sqrt3": Flag("sqrt3", [[{1: 1}, {3: 1}]])}
BRAID_STRANDS = {"braid_long": (3, 4, 5, 6), "braid_ball": (3, 4)}

BEYOND_CAP_EXP = 10 ** 22  # far above the 2^62 default bracket cap


def data_path(name: str) -> str:
    return f"{DATA}/{name}.json"


def braid_doc(n: int) -> dict:
    return {"group": {"kind": "braid", "strands": n}, "ordering": {"type": "dehornoy"}}


def cone_docs(workload: str) -> dict:
    """Every cone the workload's library queries use, as ordering JSON."""
    if workload == "flag_exact":
        return {name: flag.to_json() for name, flag in FLAGS.items()}
    return {f"B{n}": braid_doc(n) for n in BRAID_STRANDS[workload]}


def _unit(rank: int, i: int = 0) -> list[int]:
    return [1 if j == i else 0 for j in range(rank)]


# ---------------------------------------------------------------------------
# flag_exact


def _flag_exact(seed: int) -> list[dict]:
    rng = gen.make_rng("flag_exact", seed, "inputs")
    out: list[dict] = []
    for name, flag in FLAGS.items():
        x = _unit(flag.rank)
        for radius in (25, 10 ** 6):
            for _ in range(20):
                out.append({"op": "floor", "flag": name, "x": x,
                            "h": list(gen.random_lattice(rng, flag.rank, radius))})
        for _ in range(8):
            out.append({"op": "defect", "flag": name, "x": x,
                        "f": list(gen.random_lattice(rng, flag.rank, 25)),
                        "g": list(gen.random_lattice(rng, flag.rank, 25))})
        for _ in range(8):
            out.append({"op": "stable_exact", "flag": name, "x": x,
                        "h": list(gen.random_lattice(rng, flag.rank, 10 ** 6))})
        for op in ("rotation", "translation"):
            for _ in range(2):
                basis = [list(gen.random_lattice(rng, flag.rank, 25)) for _ in range(2)]
                out.append({"op": op, "flag": name, "x": x, "basis": basis})
    # Floors past the bracket cap: exact answers exist, the doubling search
    # gives up at 2^62 today.
    for name, coord in (("sqrt2", 1), ("three", 2), ("lex3", 0)):
        h = [0] * FLAGS[name].rank
        h[coord] = BEYOND_CAP_EXP + rng.randint(0, 10 ** 6)
        out.append({"op": "floor", "flag": name, "x": _unit(FLAGS[name].rank), "h": h,
                    "beyond_cap": True})
    for _ in range(6):
        rank = rng.choice((2, 3))
        tau = [{1: Fraction(1)}]
        for m in (2, 3)[:rank - 1]:
            tau.append({1: gen.random_rational(rng, 9, 5), m: gen.random_rational(rng, 9, 5)})
        out.append({"op": "construct", "x": _unit(rank),
                    "tau": [gen.constant_to_json(t) for t in tau]})
    for name, rows in CONVEX_CASES:
        out.append({"op": "convex", "flag": name, "x": _unit(FLAGS[name].rank), "rows": rows})
    for name in ("sqrt2", "rat_a", "rat_b"):
        out.append({"op": "sikora", "flag": name})
    out.extend({"op": "cli", "argv": argv} for argv in CLI_QUERIES["flag_exact"])
    return out


CONVEX_CASES = (
    ("lex3", [[0, 1, 0]]),
    ("lex3", [[0, 1, 0], [0, 0, 1]]),
    ("lex3", [[2, 0, 0]]),
    ("sqrt2", [[1, 0]]),
    ("three", [[0, 1, 0]]),
    ("rat_a", [[3, 2]]),
    ("rat_b", [[7, -3]]),
)


# ---------------------------------------------------------------------------
# braid_long


# Twist powers for the floor queries: each takes roughly 0.05-0.2 s today.
TWIST_POWER = {3: 20, 4: 12, 5: 8, 6: 6}
# Order of the stable_approx queries.  At 300 the six of them take about 10 s,
# which leaves a 30 s run two passes; at 100 they take about 1 s.
STABLE_ORDER = 100


def _braid_long(seed: int) -> list[dict]:
    rng = gen.make_rng("braid_long", seed, "inputs")
    out: list[dict] = []
    for n in BRAID_STRANDS["braid_long"]:
        # Many short random words keep the median steady across seeds; one
        # random B6 word of length 800 is the long case, whose cost varies most.
        for length, count in ((200, 30), (400, 2), (800, 1 if n == 6 else 0)):
            for _ in range(count):
                out.append({"op": "dsign", "n": n, "kind": "random",
                            "word": gen.random_word(rng, n, length)})
        for length in (200, 400, 800):
            for _ in range(2):
                w = gen.sigma_positive_word(rng, n, length, rng.randint(1, n - 2))
                s = gen.scramble(rng, w, n, insertions=length // 10, moves=4 * length)
                out.append({"op": "dsign", "n": n, "kind": "positive", "word": s})
                out.append({"op": "dsign", "n": n, "kind": "negative", "word": gen.inverse(s)})
        for _ in range(2):
            w = gen.random_word(rng, n, 200)
            s = gen.scramble(rng, w, n, insertions=20, moves=800)
            out.append({"op": "dsign", "n": n, "kind": "identity",
                        "word": gen.free_reduce(w + gen.inverse(s))})
        for _ in range(2):
            out.append({"op": "bfloor", "n": n, "conj": gen.random_word(rng, n, 4),
                        "k": TWIST_POWER[n]})
    for n in (3, 4, 5):
        out.append({"op": "stable", "n": n, "order": STABLE_ORDER, "target": [1, n],
                    "word": tuple((i, 1) for i in range(1, n))})
        out.append({"op": "stable", "n": n, "order": STABLE_ORDER, "target": [1, n - 1],
                    "word": tuple((i, 1) for i in range(1, n - 1)) + ((n - 1, 1),) * 2})
    out.extend({"op": "cli", "argv": argv} for argv in CLI_QUERIES["braid_long"])
    return out


# ---------------------------------------------------------------------------
# braid_ball

BALL_RADIUS = {3: 5, 4: 4}


def _braid_ball(seed: int) -> list[dict]:
    rng = gen.make_rng("braid_ball", seed, "inputs")
    out: list[dict] = []
    for n in BRAID_STRANDS["braid_ball"]:
        out.append({"op": "ball", "n": n, "radius": BALL_RADIUS[n]})
        out.append({"op": "realize", "n": n})
        for _ in range(20):
            out.append({"op": "pac", "n": n, "g": gen.random_word(rng, n, 2)})
        out.append({"op": "euler", "n": n, "count": 30, "seed": rng.randrange(1 << 30),
                    "radius": 3})
        out.append({"op": "dense", "n": n, "cap": 5 if n == 3 else 4})
        for _ in range(6):
            out.append({"op": "rinv", "n": n, "x": gen.random_word(rng, n, rng.randint(1, 3)),
                        "cap": 4})
        short = gen.words_up_to(n, BALL_RADIUS[n])
        for _ in range(150):
            out.append({"op": "compare", "n": n, "a": rng.choice(short), "b": rng.choice(short)})
    out.extend({"op": "cli", "argv": argv} for argv in CLI_QUERIES["braid_ball"])
    return out


# ---------------------------------------------------------------------------
# CLI queries: fixed inputs, stdout compared byte for byte with golden/


def _twist_text(n: int) -> str:
    return gen.render_word(gen.full_twist(n))


CLI_QUERIES = {
    "flag_exact": [
        ["rho", "--ordering", data_path("sqrt2"), "--x", "x1", "x2^1000000"],
        ["stable", "--ordering", data_path("three"), "--x", "x1", "--n", "50",
         "x1 x2^3 x3^-2"],
        ["psi", "--ordering", data_path("three"), "--x", "x1"],
        ["psitilde", "--ordering", data_path("sqrt2"), "--x", "x1",
         "--basis", "x1 x2", "--basis", "x2^-3"],
        ["construct", "--x", "x1", "--tau",
         '[{"1": "1"}, {"1": "1/3", "2": "1/2"}, {"3": "-2"}]'],
        ["sikora", "--ordering", data_path("sqrt2")],
        ["convex", "--ordering", data_path("rat_a"), "--x", "x1", "--subgroup", "3 2",
         "--brute-radius", "3"],
        ["obstruct", "--anchor", "x", "--expr", "x^1 y^2", "--expr", "x^3 y^-1"],
        ["equiv", "--a", data_path("sqrt2"), "--b", data_path("sqrt3"),
         "--x", "x1", "--mode", "dynamical"],
        ["axioms", "--ordering", data_path("three"), "--samples", "200", "--seed", "3"],
    ],
    "braid_long": [
        ["rho", "--ordering", data_path("b4"), "--x", _twist_text(4),
         "s2 s3^-1 " + " ".join([_twist_text(4)] * 5) + " s3 s2^-1"],
        ["stable", "--ordering", data_path("b3"), "--x", _twist_text(3), "--n", "300",
         "s1 s2"],
    ],
    "braid_ball": [
        ["realize", "--ordering", data_path("b3"), "--ball", "3", "--act", "s1"],
        ["cocycle", "--ordering", data_path("b3"), "--x", _twist_text(3),
         "--samples", "30", "--seed", "0"],
        ["axioms", "--ordering", data_path("b4"), "--samples", "300", "--seed", "2"],
    ],
}


def build(workload: str, seed: int) -> list[dict]:
    make = {"flag_exact": _flag_exact, "braid_long": _braid_long,
            "braid_ball": _braid_ball}[workload]
    return make(seed)


def data_documents() -> dict[str, dict]:
    """The ordering files the CLI queries read, by file name."""
    docs = {f"{name}.json": flag.to_json() for name, flag in {**FLAGS, **CLI_FLAGS}.items()}
    docs.update({f"b{n}.json": braid_doc(n) for n in (3, 4)})
    return docs
