"""Self-tests for the benchmark's input generators and reference oracles.

    python3 perfbench/selftest.py

Needs neither ordo nor a checkout: the invariants are computed here.
Scrambling must keep a word's exponent sum, its permutation in S_n and its
Burau matrix (faithful on B_3); sigma-positive words must use their lowest
generator only positively; one seed must regenerate identical inputs.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402


def check_scramble_invariants() -> None:
    rng = random.Random(11)
    for n in (3, 4, 5, 6):
        for _ in range(12):
            w = gen.random_word(rng, n, rng.randint(10, 40))
            s = gen.scramble(rng, w, n, insertions=4, moves=200)
            assert gen.exponent_sum(s) == gen.exponent_sum(w), "exponent sum changed"
            assert gen.permutation(s, n) == gen.permutation(w, n), "permutation changed"
            assert gen.burau(s, n) == gen.burau(w, n), "Burau matrix changed"
            assert refs.dynnikov(s, n) == refs.dynnikov(w, n), "Dynnikov coordinates changed"


def check_burau_faithful_on_b3() -> None:
    """On B_3 equal Burau matrices mean equal braids, so Dynnikov must agree."""
    rng = random.Random(12)
    words = [gen.random_word(rng, 3, rng.randint(0, 6)) for _ in range(300)]
    by_burau: dict = {}
    for w in words:
        by_burau.setdefault(gen.burau(w, 3), set()).add(refs.dynnikov(w, 3))
    assert all(len(v) == 1 for v in by_burau.values()), "Burau and Dynnikov disagree on B3"


def check_sigma_positive() -> None:
    rng = random.Random(13)
    for n in (3, 4, 5, 6):
        for main in range(1, n):
            w = gen.sigma_positive_word(rng, n, 60, main)
            assert len(w) == 60 and w == gen.free_reduce(w)
            assert min(i for i, _ in w) == main
            assert all(e == 1 for i, e in w if i == main), "main generator used negatively"
            assert refs.braid_sign(w, n) == 1
            assert refs.braid_sign(gen.inverse(w), n) == -1


def check_dynnikov_basics() -> None:
    rng = random.Random(14)
    assert refs.braid_sign(((1, 1),), 3) == 1
    assert refs.braid_sign(((1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1)), 3) == 0
    assert refs.braid_sign(((1, 1), (3, 1), (1, -1), (3, -1)), 4) == 0
    for _ in range(200):
        n = rng.randint(3, 6)
        w = gen.random_word(rng, n, rng.randint(1, 30))
        assert refs.braid_sign(w, n) == -refs.braid_sign(gen.inverse(w), n)
        twist = gen.full_twist(n)
        assert refs.dynnikov(w + twist, n) == refs.dynnikov(twist + w, n), "twist not central"


def check_flag_references() -> None:
    rng = random.Random(15)
    for flag in workloads.FLAGS.values():
        x = [1] + [0] * (flag.rank - 1)
        for _ in range(40):
            h = list(gen.random_lattice(rng, flag.rank, 30))
            n = flag.floor(x, h)
            below = [a - n * b for a, b in zip(h, x)]
            above = [a - (n + 1) * b for a, b in zip(h, x)]
            assert flag.sign(below) >= 0 and flag.sign(above) < 0, (flag.name, h, n)
    import sympy

    for b in (1, -1, 7, -12345):
        for a in (Fraction(0), Fraction(5, 3), Fraction(-7, 2)):
            want = sympy.floor(sympy.Rational(a.numerator, a.denominator)
                               + sympy.Rational(b, 3) * sympy.sqrt(2))
            assert refs.const_floor({1: a, 2: Fraction(b, 3)}) == int(want)


def check_seeds_reproduce() -> None:
    for workload in workloads.WORKLOADS:
        first, again = workloads.build(workload, 5), workloads.build(workload, 5)
        assert first == again, f"{workload}: seed 5 does not reproduce its inputs"
        assert first != workloads.build(workload, 6), f"{workload}: seed is ignored"


def main() -> int:
    checks = [check_scramble_invariants, check_burau_faithful_on_b3, check_sigma_positive,
              check_dynnikov_basics, check_flag_references, check_seeds_reproduce]
    for check in checks:
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
