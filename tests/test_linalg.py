"""Exact rational/integer linear algebra against sympy oracles."""

import random

import sympy
from sympy.matrices.normalforms import invariant_factors

from ordo.linalg import (
    hermite_solve,
    integer_kernel_basis,
    lattice_contains,
    lattice_coordinates,
    lattice_is_saturated,
    rational_rank,
    row_hnf,
    vector_gcd,
)


def random_matrix(rng, rows, cols, span=5):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_sympy():
    rng = random.Random(1)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rational_rank(m) == sympy.Matrix(m).rank()


def test_hermite_solve_matches_sympy():
    rng = random.Random(2)
    checked = 0
    while checked < 200:
        cols = rng.randint(1, 5)
        hnf = row_hnf(random_matrix(rng, rng.randint(1, cols), cols, span=rng.choice((3, 9))))
        if not hnf:
            continue
        rhs = [rng.randint(-4, 4) for _ in hnf]
        got = hermite_solve(hnf, rhs)
        assert [sum(a * b for a, b in zip(row, got)) for row in hnf] == rhs
        pivots = {next(j for j, a in enumerate(row) if a) for row in hnf}
        assert all(got[j] == 0 for j in range(cols) if j not in pivots)
        # sympy's Gauss-Jordan solution with its free parameters at zero is
        # the one solution that vanishes off the pivot columns.
        solution, params = sympy.Matrix(hnf).gauss_jordan_solve(sympy.Matrix(rhs))
        want = solution.subs({t: 0 for t in params})
        assert [sympy.Rational(x.numerator, x.denominator) for x in got] == list(want)
        checked += 1


def test_integer_kernel_is_saturated():
    rng = random.Random(4)
    for _ in range(60):
        cols = rng.randint(1, 5)
        rows = random_matrix(rng, rng.randint(1, 3), cols)
        basis = integer_kernel_basis(rows, cols)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # Compare with sympy's nullspace: same dimension, and every sympy
        # kernel vector (cleared to integers) lies in our lattice.
        ns = sympy.Matrix(rows).nullspace()
        assert len(basis) == len(ns)
        if basis:
            hnf = row_hnf(basis)
            for v in ns:
                denom = sympy.lcm([sympy.fraction(x)[1] for x in v])
                ints = [int(x * denom) for x in v]
                g = vector_gcd(ints)
                prim = [x // g for x in ints] if g else ints
                assert lattice_coordinates(hnf, prim) is not None


def test_hnf_canonical():
    rng = random.Random(5)
    for _ in range(60):
        cols = rng.randint(1, 4)
        rows = random_matrix(rng, rng.randint(1, 4), cols)
        hnf = row_hnf(rows)
        # Unimodular row mixes preserve the lattice, hence the HNF.
        mixed = [row[:] for row in rows]
        if len(mixed) >= 2:
            mixed[0] = [a + 3 * b for a, b in zip(mixed[0], mixed[1])]
            mixed[1], mixed[-1] = mixed[-1], mixed[1]
        assert row_hnf(mixed) == hnf
        for row in rows:
            assert lattice_coordinates(hnf, row) is not None


def test_lattice_contains():
    assert lattice_contains([[1, 0], [0, 1]], [[3, 5]])
    assert lattice_contains([[2, 0], [0, 1]], [[4, 7]])
    assert not lattice_contains([[2, 0], [0, 1]], [[1, 0]])


def test_lattice_coordinates_rebuild_members_and_reject_outsiders():
    rng = random.Random(6)
    members = outsiders = 0
    for _ in range(300):
        cols = rng.randint(1, 5)
        rows = random_matrix(rng, rng.randint(1, 4), cols)
        hnf = row_hnf(rows)
        combination = [rng.randint(-4, 4) for _ in rows]
        inside = [sum(c * row[j] for c, row in zip(combination, rows)) for j in range(cols)]
        for vec in (inside, [rng.randint(-6, 6) for _ in range(cols)]):
            coords = lattice_coordinates(hnf, vec)
            assert (coords is not None) == (row_hnf(rows + [vec]) == hnf)
            if coords is None:
                outsiders += 1
                continue
            members += 1
            assert len(coords) == len(hnf)
            assert [sum(c * row[j] for c, row in zip(coords, hnf)) for j in range(cols)] == vec
    assert members > 300 and outsiders > 50


def test_lattice_is_saturated_matches_invariant_factors():
    rng = random.Random(7)
    checked = unsaturated = 0
    while checked < 500:
        cols = rng.randint(1, 5)
        rows = random_matrix(rng, rng.randint(1, cols), cols, span=rng.choice((2, 4, 9)))
        if rational_rank(rows) != len(rows):
            continue
        factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        want = all(f == 1 for f in factors)
        assert lattice_is_saturated(rows) == want, rows
        checked += 1
        unsaturated += not want
    assert 50 < unsaturated < 450
