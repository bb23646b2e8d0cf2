"""Exact linear algebra over integer lattices, and over the rationals through them.

Everything here works on plain lists of ``int``; matrices are lists of rows.
A rational row enters through ``clear_denominators``, which scales it to an
integer row with the same span.  No floating point enters any verdict path.
The row Hermite normal form is the one elimination: rank over Q, kernel
lattices, membership, coordinates in a sublattice, saturation and the
rational solve against a Hermite basis all come from it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

def clear_denominators(row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row by the lcm of denominators to a primitive integer row."""
    fracs = [Fraction(x) for x in row]
    denom = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    g = math.gcd(*ints) if any(ints) else 1
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def integer_kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the kernel lattice {v in Z^ncols : rows @ v = 0}, in row
    Hermite form.

    Row-reduces [rows^T | I] to Hermite form and keeps the right blocks of
    the rows whose left block is zero.  The reduction is a unimodular
    transform, so these rows generate the full kernel sublattice, not just
    a finite-index subgroup of it.
    """
    m = len(rows)
    augmented = [[int(rows[r][c]) for r in range(m)] + [int(i == c) for i in range(ncols)]
                 for c in range(ncols)]
    return [row[m:] for row in row_hnf(augmented) if not any(row[:m])]


def row_hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form; returns the nonzero rows.

    Pivots are positive, entries above each pivot are reduced into [0, pivot).
    Two integer row sets span the same lattice iff their HNFs are equal.
    """
    work = [list(map(int, row)) for row in rows if any(row)]
    if not work:
        return []
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        rows_here = [r for r in range(pivot_row, len(work)) if work[r][col] != 0]
        if not rows_here:
            continue
        while len(rows_here) > 1:
            r0 = min(rows_here, key=lambda r: abs(work[r][col]))
            for r in rows_here:
                if r != r0:
                    q = work[r][col] // work[r0][col]
                    work[r] = [a - q * b for a, b in zip(work[r], work[r0])]
            rows_here = [r for r in range(pivot_row, len(work)) if work[r][col] != 0]
        r0 = rows_here[0]
        work[pivot_row], work[r0] = work[r0], work[pivot_row]
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-x for x in work[pivot_row]]
        for r in range(pivot_row):
            q = work[r][col] // work[pivot_row][col]
            if q:
                work[r] = [a - q * b for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return [row for row in work[:pivot_row] if any(row)]


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows (clear a rational row's denominators first)."""
    return len(row_hnf(rows))


def hermite_solve(hnf_rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    """The rational v with hnf_rows @ v == rhs that is zero off the pivot
    columns, for nonzero rows in echelon form such as row_hnf returns.

    Back substitution from the bottom row: each row fixes v at its pivot,
    where v is still zero, from the pivots below it.
    """
    v = [Fraction(0)] * (len(hnf_rows[0]) if hnf_rows else 0)
    for row, want in zip(reversed(hnf_rows), reversed(rhs)):
        lead = next(j for j in range(len(row)) if row[j] != 0)
        v[lead] = (want - sum(a * b for a, b in zip(row, v))) / row[lead]
    return v


def lattice_coordinates(hnf_rows: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int] | None:
    """Integer c with sum(c_i * hnf_rows[i]) == vec, or None if vec is off the lattice."""
    v = list(map(int, vec))
    coords = []
    for row in hnf_rows:
        lead = next(j for j in range(len(row)) if row[j] != 0)
        q, r = divmod(v[lead], row[lead])
        if r:
            return None
        coords.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    return None if any(v) else coords


def lattice_contains(outer_rows: Sequence[Sequence[int]], inner_rows: Sequence[Sequence[int]]) -> bool:
    """Whether the lattice spanned by outer_rows contains the one spanned by inner_rows."""
    hnf = row_hnf(outer_rows)
    return all(lattice_coordinates(hnf, row) is not None for row in inner_rows)


def vector_gcd(vec: Sequence[int]) -> int:
    return math.gcd(*(abs(int(x)) for x in vec)) if len(vec) else 0


def lattice_is_saturated(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the row lattice equals its rational span's integer points,
    which are the kernel lattice of the rows' kernel lattice."""
    if not rows:
        return True
    n = len(rows[0])
    return lattice_contains(rows, integer_kernel_basis(integer_kernel_basis(rows, n), n))
