"""Exact linear algebra over the rationals and over integer lattices.

Everything here works on plain lists of ``fractions.Fraction`` or ``int``;
matrices are lists of rows.  No floating point enters any verdict path.
The row Hermite normal form is the one integer engine: kernel lattices,
membership, coordinates in a sublattice and saturation all come from it.
The rational echelon form serves only rank over Q and rational solve.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Row = Sequence[Fraction]


def _echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduce to row echelon form in place, return the nonzero rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [row for row in rows if any(x != 0 for x in row)]


def rational_rank(rows: Sequence[Row]) -> int:
    """Rank over Q of the given rows."""
    work = [[Fraction(x) for x in row] for row in rows]
    return len(_echelon(work))


def rational_solve(rows: Sequence[Row], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One solution v of rows @ v = rhs, or None if the system is inconsistent."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    reduced = _echelon(aug)
    solution = [Fraction(0)] * n
    for row in reduced:
        lead = next((j for j in range(n) if row[j] != 0), None)
        if lead is None:
            if row[n] != 0:
                return None
            continue
        # Row echelon with full reduction: the lead variable is determined by
        # the rhs once the free variables are pinned to zero.
        solution[lead] = row[n]
    # Verify: with free variables at zero, back substitution above is exact
    # only because _echelon fully reduces; check to be safe.
    for row, want in zip(rows, rhs):
        if sum(Fraction(a) * s for a, s in zip(row, solution)) != want:
            return None
    return solution


def clear_denominators(row: Row) -> list[int]:
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
