"""Exact linear algebra over the rationals and over integer lattices.

Everything here works on plain lists of ``fractions.Fraction`` or ``int``;
matrices are lists of rows.  No floating point enters any verdict path.
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


def rational_kernel_basis(rows: Sequence[Row], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space {v : rows @ v = 0} over Q."""
    work = [[Fraction(x) for x in row] for row in rows]
    reduced = _echelon(work)
    leads = []
    for row in reduced:
        lead = next(j for j in range(ncols) if row[j] != 0)
        leads.append(lead)
    free = [j for j in range(ncols) if j not in leads]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, lead in zip(reduced, leads):
            v[lead] = -row[f]
        basis.append(v)
    return basis


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


def lattice_member(hnf_rows: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Whether vec lies in the lattice spanned by (HNF) rows."""
    v = list(map(int, vec))
    for row in hnf_rows:
        lead = next(j for j in range(len(row)) if row[j] != 0)
        if v[lead] % row[lead] != 0:
            return False
        q = v[lead] // row[lead]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def lattice_contains(outer_rows: Sequence[Sequence[int]], inner_rows: Sequence[Sequence[int]]) -> bool:
    """Whether the lattice spanned by outer_rows contains the one spanned by inner_rows."""
    hnf = row_hnf(outer_rows)
    return all(lattice_member(hnf, row) for row in inner_rows)


def vector_gcd(vec: Sequence[int]) -> int:
    return math.gcd(*(abs(int(x)) for x in vec)) if len(vec) else 0


def saturation_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of (Q-span of rows) intersected with Z^ncols."""
    complement = rational_kernel_basis([list(map(Fraction, r)) for r in rows], ncols)
    constraints = [clear_denominators(w) for w in complement]
    return integer_kernel_basis(constraints, ncols)


def lattice_is_saturated(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the row lattice equals its rational span's integer points."""
    if not rows:
        return True
    return lattice_contains(rows, saturation_basis(rows, len(rows[0])))


def extended_gcd_vector(values: Sequence[int]) -> tuple[int, list[int]]:
    """gcd g of the values plus coefficients c with sum(c_i * values_i) = g."""
    g, coeffs = 0, [0] * len(values)
    for i, v in enumerate(values):
        if v == 0:
            continue
        if g == 0:
            g, coeffs = abs(v), [0] * len(values)
            coeffs[i] = 1 if v > 0 else -1
            continue
        new_g, s, t = _extended_gcd(g, abs(v))
        coeffs = [s * c for c in coeffs]
        coeffs[i] += t if v > 0 else -t
        g = new_g
    return g, coeffs


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t
