"""Order searches kept as test oracles for the production paths.

``locate`` is the midpoint binary search the circle stratum was once built
with; ``dynamics._forest_sort`` replaced it.  Tests compare the production
sorts, lookups and work counts against it.
"""

from __future__ import annotations

from typing import Sequence

from ordo.groups import Element
from ordo.orderings import Cone


def locate(cone: Cone, ordered: Sequence[Element], g: Element) -> tuple[int, bool]:
    """Where g falls in a list sorted by the cone: (index, found).

    Midpoint binary search.  g is inverted once and each probe m reads
    sign(g^-1 m), which is compare(m, g) by LO2.  When g is present (as a
    group element, whatever its word) index is its position; otherwise it
    is the position at which inserting g keeps the list sorted.
    """
    g_inv = g.inverse()
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        c = cone.sign_product(g_inv, ordered[mid])
        if c == 0:
            return mid, True
        if c < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo, False
