"""Algorithms kept as test oracles for the production paths, and test-only
constructors.

``locate`` is the midpoint binary search the circle stratum was once built
with; ``forest_sort`` replaced it, walking the prefix forest of
``preorder_forest``, and ``dynamics._sort_stations`` replaced that, adding the
first-letter class brackets of left-invariance.  Tests compare the production
sorts, lookups and work counts against both.  ``fraction_replay`` is the
replay of ``realize`` on ``Fraction`` arithmetic that ``dynamics._replay``
replaced with dyadic integers.  ``word_sign`` is the conjugated
sign as it was read before Dynnikov frames, by building c g c^-1.
``word_floor`` and ``word_enclosure`` are the braid floor and stable window
as they were read before anchor-power keys: each probe signs x^-N h with the
power x^-N built as a word, and a window builds h^n.  The work-count
guards read ``count_kernel_letters_and_words`` and ``count_isqrt``.
``first_level`` reads a flag's first nonzero level and its exact pairing.
``braid_words_up_to`` lists every
freely reduced word of a ball; deduplicated on key (``first_words``) it is
how braid balls were built before ``groups.braid_ball`` walked them by braid.
``brute_convex_cyclic_braid`` is the betweenness oracle of ``convexity``
for cyclic braid subgroups, whose only callers are tests.
``refined_sign`` and ``refined_floor`` decide the sign and floor of integer
dots by dyadic ``isqrt`` refinement alone, as ``exactreal.dots_sign`` did for
every sum of three terms before its closed form, and ``exactreal.dots_floor``
for every irrational floor before it took one ``isqrt`` per term and at most
one sign.
``generator_level_dots`` and ``generator_first_dots`` are the flag level
scan as it was written before ``orderings._level_dots`` became a plain loop:
one generator expression per level.  ``trial_split`` is
``exactreal.squarefree_split`` as it was before it stopped at the cube root:
trial division by every d with d^2 at most the cofactor.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import mul
from typing import Sequence

import ordo.groups as ordo_groups
import ordo.orderings as ordo_orderings
import ordo.quasimorph as ordo_quasimorph
from ordo.convexity import BruteForceResult, _squeezed
from ordo.errors import UnsupportedInput
from ordo.exactreal import RealConstant
from ordo.groups import (MAX_BRAID_LETTERS, BraidWord, Element, GroupRef, LatticeElement,
                         braid_ball, dynnikov_act)
from ordo.orderings import (Cone, DehornoyOrdering, FlagOrdering, check_group, cone_sign,
                            quotient_sign)
from ordo.quasimorph import AnchorContext, _max_true


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


def refined_sign(dots: Sequence[tuple[int, int]]) -> int:
    """Sign of sum d*sqrt(m) over nonzero integers d and distinct squarefree m:
    refinement doubles the bits until the value clears its rounding slack."""
    slack, bits, a = sum(abs(d) for _, d in dots), 32, 0
    # d*sqrt(m)*2^bits lies within |d| of d*isqrt(m << 2*bits).
    while dots and abs(a := sum(d * math.isqrt(m << (2 * bits)) for m, d in dots)) < slack:
        bits *= 2
    return (a > 0) - (a < 0)


def refined_floor(dots: Sequence[tuple[int, int]], q: int) -> int:
    """Floor of sum d*sqrt(m) / q for an integer q != 0: the refinement of
    refined_sign, until its slack window lies between two multiples of q."""
    slack, bits = sum(abs(d) for m, d in dots if m != 1), 32  # rational terms are exact
    while True:
        a, unit = sum(d * math.isqrt(m << (2 * bits)) for m, d in dots), q << bits
        if (low := (a - slack) // unit) == (a + slack) // unit:
            return low
        bits *= 2


def generator_level_dots(rows: Sequence[tuple[int, Sequence[int]]],
                         coords: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(radicand, integer dot product) per row of a level, zero dots dropped."""
    return tuple((m, dot) for m, row in rows if (dot := sum(map(mul, row, coords))))


def generator_first_dots(flag: FlagOrdering,
                         coords: Sequence[int]) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """(j, dots) at the first level j where the coordinates pair nonzero; None if none."""
    for j, (_, rows) in enumerate(flag._expansion):
        if dots := generator_level_dots(rows, coords):
            return j, dots
    return None


def trial_split(m: int) -> tuple[int, int]:
    """(s, m0) with m = s*s*m0 and m0 squarefree, by trial division up to sqrt(m0)."""
    s, m0, d = 1, m, 2
    while d * d <= m0:
        while m0 % (d * d) == 0:
            m0 //= d * d
            s *= d
        d += 1
    return s, m0


def fraction_replay(order: Sequence[int]) -> list[Fraction]:
    """The inductive rule in enumeration order on the ranks of a sort (station
    order[r] has rank r), each station a Fraction: a midpoint is (a + b) / 2."""
    placed: list[int] = []  # ranks of the stations assigned so far, sorted
    stations: list[Fraction] = []  # parallel to placed
    values: list[Fraction] = []
    for r in sorted(range(len(order)), key=order.__getitem__):  # ranks in enumeration order
        k = bisect_left(placed, r)
        if not placed:
            t = Fraction(0)
        elif 0 < k < len(placed):
            t = (stations[k - 1] + stations[k]) / 2
        else:
            t = stations[0] - 1 if k == 0 else stations[-1] + 1
        placed.insert(k, r)
        stations.insert(k, t)
        values.append(t)
    return values


def preorder_forest(elements: Sequence[Element]) -> list[tuple[int, int, tuple]]:
    """The (station, parent, last letter) prefix forest in depth-first preorder,
    roots and siblings in enumeration order.  A braid station's parent is the
    station whose word is its word minus the last letter; lattice stations and
    stations without one are roots, with parent -1."""
    position = {g.letters: i for i, g in enumerate(elements) if isinstance(g, BraidWord)}
    children: list[list[int]] = [[] for _ in elements]
    roots: list[int] = []
    for i, g in enumerate(elements):
        parent = position.get(g.letters[:-1], -1) if isinstance(g, BraidWord) and g.letters else -1
        (children[parent] if parent >= 0 else roots).append(i)
    forest, stack = [], [(i, -1, ()) for i in reversed(roots)]
    while stack:
        node = stack.pop()
        forest.append(node)
        stack.extend((c, node[0], elements[c].letters[-1:]) for c in reversed(children[node[0]]))
    return forest


def forest_sort(cone: Cone, elements: Sequence[Element],
                forest: list[tuple[int, int, tuple]]) -> list[int]:
    """The stations of distinct elements sorted by the cone, walking their
    prefix forest: a station g = p*l lies above its parent p iff the letter l
    is positive, so it gallops from p's place in that direction; a root is
    binary-searched.  Each probe reads sign(g^-1 m) for the station m met
    (``quotient_sign``).  If l is the cone's least positive element or its
    inverse, p*l is p's successor or predecessor, placed with no probe."""
    order: list[int] = []  # stations sorted by the cone
    path: list[list[int]] = []  # [station, index in order] from a root to the last placed
    steps: dict[tuple, tuple[int, bool]] = {}  # letter l -> (sign, whether l is least^+-1)
    for i, parent, letter in forest:
        above = quotient_sign(cone, elements[i])  # reads sign(g^-1 m)
        lo, hi = -1, len(order)  # order[lo] < g < order[hi]
        while path and path[-1][0] != parent:
            path.pop()
        if path:
            if letter not in steps:
                word = BraidWord._trusted(cone.group, letter)
                steps[letter] = (cone_sign(cone, word),
                                 cone.least_key in (word.key, word.inverse().key))
            start, (step, least) = path[-1][1], steps[letter]
            lo, hi = (start, start + 1 if least else hi) if step > 0 else \
                (start - 1 if least else lo, start)
            while lo < (j := start + step) < hi:
                lo, hi = (lo, j) if above(elements[order[j]]) > 0 else (j, hi)
                step *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if above(elements[order[mid]]) > 0 else (mid, hi)
        order.insert(hi, i)
        for node in path:
            node[1] += node[1] >= hi
        path.append([i, hi])
    return order


def word_sign(cone: DehornoyOrdering, g: BraidWord) -> int:
    """The sign read by building words: c g c^-1, c the conjugator, signed by
    the unconjugated cone's key acted from scratch on a freshly validated word."""
    c = cone.conjugator
    return DehornoyOrdering(cone.group).sign(BraidWord(g.group, (c * g * c.inverse()).letters))


def bounded_power(h: BraidWord, n: int, what: str) -> BraidWord:
    """h^n built as a word; one longer than MAX_BRAID_LETTERS is refused unbuilt."""
    if abs(n) * len(h.letters) > MAX_BRAID_LETTERS:
        raise UnsupportedInput(f"{what} {n} power of a {len(h.letters)}-letter braid is longer "
                               f"than {MAX_BRAID_LETTERS} letters")
    return h ** n


def word_floor(ctx: AnchorContext, h: BraidWord) -> int:
    """power_floor on a braid cone, each probe sign(x^-N h) read by
    ``sign_product`` on the word x^-N, built once per search."""
    check_group(ctx.cone, h)
    powers: dict[int, BraidWord] = {}

    def at_least(n: int) -> bool:
        if -n not in powers:
            powers[-n] = bounded_power(ctx.anchor, -n, "floor probe")
        return ctx.cone.sign_product(powers[-n], h) >= 0

    if ctx.anchor_sign > 0:
        return _max_true(at_least, ctx.cap)
    return -_max_true(lambda m: at_least(-m), ctx.cap)


def word_enclosure(ctx: AnchorContext, h: BraidWord, n: int) -> tuple[Fraction, Fraction]:
    """stable_enclosure on a braid cone, the floor of h^n read on the word h^n."""
    if n < 1:
        raise UnsupportedInput("approximation order must be >= 1")
    value = word_floor(ctx, bounded_power(h, n, "order"))
    if ctx.anchor_sign > 0:
        return Fraction(value, n), Fraction(value + 1, n)
    return Fraction(value - 1, n), Fraction(value, n)


def count_kernel_letters_and_words(monkeypatch) -> tuple[list[int], list]:
    """Letters per dynnikov_act call, and every braid word built, trusted or validated."""
    acted, built = [], []
    kernel, trusted = ordo_groups.dynnikov_act, BraidWord._trusted
    init = BraidWord.__init__

    def counting(coords, letters):
        letters = tuple(letters)
        acted.append(len(letters))
        return kernel(coords, letters)

    for module in (ordo_groups, ordo_orderings, ordo_quasimorph):
        monkeypatch.setattr(module, "dynnikov_act", counting)
    monkeypatch.setattr(BraidWord, "_trusted", staticmethod(
        lambda group, letters: built.append(letters) or trusted(group, letters)))
    monkeypatch.setattr(BraidWord, "__init__",
                        lambda w, group, letters: built.append(letters) or init(w, group, letters))
    return acted, built


def count_isqrt(monkeypatch) -> list[int]:
    """Every argument math.isqrt is called with, from ordo or anywhere else."""
    calls, isqrt = [], math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: calls.append(n) or isqrt(n))
    return calls


def first_level(flag: FlagOrdering, g: LatticeElement) -> tuple[int, RealConstant] | None:
    """(j, pairing) at the first level j where g pairs nonzero; None when there is none."""
    found = flag.first_dots(g.coords)
    return None if found is None else (found[0], flag.level_pairing(found[0], g))


def braid_words_up_to(group: GroupRef, length: int) -> list[BraidWord]:
    """All freely reduced words of length <= length, graded then lexicographic.

    Each word is its parent (itself minus the last letter) times one letter,
    so its key is the parent's key moved by that letter.  Distinct words may
    represent equal braids; dedup on ``key`` where element identity matters.
    There is no size limit: the caller keeps the (2n-3)^length words small.
    """
    alphabet = sorted((i, e) for i in range(1, group.n) for e in (1, -1))
    out: list[BraidWord] = [group.identity()]
    frontier = out[:]
    for _ in range(length):
        # Sorted parents, each followed by sorted letters: the level stays sorted.
        frontier = [BraidWord._trusted(group, word.letters + (letter,))
                    .with_key(dynnikov_act(word.key, (letter,)))
                    for word in frontier for letter in alphabet
                    if not word.letters or word.letters[-1] != (letter[0], -letter[1])]
        out.extend(frontier)
    return out


def first_words(group: GroupRef, length: int) -> list[BraidWord]:
    """The words of ``braid_words_up_to`` deduplicated on key, first word kept."""
    first: dict[tuple[int, ...], BraidWord] = {}
    for w in braid_words_up_to(group, length):
        first.setdefault(w.key, w)
    return list(first.values())


_MAX_CYCLIC_EXPONENT = 6


def brute_convex_cyclic_braid(cone: Cone, word: BraidWord, radius: int) -> BruteForceResult:
    """Betweenness oracle for a cyclic braid subgroup on the word-length ball.

    Membership in <word> is decided against word^k for |k| <= _MAX_CYCLIC_EXPONENT
    by key (the braid's Dynnikov coordinates solve the word problem).
    """
    if cone.group.is_abelian:
        raise UnsupportedInput("this oracle is for braid cones")
    check_group(cone, word, "subgroup word")

    powers = [word ** k for k in range(-_MAX_CYCLIC_EXPONENT, _MAX_CYCLIC_EXPONENT + 1)]

    member_keys = {p.key for p in powers}
    in_ball_powers = [p for p in powers if len(p.letters) <= radius * len(word.letters)]
    outsiders = (g for g in braid_ball(cone.group, radius) if g.key not in member_keys)
    return _squeezed(cone, in_ball_powers, outsiders)
