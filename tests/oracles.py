"""Algorithms kept as test oracles for the production paths, and test-only
constructors.

``locate`` is the midpoint binary search the circle stratum was once built
with; ``dynamics._forest_sort`` replaced it.  Tests compare the production
sorts, lookups and work counts against it.  ``fraction_replay`` is the
replay of ``realize`` on ``Fraction`` arithmetic that ``dynamics._replay``
replaced with dyadic integers.  ``word_sign`` is the conjugated
sign as it was read before Dynnikov frames, by building c g c^-1.
``word_floor`` and ``word_enclosure`` are the braid floor and stable window
as they were read before anchor-power keys: each probe signs x^-N h with the
power x^-N built as a word, and a window builds h^n.  The work-count
guards read ``count_kernel_letters_and_words`` and ``count_isqrt``.
``first_level`` reads a flag's first nonzero level and its exact pairing,
and ``unchecked_flag`` builds a flag without the totality check, for the
rank-deficient flags the tests need.  ``braid_words_up_to`` lists every
freely reduced word of a ball; deduplicated on key (``first_words``) it is
how braid balls were built before ``groups.braid_ball`` walked them by braid.
``brute_convex_cyclic_braid`` is the betweenness oracle of ``convexity``
for cyclic braid subgroups, whose only callers are tests.
``refined_sign`` and ``refined_floor`` decide the sign and floor of integer
dots by dyadic ``isqrt`` refinement alone, as ``exactreal.dots_sign`` did for
every sum of three terms and ``exactreal.dots_floor`` for every irrational
floor before their closed forms.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

import ordo.groups as ordo_groups
import ordo.orderings as ordo_orderings
import ordo.quasimorph as ordo_quasimorph
from ordo.convexity import BruteForceResult, _squeezed
from ordo.errors import UnsupportedInput
from ordo.exactreal import RealConstant
from ordo.groups import (MAX_BRAID_LETTERS, BraidWord, Element, GroupRef, LatticeElement,
                         braid_ball, dynnikov_act)
from ordo.orderings import Cone, DehornoyOrdering, FlagOrdering, check_group
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


def unchecked_flag(levels: Sequence[Sequence[RealConstant]]) -> FlagOrdering:
    """A flag of these levels, total or not."""
    return FlagOrdering(GroupRef.free_abelian(len(levels[0])), tuple(map(tuple, levels)))


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
