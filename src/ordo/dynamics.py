"""Actions on the line and circle read off an ordering.

The realization table assigns exact rationals to a finite enumeration
(identity first) by the inductive rule: a new element beyond the current
maximum gets max+1, below the minimum gets min-1, and otherwise the midpoint
of its immediate neighbours; the assignment order-embeds the enumerated
elements into Q and never revises earlier values.  A braid station's
parent and tail are the stations whose words are its word minus the last,
and minus the first, letter.  One search sorts elements by the cone, by
word length, and brackets each station by left-invariance before any
probe: g = l*x and h = l*y compare as their tails x and y do, and g = p*l'
lies above p iff the letter l' is positive, right beside p when l' is the
cone's least positive element or its inverse.  ``realize``
sorts the enumeration (by default a ball) with it and replays the rule in
enumeration order on the ranks, in dyadic integers.  The partial action check compares
integer ranks of g_i and g*g_i, keying g*g_i as one letter acting on
key(g*parent); roots and lattice stations are keyed by ``key_times``.

For a central cofinal anchor x the floors split every element h as
x^{floor(h)} times a remainder in the floor-zero stratum, and

    t'(h) = floor(h) + theta(remainder(h))

with theta an order-embedding of the stratum into [0,1) realizes the group
on the line with x acting as translation by one; quotienting by that
translation samples a circle action, which floors each element once (by
its key), keys each remainder from the context's cached anchor-power key,
and sorts the distinct remainders with the same search.  The normalized lift of
the circle map of f moves 0 to t'(f) - floor(f), and composing lifts measures an integer
cocycle which must equal minus the quasimorphism coboundary: this is the
cochain-level form of "the rotation class is minus the Euler class".

Two orderings with the same central cofinal anchor get an equivalence
verdict by comparing rotation classes: equal classes mean conjugate circle
actions (semi-conjugate in general; conjugate on dense orderings).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvariantViolation, MissingOrbitPoint, UnsupportedInput
from .exactreal import format_rational
from .groups import (
    MAX_BALL_ELEMENTS,
    MAX_BALL_LETTERS,
    BraidWord,
    Element,
    braid_ball,
    check_sample_count,
    coordinate_ball,
    dynnikov_act,
    free_reduce,
    inverse_letters,
    random_element,
)
from .orderings import (
    Cone,
    Decision,
    Density,
    check_group,
    cone_sign,
    frame_key,
    is_central_braid,
    is_cofinal,
    is_dense,
    quotient_sign,
)
from .quasimorph import AnchorContext, power_floor
from .cohmaps import RotationClass, rotation_class, unwrap_central_conjugation
from .records import Record, cached


class RealizationTable(Record):
    """Exact rational stations for a finite enumeration, identity at 0."""

    cone: Cone
    elements: tuple[Element, ...]
    values: tuple[Fraction, ...]

    @cached
    def _forest(self) -> list[tuple[int, int, tuple]]:
        return _station_forest(self.elements)[0]

    @cached
    def _ranked(self) -> tuple[list[Fraction], dict, list[tuple[int, int]]]:
        # The distinct values in increasing order, each key's rank, and the (rank, station)
        # pairs in value order (a station indexes self.elements); ``realize`` hands these.
        distinct = sorted(set(self.values))
        rank = {t: r for r, t in enumerate(distinct)}
        ranks = [rank[t] for t in self.values]
        return (distinct, {g.key: r for g, r in zip(self.elements, ranks)},
                sorted(zip(ranks, range(len(ranks)))))

    def lookup(self, g: Element) -> Fraction | None:
        """Value of g if it is enumerated (as a group element, whatever its word)."""
        check_group(self.cone, g)
        distinct, rank_of, _ = self._ranked
        return distinct[rank_of[g.key]] if g.key in rank_of else None

    def to_json(self) -> dict:
        return {
            "elements": [g.render() for g in self.elements],
            "values": [format_rational(v) for v in self.values],
        }


def _station_forest(elements: Sequence[Element]) -> tuple[list[tuple[int, int, tuple]], list[int]]:
    """The stations in work order, by word length with ties in enumeration
    order, as (station, parent, last letter), and each station's tail.  A
    braid station's parent is the station whose word is its word minus the
    last letter, its tail the one whose word is its word minus the first
    letter: both are shorter, so each comes before it in work order.  Lattice
    stations, and stations without a parent or a tail, have -1 there."""
    position = {g.letters: i for i, g in enumerate(elements) if isinstance(g, BraidWord)}
    lengths = [len(g.letters) if isinstance(g, BraidWord) else 0 for g in elements]
    forest, tails = [], [-1] * len(elements)
    for i in sorted(range(len(elements)), key=lengths.__getitem__):
        if lengths[i]:
            letters = elements[i].letters
            tails[i] = position.get(letters[1:], -1)
            forest.append((i, position.get(letters[:-1], -1), letters[-1:]))
        else:
            forest.append((i, -1, ()))
    return forest, tails


_END_GAP = 1 << 32  # the label step past either end of the placed stations


def _sort_stations(cone: Cone, elements: Sequence[Element],
                   forest: list[tuple[int, int, tuple]], tails: list[int]) -> list[int]:
    """The stations of distinct elements sorted by the cone, placed in the work
    order of ``_station_forest``.  Left-invariance brackets a station g before
    any probe: g = l x lies between the placed stations of first letter l whose
    tails sit around x, as (l x)^-1 (l y) = x^-1 y; and g = p l' lies above its
    parent p iff l' is positive, right beside p if l' is the cone's least positive
    element or its inverse.  Inside the bracket each probe reads sign(g^-1 m)
    (``quotient_sign``), galloping from p when p bounds it, else bisecting.
    Placed stations carry integer labels increasing in the order, so placed
    stations are compared and found with no probe (``_respace`` makes room)."""
    placed: list[tuple[int, int]] = []  # (label, station), sorted by the cone
    label = [0] * len(elements)  # each placed station's label
    classes: dict[tuple, list[int]] = {}  # first letter -> its sorted placed stations with a tail
    steps: dict[tuple, tuple[int, bool]] = {}  # letter l -> (sign, whether l is least^+-1)

    def tail_label(m: int) -> int:
        return label[tails[m]]

    for i, parent, letter in forest:
        lo, hi = -1, len(placed)  # placed[lo] < g < placed[hi]
        if (tail := tails[i]) >= 0:
            members = classes.setdefault(elements[i].letters[0], [])
            k = bisect_left(members, label[tail], key=tail_label)
            if k:
                lo = bisect_left(placed, (label[members[k - 1]],))
            if k < len(members):
                hi = bisect_left(placed, (label[members[k]],))
            members.insert(k, i)
        start = -1  # p's index when p bounds the bracket, to gallop from
        if parent >= 0:
            if letter not in steps:
                word = BraidWord._trusted(cone.group, letter)
                steps[letter] = (cone_sign(cone, word),
                                 cone.least_key in (word.key, word.inverse().key))
            step, least = steps[letter]
            at = bisect_left(placed, (label[parent],))
            if least:
                lo, hi = (at, at + 1) if step > 0 else (at - 1, at)
            elif step > 0 and at >= lo:
                lo = start = at
            elif step < 0 and at <= hi:
                hi = start = at
        if hi - lo > 1:
            above = quotient_sign(cone, elements[i])  # reads sign(g^-1 m)
            if start >= 0:
                while lo < (j := start + step) < hi:
                    lo, hi = (lo, j) if above(elements[placed[j][1]]) > 0 else (j, hi)
                    step *= 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if above(elements[placed[mid][1]]) > 0 else (mid, hi)
        if hi == len(placed):
            t = placed[-1][0] + _END_GAP if placed else 0
        elif hi == 0:
            t = placed[0][0] - _END_GAP
        else:
            t = (placed[hi - 1][0] + placed[hi][0]) >> 1
        placed.insert(hi, (t, i))
        label[i] = t
        if hi and t == placed[hi - 1][0]:
            _respace(placed, label, hi)
    return [i for _, i in placed]


def _respace(placed: list[tuple[int, int]], label: list[int], at: int) -> None:
    """Spread the labels of the smallest aligned range of 2^j labels around
    placed[at] that holds at most (4/3)^j stations evenly over it, amortized
    O(log n) per placement (Bender et al., "Two simplified algorithms for
    maintaining order in a list", ESA 2002): placed[at] found no room, and
    took the label of placed[at - 1]."""
    j, t = 2, placed[at][0]
    while True:
        j += 1
        base = t >> j << j
        first = bisect_left(placed, (base,))
        count = bisect_left(placed, (base + (1 << j),), first) - first
        if count * 3 ** j <= 4 ** j:
            break
    gap = (1 << j) // count
    for k in range(first, first + count):
        t, i = base + (k - first) * gap, placed[k][1]
        placed[k] = t, i
        label[i] = t


def _replay(order: list[int]) -> list[Fraction]:
    """The inductive rule in enumeration order on the ranks of a sort (station
    order[r] has rank r), each station n / 2^e, e its midpoint-nesting depth.
    The stations leave a doubly linked list over the ranks in reverse
    enumeration order: the two neighbours a station has when it leaves are
    the two it had when it was placed, so the forward pass places each from
    two known values, in linear time."""
    size = len(order)
    ranks = sorted(range(size), key=order.__getitem__)  # in enumeration order
    # Ranks -1 and size are the ends; both write to the last slot, never read.
    below, above = list(range(-1, size)), list(range(1, size + 2))
    sides = []
    for r in ranks[:0:-1]:  # every station but the identity, last placed first
        b, a = below[r], above[r]
        above[b], below[a] = a, b
        sides.append((b, a))
    stations, values = [(0, 0)] * size, [Fraction(0)]  # the identity at 0
    for r, (b, a) in zip(ranks[1:], reversed(sides)):
        if b < 0:  # one below the least
            n, e = stations[a]
            n -= 1 << e
        elif a == size:  # one above the greatest
            n, e = stations[b]
            n += 1 << e
        else:
            (x, ex), (y, ey) = stations[b], stations[a]
            e = max(ex, ey)
            n, e = (x << e - ex) + (y << e - ey), e + 1
        stations[r] = n, e
        values.append(Fraction(n, 1 << e))
    return values


def realize(cone: Cone, enumeration: Sequence[Element]) -> RealizationTable:
    """Run the inductive assignment over the enumeration.

    The enumeration must start with the identity and contain no repeated
    group elements (braid words are compared as braids, not as words), and
    hold at most MAX_BALL_ELEMENTS elements and MAX_BALL_LETTERS letters,
    counted before any element is keyed.  First the whole enumeration is
    sorted (``_sort_stations``), then the values are replayed in
    enumeration order on the integer ranks (``_replay``).
    """
    check_enumeration_size(len(enumeration))
    enumeration = letter_bounded(enumeration)
    if not enumeration:
        raise UnsupportedInput("enumeration must not be empty")
    if cone_sign(cone, enumeration[0]) != 0:
        raise UnsupportedInput("enumeration must start with the identity")
    seen: dict = {}
    for i, g in enumerate(enumeration):
        if g.group is not cone.group:
            check_group(cone, g)
        if seen.setdefault(g.key, i) != i:
            raise UnsupportedInput(f"duplicate element at position {i}: {g.render()!r}")

    forest, tails = _station_forest(enumeration)
    order = _sort_stations(cone, enumeration, forest, tails)
    values = _replay(order)
    table = RealizationTable(cone, tuple(enumeration), tuple(values))
    table.__dict__["_forest"] = forest
    table.__dict__["_ranked"] = ([values[i] for i in order],  # rank r is station order[r]
                                 {enumeration[i].key: r for r, i in enumerate(order)},
                                 list(enumerate(order)))
    return table


def check_enumeration_size(count: int) -> None:
    """Refuse an enumeration of more than MAX_BALL_ELEMENTS elements, counted unread."""
    if count > MAX_BALL_ELEMENTS:
        raise UnsupportedInput(f"an enumeration of {count} elements is past the limit of "
                               f"{MAX_BALL_ELEMENTS} elements (MAX_BALL_ELEMENTS)")


def letter_bounded(elements: Iterable[Element]) -> list[Element]:
    """The elements as a list, read one at a time and refused as soon as its
    braids hold more than MAX_BALL_LETTERS letters together, before any is keyed."""
    out: list[Element] = []
    letters = 0
    for g in elements:
        if isinstance(g, BraidWord):
            letters += len(g.letters)
            if letters > MAX_BALL_LETTERS:
                raise UnsupportedInput(
                    f"an enumeration holding more than {MAX_BALL_LETTERS} letters is past the "
                    f"limit (MAX_BALL_LETTERS): {letters} letters by position {len(out)}")
        out.append(g)
    return out


def ball_enumeration(cone: Cone, radius: int) -> list[Element]:
    """Default enumeration: the radius ball in graded lexicographic order.

    Coordinate ball for abelian groups; for braid groups each braid of word
    length <= radius once, as its first word (``braid_ball``).  A negative
    radius or more than MAX_BALL_ELEMENTS elements raise UnsupportedInput.
    """
    return (coordinate_ball if cone.group.is_abelian else braid_ball)(cone.group, radius)


class ActionCheck(Record):
    checked: int
    passed: bool
    failure: str | None = None

    def to_json(self) -> dict:
        return {"checked": self.checked, "passed": self.passed, "failure": self.failure}


def partial_action_check(table: RealizationTable, g: Element) -> ActionCheck:
    """Left translation by g must act increasingly on the realized stations.

    Checks every enumerated g_i with g*g_i also enumerated: the induced
    partial map on values is strictly increasing.  Images are keyed down
    the prefix tree, one letter per braid station, then walked in value
    order and their ranks compared.
    """
    check_group(table.cone, g)
    distinct, rank_of, stations = table._ranked
    keys: list = [None] * len(table.elements)
    for i, parent, letter in table._forest:
        keys[i] = (g.key_times(table.elements[i]) if parent < 0
                   else dynnikov_act(keys[parent], letter))
    pairs = [(r, image) for r, i in stations if (image := rank_of.get(keys[i])) is not None]
    pairs.sort()  # already sorted unless equal values give a rank twice
    for (a0, b0), (a1, b1) in zip(pairs, pairs[1:]):
        if not b1 > b0:
            a0, b0, a1, b1 = (distinct[r] for r in (a0, b0, a1, b1))
            return ActionCheck(len(pairs), False,
                               f"stations {a0}->{b0} and {a1}->{b1} are not increasing")
    return ActionCheck(len(pairs), True)


# ---------------------------------------------------------------------------
# sampled circle actions


class SampledCircleAction(Record):
    """Orbit data of the unit-translation normalization of an anchored cone.

    theta order-embeds the floor-zero stratum into [0,1) with the identity
    at 0; t'(h) = floor(h) + theta(remainder(h)).  Only remainders present
    in the stratum table can be evaluated; others raise MissingOrbitPoint.
    """

    ctx: AnchorContext
    stratum: tuple[Element, ...]
    theta_values: tuple[Fraction, ...]
    stored: tuple[Element, ...]

    @property
    def cone(self) -> Cone:
        return self.ctx.cone

    @property
    def anchor(self) -> Element:
        return self.ctx.anchor

    def floor(self, h: Element) -> int:
        return _split(self.ctx, h)[0]

    def remainder(self, h: Element) -> Element:
        return _split(self.ctx, h)[1]

    @cached
    def _theta_of(self) -> dict[tuple[int, ...], Fraction]:
        return {s.key: t for s, t in zip(self.stratum, self.theta_values)}

    def theta(self, s: Element) -> Fraction:
        check_group(self.cone, s)
        value = self._theta_of.get(s.key)
        if value is None:
            raise MissingOrbitPoint(
                f"remainder {s.render()!r} is not in the sampled stratum; extend the ball")
        return value

    def t_prime(self, h: Element) -> Fraction:
        return self.floor(h) + self.theta(self.remainder(h))


def circle_action_from_ball(cone: Cone, x: Element, radius: int) -> SampledCircleAction:
    """Sample the circle action on the default ball enumeration."""
    return circle_action_for_samples(cone, x, ball_enumeration(cone, radius))


def _split(ctx: AnchorContext, h: Element) -> tuple[int, Element]:
    """(floor(h), x^-floor(h) h), memoized in the context by h's key.  A braid
    remainder is built once, from letters, and keyed as the tail and h's letters
    acting on the cached key(c x^-floor(h)): x is central, so c x^-N c^-1 = x^-N."""
    cone = ctx.cone
    if h.group is not cone.group:
        check_group(cone, h)
    found = ctx._splits.get(h.key)
    if found is None:
        n = power_floor(ctx, h)
        if h.group.is_abelian:
            remainder = ctx.anchor ** -n * h
        else:
            unit = ctx.anchor.letters if n < 0 else inverse_letters(ctx.anchor.letters)
            remainder = BraidWord._trusted(cone.group, free_reduce(unit * abs(n) + h.letters))
            remainder.with_key(dynnikov_act(frame_key(cone, ctx.power_key(-n)), h.letters))
        found = ctx._splits[h.key] = n, remainder
    return found


def circle_action_for_samples(cone: Cone, x: Element,
                              elements: Iterable[Element]) -> SampledCircleAction:
    """Sample the circle action with coverage for the given elements.

    The stratum is the cone-sorted list of distinct remainders.  Every
    remainder r has 1 <= r, so the identity (kept even if no sample has a
    trivial remainder) is least, and theta = rank / |stratum| puts it at 0.
    """
    return _sample_circle(_circle_context(cone, x), elements)


def _circle_context(cone: Cone, x: Element) -> AnchorContext:
    """x's context, refused unless x is central: the context refuses a
    non-cofinal flag anchor, and a central braid anchor is cofinal."""
    ctx = AnchorContext(cone, x)
    if not is_central_braid(cone, x):
        raise UnsupportedInput(
            f"anchor {x.render()!r} is not central; the circle quotient needs "
            "a central anchor")
    return ctx


def _sample_circle(ctx: AnchorContext, elements: Iterable[Element]) -> SampledCircleAction:
    """circle_action_for_samples on a checked anchor's context."""
    cone = ctx.cone
    elements = tuple(elements)
    identity = cone.group.identity()
    first = {identity.key: (identity, identity)}  # remainder and its first sample, by key
    for h in elements:
        s = _split(ctx, h)[1]
        first.setdefault(s.key, (s, h))
    found = list(first.values())
    remainders = [s for s, _ in found]
    order = _sort_stations(cone, remainders, *_station_forest(remainders))
    if below := order[:order.index(0)]:
        s, h = found[min(below)]
        raise InvariantViolation(
            f"remainder {s.render()!r} of {h.render()!r} sorts below the identity")
    stratum = tuple(remainders[i] for i in order)
    theta = tuple(Fraction(i, len(stratum)) for i in range(len(stratum)))
    return SampledCircleAction(ctx, stratum, theta, elements)


def unit_translation_check(action: SampledCircleAction) -> ActionCheck:
    """t'(x h) = t'(h) + 1 across the stored sample."""
    checked = 0
    for h in action.stored:
        lhs = action.t_prime(action.anchor * h)
        rhs = action.t_prime(h) + 1
        checked += 1
        if lhs != rhs:
            return ActionCheck(checked, False,
                               f"t'(x*{h.render()!r}) = {lhs} but t'+1 = {rhs}")
    return ActionCheck(checked, True)


# ---------------------------------------------------------------------------
# the Euler cocycle identity


class EulerIdentityReport(Record):
    euler_cocycle: Fraction
    coboundary: int
    passed: bool


def euler_identity_check(action: SampledCircleAction, f: Element, g: Element) -> EulerIdentityReport:
    """Compare the lift cocycle with the quasimorphism coboundary.

    The left side composes the sampled normalized lifts at 0:
    sigma(FG)^{-1} sigma(F) sigma(G) evaluated through the t' table, where
    sigma(F)(t) = t'(f . ) - floor(f) and sigma(G)(0) is the theta of g's
    remainder.  The right side is floor(f) + floor(g) - floor(fg).  The
    identity asserted is lift cocycle = -(coboundary), the cochain form of
    "rotation class = minus the Euler class".  A non-integer composition
    value means the sampled data is inconsistent and fails the check.
    """
    return _euler_report(action, f, g, f * g, f * action.remainder(g))


def _euler_report(action: SampledCircleAction, f: Element, g: Element,
                  fg: Element, f_rg: Element) -> EulerIdentityReport:
    """euler_identity_check given the products f*g and f*r(g), r(g) g's remainder."""
    floor_f, floor_g = action.floor(f), action.floor(g)
    floor_fg, fg_rest = _split(action.ctx, fg)
    euler = action.t_prime(f_rg) - floor_f - action.theta(fg_rest)
    coboundary = floor_f + floor_g - floor_fg
    return EulerIdentityReport(euler, coboundary, euler == -coboundary)


class EulerSurvey(Record):
    total: int
    passed: int
    failures: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total and not self.failures

    def to_json(self) -> dict:
        return {"total": self.total, "passed": self.passed, "failures": list(self.failures)}


def euler_cocycle_survey(cone: Cone, x: Element, count: int, seed: int,
                         radius: int = 3) -> EulerSurvey:
    """Run the identity over random pairs from the radius ball."""
    check_sample_count(count, cone.group, radius)
    rng = random.Random(seed)
    pairs = []
    ctx = _circle_context(cone, x)
    for _ in range(count):
        f = random_element(cone.group, rng, radius)
        g = random_element(cone.group, rng, radius)
        pairs.append((f, g, f * g, f * _split(ctx, g)[1]))
    action = _sample_circle(ctx, [h for _, g, fg, f_rg in pairs for h in (g, fg, f_rg)])
    passed, failures = 0, []
    for f, g, fg, f_rg in pairs:
        report = _euler_report(action, f, g, fg, f_rg)
        if report.passed:
            passed += 1
        else:
            failures.append(
                f"f={f.render()!r} g={g.render()!r}: euler {report.euler_cocycle}, "
                f"coboundary {report.coboundary}")
    return EulerSurvey(len(pairs), passed, tuple(failures))


# ---------------------------------------------------------------------------
# equivalence verdicts


class EquivalenceVerdict(Record):
    outcome: str  # "Equivalent" | "NotEquivalent" | "Unknown"
    mode: str  # "dynamical" | "semi-dynamical"
    reason: str | None = None
    left_class: RotationClass | None = None
    right_class: RotationClass | None = None

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "mode": self.mode,
            "reason": self.reason,
            "left_class": self.left_class.to_json() if self.left_class else None,
            "right_class": self.right_class.to_json() if self.right_class else None,
        }


def dynamically_equivalent(left: Cone, right: Cone, x: Element,
                           mode: str = "dynamical") -> EquivalenceVerdict:
    """Equivalent iff the rotation classes agree exactly.

    Dynamical mode additionally demands both orderings be certified dense
    (conjugacy of the realizations); semi-dynamical mode drops density.
    """
    if mode not in ("dynamical", "semi-dynamical"):
        raise UnsupportedInput(f"unknown mode {mode!r}")
    for cone, side in ((left, "left"), (right, "right")):
        if not is_central_braid(cone, x):
            return EquivalenceVerdict("Unknown", mode, f"{side}: anchor not central")
        cof = is_cofinal(cone, x)
        if cof != Decision.YES:
            return EquivalenceVerdict("Unknown", mode, f"{side}: anchor not cofinal ({cof.value})")
    if mode == "dynamical":
        for cone, side in ((left, "left"), (right, "right")):
            density = is_dense(cone)
            if density.outcome != Density.DENSE:
                return EquivalenceVerdict(
                    "Unknown", mode, f"{side}: not dense ({density.outcome.value})")
    left_class = rotation_class(left, x)
    # Conjugation invariance of the stable map: after peeling central
    # conjugations, structurally equal cones have equal classes.
    if unwrap_central_conjugation(left, x) == unwrap_central_conjugation(right, x):
        return EquivalenceVerdict("Equivalent", mode, "same cone after unwinding conjugation",
                                  left_class, left_class)
    right_class = rotation_class(right, x)
    outcome = "Equivalent" if left_class.equals(right_class) == Decision.YES else "NotEquivalent"
    return EquivalenceVerdict(outcome, mode, None, left_class, right_class)
