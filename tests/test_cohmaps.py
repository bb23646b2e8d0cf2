"""Rotation classes, translation-value lifts, construction, circle coordinates."""

import random
from fractions import Fraction

import pytest

from ordo.errors import InvariantViolation, NotRealizable, UnsupportedInput
from ordo.exactreal import ONE, ZERO, RealConstant, combine, linear_combination, mod_one
from ordo.groups import (BraidWord, GroupRef, LatticeElement, full_twist, parse_element,
                         random_element)
from ordo.linalg import clear_denominators, integer_kernel_basis
from ordo.orderings import Cone, Decision, DehornoyOrdering, FlagOrdering, act
from ordo.quasimorph import AnchorContext, stable_enclosure, stable_exact
from ordo.cohmaps import (
    RotationClass,
    construct_from_translations,
    is_realizable,
    naturality_check,
    rotation_class,
    sikora_coordinate,
    slope_of,
    translation_values,
)

Z2 = GroupRef.free_abelian(2)
Z3 = GroupRef.free_abelian(3)
B3 = GroupRef.braid(3)
LEX2 = FlagOrdering.lex(2)
SQRT2 = RealConstant.sqrt(2)
SQRT2_FLAG = FlagOrdering.create([[RealConstant.rational(1), SQRT2]])
DEHORNOY3 = DehornoyOrdering.create(3)


def el(text, group=Z2):
    return parse_element(text, group)


def rc(value):
    return RealConstant.rational(Fraction(value))


def test_rotation_class_lex():
    got = rotation_class(LEX2, el("x1"))
    assert got.components == (rc(0) * 0 + rc(0), rc(0))
    assert all(c.is_zero for c in got.components)


def test_rotation_class_sqrt2_flag():
    got = rotation_class(SQRT2_FLAG, el("x1"))
    assert got.components == (mod_one(ONE), combine(SQRT2, ONE, 1, -1))
    assert got.components[0].is_zero


def test_rotation_class_dehornoy_first_generator():
    # Oracle: power floors of s1^N are 0 for N > 0 (powers of one generator
    # never reach the full twist), so the stable value is exactly 0.
    got = rotation_class(DEHORNOY3, full_twist(3))
    assert got.components == (rc(0),)
    assert got.to_json() == {"components": [{"exact": {}}], "basis": ["s1"]}


def test_rotation_class_membership_guard():
    # The invariance search finds a definite witness against the anchor s1.
    from ordo.errors import NotRightInvariant

    with pytest.raises(NotRightInvariant):
        rotation_class(DEHORNOY3, el("s1", B3))


def test_rotation_class_conjugated_cone_unwraps_to_exact():
    moved = act(DEHORNOY3, el("s1 s2", B3))
    basis = [el("s1 s2", B3)]
    a = rotation_class(moved, full_twist(3), basis)
    b = rotation_class(DEHORNOY3, full_twist(3), basis)
    assert a.equals(b) == Decision.YES
    assert a.components == (rc("1/3"),)


def test_translation_values_sqrt2():
    got = translation_values(SQRT2_FLAG, el("x1"), basis=[el("x2")])
    assert not got.is_infinity
    assert got.components == (SQRT2,)


def test_translation_values_noncofinal_is_infinity():
    got = translation_values(LEX2, el("x2"))
    assert got.is_infinity


def test_translation_values_anchor_itself():
    got = translation_values(LEX2, el("x1"), basis=[el("x1")])
    assert got.components == (ONE,)


def test_naturality_identity_sublattice():
    report = naturality_check(LEX2, el("x1"), [el("x1"), el("x2")])
    assert report.passed


def test_naturality_axis_sublattice():
    report = naturality_check(LEX2, el("x1"), [el("x2")])
    assert report.passed
    assert report.pulled_back[0].is_zero


def test_naturality_diagonal_sqrt2():
    report = naturality_check(SQRT2_FLAG, el("x1"), [el("x1 x2")])
    assert report.passed
    # 1 + sqrt2 mod 1 = sqrt2 - 1.
    assert report.pulled_back[0] == combine(SQRT2, ONE, 1, -1)


def test_naturality_random_flags():
    rng = random.Random(100)
    for _ in range(100):
        v1 = [RealConstant.from_terms({1: rng.randint(1, 5)}),
              RealConstant.from_terms({1: rng.randint(-4, 4), 2: rng.randint(-4, 4)})]
        try:
            flag = FlagOrdering.create([v1, [RealConstant.rational(0), RealConstant.rational(1)]])
        except UnsupportedInput:  # not total
            continue
        cols = [LatticeElement(Z2, (rng.randint(-3, 3), rng.randint(-3, 3)))]
        if not any(cols[0].coords):
            continue
        assert naturality_check(flag, el("x1"), cols).passed


def test_is_realizable():
    assert is_realizable([ONE, SQRT2], el("x1"))
    assert not is_realizable([RealConstant.rational(Fraction(1, 2)), rc(0)], el("x1"))
    assert is_realizable([rc(Fraction(1, 3)), rc(Fraction(1, 3))], el("x1^2 x2"))


def test_construct_from_translations_sqrt2():
    flag = construct_from_translations([ONE, SQRT2], el("x1"))
    assert stable_exact(flag, el("x1"), el("x2")) == SQRT2
    assert rotation_class(flag, el("x1")).components[1] == combine(SQRT2, ONE, 1, -1)


def test_construct_lex_from_rational_data():
    z3 = GroupRef.free_abelian(3)
    flag = construct_from_translations([ONE, rc(0), rc(0)], el("x1", z3))
    got = rotation_class(flag, el("x1", z3))
    assert all(c.is_zero for c in got.components)
    # Kernel of the pairing is ordered lexicographically: x2 dominates x3.
    assert flag.sign(el("x2 x3^-9", z3)) == 1


def test_construct_anchor_pairing_two_one():
    flag = construct_from_translations([rc(Fraction(1, 3)), rc(Fraction(1, 3))], el("x1^2 x2"))
    assert stable_exact(flag, el("x1^2 x2"), el("x1")) == rc(Fraction(1, 3))
    assert stable_exact(flag, el("x1^2 x2"), el("x1^2 x2")) == ONE


def test_construct_rejects_bad_pairing():
    with pytest.raises(NotRealizable):
        construct_from_translations([rc(Fraction(1, 2)), rc(0)], el("x1"))
    with pytest.raises(NotRealizable):
        construct_from_translations([rc(0), rc(0)], Z2.identity())


def test_construct_round_trip_random():
    rng = random.Random(101)
    for _ in range(100):
        group = rng.choice([Z2, Z3])
        n = group.rank
        coords = [0] * n
        coords[0] = rng.choice([1, 2, -1])
        for i in range(1, n):
            coords[i] = rng.randint(-2, 2)
        x = LatticeElement(group, tuple(coords))
        tail = [RealConstant.from_terms(
            {1: Fraction(rng.randint(-3, 3)), 2: Fraction(rng.randint(-2, 2)),
             3: Fraction(rng.randint(-2, 2))}) for _ in range(n - 1)]
        pairing_tail = sum((x.coords[i + 1] * t for i, t in enumerate(tail)),
                           RealConstant.rational(0))
        first = combine(ONE, pairing_tail, 1, -1) / x.coords[0]
        values = [first] + tail
        assert is_realizable(values, x)
        flag = construct_from_translations(values, x)
        got = rotation_class(flag, x, basis=group.generators())
        for want, have in zip(values, got.components):
            assert mod_one(want) == have
        for i, gen in enumerate(group.generators()):
            assert stable_exact(flag, x, gen) == values[i]


def test_construct_duals_vanish_off_the_pivots():
    # Each level after the first is the dual functional of one Hermite kernel
    # basis row: it pairs to 1 with that row and 0 with the others, and is
    # zero off the basis's pivot columns.
    rng = random.Random(102)
    for _ in range(100):
        n = rng.randint(2, 4)
        x = LatticeElement(GroupRef.free_abelian(n),
                           (rng.choice([1, 2, -1]),) + tuple(rng.randint(-2, 2) for _ in range(n - 1)))
        tail = [RealConstant.from_terms({1: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                         2: Fraction(rng.randint(-1, 1))}) for _ in range(n - 1)]
        first = combine(ONE, linear_combination(zip(x.coords[1:], tail)), 1, -1) / x.coords[0]
        values = [first] + tail
        flag = construct_from_translations(values, x)
        keys = sorted({m for v in values for m, _ in v.terms})
        basis = integer_kernel_basis(
            [clear_denominators([v.coefficient(k) for v in values]) for k in keys], n)
        pivots = [next(j for j, a in enumerate(row) if a) for row in basis]
        duals = [[c.as_rational() for c in level] for level in flag.levels[1:]]
        assert len(duals) == len(basis)
        for l, dual in enumerate(duals):
            assert [sum(a * d for a, d in zip(row, dual)) for row in basis] == [
                int(i == l) for i in range(len(basis))]
            assert all(dual[j] == 0 for j in range(n) if j not in pivots)


def test_sikora_lex():
    point = sikora_coordinate(LEX2)
    assert point.kind == "rational"
    assert point.direction == (1, 0)
    the_slope = slope_of(point)
    assert the_slope is not None and the_slope.is_zero
    assert translation_values(LEX2, el("x1"), basis=[el("x2")]).components[0].is_zero


def test_sikora_irrational():
    point = sikora_coordinate(SQRT2_FLAG)
    assert point.kind == "irrational"
    assert slope_of(point) == SQRT2


def test_sikora_negative_rational_direction():
    flag = FlagOrdering.from_rational_rows([[2, -3], [0, 1]])
    point = sikora_coordinate(flag)
    assert point.kind == "rational"
    assert point.direction == (2, -3)
    assert point.side == 1
    assert slope_of(point) == rc(Fraction(-3, 2))
    assert translation_values(flag, el("x1"), basis=[el("x2")]).components[0] == \
        rc(Fraction(-3, 2))


def test_sikora_side_distinguishes_orderings():
    up = FlagOrdering.from_rational_rows([[1, 0], [0, 1]])
    down = FlagOrdering.from_rational_rows([[1, 0], [0, -1]])
    assert sikora_coordinate(up).side != sikora_coordinate(down).side
    assert sikora_coordinate(up).direction == sikora_coordinate(down).direction


def test_sikora_infinity_direction():
    # Anchor not cofinal: translations are infinite and the slope is infinite.
    flag = FlagOrdering.from_rational_rows([[0, 1], [1, 0]])
    point = sikora_coordinate(flag)
    assert point.direction == (0, 1)
    assert slope_of(point) is None
    assert translation_values(flag, el("x1")).is_infinity


def test_sikora_scaled_direction_is_primitive():
    flag = FlagOrdering.from_rational_rows([[4, 6], [0, 1]])
    assert sikora_coordinate(flag).direction == (2, 3)


def test_rotation_class_components_stay_in_unit_interval():
    rng = random.Random(102)
    for _ in range(60):
        v2 = RealConstant.from_terms({1: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                      2: rng.randint(-3, 3), 3: rng.randint(-3, 3)})
        try:
            flag = FlagOrdering.create([[ONE, v2], [RealConstant.rational(0), ONE]])
        except UnsupportedInput:  # not total
            continue
        for c in rotation_class(flag, el("x1")).components:
            assert c.sign() >= 0
            assert (ONE - c).sign() > 0


# ---------------------------------------------------------------------------
# exact braid stable values: the fractional Dehn twist coefficient


@pytest.mark.parametrize("j", [1, -1, 2, -2])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_braid_translation_values_lie_in_the_windows_of_the_given_cone(n, j):
    # Differential: each exact value, read from one order n(n-1)+1 window
    # under Delta^2 on the unwrapped Dehornoy cone, lies in the sharp windows
    # at orders 2(n(n-1)+1) and 300 under the anchor Delta^2j on the cone as
    # given, plain or conjugated; 126 words per case, 2016 in all.
    group = GroupRef.braid(n)
    rng = random.Random(100 * n + j)
    x = full_twist(n) ** j
    base = DehornoyOrdering(group)
    for cone in (base, act(base, random_element(group, rng, 6))):
        words = [random_element(group, rng, 12) for _ in range(63)]
        values = translation_values(cone, x, words).components
        ctx = AnchorContext(cone, x)
        for h, value in zip(words, values):
            exact = value.as_rational()
            for order in (2 * (n * (n - 1) + 1), 300):
                low, high = stable_enclosure(ctx, h, order)
                assert low <= exact <= high, (h.render(), exact, order)


@pytest.mark.parametrize("n", range(2, 9))
def test_periodic_braids_give_one_over_n_and_one_over_n_minus_one(n):
    # (s1...s_(n-1))^n = (s1...s_(n-1) s1)^(n-1) = Delta^2, so the values are
    # 1/n and 1/(n-1); the second has the largest denominator below n, which
    # a bound of n-2 on the denominators would miss.
    group = GroupRef.braid(n)
    delta = BraidWord(group, tuple((i, 1) for i in range(1, n)))
    epsilon = delta * el("s1", group)
    assert (delta ** n).key == (epsilon ** (n - 1)).key == full_twist(n).key
    got = translation_values(DehornoyOrdering(group), full_twist(n), [delta, epsilon])
    assert got.components == (rc(Fraction(1, n)), rc(Fraction(1, n - 1)))
    moved = act(DehornoyOrdering(group), delta)
    assert rotation_class(moved, full_twist(n) ** -2, [delta]).components == \
        (mod_one(rc(Fraction(-1, 2 * n))),)


class _Opposite(Cone):
    """The Dehornoy ordering of B3 reversed: a left ordering with no frame."""

    group = B3

    def sign(self, g):
        return -DEHORNOY3.sign(g)


@pytest.mark.parametrize("invariant", [rotation_class, translation_values])
def test_braid_stable_values_refuse_a_cone_other_than_dehornoy(invariant):
    with pytest.raises(UnsupportedInput, match="_Opposite has no exact stable values"):
        invariant(_Opposite(), full_twist(3))


def test_rotation_class_components_lie_in_the_unit_interval():
    basis = (el("x1"),)
    for inside in (ZERO, combine(SQRT2, ONE, 1, -1), rc(Fraction(999, 1000)),
                   SQRT2.scale(Fraction(1, 2))):
        assert RotationClass((inside,), basis).components == (inside,)
    for outside in (ONE, SQRT2, combine(ONE, SQRT2, 1, -1), rc(Fraction(-1, 1000)),
                    combine(SQRT2, ONE, 1, 1)):
        with pytest.raises(InvariantViolation) as caught:
            RotationClass((ZERO, outside), basis + basis)
        assert str(caught.value) == f"rotation class component {outside} outside [0,1)"
