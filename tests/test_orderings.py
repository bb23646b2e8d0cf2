"""Cone oracles: flags, Dehornoy/handle reduction, membership predicates."""

import bisect
import collections
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

import ordo.groups as ordo_groups
import ordo.orderings as ordo_orderings
from ordo.cohmaps import construct_from_translations, naturality_check, sikora_coordinate
from ordo.convexity import ExponentMatrix, check_convex
from ordo.errors import (AnchorIsIdentity, GroupMismatch, InvariantViolation, NotCofinal,
                         OrdoError, ParseError, UnsupportedInput)
from ordo.exactreal import ONE, ZERO, RealConstant, linear_combination
from ordo.groups import (BraidWord, GroupRef, LatticeElement, braid_ball, dynnikov_act, full_twist,
                         parse_element, random_element)
from ordo.orderings import (
    Cone,
    Decision,
    DehornoyOrdering,
    Density,
    FlagOrdering,
    act,
    axioms_check,
    compare,
    cone_sign,
    handle_reduce,
    is_central_braid,
    is_cofinal,
    is_dense,
    is_right_invariant,
    level_kernels,
    main_generator_sign,
    ordering_from_json,
    ordering_to_json,
)
from ordo.linalg import clear_denominators, integer_kernel_basis, rational_rank
from ordo.quasimorph import stable_exact

from oracles import (braid_words_up_to, count_kernel_letters_and_words, first_level,
                     generator_first_dots, generator_level_dots, locate, word_sign)

Z2 = GroupRef.free_abelian(2)
B3 = GroupRef.braid(3)

LEX2 = FlagOrdering.lex(2)
LEX3 = FlagOrdering.lex(3)
SQRT2_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
DEHORNOY3 = DehornoyOrdering.create(3)


def el(text, group=Z2):
    return parse_element(text, group)


def br(text):
    return parse_element(text, B3)


# -- cone signs --------------------------------------------------------------


def test_lex_sign_second_level():
    assert cone_sign(LEX2, el("x2")) == 1
    assert cone_sign(LEX2, el("x2^-1")) == -1
    assert cone_sign(LEX2, el("x1 x2^-5")) == 1


def test_identity_sign_zero():
    assert cone_sign(LEX2, Z2.identity()) == 0
    assert cone_sign(DEHORNOY3, B3.identity()) == 0


def test_dehornoy_sigma_positive_word():
    # s1 occurs only positively, so the word is already sigma-positive.
    assert cone_sign(DEHORNOY3, br("s1 s2^-1")) == 1
    assert cone_sign(DEHORNOY3, br("s2 s1^-1")) == -1


def test_dehornoy_braid_relation():
    # s1 s2 s1 = s2 s1 s2, so their quotient reduces to the trivial word.
    lhs, rhs = br("s1 s2 s1"), br("s2 s1 s2")
    assert cone_sign(DEHORNOY3, lhs * rhs.inverse()) == 0


def test_handle_reduce_examples():
    # sigma1 sigma2 sigma1^-1 rewrites to sigma2^-1 sigma1 sigma2.
    got = handle_reduce(((1, 1), (2, 1), (1, -1)), 3)
    assert got == ((2, -1), (1, 1), (2, 1))
    assert main_generator_sign(got) == 1
    assert handle_reduce((), 3) == ()


def test_sign_negation_symmetry():
    rng = random.Random(21)
    for _ in range(300):
        w = random_element(B3, rng, 8)
        assert cone_sign(DEHORNOY3, w.inverse()) == -cone_sign(DEHORNOY3, w)
    for _ in range(300):
        g = random_element(Z2, rng, 30)
        assert cone_sign(SQRT2_FLAG, g.inverse()) == -cone_sign(SQRT2_FLAG, g)


def test_transitivity_sampled():
    rng = random.Random(22)
    for cone, group, radius in ((DEHORNOY3, B3, 5), (SQRT2_FLAG, Z2, 20), (LEX2, Z2, 20)):
        checked = 0
        while checked < 1000:
            g = random_element(group, rng, radius)
            h = random_element(group, rng, radius)
            k = random_element(group, rng, radius)
            if compare(cone, g, h) < 0 and compare(cone, h, k) < 0:
                assert compare(cone, g, k) < 0
                checked += 1


# -- axioms ------------------------------------------------------------------


def test_axioms_flag_pass():
    assert axioms_check(LEX2, 500, seed=0).passed
    assert axioms_check(SQRT2_FLAG, 500, seed=1).passed


def test_axioms_dehornoy_pass():
    report = axioms_check(DEHORNOY3, 1000, seed=2, radius=6)
    assert report.passed
    assert report.lo1_checked > 0


def test_axioms_dehornoy_identity_braids_are_not_lo2_failures():
    # Both seeds sample words that equal the identity braid without being
    # freely trivial, such as the two below.
    b4 = GroupRef.braid(4)
    assert br("s1 s2 s1 s2^-1 s1^-1 s2^-1").is_identity
    assert parse_element("s1 s3 s1^-1 s3^-1", b4).is_identity
    assert axioms_check(DEHORNOY3, 300, seed=18).passed
    assert axioms_check(DehornoyOrdering.create(4), 300, seed=3).passed


def _both_constructors(rows):
    """The flag of these rational rows built by create and by the bare constructor."""
    levels = tuple(tuple(RealConstant.rational(x) for x in row) for row in rows)
    return (lambda: FlagOrdering.create(levels),
            lambda: FlagOrdering(GroupRef.free_abelian(len(rows[0])), levels))


NOT_TOTAL = "flag is rank-deficient: some nonzero vector pairs to zero at every level"


def test_axioms_corrupted_flag_is_refused_when_built():
    # Rank-deficient flag: both levels only see the first coordinate, so x2
    # pairs to zero at every level.  axioms_check once reported x2 as the
    # kernel witness; now no flag it meets has one, and the field stays null.
    for build in _both_constructors([[1, 0], [2, 0]]):
        with pytest.raises(UnsupportedInput, match=NOT_TOTAL):
            build()
    report = axioms_check(SQRT2_FLAG, 50, seed=3)
    assert report.passed and report.kernel_witness is None
    assert report.to_json()["kernel_witness"] is None


def test_rank_deficient_flag_rejected_by_default():
    with pytest.raises(UnsupportedInput):
        FlagOrdering.create([[RealConstant.rational(1), RealConstant.rational(0)]])


@pytest.mark.parametrize("rows", [[[0, 0]], [[1, 0]], [[0, 0]], [[1, 0]],
                                  [[0, 0]], [[0, 0], [1, 0]], [[1, 0]], [[1, 0, 0], [0, 1, 0]]],
                         ids=["is_cofinal", "power_floor", "realize", "is_dense", "sikora_zero",
                              "sikora_zero_then_axis", "sikora_kernel_side", "restrict"])
def test_neither_constructor_builds_a_flag_that_is_not_total(rows):
    # Built bare, these flags once reached the call each is named after:
    # is_cofinal answered Yes for x1, of sign 0; power_floor gave 0 for x2, of
    # sign 0; realize gave a table; the others refused one by one.  Now no
    # library call meets a flag that is not total.
    for build in _both_constructors(rows):
        with pytest.raises(UnsupportedInput, match=NOT_TOTAL):
            build()


def test_library_calls_refuse_a_flag_that_is_not_total(monkeypatch):
    # restrict refuses a result that is not total as a bug, not an input: a
    # total flag restricted to a full-rank basis is total.
    z3 = GroupRef.free_abelian(3)
    monkeypatch.setattr(FlagOrdering, "is_total", lambda flag: flag.group.rank == 3)
    with pytest.raises(InvariantViolation, match="lost totality"):
        LEX3.restrict([el("x1", z3), el("x2", z3)])


# -- restriction and conjugation ----------------------------------------------


def test_restrict_to_axis():
    restricted = LEX2.restrict([el("x2")])
    assert restricted.group.rank == 1
    assert len(restricted.levels) == 1
    assert cone_sign(restricted, parse_element("x1", GroupRef.free_abelian(1))) == 1


def test_restrict_identity_basis():
    same = SQRT2_FLAG.restrict([el("x1"), el("x2")])
    assert same.levels == SQRT2_FLAG.levels


def test_restrict_mixed_column():
    # Pairing of (1, sqrt2) with the column (2, -1) is 2 - sqrt2 > 0.
    restricted = SQRT2_FLAG.restrict([el("x1^2 x2^-1")])
    gen = parse_element("x1", GroupRef.free_abelian(1))
    assert cone_sign(restricted, gen) == 1


def _random_levels(rng, rank):
    """1 to 3 levels of rank constants, each level over 1 to 3 radicands, with
    zero levels before, between and after them."""
    levels = []
    for _ in range(rng.randint(1, 3)):
        keys = rng.sample((1, 2, 3, 5, 6, 7), rng.randint(1, 3))
        levels.append([RealConstant.from_terms(
            {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for m in keys})
            for _ in range(rank)])
        if rng.random() < 0.3:
            levels.insert(rng.randint(0, len(levels)), [ZERO] * rank)
    return levels


def test_restrict_commutes_with_sign():
    # 300 random total flags, each restricted to a random full-rank basis of
    # every size from 1 to its rank: restrict never refuses (the restriction
    # of a total flag is total), and the sign of each of 20 vectors inside
    # is the sign of its image outside.
    rng = random.Random(30)
    flags = restrictions = 0
    while flags < 300:
        rank = rng.randint(1, 4)
        try:
            flag = FlagOrdering.create(_random_levels(rng, rank))
        except UnsupportedInput:  # not total
            continue
        flags += 1
        for size in range(1, rank + 1):
            basis = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(size)]
            while rational_rank(basis) < size:
                basis = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(size)]
            restricted = flag.restrict(basis)
            restrictions += 1
            for _ in range(20):
                v = [rng.randint(-9, 9) for _ in range(size)]
                image = [sum(c * b[i] for c, b in zip(v, basis)) for i in range(rank)]
                assert restricted.coords_sign(v) == flag.coords_sign(image), (flag, basis, v)
    assert restrictions >= 300 * 2


def test_create_refuses_exactly_the_flags_with_a_kernel():
    # Differential against the integer kernel of the stacked level rows, one
    # row per level and radicand, read from the constants' coefficients.
    rng = random.Random(32)
    outcomes = collections.Counter()
    for _ in range(2000):
        rank = rng.randint(2, 4)
        levels = _random_levels(rng, rank)
        rows = [clear_denominators([c.coefficient(m) for c in level])
                for level in levels for m in sorted({m for c in level for m, _ in c.terms})]
        has_kernel = bool(integer_kernel_basis(rows, rank))
        try:
            FlagOrdering.create(levels)
        except UnsupportedInput as exc:
            assert has_kernel and str(exc) == NOT_TOTAL, levels
            outcomes["refused"] += 1
        else:
            assert not has_kernel, levels
            outcomes["built"] += 1
    assert min(outcomes["refused"], outcomes["built"]) > 300, outcomes


R0, R1 = RealConstant.rational(0), RealConstant.rational(1)


@pytest.mark.parametrize("build,detail", [
    (lambda: FlagOrdering.create([[1, 0], [0, 1]]),
     "entry 1 of flag level 1 is of type int, not RealConstant"),
    (lambda: FlagOrdering(GroupRef.free_abelian(2), [[R1, R0], [R0, Fraction(1)]]),
     "entry 2 of flag level 2 is of type Fraction, not RealConstant"),
    (lambda: FlagOrdering(GroupRef.free_abelian(2), [[R1, "0"]]),
     "entry 2 of flag level 1 is of type str, not RealConstant"),
    (lambda: FlagOrdering.create([5]), "flag level 1 is of type int, not a list or tuple of constants"),
    (lambda: FlagOrdering(GroupRef.free_abelian(1), [[R1], R1]),
     "flag level 2 is of type RealConstant, not a list or tuple of constants"),
], ids=["create_ints", "bare_fraction", "bare_str", "create_level_int", "bare_level_constant"])
def test_flag_levels_hold_constants(build, detail):
    # An int entry raised a raw AttributeError from the level expansion.
    with pytest.raises(ParseError) as caught:
        build()
    assert str(caught.value) == detail


def test_bare_flag_constructor_stores_tuples():
    # Lists were kept as given, so the flag could not be hashed.
    flag = FlagOrdering(GroupRef.free_abelian(2), [[R1, R0], [R0, R1]])
    assert flag.levels == ((R1, R0), (R0, R1))
    assert flag == LEX2 and hash(flag) == hash(LEX2)
    assert {flag: 1}[FlagOrdering.create([[R1, R0], [R0, R1]])] == 1


def test_restrict_rejects_rank_deficient_basis():
    with pytest.raises(UnsupportedInput):
        LEX2.restrict([el("x1"), el("x1^2")])


def test_act_abelian_is_identity():
    assert act(LEX2, el("x1 x2")) is LEX2


def test_act_braid_definition():
    h = br("s1")
    moved = act(DEHORNOY3, h)
    rng = random.Random(31)
    for _ in range(200):
        g = random_element(B3, rng, 6)
        assert cone_sign(moved, g) == cone_sign(DEHORNOY3, h * g * h.inverse())


def test_act_round_trip():
    h = br("s1 s2^-1")
    rng = random.Random(32)
    moved_back = act(act(DEHORNOY3, h), h.inverse())
    for _ in range(1000):
        g = random_element(B3, rng, 5)
        assert cone_sign(moved_back, g) == cone_sign(DEHORNOY3, g)


# -- centrality, cofinality, invariance ---------------------------------------


def test_full_twist_is_central_for_oracle():
    assert is_central_braid(DEHORNOY3, full_twist(3))
    assert is_central_braid(DEHORNOY3, full_twist(3) ** -2)
    assert not is_central_braid(DEHORNOY3, br("s1"))


def _is_central_by_words(cone, x):
    """The centrality check as it was: x times the inverse twist power signs 0."""
    if x.group.is_abelian or x.is_identity:
        return True
    n = x.group.strands
    power, rest = divmod(x.exponent_sum(), n * (n - 1))
    return not rest and cone.sign_product(x, full_twist(n) ** -power) == 0


def test_central_braid_check_matches_the_word_building_oracle():
    rng = random.Random(317)
    checked = collections.Counter()
    for strands in range(2, 7):
        group = GroupRef.braid(strands)
        cones = [DehornoyOrdering(group), act(DehornoyOrdering(group), random_element(group, rng, 5))]
        twist = full_twist(strands)
        for _ in range(60):
            a, k = random_element(group, rng, 6), rng.randint(-4, 4)
            zero_sum = parse_element("s1 s1", group) * group.generators()[-1] ** -2
            candidates = [random_element(group, rng, 8), twist ** k, a * twist ** k * a.inverse(),
                          twist ** k * zero_sum, _prefixed(a, twist ** k) * a.inverse()]
            if strands >= 3:
                candidates.append(_same_element_other_word(twist ** k))
            for x in candidates:
                for cone in cones:
                    want = _is_central_by_words(cone, x)
                    assert is_central_braid(cone, x) == want, (strands, x.render())
                    checked[want] += 1
    assert min(checked.values()) > 500, checked


def test_central_braid_check_rejects_a_foreign_anchor():
    with pytest.raises(GroupMismatch):
        is_central_braid(DEHORNOY3, full_twist(4))


def test_full_twist_commutes_with_generators():
    # Centrality check routed through the sign oracle, n <= 5.
    for n in range(2, 6):
        cone = DehornoyOrdering.create(n)
        twist = full_twist(n)
        for gen in GroupRef.braid(n).generators():
            w = gen.inverse() * twist.inverse() * gen * twist
            assert cone_sign(cone, w) == 0


def test_cofinal_lex():
    assert is_cofinal(LEX2, el("x1")) == Decision.YES
    assert is_cofinal(LEX2, el("x2")) == Decision.NO
    assert is_cofinal(LEX2, el("x1^-1")) == Decision.YES


def test_cofinal_deeper_level_subgroup():
    # x = x2 is blind at level one but brackets the subgroup <x2>.
    assert is_cofinal(LEX2, el("x2"), generators=[el("x2")]) == Decision.YES


def test_cofinal_full_twist_universal():
    assert is_cofinal(DEHORNOY3, full_twist(3)) == Decision.YES
    conjugated = act(DEHORNOY3, br("s1 s2"))
    assert is_cofinal(conjugated, full_twist(3)) == Decision.YES


def test_cofinal_noncentral_braid_anchor_stays_unknown():
    # All generators of B3 are bracketed by powers of s1, but the full twist
    # is not (its floors against s1-powers never close), so a certified Yes
    # would be wrong: the verdict must stay Unknown.
    assert is_cofinal(DEHORNOY3, br("s1")) == Decision.UNKNOWN
    twist = full_twist(3)
    s1 = br("s1")
    for n in (1, 4, 16):
        assert cone_sign(DEHORNOY3, twist.inverse() * s1 ** n) == -1  # s1^n < twist


def test_cofinal_identity_anchor_rejected():
    with pytest.raises(AnchorIsIdentity):
        is_cofinal(LEX2, Z2.identity())
    with pytest.raises(AnchorIsIdentity):
        is_cofinal(DEHORNOY3, br("s1 s2 s1 s2^-1 s1^-1 s2^-1"))


def test_cofinal_foreign_generator_rejected():
    z3 = GroupRef.free_abelian(3)
    with pytest.raises(GroupMismatch):
        is_cofinal(LEX2, el("x1"), generators=[parse_element("x1", z3)])
    with pytest.raises(GroupMismatch):
        is_cofinal(DEHORNOY3, full_twist(3), generators=[el("x1")])


def test_right_invariant_abelian():
    assert is_right_invariant(LEX2, el("x1 x2^7")).outcome == Decision.YES


def test_right_invariant_central_braid():
    assert is_right_invariant(DEHORNOY3, full_twist(3)).outcome == Decision.YES


def test_right_invariant_s1_fails_or_unknown():
    verdict = is_right_invariant(DEHORNOY3, br("s1"), cap=6)
    assert verdict.outcome in (Decision.NO, Decision.UNKNOWN)
    if verdict.outcome == Decision.NO:
        z = verdict.witness
        x = br("s1")
        assert cone_sign(DEHORNOY3, z) != cone_sign(DEHORNOY3, x.inverse() * z * x)


def _right_invariance_by_words(cone, x, cap):
    """The right-invariance search over every word, repeated braids included."""
    if is_central_braid(cone, x):
        return Decision.YES, None
    gens = cone.group.generators()
    alphabet = [h for g in gens + [x] for h in (g, g.inverse())]
    frontier = [cone.group.identity()]
    for _ in range(cap):
        next_frontier = []
        for word in frontier:
            for letter in alphabet:
                z = word * letter
                if z.is_identity:
                    continue
                if cone_sign(cone, z) != cone_sign(cone, x.inverse() * z * x):
                    return Decision.NO, z.render()
                next_frontier.append(z)
        frontier = next_frontier
    return Decision.UNKNOWN, None


def _anchor_words(n, length):
    letters = [f"s{i}{e}" for i in range(1, n) for e in ("", "^-1")]
    for size in range(1, length + 1):
        for word in itertools.product(letters, repeat=size):
            yield " ".join(word)


@pytest.mark.parametrize("cone,cap", [
    (DehornoyOrdering.create(3), 4),
    (DehornoyOrdering.create(4), 3),
    (act(DehornoyOrdering.create(3), parse_element("s1 s2^-1 s1", B3)), 3),
    (act(DehornoyOrdering.create(4), parse_element("s2 s3^-1", GroupRef.braid(4))), 3),
], ids=["B3", "B4", "conjugated_B3", "conjugated_B4"])
def test_right_invariant_matches_word_search(cone, cap):
    # Same outcome and witness word as the search over all words, on every
    # anchor up to length 3: the powers of s_(n-1) skip the search on the
    # Dehornoy cones, the others walk a frontier without repeated braids.
    outcomes = collections.Counter()
    for text in _anchor_words(cone.group.strands, 3):
        x = parse_element(text, cone.group)
        if x.is_identity:
            continue
        verdict = is_right_invariant(cone, x, cap=cap)
        witness = None if verdict.witness is None else verdict.witness.render()
        assert (verdict.outcome, witness) == _right_invariance_by_words(cone, x, cap), text
        outcomes[verdict.outcome] += 1
    assert outcomes[Decision.NO], outcomes
    # Every anchor of the conjugated cone has a witness, s2 included.
    assert bool(outcomes[Decision.UNKNOWN]) == (len(cone.conjugator) == 0), outcomes


@pytest.mark.parametrize("strands,cap", [(3, 4), (4, 3)])
def test_right_invariance_acts_each_step_once_per_expanded_braid(monkeypatch, strands, cap):
    # The twist times s_(n-1) has no witness, so the search expands every
    # braid within cap - 1 steps.  The cone conjugated by the central twist
    # signs on its Dynnikov frame, keying no BraidWord, so each nonempty act
    # counted is a step of the walk: all 2(n-1)+2 steps at the root, and all
    # but the one back to the parent at every other expanded braid.
    twist = full_twist(strands)
    cone = act(DehornoyOrdering.create(strands), twist)
    x = twist * cone.group.generators()[-1]
    steps = [h for g in cone.group.generators() + [x] for h in (g, g.inverse())]
    level = [cone.group.identity()]
    expanded = {level[0].key}
    for _ in range(cap - 1):
        level = [w * h for w in level for h in steps]
        expanded.update(w.key for w in level)
    assert x.key
    acted = []

    def counting_act(coords, letters):
        acted.append(len(letters))
        return dynnikov_act(coords, letters)

    monkeypatch.setattr(ordo_groups, "dynnikov_act", counting_act)
    verdict = is_right_invariant(cone, x, cap=cap)
    assert (verdict.outcome, verdict.witness) == (Decision.UNKNOWN, None)
    n_steps = 2 * (strands - 1) + 2
    assert sum(1 for k in acted if k) == n_steps + (n_steps - 1) * (len(expanded) - 1)


def test_right_invariance_search_past_the_ball_limit_is_refused(monkeypatch):
    # The twist times s2 has no witness under the Dehornoy cone, so only the
    # limit ends a search with a large cap.
    x = full_twist(3) * br("s2")
    assert is_right_invariant(DEHORNOY3, x, cap=3).outcome == Decision.UNKNOWN
    monkeypatch.setattr(ordo_groups, "MAX_BALL_ELEMENTS", 100)
    assert is_right_invariant(DEHORNOY3, x, cap=2).outcome == Decision.UNKNOWN
    with pytest.raises(UnsupportedInput, match=r"more than 100 elements \(MAX_BALL_ELEMENTS\): "
                                               r"101 braids kept by length 3"):
        is_right_invariant(DEHORNOY3, x, cap=5)
    # A cap whose s1 powers alone pass the limit is refused before the search.
    with pytest.raises(UnsupportedInput, match=r"radius-50 ball holds more than 100 elements "
                                               r"\(MAX_BALL_ELEMENTS\)$"):
        is_right_invariant(DEHORNOY3, x, cap=50)


def test_right_invariant_top_generator_power_skips_search(monkeypatch):
    signs = []
    monkeypatch.setattr(DehornoyOrdering, "sign", lambda self, g: signs.append(g))
    b4 = DehornoyOrdering.create(4)
    for text in ("s3", "s3^-2", "s1 s3^-1 s1^-1"):
        verdict = is_right_invariant(b4, parse_element(text, b4.group), cap=4)
        assert (verdict.outcome, verdict.witness) == (Decision.UNKNOWN, None)
    assert signs == []


# -- density -------------------------------------------------------------------


def test_dense_lex_discrete():
    verdict = is_dense(LEX2)
    assert verdict.outcome == Density.DISCRETE
    assert verdict.minimal_positive == el("x2")


def test_dense_lex_discrete_betweenness_oracle():
    # Nothing in the radius-4 ball sits strictly between identity and (0,1).
    minimal = is_dense(LEX2).minimal_positive
    for a in range(-4, 5):
        for b in range(-4, 5):
            g = LatticeElement(Z2, (a, b))
            if cone_sign(LEX2, g) > 0:
                assert compare(LEX2, g, minimal) >= 0


def test_dense_irrational_flag():
    assert is_dense(SQRT2_FLAG).outcome == Density.DENSE


def test_dense_rank_one():
    one = FlagOrdering.lex(1)
    verdict = is_dense(one)
    assert verdict.outcome == Density.DISCRETE
    assert verdict.minimal_positive.coords == (1,)


def test_dense_scaled_kernel():
    # Pairing (2, 4) on Z^2: kernel <(2,-1)>, final level sees it with value 1.
    flag = FlagOrdering.from_rational_rows([[2, 4], [0, 1]])
    verdict = is_dense(flag)
    assert verdict.outcome == Density.DISCRETE
    g = verdict.minimal_positive
    assert cone_sign(flag, g) > 0
    assert flag.level_pairing(0, g).is_zero


def test_dense_random_rational_flags_betweenness_oracle():
    # Every total rational flag is discrete; nothing in the radius-4 ball
    # sits strictly between the identity and the minimal positive element.
    rng = random.Random(12)
    ranks = [2, 2, 2, 3, 3, 3, 4, 4]
    while ranks:
        rank = ranks[-1]
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)]
                for _ in range(rank + 1)]
        # A level pairing to zero everywhere, which the kernel chain skips.
        rows[rng.randrange(rank + 1)] = [Fraction(0)] * rank
        try:
            flag = FlagOrdering.from_rational_rows(rows)
        except UnsupportedInput:  # not total
            continue
        ranks.pop()
        verdict = is_dense(flag)
        assert verdict.outcome == Density.DISCRETE
        minimal = verdict.minimal_positive
        assert cone_sign(flag, minimal) > 0
        group = flag.group
        for coords in itertools.product(range(-4, 5), repeat=rank):
            g = LatticeElement(group, coords)
            if cone_sign(flag, g) > 0:
                assert compare(flag, g, minimal) >= 0, (rows, coords)


def test_dense_dehornoy_unknown():
    verdict = is_dense(DEHORNOY3, cap=4)
    assert verdict.outcome == Density.UNKNOWN
    assert verdict.smallest_positive_seen is not None


def _smallest_positive_word(cone, cap):
    """The braid search of is_dense as it was, word by word: every word of the
    ball signed; a later word of an equal braid never replaces the smallest."""
    smallest = None
    for w in braid_words_up_to(cone.group, cap):
        if cone_sign(cone, w) > 0 and (smallest is None or compare(cone, w, smallest) < 0):
            smallest = w
    return smallest


def test_dense_braid_search_matches_the_word_search():
    cones = [(DehornoyOrdering.create(n), cap) for n, cap in ((2, 6), (3, 5), (4, 5), (5, 4))]
    cones += [(cone, 4) for cone in CONJUGATED_CONES[:3]]
    for cone, cap in cones:
        verdict = is_dense(cone, cap)
        assert verdict.outcome == Density.UNKNOWN
        assert verdict.smallest_positive_seen.letters == _smallest_positive_word(cone, cap).letters


def _braid(text, n):
    return parse_element(text, GroupRef.braid(n))


# Balls under the Dehornoy cone and conjugated cones, and whether the least
# positive element c^-1 s_(n-1) c lies in the ball.
LEAST_BALLS = [(DehornoyOrdering.create(n), radius, True)
               for n, radius in ((2, 6), (3, 5), (4, 4), (5, 3))]
LEAST_BALLS += [(act(DehornoyOrdering.create(n), _braid(c, n)), radius, inside)
                for n, c, radius, inside in (
    (2, "s1^3", 5, True), (3, "s1", 5, True), (3, "s2^-1 s1", 5, True), (4, "s2^-1", 4, True),
    (4, "s1 s2", 4, True), (5, "s3", 3, True), (5, "s4 s3^-1 s1 s2^2", 3, False))]
LEAST_IDS = ["B2", "B3", "B4", "B5", "B2_by_s1^3", "B3_by_s1", "B3_by_s2^-1s1", "B4_by_s2^-1",
             "B4_by_s1s2", "B5_by_s3", "B5_far"]


@pytest.mark.parametrize("cone,radius,inside", LEAST_BALLS, ids=LEAST_IDS)
def test_least_positive_braid_of_a_ball_is_the_cones_least_element(cone, radius, inside):
    n, c = cone.group.n, cone.conjugator
    least = c.inverse() * _braid(f"s{n - 1}", n) * c
    assert cone.least_key == least.key == BraidWord(cone.group, least.letters).key
    ball = braid_ball(cone.group, radius)
    smallest = None
    for w in ball:  # brute force: every positive braid of the ball against every other
        if cone_sign(cone, w) > 0:
            assert compare(cone, least, w) <= 0, w.render()
            if smallest is None or compare(cone, w, smallest) < 0:
                smallest = w
    assert any(w.key == least.key for w in ball) == inside
    assert (smallest.key == least.key) == inside
    assert is_dense(cone, radius).smallest_positive_seen == smallest


def test_dense_walk_stops_at_the_least_positive_braid(monkeypatch):
    # Under the unconjugated cone s_(n-1) is least; it ends level 1 of the
    # walk, so the search keys the identity and the 2(n-1) letters only.
    walked = []
    key_walk = ordo_groups.key_walk

    def counting(*args):
        for w in key_walk(*args):
            walked.append(w)
            yield w

    monkeypatch.setattr(ordo_groups, "key_walk", counting)
    monkeypatch.setattr(ordo_orderings, "key_walk", counting)
    for n in range(3, 8):
        walked.clear()
        verdict = is_dense(DehornoyOrdering.create(n), 5)
        assert verdict.outcome == Density.UNKNOWN
        assert verdict.smallest_positive_seen.letters == ((n - 1, 1),)
        assert 0 < len(walked) <= 2 * (n - 1) + 1
    # A cap whose ball is past MAX_BALL_ELEMENTS answers too, as the walk stops first.
    assert is_dense(DehornoyOrdering.create(4), 40).smallest_positive_seen.render() == "s3"


# -- finite-data stability ------------------------------------------------------


def test_deep_level_perturbation_keeps_shallow_data():
    # Two flags that agree on every element whose level-2 pairing is nonzero.
    base = FlagOrdering.lex(3)
    flipped = FlagOrdering.from_rational_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    y = parse_element("x1 x2 x3", GroupRef.free_abelian(3))
    x = parse_element("x1", GroupRef.free_abelian(3))
    for n in range(1, 40):
        moved = (y ** n) * (x ** (-n))
        assert cone_sign(base, moved) == cone_sign(flipped, moved)


# -- JSON ------------------------------------------------------------------------


def test_json_round_trip_flag():
    doc = ordering_to_json(SQRT2_FLAG)
    assert doc["group"] == {"kind": "free_abelian", "rank": 2}
    assert doc["ordering"]["type"] == "flag"
    again = ordering_from_json(json.loads(json.dumps(doc)))
    assert again == SQRT2_FLAG


def test_json_round_trip_conjugated():
    cone = act(DEHORNOY3, br("s1"))
    doc = ordering_to_json(cone)
    assert doc["ordering"] == {"type": "conjugated", "base": {"type": "dehornoy"}, "by": "s1"}
    again = ordering_from_json(doc)
    rng = random.Random(40)
    for _ in range(100):
        g = random_element(B3, rng, 5)
        assert cone_sign(again, g) == cone_sign(cone, g)


def test_json_conjugated_flag_loads_as_the_flag():
    doc = ordering_to_json(SQRT2_FLAG)
    doc["ordering"] = {"type": "conjugated", "base": doc["ordering"], "by": "x1 x2^3"}
    assert ordering_from_json(doc) == SQRT2_FLAG


NESTED_DOC = {"group": B3.to_json(), "ordering": {
    "type": "conjugated", "by": "s2^-1 s1",
    "base": {"type": "conjugated", "base": {"type": "dehornoy"}, "by": "s1"}}}


def test_json_nested_conjugations_compose():
    nested = act(act(DEHORNOY3, br("s1")), br("s2^-1 s1"))
    loaded = ordering_from_json(NESTED_DOC)
    assert loaded == nested
    rng = random.Random(41)
    for _ in range(100):
        g = random_element(B3, rng, 5)
        assert cone_sign(loaded, g) == word_sign(nested, g)


def test_json_nested_document_round_trips_to_one_level():
    flat = {"group": B3.to_json(), "ordering": {
        "type": "conjugated", "base": {"type": "dehornoy"}, "by": "s1 s2^-1 s1"}}
    assert ordering_to_json(ordering_from_json(NESTED_DOC)) == flat
    assert ordering_from_json(flat) == ordering_from_json(NESTED_DOC)


def test_cone_conjugated_twice_is_the_cone_conjugated_by_the_product():
    rng = random.Random(42)
    for strands in (3, 4, 5):
        cone = DehornoyOrdering.create(strands)
        for _ in range(30):
            c, h = (random_element(cone.group, rng, 6) for _ in range(2))
            twice, once = act(act(cone, c), h), act(cone, c * h)
            assert twice == once and twice.conjugator == c * h
            for _ in range(10):
                g = random_element(cone.group, rng, 5)
                assert cone_sign(twice, g) == word_sign(once, g)


def test_act_by_the_identity_is_the_cone():
    for strands in (2, 3, 5):
        cone = DehornoyOrdering.create(strands)
        moved = act(cone, cone.group.identity())
        assert moved == cone and hash(moved) == hash(cone) and repr(moved) == repr(cone)
        assert ordering_to_json(moved)["ordering"] == {"type": "dehornoy"}
    # A conjugator that cancels itself leaves the identity as well.
    assert act(act(DEHORNOY3, br("s1 s2^-1")), br("s2 s1^-1")) == DEHORNOY3


# -- locate ------------------------------------------------------------------


def test_locate_agrees_with_bisect_on_lex2():
    rng = random.Random(17)
    for _ in range(60):
        points = sorted({(rng.randint(-4, 4), rng.randint(-4, 4))
                         for _ in range(rng.randint(0, 12))})
        ordered = [LatticeElement(Z2, p) for p in points]
        for _ in range(12):
            q = (rng.randint(-5, 5), rng.randint(-5, 5))
            index, found = locate(LEX2, ordered, LatticeElement(Z2, q))
            assert index == bisect.bisect_left(points, q)
            assert found == (q in points)


def test_locate_finds_braids_by_value_not_word():
    words = [br("s1^-1"), br("s2 s1 s2"), br("s2^-2"), br("s1^3"), br("")]
    ordered = sorted(words, key=functools.cmp_to_key(
        lambda a, b: compare(DEHORNOY3, a, b)))
    index, found = locate(DEHORNOY3, ordered, br("s1 s2 s1"))
    assert found
    assert ordered[index].render() == "s2 s1 s2"
    index, found = locate(DEHORNOY3, ordered, br("s1 s2"))
    assert not found
    assert all(compare(DEHORNOY3, g, br("s1 s2")) < 0 for g in ordered[:index])
    assert all(compare(DEHORNOY3, g, br("s1 s2")) > 0 for g in ordered[index:])


def _locate_by_compare(cone, ordered, g):
    """The order search as it was before sign_product: compare(m, g) per probe."""
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        c = compare(cone, ordered[mid], g)
        if c == 0:
            return mid, True
        if c < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo, False


B4 = GroupRef.braid(4)
DEHORNOY4 = DehornoyOrdering.create(4)
CONJUGATED3 = act(DEHORNOY3, br("s1 s2^-1 s1"))
THREE_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2),
                                    RealConstant.sqrt(3)]])
IRRATIONAL_FIRST_FLAG = FlagOrdering.create(
    [[RealConstant.rational(1), RealConstant.sqrt(2), RealConstant.rational(0)],
     [RealConstant.sqrt(3), RealConstant.rational(1), RealConstant.rational(-1)]])
RESTRICTED_FLAG = THREE_FLAG.restrict([(1, 0, 1), (0, 2, -1)])
PRODUCT_CONES = [DEHORNOY3, DEHORNOY4, CONJUGATED3, SQRT2_FLAG, LEX3,
                 THREE_FLAG, IRRATIONAL_FIRST_FLAG, RESTRICTED_FLAG]
PRODUCT_CONE_IDS = ["B3", "B4", "conjugated_B3", "sqrt2", "lex3",
                    "three", "irrational_first", "restricted"]


def _same_element_other_word(g):
    """g times a trivial product that free reduction does not cancel."""
    if g.group.is_abelian:
        return g
    half = parse_element("s1 s2 s1", g.group)
    return g * half * parse_element("s2 s1 s2", g.group).inverse()


@pytest.mark.parametrize("cone", PRODUCT_CONES, ids=PRODUCT_CONE_IDS)
def test_sign_product_is_the_sign_of_the_product(cone):
    rng = random.Random(23)
    for _ in range(300):
        a = random_element(cone.group, rng, 12)
        b = random_element(cone.group, rng, 12)
        assert cone.sign_product(a, b) == cone_sign(cone, a * b)
        assert cone.sign_product(a, a.inverse()) == 0


@pytest.mark.parametrize("cone", PRODUCT_CONES, ids=PRODUCT_CONE_IDS)
def test_locate_matches_the_compare_search(cone):
    rng = random.Random(29)
    by_order = functools.cmp_to_key(lambda a, b: compare(cone, a, b))
    for _ in range(40):
        ordered = []
        for g in sorted((random_element(cone.group, rng, 6)
                         for _ in range(rng.randint(0, 25))), key=by_order):
            if not ordered or compare(cone, ordered[-1], g) != 0:
                ordered.append(g)
        probes = [random_element(cone.group, rng, 6) for _ in range(15)]
        probes += [_same_element_other_word(m) for m in ordered[:5]]
        for g in probes:
            assert locate(cone, ordered, g) == _locate_by_compare(cone, ordered, g)


def test_order_searches_reject_foreign_elements():
    ordered = [br("s1^-1"), br(""), br("s2")]
    for foreign in (parse_element("s1", B4), el("x1")):
        with pytest.raises(GroupMismatch):
            compare(DEHORNOY3, foreign, foreign)
        with pytest.raises(GroupMismatch):
            compare(DEHORNOY3, br("s1"), foreign)
        with pytest.raises(GroupMismatch):
            compare(DEHORNOY3, foreign, br("s1"))
        with pytest.raises(GroupMismatch):
            locate(DEHORNOY3, ordered, foreign)
        with pytest.raises(GroupMismatch):
            DEHORNOY3.sign_product(foreign, foreign)
    z3 = LatticeElement(GroupRef.free_abelian(3), (1, 0, 0))
    with pytest.raises(GroupMismatch):
        compare(LEX2, z3, z3)
    with pytest.raises(GroupMismatch):
        locate(LEX2, [el("x1")], z3)
    for cone in (CONJUGATED3, DEHORNOY3):
        for foreign in (parse_element("s1", B4), el("x1")):
            for call in (lambda: cone.sign_product(br("s1"), foreign),
                         lambda: cone.sign_product(foreign, br("s1")),
                         lambda: compare(cone, br("s1 s2"), foreign),
                         lambda: cone_sign(cone, foreign)):
                with pytest.raises(GroupMismatch):
                    call()


# -- one-pass Dynnikov comparisons -----------------------------------------------


def _prefixed(prefix, word):
    return BraidWord.from_letters(word.group, prefix.letters + word.letters)


def _comparison_pairs(group, rng, count):
    """Random pairs, and the cases the prefix cancellation must get right:
    shared prefixes, a = b, equal braids written differently (from a shared
    prefix on), the identity on either side and inverse pairs."""
    identity = group.identity()
    pairs = []
    while len(pairs) < count:
        a, b = random_element(group, rng, 10), random_element(group, rng, 10)
        p = random_element(group, rng, 8)
        pairs += [(a, b), (_prefixed(p, a), _prefixed(p, b)), (a, a), (_prefixed(p, a), p),
                  (identity, a), (a, identity), (a, a.inverse()), (a.inverse(), a)]
        if group.n >= 3:
            rewritten = _same_element_other_word(a)
            pairs += [(a, rewritten), (_prefixed(p, rewritten), _prefixed(p, a))]
    return pairs


def _twin(g):
    """g over a braid group equal to its own but not the interned one."""
    return BraidWord(GroupRef("braid", g.group.n), g.letters)


@pytest.mark.parametrize("strands", [2, 3, 4, 5, 6])
def test_dehornoy_compare_matches_the_product_sign(strands):
    cone = DehornoyOrdering.create(strands)
    rng = random.Random(300 + strands)
    pairs = _comparison_pairs(cone.group, rng, 2000)
    signs = collections.Counter()
    for a, b in pairs:
        want = -cone.sign_product(a.inverse(), b)
        assert compare(cone, a, b) == want, (a.render(), b.render())
        signs[want] += 1
    assert len(pairs) >= 2000 and min(signs.values()) > 200, signs


CONJUGATED_CONES = [
    CONJUGATED3,
    act(act(DEHORNOY4, parse_element("s1 s3^-1 s2", B4)), parse_element("s2^-1 s1^2", B4)),
    act(act(DEHORNOY3, br("s1")), br("s2^-1 s1")),
    act(DehornoyOrdering.create(5), parse_element("s4 s3^-1 s1 s2^2", GroupRef.braid(5))),
]
CONJUGATED_IDS = ["product_cones_B3", "two_acts_B4", "nested_B3", "B5"]


@pytest.mark.parametrize("cone", CONJUGATED_CONES, ids=CONJUGATED_IDS)
def test_conjugated_signs_match_the_word_building_oracle(cone):
    # Operands over an equal group that is not the interned one read the same signs.
    rng = random.Random(307)
    for a, b in _comparison_pairs(cone.group, rng, 1000):
        want = word_sign(cone, a), word_sign(cone, a * b), -word_sign(cone, a.inverse() * b)
        for x, y in ((a, b), (_twin(a), _twin(b)), (a, _twin(b))):
            got = cone_sign(cone, x), cone.sign_product(x, y), compare(cone, x, y)
            assert cone.sign(x) == got[0] and got == want, (x.render(), y.render())


class _FramelessBraidCone(Cone):
    group = B3


def test_conjugated_cone_over_a_frameless_base_is_refused():
    # Only Dehornoy cones have a Dynnikov frame to move; a flag is its own
    # conjugate, as act returns it.
    with pytest.raises(UnsupportedInput) as caught:
        act(_FramelessBraidCone(), br("s1"))
    assert str(caught.value) == "_FramelessBraidCone has no Dynnikov frame to conjugate"
    assert act(SQRT2_FLAG, el("x1^2 x2^-1")) is SQRT2_FLAG


def _common_prefix(a, b):
    return next((k for k, (x, y) in enumerate(zip(a.letters, b.letters)) if x != y),
                min(len(a), len(b)))


@pytest.mark.parametrize("cone", [DEHORNOY3, DEHORNOY4] + CONJUGATED_CONES,
                         ids=["B3", "B4"] + CONJUGATED_IDS)
def test_one_pass_signs_act_each_letter_once_and_build_no_word(monkeypatch, cone):
    # compare acts |a| + |b| - 2c letters, c the common prefix; a conjugated
    # sign |g| + |c| and a conjugated product sign |a| + |b| + |c|, c the
    # conjugator.  One kernel call each (none for no letters), and no word.
    rng = random.Random(313)
    pairs = _comparison_pairs(cone.group, rng, 300)
    tail = len(cone.conjugator)
    conjugated = tail > 0
    cone.sign(cone.group.identity())  # the cone's frame is built once, before counting
    # Each pair also as operands over an equal group that is not the interned one.
    pairs += [(_twin(a), _twin(b)) for a, b in pairs]
    acted, built = count_kernel_letters_and_words(monkeypatch)
    for a, b in pairs:
        calls = [(lambda: compare(cone, a, b), len(a) + len(b) - 2 * _common_prefix(a, b) + tail)]
        if conjugated:
            calls += [(lambda: cone.sign(a), len(a) + tail),
                      (lambda: cone_sign(cone, a), len(a) + tail),
                      (lambda: cone.sign_product(a, b), len(a) + len(b) + tail)]
        for call, letters in calls:
            del acted[:]
            call()
            assert acted == ([letters] if letters else []), (a.render(), b.render())
            assert built == []


# -- the integer flag sign against the constant sign ---------------------------


def _interval_sign(const):
    """Sign by rational enclosures alone, independent of the integer sign engine."""
    bits = 16
    while not const.is_zero:
        lo, hi = const.interval(bits)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        bits *= 2
    return 0


def test_integer_flag_sign_matches_constant_sign():
    rng = random.Random(31)
    terms_seen, flags = collections.Counter(), 0
    while flags < 300:
        rank = rng.randint(1, 4)
        levels = [[RealConstant.from_terms({m: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                            for m in (1, 2, 3, 5) if rng.random() < 0.6})
                   for _ in range(rank)] for _ in range(rng.randint(1, 4))]
        try:
            flag = FlagOrdering.create(levels)
        except UnsupportedInput:  # not total
            continue
        flags += 1
        for _ in range(10):
            g = LatticeElement(flag.group, tuple(rng.randint(-9, 9) for _ in range(rank)))
            found = first_level(flag, g)
            assert flag.sign(g) == (0 if found is None else found[1].sign())
            if found is not None:
                assert found[1].sign() == _interval_sign(found[1])
            if found is not None:
                j, pairing = found
                assert pairing == linear_combination(zip(g.coords, flag.levels[j]))
                assert flag.level_pairing(j, g) == pairing
                terms_seen[min(len(pairing.terms), 3)] += 1
    assert all(terms_seen[k] > 100 for k in (1, 2, 3)), terms_seen


def _random_coords(rng, rank, late):
    """Coordinates of one of four kinds: zero, small, 1000-digit, or a unit
    vector on the column `late` that pairs zero at every level but the last (if any)."""
    kind = rng.randrange(4)
    if kind == 0:
        return (0,) * rank
    if kind == 3 and late is not None:
        return tuple(rng.choice((1, -1)) if i == late else 0 for i in range(rank))
    size = 10 ** 999 if kind == 2 else 1
    return tuple(rng.choice((-1, 0, 1)) * size + rng.randint(-9, 9) for _ in range(rank))


def test_level_scan_matches_the_generator_oracle():
    # The loop scan against the generator form it replaced, on 10 000 pairs:
    # 500 total flags with 1 to 4 radicands per level, and coordinates that
    # are zero, small, 1000 digits long or seen at the last level only.
    rng = random.Random(53)
    radicands_seen, late_hits, pairs, flags = collections.Counter(), 0, 0, 0
    while flags < 500:
        rank, depth = rng.randint(1, 4), rng.randint(1, 4)
        late = rng.randrange(rank) if rng.random() < 0.3 else None
        levels = []
        for j in range(depth):
            keys = rng.sample((1, 2, 3, 5, 6, 7, 11, 13), rng.randint(1, 4))
            levels.append([ZERO if i == late and j < depth - 1 else RealConstant.from_terms(
                {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for m in keys})
                for i in range(rank)])
        try:
            flag = FlagOrdering.create(levels)
        except UnsupportedInput:  # not total
            continue
        flags += 1
        radicands_seen.update(len(rows) for _, rows in flag._expansion)
        for _ in range(20):
            coords = _random_coords(rng, rank, late)
            found = flag.first_dots(coords)
            assert found == generator_first_dots(flag, coords), (levels, coords)
            assert (found is None) == (not any(coords))  # total: only the identity is unseen
            assert found is None or type(found[1]) is tuple
            for _, rows in flag._expansion:
                assert ordo_orderings._level_dots(rows, coords) == generator_level_dots(rows, coords)
            late_hits += found is not None and found[0] == depth - 1 > 0
            pairs += 1
    assert pairs >= 10_000
    assert late_hits > 100 and all(radicands_seen[k] > 50 for k in (1, 2, 3, 4)), (
        late_hits, radicands_seen)


def _pell(d, n):
    """(x, y) with x + y*sqrt(d) = (fundamental unit)^n, so x - y*sqrt(d) = 1/(x + y*sqrt(d))."""
    x1, y1 = {2: (3, 2), 3: (2, 1)}[d]
    x, y = 1, 0
    for _ in range(n):
        x, y = x1 * x + d * y1 * y, x1 * y + y1 * x
    return x, y


def test_integer_flag_sign_on_pell_size_constants():
    z3 = GroupRef.free_abelian(3)
    x2, y2 = _pell(2, 120)  # about 92 digits; x2 - y2*sqrt(2) is about 10^-92
    u3, v3 = _pell(3, 150)  # about 86 digits
    assert x2 * x2 - 2 * y2 * y2 == 1 and u3 * u3 - 3 * v3 * v3 == 1 and x2 > 100 * u3
    first = [RealConstant.from_terms({1: x2, 2: -y2}), RealConstant.sqrt(3),
             RealConstant.from_terms({1: u3, 3: -v3})]
    flag = FlagOrdering.create([first, *FlagOrdering.lex(3).levels[1:]])
    cases = {
        # Two terms: x2 - y2*sqrt(2) > 0 by a margin of 10^-92.
        (1, 0, 0): 1,
        (-1, 0, 0): -1,
        # Three terms: (x2 - y2 sqrt 2) - (u3 - v3 sqrt 3) = 1/(x2 + ..) - 1/(u3 + ..) < 0.
        (1, 0, -1): -1,
        (-1, 0, 1): 1,
        # Three terms where sqrt(3) dominates.
        (1, 1, -1): 1,
        (1, -1, 1): -1,
    }
    for coords, want in cases.items():
        g = LatticeElement(z3, coords)
        pairing = first_level(flag, g)[1]
        assert flag.sign(g) == want == pairing.sign() == _interval_sign(pairing), coords
        assert flag.sign(g.inverse()) == -want


# -- flags against a sympy oracle ------------------------------------------------


def _random_constant(rng):
    # Half of the constants are rational, so rational anchor pairings occur.
    radicands = (1,) if rng.random() < 0.5 else (1, 2, 3, 5)
    return RealConstant.from_terms(
        {m: rng.randint(-3, 3) for m in radicands if rng.random() < 0.7})


def _sympy_value(const):
    return sum((sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(m)
                for m, q in const.terms), sympy.Integer(0))


def _sympy_pairings(flag, coords):
    return [sum((c * _sympy_value(const) for c, const in zip(coords, level)), sympy.Integer(0))
            for level in flag.levels]


def _sympy_first_level(flag, coords):
    for j, value in enumerate(_sympy_pairings(flag, coords)):
        if value != 0:
            return j, value
    return None


def _first_level_kernel(flag, rng):
    """Random integer vectors pairing to zero with the first level (sympy nullspace)."""
    level = flag.levels[0]
    keys = sorted({m for c in level for m, _ in c.terms})
    rows = [[sympy.Rational(c.coefficient(k).numerator, c.coefficient(k).denominator)
             for c in level] for k in keys]
    rank = flag.group.rank
    kernel = sympy.Matrix(rows).nullspace() if rows else [sympy.eye(rank).col(i) for i in range(rank)]
    out = []
    for v in kernel:
        scale = math.lcm(*(int(sympy.fraction(x)[1]) for x in v))
        out.append([int(x * scale) for x in v])
    combos = []
    for _ in range(4):
        coords = [0] * rank
        for v in out:
            k = rng.randint(-2, 2)
            coords = [a + k * b for a, b in zip(coords, v)]
        combos.append(coords)
    return combos


def test_flag_sign_cofinality_and_stable_value_match_sympy_first_level():
    rng = random.Random(2024)
    branches = {"value": 0, "not_cofinal": 0, "irrational": 0, "tie_on_first_level": 0}
    flags = 0
    while flags < 40:
        rank = rng.randint(1, 3)
        levels = [[_random_constant(rng) for _ in range(rank)]
                  for _ in range(rng.randint(1, 3))]
        try:
            flag = FlagOrdering.create(levels)
        except UnsupportedInput:
            continue
        flags += 1
        group = flag.group
        coords_pool = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(6)]
        coords_pool += _first_level_kernel(flag, rng)
        elements = [LatticeElement(group, tuple(c)) for c in coords_pool]
        seen = {g: _sympy_first_level(flag, g.coords) for g in elements}

        for g in elements:
            want = seen[g]
            assert flag.sign(g) == (0 if want is None else int(sympy.sign(want[1])))
            branches["tie_on_first_level"] += want is not None and want[0] > 0

        def level_of(g):
            return math.inf if seen[g] is None else seen[g][0]

        for x in elements:
            if x.is_identity:
                continue
            gens = rng.sample(elements, 3)
            want = Decision.YES if all(level_of(x) <= level_of(h) for h in gens) else Decision.NO
            assert is_cofinal(flag, x, gens) == want
            for h in gens:
                if level_of(h) < level_of(x) or seen[x] is None:
                    with pytest.raises(NotCofinal):
                        stable_exact(flag, x, h)
                    branches["not_cofinal"] += 1
                    continue
                j, px = seen[x]
                if not px.is_rational:
                    with pytest.raises(UnsupportedInput):
                        stable_exact(flag, x, h)
                    branches["irrational"] += 1
                    continue
                want_value = _sympy_pairings(flag, h.coords)[j] / px
                assert sympy.simplify(_sympy_value(stable_exact(flag, x, h)) - want_value) == 0
                branches["value"] += 1
    assert all(count > 0 for count in branches.values()), branches


def test_is_cofinal_matches_sympy_first_level_with_and_without_generators():
    rng = random.Random(77)
    outcomes, flags = collections.Counter(), 0
    while flags < 80:
        rank = rng.randint(1, 3)
        levels = [[_random_constant(rng) for _ in range(rank)]
                  for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            # A first level that sees nothing: no generator is seen before level 2.
            levels.insert(0, [RealConstant.rational(0)] * rank)
        try:
            flag = FlagOrdering.create(levels)
        except UnsupportedInput:  # not total
            continue
        flags += 1
        group = flag.group
        coords_pool = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(5)]
        for kernel in level_kernels(flag):  # elements first seen at each later level
            coords_pool += [[sum(rng.randint(-2, 2) * v[i] for v in kernel) for i in range(rank)]
                            for _ in range(2)]
        elements = [LatticeElement(group, tuple(c)) for c in coords_pool]
        units = group.generators()

        def level_of(g):
            found = _sympy_first_level(flag, g.coords)
            return math.inf if found is None else found[0]

        for x in elements:
            if x.is_identity:
                continue
            gens = rng.sample(elements, rng.randint(0, 3))
            want = Decision.YES if all(level_of(x) <= level_of(h) for h in gens) else Decision.NO
            assert is_cofinal(flag, x, gens) == want, (flag.levels, x, gens)
            want = Decision.YES if all(level_of(x) <= level_of(h) for h in units) else Decision.NO
            assert is_cofinal(flag, x) == want == is_cofinal(flag, x, units), (flag.levels, x)
            outcomes[want, all(c.is_zero for c in levels[0])] += 1
    assert all(outcomes[want, blind] > 5 for want in (Decision.YES, Decision.NO)
               for blind in (False, True)), outcomes


def test_right_invariance_search_to_its_cap_ends_unknown_without_witness():
    # The twist times s2 conjugates as s2 does, so no word can be a witness,
    # yet it is neither central nor a power of s2: the search runs to its cap.
    x = full_twist(3) * br("s2")
    verdict = is_right_invariant(DEHORNOY3, x, cap=3)
    assert verdict.to_json() == {"outcome": "unknown_within_cap", "witness": None}
    assert is_right_invariant(DEHORNOY3, br("s1"), cap=3).to_json() == {
        "outcome": "no", "witness": "s1^-1 s2"}


@pytest.mark.parametrize("call, refusal", [
    (lambda: stable_exact(DEHORNOY3, full_twist(3), br("s1")),
     "exact stable values need a flag ordering"),
    (lambda: check_convex(DEHORNOY3, full_twist(3), ExponentMatrix.parse("1 0 0")),
     "the convexity criterion needs a flag ordering"),
    (lambda: level_kernels(DEHORNOY3), "level kernels need a flag ordering"),
    (lambda: naturality_check(DEHORNOY3, full_twist(3), []),
     "the naturality check needs a flag ordering"),
    (lambda: sikora_coordinate(DehornoyOrdering.create(2)),
     "sikora coordinates need a flag ordering of Z^2"),
    (lambda: construct_from_translations([ONE, ONE], parse_element("s1", GroupRef.braid(2))),
     "the construction from translation numbers needs an anchor in Z^n"),
], ids=["stable_exact", "check_convex", "level_kernels", "naturality_check", "sikora_coordinate",
        "construct_from_translations"])
def test_flag_only_functions_refuse_braid_input_with_parse_error(call, refusal):
    with pytest.raises(OrdoError) as caught:
        call()
    assert type(caught.value) is ParseError and caught.value.exit_code == 2
    assert str(caught.value) == refusal
