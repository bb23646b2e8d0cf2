"""Line realizations, sampled circle actions, the Euler identity, equivalence."""

import random
from fractions import Fraction

import pytest

from ordo.errors import GroupMismatch, InvariantViolation, MissingOrbitPoint, UnsupportedInput
from ordo.exactreal import RealConstant
from ordo.groups import (
    BraidWord,
    GroupRef,
    LatticeElement,
    braid_words_up_to,
    coordinate_ball,
    full_twist,
    parse_element,
    random_element,
)
from ordo.orderings import DehornoyOrdering, FlagOrdering, act, compare, cone_sign, locate
from ordo.quasimorph import power_floor
from ordo.dynamics import (
    ActionCheck,
    RealizationTable,
    ball_enumeration,
    circle_action_for_samples,
    circle_action_from_ball,
    dynamically_equivalent,
    euler_cocycle_survey,
    euler_identity_check,
    partial_action_check,
    realize,
    unit_translation_check,
)

Z1 = GroupRef.free_abelian(1)
Z2 = GroupRef.free_abelian(2)
B3 = GroupRef.braid(3)
B4 = GroupRef.braid(4)
LEX1 = FlagOrdering.lex(1)
LEX2 = FlagOrdering.lex(2)
SQRT2_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
DEHORNOY3 = DehornoyOrdering.create(3)
DEHORNOY4 = DehornoyOrdering.create(4)
CONJUGATED3 = act(DEHORNOY3, parse_element("s1 s2^-1", B3))


def el(text, group=Z2):
    return parse_element(text, group)


def z1(text):
    return parse_element(text, Z1)


def test_realize_hand_example():
    table = realize(LEX1, [Z1.identity(), z1("x1"), z1("x1^-1"), z1("x1^2")])
    assert table.values == (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))


def test_realize_midpoint_rule():
    table = realize(LEX1, [Z1.identity(), z1("x1"), z1("x1^-1"), z1("x1^3"), z1("x1^2")])
    assert table.values == (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                            Fraction(3, 2))


def test_realize_single_element():
    table = realize(LEX2, [Z2.identity()])
    assert table.values == (Fraction(0),)


def test_realize_rejects_duplicates():
    with pytest.raises(UnsupportedInput):
        realize(LEX1, [Z1.identity(), z1("x1"), z1("x1")])
    # Duplicate braids hiding behind different words are caught too.
    with pytest.raises(UnsupportedInput):
        realize(DEHORNOY3, [B3.identity(), el("s1 s2 s1", B3), el("s2 s1 s2", B3)])


def test_realize_requires_identity_first():
    with pytest.raises(UnsupportedInput):
        realize(LEX1, [z1("x1")])


def test_realize_is_order_embedding():
    for cone, radius in ((LEX2, 3), (SQRT2_FLAG, 3), (DEHORNOY3, 3)):
        enumeration = ball_enumeration(cone, radius)
        table = realize(cone, enumeration)
        pairs = sorted(zip(table.values, table.elements))
        for (t0, g0), (t1, g1) in zip(pairs, pairs[1:]):
            assert t0 < t1
            assert compare(cone, g0, g1) < 0


def test_realize_prefix_stability():
    enumeration = ball_enumeration(SQRT2_FLAG, 3)
    full = realize(SQRT2_FLAG, enumeration)
    for cut in (1, 5, len(enumeration) // 2, len(enumeration) - 1):
        prefix = realize(SQRT2_FLAG, enumeration[:cut])
        assert prefix.values == full.values[:cut]


def test_lookup_by_group_element():
    table = realize(DEHORNOY3, ball_enumeration(DEHORNOY3, 3))
    # s1 s2 s1 and s2 s1 s2 are the same braid; lookup must find the same
    # station whichever word names it.
    value = table.lookup(el("s1 s2 s1", B3))
    assert value is not None
    assert table.lookup(el("s2 s1 s2", B3)) == value


def test_partial_action_hand_example():
    table = realize(LEX1, [Z1.identity(), z1("x1"), z1("x1^-1"), z1("x1^2")])
    report = partial_action_check(table, z1("x1"))
    assert report.passed
    assert report.checked == 3  # images of 1, x, x^-1 are enumerated


def test_partial_action_identity():
    table = realize(LEX1, [Z1.identity(), z1("x1")])
    report = partial_action_check(table, Z1.identity())
    assert report.passed
    assert report.checked == 2


def test_partial_action_on_ball():
    table = realize(LEX2, ball_enumeration(LEX2, 2))
    for g in (el("x2"), el("x1"), el("x1^-1 x2")):
        assert partial_action_check(table, g).passed


def _partial_action_by_sorting(table, g):
    """partial_action_check as it was: each image's value looked up through
    the product g * g_i, and the (value, image value) pairs sorted."""
    value_of = {h.key: t for h, t in zip(table.elements, table.values)}
    pairs = []
    for g_i, t_i in zip(table.elements, table.values):
        t_image = value_of.get((g * g_i).key)
        if t_image is not None:
            pairs.append((t_i, t_image))
    pairs.sort()
    for (a0, b0), (a1, b1) in zip(pairs, pairs[1:]):
        if not b1 > b0:
            return ActionCheck(len(pairs), False,
                               f"stations {a0}->{b0} and {a1}->{b1} are not increasing")
    return ActionCheck(len(pairs), True)


PAC_CONES = [LEX1, LEX2, SQRT2_FLAG, DEHORNOY3, DEHORNOY4, CONJUGATED3]
PAC_CONE_IDS = ["lex1", "lex2", "sqrt2", "B3", "B4", "conjugated_B3"]


@pytest.mark.parametrize("cone", PAC_CONES, ids=PAC_CONE_IDS)
def test_partial_action_matches_the_sorting_check_on_balls(cone):
    rng = random.Random(31)
    movers = ball_enumeration(cone, 2)
    for radius in range(5):
        table = realize(cone, ball_enumeration(cone, radius))
        checked = 0
        for g in movers:
            report = partial_action_check(table, g)
            assert report == _partial_action_by_sorting(table, g)
            assert report.passed
            checked += report.checked
        assert checked > len(movers) * (len(table.elements) // 4)
        # Shuffled values, with some repeated, make the check fail; the
        # verdict and its message must still match byte for byte.
        values = [rng.choice(table.values[:3]) if rng.random() < 0.2 else v
                  for v in rng.sample(table.values, len(table.values))]
        shuffled = RealizationTable(cone, table.elements, tuple(values))
        reports = [partial_action_check(shuffled, g) for g in movers[:8]]
        assert reports == [_partial_action_by_sorting(shuffled, g) for g in movers[:8]]
        assert radius < 2 or not all(report.passed for report in reports)


def _scattered_enumeration(cone, rng, size, length):
    """Identity first, then distinct braids as random words: most are not
    geodesic, many lack their parent (the word minus its last letter), and
    a child may come before its parent."""
    group = cone.group
    out, seen = [group.identity()], {group.identity().key}
    while len(out) < size:
        w = random_element(group, rng, length)
        if w.key not in seen:
            seen.add(w.key)
            out.append(w)
            if rng.random() < 0.5 and w.letters:
                parent = BraidWord.from_letters(group, w.letters[:-1])
                if parent.key not in seen:
                    seen.add(parent.key)
                    out.append(parent)
    rest = out[1:]
    rng.shuffle(rest)
    return [out[0], *rest]


@pytest.mark.parametrize("cone", [DEHORNOY3, DEHORNOY4, CONJUGATED3],
                         ids=["B3", "B4", "conjugated_B3"])
def test_partial_action_matches_the_sorting_check_off_the_ball(cone):
    rng = random.Random(47)
    movers = ball_enumeration(cone, 2)
    forests = 0
    for size, length in ((12, 3), (60, 5), (150, 7)):
        enumeration = _scattered_enumeration(cone, rng, size, length)
        table = realize(cone, enumeration)
        tree = table._ranked[-1]
        roots = sum(parent < 0 for _, parent, _ in tree)
        assert roots < len(tree)
        forests += roots > 1
        reports = [partial_action_check(table, g) for g in movers]
        assert reports == [_partial_action_by_sorting(table, g) for g in movers]
        assert any(report.checked > 1 for report in reports)
        # A table that is not a realization fails; the text still matches.
        values = tuple(rng.sample(table.values, len(table.values)))
        shuffled = RealizationTable(cone, table.elements, values)
        reports = [partial_action_check(shuffled, g) for g in movers]
        assert reports == [_partial_action_by_sorting(shuffled, g) for g in movers]
    assert forests >= 2  # stations without a parent beside the identity


def test_partial_action_failure_message_on_a_hand_built_table():
    elements = (Z1.identity(), z1("x1"), z1("x1^-1"), z1("x1^2"))
    table = RealizationTable(LEX1, elements,
                             (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(-5, 2)))
    assert partial_action_check(table, z1("x1")) == ActionCheck(
        3, False, "stations 0->1/2 and 1/2->-5/2 are not increasing")
    # Equal values sort by image value, as the pairs of values always did.
    tied = RealizationTable(LEX1, elements,
                            (Fraction(0), Fraction(1), Fraction(1), Fraction(2)))
    assert partial_action_check(tied, z1("x1")) == ActionCheck(
        3, False, "stations 0->1 and 1->0 are not increasing")
    assert partial_action_check(tied, z1("x1")) == _partial_action_by_sorting(tied, z1("x1"))


def test_partial_action_rejects_foreign_elements():
    table = realize(DEHORNOY3, ball_enumeration(DEHORNOY3, 2))
    for foreign in (el("s1", B4), el("x1"), LatticeElement(GroupRef.free_abelian(6), (0,) * 6)):
        with pytest.raises(GroupMismatch):
            partial_action_check(table, foreign)
    with pytest.raises(GroupMismatch):
        partial_action_check(realize(LEX2, ball_enumeration(LEX2, 1)), z1("x1"))


def test_ball_enumeration_dedupes_braids():
    words = ball_enumeration(DEHORNOY3, 3)
    # s1 s2 s1 and s2 s1 s2 are the same braid: only one survives.
    reps = [w for w in words
            if compare(DEHORNOY3, w, el("s1 s2 s1", B3)) == 0]
    assert len(reps) == 1


# -- keyed lookups against the order search they replace --------------------



def _locate_ball(cone, radius):
    """Ball enumeration deduplicated by order search."""
    if cone.group.is_abelian:
        return list(coordinate_ball(cone.group, radius))
    seen, out = [], []
    for w in braid_words_up_to(cone.group, radius):
        i, found = locate(cone, seen, w)
        if not found:
            seen.insert(i, w)
            out.append(w)
    return out


def _locate_lookup(table, g):
    order = sorted(range(len(table.elements)), key=table.values.__getitem__)
    i, found = locate(table.cone, [table.elements[k] for k in order], g)
    return table.values[order[i]] if found else None


def _probes(group, radius):
    if group.is_abelian:
        return list(coordinate_ball(group, radius))
    return braid_words_up_to(group, radius)


@pytest.mark.parametrize("cone,radius", [
    (DEHORNOY3, 4), (DEHORNOY4, 3), (LEX2, 2), (CONJUGATED3, 3),
])
def test_keyed_ball_and_lookup_match_order_search(cone, radius):
    ball = ball_enumeration(cone, radius)
    assert ball == _locate_ball(cone, radius)
    table = realize(cone, ball)
    probes = _probes(cone.group, radius + 1)
    probes += [g * h for g in probes[:20] for h in ball[:20]]
    found = 0
    for g in probes:
        value = table.lookup(g)
        assert value == _locate_lookup(table, g), g.render()
        found += value is not None
    assert 0 < found < len(probes)


@pytest.mark.parametrize("cone,x,radius", [
    (DEHORNOY3, full_twist(3), 3), (CONJUGATED3, full_twist(3), 3), (LEX2, el("x1"), 2),
])
def test_keyed_theta_matches_order_search(cone, x, radius):
    action = circle_action_from_ball(cone, x, radius)
    present = missing = 0
    for h in _probes(cone.group, radius + 1):
        s = action.remainder(h)
        i, found = locate(cone, action.stratum, s)
        if found:
            assert action.theta(s) == action.theta_values[i]
            present += 1
        else:
            with pytest.raises(MissingOrbitPoint):
                action.theta(s)
            missing += 1
    assert present and missing


def test_keyed_lookups_reject_foreign_elements():
    table = realize(DEHORNOY3, ball_enumeration(DEHORNOY3, 2))
    action = circle_action_from_ball(DEHORNOY3, full_twist(3), 2)
    s1 = el("s1", B3)
    # A Z^6 vector spelling the key of s1 must not be mistaken for s1.
    z6 = LatticeElement(GroupRef.free_abelian(6), s1.key)
    for foreign in (z6, el("s1", B4), el("x1")):
        with pytest.raises(GroupMismatch):
            table.lookup(foreign)
        with pytest.raises(GroupMismatch):
            action.theta(foreign)
    lex_table = realize(LEX2, ball_enumeration(LEX2, 1))
    with pytest.raises(GroupMismatch):
        lex_table.lookup(LatticeElement(GroupRef.free_abelian(3), (0, 0, 0)))


def test_circle_action_lex():
    action = circle_action_from_ball(LEX2, el("x1"), 2)
    # t'((k, j)) = k + theta((0, j)) for j >= 0.
    for k in (-2, 0, 1):
        for j in (0, 1, 2):
            g = el(f"x1^{k} x2^{j}")
            assert action.t_prime(g) == k + action.theta(el(f"x2^{j}"))


def test_circle_action_unit_translation():
    for cone, x, radius in ((LEX2, el("x1"), 2),
                            (SQRT2_FLAG, el("x1"), 2),
                            (DEHORNOY3, full_twist(3), 3)):
        action = circle_action_from_ball(cone, x, radius)
        report = unit_translation_check(action)
        assert report.passed
        assert report.checked == len(action.stored)


@pytest.mark.parametrize("cone,x,radius", [
    (LEX2, el("x1"), 2), (LEX2, el("x1^-1"), 2), (LEX2, el("x1^2 x2"), 2),
    (SQRT2_FLAG, el("x1"), 2),
    (DEHORNOY3, full_twist(3), 3), (DEHORNOY3, full_twist(3).inverse(), 3),
])
def test_circle_action_stratum_and_theta(cone, x, radius):
    action = circle_action_from_ball(cone, x, radius)
    stratum, theta = action.stratum, action.theta_values
    assert cone_sign(cone, stratum[0]) == 0
    assert all(compare(cone, a, b) < 0 for a, b in zip(stratum, stratum[1:]))
    assert theta[0] == 0
    assert all(a < b for a, b in zip(theta, theta[1:]))
    assert theta[-1] < 1
    assert unit_translation_check(action).passed
    assert euler_cocycle_survey(cone, x, count=40, seed=3, radius=2).all_passed


def test_circle_action_wrong_floor_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr("ordo.dynamics.power_floor", lambda ctx, h: power_floor(ctx, h) + 1)
    with pytest.raises(InvariantViolation):
        circle_action_from_ball(LEX2, el("x1"), 2)


def test_circle_action_anchor_station():
    action = circle_action_from_ball(LEX2, el("x1"), 2)
    assert action.t_prime(el("x1")) == 1
    assert action.t_prime(Z2.identity()) == 0


def test_circle_action_requires_central_anchor():
    with pytest.raises(UnsupportedInput):
        circle_action_from_ball(DEHORNOY3, el("s1", B3), 2)


def test_circle_action_requires_cofinal_anchor():
    with pytest.raises(UnsupportedInput):
        circle_action_from_ball(LEX2, el("x2"), 2)


def test_theta_missing_point():
    action = circle_action_for_samples(LEX2, el("x1"), [el("x2")])
    with pytest.raises(MissingOrbitPoint):
        action.theta(el("x2^9"))


def test_euler_identity_anchor_squared():
    action = circle_action_from_ball(LEX2, el("x1"), 2)
    report = euler_identity_check(action, el("x1"), el("x1"))
    assert report.passed
    assert report.euler_cocycle == 0
    assert report.coboundary == 0


def test_euler_identity_hand_example():
    # f=(0,1), g=(0,-1): floors 0, -1, 0, so the coboundary is -1 and the
    # lift composition must give +1.
    action = circle_action_from_ball(LEX2, el("x1"), 2)
    report = euler_identity_check(action, el("x2"), el("x2^-1"))
    assert report.passed
    assert report.coboundary == -1
    assert report.euler_cocycle == 1


def test_euler_survey_three_families():
    for cone, x in ((LEX2, el("x1")), (SQRT2_FLAG, el("x1")),
                    (DEHORNOY3, full_twist(3))):
        survey = euler_cocycle_survey(cone, x, count=100, seed=5, radius=2)
        assert survey.all_passed, survey.failures[:3]


def test_equivalence_rescaled_flags():
    a = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
    b = FlagOrdering.create([[RealConstant.rational(2), RealConstant.sqrt(2, 2)]])
    verdict = dynamically_equivalent(a, b, el("x1"), mode="dynamical")
    assert verdict.outcome == "Equivalent"


def test_equivalence_distinguishes_sqrt2_sqrt3():
    a = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
    b = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(3)]])
    verdict = dynamically_equivalent(a, b, el("x1"), mode="dynamical")
    assert verdict.outcome == "NotEquivalent"


def test_equivalence_lex_not_dense():
    verdict = dynamically_equivalent(LEX2, LEX2, el("x1"), mode="dynamical")
    assert verdict.outcome == "Unknown"
    assert "not dense" in verdict.reason


def test_equivalence_semi_mode_allows_discrete():
    verdict = dynamically_equivalent(LEX2, LEX2, el("x1"), mode="semi-dynamical")
    assert verdict.outcome == "Equivalent"


def test_equivalence_conjugate_braid_orderings():
    moved = act(DEHORNOY3, el("s1 s2^-1", B3))
    verdict = dynamically_equivalent(DEHORNOY3, moved, full_twist(3),
                                     mode="semi-dynamical", approx_order=60)
    assert verdict.outcome == "Equivalent"


def test_equivalence_noncentral_anchor_unknown():
    verdict = dynamically_equivalent(DEHORNOY3, DEHORNOY3, el("s1", B3),
                                     mode="semi-dynamical")
    assert verdict.outcome == "Unknown"
    assert "central" in verdict.reason


def test_conjugate_flag_orderings_equivalent():
    # The cone action is trivial on abelian groups, so conjugates compare equal.
    moved = act(SQRT2_FLAG, el("x1 x2"))
    verdict = dynamically_equivalent(SQRT2_FLAG, moved, el("x1"), mode="dynamical")
    assert verdict.outcome == "Equivalent"
