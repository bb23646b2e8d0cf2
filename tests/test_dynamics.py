"""Line realizations, sampled circle actions, the Euler identity, equivalence."""

import json
import random
from fractions import Fraction

import pytest

import ordo.dynamics as ordo_dynamics
import ordo.groups as ordo_groups
import ordo.orderings as ordo_orderings
import ordo.quasimorph as ordo_quasimorph
from ordo.cli import main
from ordo.errors import (
    AnchorIsIdentity,
    GroupMismatch,
    InvariantViolation,
    MissingOrbitPoint,
    NotCofinal,
    OrdoError,
    UnsupportedInput,
)
from ordo.exactreal import RealConstant, format_rational
from ordo.groups import (
    BraidWord,
    GroupRef,
    LatticeElement,
    braid_ball,
    coordinate_ball,
    full_twist,
    parse_element,
    random_element,
)
from ordo.orderings import (
    Cone,
    DehornoyOrdering,
    FlagOrdering,
    act,
    compare,
    cone_sign,
    handle_reduce,
    main_generator_sign,
    ordering_to_json,
)
from ordo.quasimorph import AnchorContext, power_floor
from ordo.dynamics import (
    ActionCheck,
    EulerSurvey,
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

from oracles import (braid_words_up_to, count_kernel_letters_and_words, forest_sort,
                     fraction_replay, locate, preorder_forest)

Z1 = GroupRef.free_abelian(1)
Z2 = GroupRef.free_abelian(2)
B3 = GroupRef.braid(3)
B4 = GroupRef.braid(4)
LEX1 = FlagOrdering.lex(1)
LEX2 = FlagOrdering.lex(2)
SQRT2_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
DEHORNOY3 = DehornoyOrdering.create(3)
DEHORNOY4 = DehornoyOrdering.create(4)
DEHORNOY5 = DehornoyOrdering.create(5)
CONJUGATED3 = act(DEHORNOY3, parse_element("s1 s2^-1", B3))
CONJUGATED4 = act(DEHORNOY4, parse_element("s3 s2^-1 s1^-1", B4))
FLAG3 = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(3), RealConstant.sqrt(2)],
                             [RealConstant.rational(0), RealConstant.rational(1),
                              RealConstant.rational(-2)]])


@pytest.fixture(autouse=True)
def _replay_matches_the_fraction_oracle(monkeypatch):
    """Every realization in this file, through the library or the CLI, replays
    its values on Fractions as well, and the two value lists must be equal."""
    replay = ordo_dynamics._replay

    def checked(order):
        values = replay(order)
        assert values == fraction_replay(order)
        assert {type(t) for t in values} == {Fraction}
        return values

    monkeypatch.setattr(ordo_dynamics, "_replay", checked)


def test_replay_matches_the_fraction_replay_on_random_rank_orders():
    # Random sorts of up to 2000 stations, most of them short, so both ends
    # and midpoints at every nesting depth are placed.
    rng = random.Random(71)
    lengths = [1, 2, 2000] + [int(2000 ** rng.random() ** 2) + 1 for _ in range(1000)]
    for size in lengths:
        order = list(range(size))
        rng.shuffle(order)
        assert ordo_dynamics._replay(order) == fraction_replay(order), order


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


# -- realize against the sequential binary insertion it replaced ------------


def _realize_by_insertion(cone, enumeration):
    """The inductive assignment one element at a time: each element is
    binary-searched into the cone-sorted list of the elements before it."""
    if not enumeration:
        raise UnsupportedInput("enumeration must not be empty")
    first = enumeration[0]
    if cone_sign(cone, first) != 0:
        raise UnsupportedInput("enumeration must start with the identity")
    ordered, stations, values = [], [], []
    for i, g in enumerate(enumeration):
        lo, found = locate(cone, ordered, g)
        if found:
            raise UnsupportedInput(f"duplicate element at position {i}: {g.render()!r}")
        if not ordered:
            t = Fraction(0)
        elif lo == 0:
            t = stations[0] - 1
        elif lo == len(ordered):
            t = stations[-1] + 1
        else:
            t = (stations[lo - 1] + stations[lo]) / 2
        ordered.insert(lo, g)
        stations.insert(lo, t)
        values.append(t)
    return tuple(values)


def _outcome(realizer, cone, enumeration):
    """The values, or the class and text of the error raised."""
    try:
        result = realizer(cone, enumeration)
    except OrdoError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else result.values


def _assert_matches_insertion(cone, enumeration):
    expected = _outcome(_realize_by_insertion, cone, enumeration)
    assert _outcome(realize, cone, enumeration) == expected
    return expected


class _SignedLevels(Cone):
    """A Dehornoy-type ordering with a sign chosen per level: a braid is
    positive when the lowest generator of its handle-free form appears with
    the sign chosen for that index.  Every choice gives a left ordering
    (products of braids at levels i < j stay at level i with i's sign), and
    s_i is negative wherever its sign is -1."""

    def __init__(self, group, signs):
        self.group, self.signs = group, signs

    def sign(self, g):
        reduced = handle_reduce(g.letters, self.group.strands)
        if not reduced:
            return 0
        return main_generator_sign(reduced) * self.signs[min(i for i, _ in reduced) - 1]


SIGNED4 = _SignedLevels(B4, (1, -1, 1))
SIGNED3 = _SignedLevels(B3, (-1, 1))


def test_generator_signs_of_the_test_cones():
    # Conjugates of s_i are Dehornoy-positive (property S), so conjugated
    # cones keep every generator positive; the signed-level cones do not.
    for cone in (CONJUGATED3, CONJUGATED4):
        assert {cone_sign(cone, s) for s in cone.group.generators()} == {1}
    assert [cone_sign(SIGNED4, s) for s in B4.generators()] == [1, -1, 1]
    assert [cone_sign(SIGNED3, s) for s in B3.generators()] == [-1, 1]
    for cone in (SIGNED3, SIGNED4):
        ball = ball_enumeration(cone, 2)
        for g in ball:
            for h in ball:
                if cone_sign(cone, g) > 0 and cone_sign(cone, h) > 0:
                    assert cone_sign(cone, g * h) > 0
        # They have no Dynnikov frame, so they cannot be conjugated.
        with pytest.raises(UnsupportedInput):
            act(cone, ball[1])


@pytest.mark.parametrize("cone,radius", [
    (DEHORNOY3, 5), (DEHORNOY4, 4), (DEHORNOY5, 3), (CONJUGATED3, 4), (CONJUGATED4, 3),
    (SIGNED3, 4), (SIGNED4, 3), (LEX2, 4), (SQRT2_FLAG, 4), (FLAG3, 2),
], ids=["B3", "B4", "B5", "conjugated_B3", "conjugated_B4", "signed_B3", "signed_B4",
        "lex2", "sqrt2", "flag3"])
def test_realize_matches_insertion_on_balls(cone, radius):
    ball = ball_enumeration(cone, radius)
    values = _assert_matches_insertion(cone, ball)
    assert len(set(values)) == len(ball)
    table = realize(cone, ball)
    # Every braid station but the identity gallops from its parent.
    roots = sum(parent < 0 for _, parent, _ in table._forest)
    assert roots == (len(ball) if cone.group.is_abelian else 1)


def test_realize_matches_insertion_on_shuffled_sub_enumerations():
    rng = random.Random(1515)
    cones = [DEHORNOY3, DEHORNOY4, CONJUGATED3, CONJUGATED4, SIGNED3, SIGNED4,
             LEX2, SQRT2_FLAG, FLAG3]
    pools = {id(cone): ball_enumeration(cone, 3 if cone.group.n < 4 else 2)[1:]
             for cone in cones}
    forests = 0
    for case in range(300):
        cone = cones[case % len(cones)]
        if not cone.group.is_abelian and case % 2:
            enumeration = _scattered_enumeration(cone, rng, rng.randint(2, 40), 5)
        else:
            pool = pools[id(cone)]
            enumeration = [cone.group.identity(),
                           *rng.sample(pool, rng.randint(0, min(len(pool), 60)))]
        _assert_matches_insertion(cone, enumeration)
        forests += sum(parent < 0 for _, parent, _ in realize(cone, enumeration)._forest) > 1
    assert forests > 100


def _identity_word(rng, group):
    """A nonempty freely reduced word for the identity: a conjugated braid relation."""
    i = rng.randint(1, group.n - 2)
    relation = BraidWord.from_letters(group, ((i, 1), (i + 1, 1), (i, 1),
                                              (i + 1, -1), (i, -1), (i + 1, -1)))
    a = random_element(group, rng, 2)
    return a * relation * a.inverse()


def _hide_duplicates(rng, enumeration, count):
    """Insert `count` new words for elements already enumerated, at random
    positions after the first: braids get other words for the same braid."""
    out = list(enumeration)
    for _ in range(count):
        g = rng.choice(out)
        if isinstance(g, BraidWord):
            g = BraidWord.from_letters(g.group, (g * _identity_word(rng, g.group)).letters)
        out.insert(rng.randint(1, len(out)), g)
    return out


def test_realize_reports_hidden_duplicates_like_insertion():
    rng = random.Random(77)
    cones = [DEHORNOY3, DEHORNOY4, CONJUGATED3, SIGNED4, LEX2, SQRT2_FLAG]
    for case in range(120):
        cone = cones[case % len(cones)]
        pool = ball_enumeration(cone, 2)
        enumeration = [pool[0], *rng.sample(pool[1:], rng.randint(1, min(len(pool) - 1, 30)))]
        hidden = _hide_duplicates(rng, enumeration, rng.randint(1, 3))
        error, message = _assert_matches_insertion(cone, hidden)
        assert error is UnsupportedInput and message.startswith("duplicate element at position")
    # The identity itself under another word.
    word = _identity_word(rng, B3)
    assert word.letters
    assert _assert_matches_insertion(DEHORNOY3, [B3.identity(), el("s1", B3), word]) == (
        UnsupportedInput, f"duplicate element at position 2: {word.render()!r}")


FOREIGN = {
    "B3": [el("s1 s2", B4), LatticeElement(GroupRef.free_abelian(6), (0, 1) * 3)],
    "Z2": [el("s1", B3), el("x1 x3", GroupRef.free_abelian(3))],
}


@pytest.mark.parametrize("cone", [DEHORNOY3, CONJUGATED3, SIGNED3, LEX2, SQRT2_FLAG],
                         ids=["B3", "conjugated_B3", "signed_B3", "lex2", "sqrt2"])
def test_realize_reports_foreign_elements_like_insertion(cone):
    rng = random.Random(5)
    ball = ball_enumeration(cone, 2)
    foreigners = FOREIGN["Z2" if cone.group.is_abelian else "B3"]
    twin = ball[3] if cone.group.is_abelian else \
        BraidWord.from_letters(B3, (ball[3] * _identity_word(rng, B3)).letters)
    for foreign in foreigners:
        for f, d, first in ((2, 6, GroupMismatch), (6, 2, UnsupportedInput),
                            (len(ball), 4, UnsupportedInput), (1, len(ball), GroupMismatch)):
            enumeration = list(ball)
            enumeration.insert(d, twin)
            enumeration.insert(f, foreign)
            error, message = _assert_matches_insertion(cone, enumeration)
            assert error is first, message
        assert _outcome(realize, cone, [foreign, *ball]) == \
            _outcome(_realize_by_insertion, cone, [foreign, *ball])
    for bad in ([], ball[1:], [ball[2], *ball]):
        assert _outcome(realize, cone, bad) == _outcome(_realize_by_insertion, cone, bad)
        assert _outcome(realize, cone, bad)[0] is UnsupportedInput


def test_realize_accepts_equal_group_refs_that_are_not_interned():
    twin = GroupRef("braid", 3)
    assert twin == B3 and twin is not B3
    ball = ball_enumeration(DEHORNOY3, 3)
    copied = [BraidWord(twin, g.letters) for g in ball]
    assert realize(DEHORNOY3, copied).values == realize(DEHORNOY3, ball).values
    table = realize(DEHORNOY3, copied)
    assert table.lookup(ball[5]) == table.values[5]
    assert partial_action_check(table, ball[2]) == partial_action_check(
        realize(DEHORNOY3, ball), copied[2])
    action = circle_action_from_ball(DEHORNOY3, full_twist(3), 2)
    for g in copied[:30]:
        assert action.floor(g) == power_floor(action.ctx, g)


def test_cli_realize_enumeration_file_matches_insertion(tmp_path, capsys):
    rng = random.Random(21)
    enumeration = _scattered_enumeration(CONJUGATED3, rng, 40, 5)
    ordering = tmp_path / "ordering.json"
    ordering.write_text(json.dumps(ordering_to_json(CONJUGATED3)))
    path = tmp_path / "enumeration.json"
    path.write_text(json.dumps([g.render() for g in enumeration]))
    code = main(["realize", "--ordering", str(ordering), "--enumeration", str(path),
                 "--act", "s1 s2^-1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    expected = _realize_by_insertion(CONJUGATED3, enumeration)
    assert payload["values"] == [format_rational(v) for v in expected]
    assert payload["action_check"]["passed"] is True
    hidden = _hide_duplicates(rng, enumeration, 2)
    path.write_text(json.dumps([g.render() for g in hidden]))
    code = main(["realize", "--ordering", str(ordering), "--enumeration", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert (UnsupportedInput, payload["detail"]) == \
        _outcome(_realize_by_insertion, CONJUGATED3, hidden)


# -- work counts -------------------------------------------------------------


def test_realize_probes_at_most_five_signs_per_ball_element(monkeypatch):
    # Each sign probe is at most one kernel pass, and so is each suffix key it caches.
    ball = ball_enumeration(DEHORNOY4, 4)
    acted, _ = count_kernel_letters_and_words(monkeypatch)
    realize(DEHORNOY4, ball)
    assert 0 < len(acted) <= 5 * len(ball)


def _count_probes(monkeypatch):
    """The sign probes of every sort, one per call of a ``quotient_sign`` reader."""
    probes = []
    quotient_sign = ordo_dynamics.quotient_sign

    def counting(cone, g):
        sign = quotient_sign(cone, g)
        return lambda m: probes.append(m) or sign(m)

    monkeypatch.setattr(ordo_dynamics, "quotient_sign", counting)
    return probes


@pytest.mark.parametrize("cone,radius,most_probes,most_letters", [
    (DEHORNOY3, 5, 235, 1230), (DEHORNOY4, 4, 700, 2985),
], ids=["B3", "B4"])
def test_realize_sort_probes_and_letters(monkeypatch, cone, radius, most_probes, most_letters):
    # 214 and 650 probes, 1119 and 2717 letters, bounded with at most 10% slack.
    # Each station is bracketed by its first-letter class, read from where its
    # tail sits, before it gallops from its parent: the forest sort alone took
    # 823 and 1784 probes, 3465 and 6274 letters.  Each s_(n-1)-child is placed
    # beside its parent unprobed: 927 and 1946 probes before that.  A probe acts
    # only the letters after the prefix the station shares with g, on a cached
    # suffix key: acting all of the station's letters on key(g^-1) took 4984
    # and 8533 letters.
    ball = ball_enumeration(cone, radius)
    probes = _count_probes(monkeypatch)
    acted, _ = count_kernel_letters_and_words(monkeypatch)
    realize(cone, ball)
    assert 0 < len(probes) <= most_probes
    assert 0 < sum(acted) <= most_letters


# -- the station sort against the forest sort it replaced --------------------


SORT_BALLS = [(2, 8), (3, 6), (4, 5), (5, 4), (6, 3)]


def _conjugated_cones(strands, rng):
    """The Dehornoy cone of B_n and three cones conjugated by random nontrivial braids."""
    plain = DehornoyOrdering.create(strands)
    conjugators = []
    while len(conjugators) < 3:
        if (c := random_element(plain.group, rng, 4)).letters:
            conjugators.append(c)
    return [plain, *(act(plain, c) for c in conjugators)]


def _assert_sorts_agree(cone, elements):
    order = ordo_dynamics._sort_stations(cone, elements, *ordo_dynamics._station_forest(elements))
    assert order == forest_sort(cone, elements, preorder_forest(elements))
    return order


def _other_words(rng, elements, share):
    """The elements with about `share` of them, never the first, written as another
    word for the same braid: its first word, and so its tail for its children, is absent."""
    out = list(elements)
    for i in range(1, len(out)):
        if rng.random() < share:  # g times a word for 1 that is not freely trivial
            g = out[i]
            out[i] = BraidWord.from_letters(g.group, (g * _identity_word(rng, g.group)).letters)
    return out


@pytest.mark.parametrize("strands,radius", SORT_BALLS, ids=[f"B{n}_r{r}" for n, r in SORT_BALLS])
def test_station_sort_matches_the_forest_sort(strands, radius):
    rng = random.Random(100 * strands + radius)
    ball = braid_ball(GroupRef.braid(strands), radius)
    for cone in _conjugated_cones(strands, rng):
        _assert_sorts_agree(cone, ball)
        rest = ball[1:]
        rng.shuffle(rest)
        _assert_sorts_agree(cone, [ball[0], *rest])
        _assert_sorts_agree(cone, [ball[0], *rng.sample(ball[1:], 2 * (len(ball) - 1) // 3)])
        if strands > 2:  # a braid of B2 has one freely reduced word
            others = _other_words(rng, ball, 0.2)
            assert sum(a.letters != b.letters for a, b in zip(ball, others)) > len(ball) // 10
            _assert_sorts_agree(cone, others)
            rng.shuffle(others)
            _assert_sorts_agree(cone, others)


def test_station_sort_matches_the_forest_sort_off_the_ball():
    rng = random.Random(3434)
    cones = [*_conjugated_cones(3, rng), *_conjugated_cones(4, rng), SIGNED3, SIGNED4]
    for case in range(60):
        cone = cones[case % len(cones)]
        _assert_sorts_agree(cone, _scattered_enumeration(cone, rng, rng.randint(2, 120), 6))
    for cone in (LEX2, SQRT2_FLAG, FLAG3):  # lattice stations are roots, bisected
        ball = ball_enumeration(cone, 2)
        _assert_sorts_agree(cone, [ball[0], *rng.sample(ball[1:], len(ball) - 1)])


@pytest.mark.parametrize("strands,radius", [(3, 4), (4, 3)], ids=["B3_r4", "B4_r3"])
def test_circle_stratum_sort_matches_the_forest_sort(strands, radius):
    rng = random.Random(strands)
    x = full_twist(strands)
    for cone in _conjugated_cones(strands, rng):
        ball = ball_enumeration(cone, radius)
        ctx = AnchorContext(cone, x)
        first = {cone.group.identity().key: cone.group.identity()}
        for h in ball:
            s = ordo_dynamics._split(ctx, h)[1]
            first.setdefault(s.key, s)
        remainders = list(first.values())
        order = _assert_sorts_agree(cone, remainders)
        assert circle_action_for_samples(cone, x, ball).stratum == \
            tuple(remainders[i] for i in order)


def test_realize_refuses_an_enumeration_past_the_letter_limit(monkeypatch):
    ball = ball_enumeration(DEHORNOY3, 3)
    letters = sum(len(g.letters) for g in ball)
    monkeypatch.setattr(ordo_dynamics, "MAX_BALL_LETTERS", letters)
    realize(DEHORNOY3, ball)  # the limit itself is kept
    # One letter past the limit is refused before any element is keyed or signed.
    for enumeration in ([*ball, el("s1", B3)], [el("s2", B3), *ball]):
        with pytest.raises(UnsupportedInput) as caught:
            realize(DEHORNOY3, enumeration)
        assert str(caught.value) == (
            f"an enumeration holding more than {letters} letters is past the limit "
            f"(MAX_BALL_LETTERS): {letters + 1} letters by position {len(ball)}")


LEAST_CONES = [DehornoyOrdering.create(2), DEHORNOY3, DEHORNOY4, DEHORNOY5, CONJUGATED3,
               CONJUGATED4, act(DEHORNOY3, el("s1", B3)), act(DEHORNOY4, el("s2^-1", B4)),
               act(DEHORNOY5, el("s3", GroupRef.braid(5)))]


@pytest.mark.parametrize("cone", LEAST_CONES, ids=[
    "B2", "B3", "B4", "B5", "conjugated_B3", "conjugated_B4", "by_s1_B3", "by_s2^-1_B4",
    "by_s3_B5"])
def test_realized_tables_put_p_times_the_least_positive_right_after_p(cone):
    n = cone.group.n
    c = cone.conjugator
    least = c.inverse() * el(f"s{n - 1}", cone.group) * c
    assert least.key == cone.least_key
    ball = ball_enumeration(cone, {2: 30, 3: 5, 4: 4, 5: 3}[n])
    table = realize(cone, ball)
    _, rank_of, _ = table._ranked
    pairs = 0
    for p in ball:
        after = rank_of.get(p.key_times(least))
        if after is not None:
            assert after == rank_of[p.key] + 1, p.render()
            pairs += 1
    assert pairs >= 20


def test_realize_refuses_an_enumeration_past_the_ball_limit(monkeypatch):
    ball = ball_enumeration(DEHORNOY3, 3)
    assert len(ball) > 21
    values = realize(DEHORNOY3, ball).values
    monkeypatch.setattr(ordo_dynamics, "MAX_BALL_ELEMENTS", 20)
    assert realize(DEHORNOY3, ball[:20]).values == values[:20]  # the limit itself is kept
    # One past the limit is refused before the identity, duplicates or groups are read.
    for enumeration in (ball[:21], ball[1:22], [ball[1]] * 21, [el("x1")] * 21):
        with pytest.raises(UnsupportedInput) as caught:
            realize(DEHORNOY3, enumeration)
        assert str(caught.value) == ("an enumeration of 21 elements is past the limit of "
                                     "20 elements (MAX_BALL_ELEMENTS)")


@pytest.mark.parametrize("cone,x", [(DEHORNOY3, full_twist(3)), (DEHORNOY4, full_twist(4)),
                                    (LEX2, el("x1"))], ids=["B3", "B4", "lex2"])
def test_euler_survey_floors_each_element_once(monkeypatch, cone, x):
    floored = []
    monkeypatch.setattr("ordo.dynamics.power_floor",
                        lambda ctx, h: floored.append(h.key) or power_floor(ctx, h))
    survey = euler_cocycle_survey(cone, x, count=30, seed=8, radius=3)
    assert survey.all_passed
    assert floored and len(floored) == len(set(floored))


@pytest.mark.parametrize("x", ["s1", "s2", "s1 s2^-1"])
def test_euler_survey_checks_its_anchor_before_any_floor(monkeypatch, x):
    floored = []
    monkeypatch.setattr("ordo.dynamics.power_floor",
                        lambda ctx, h: floored.append(h) or power_floor(ctx, h))
    with pytest.raises(UnsupportedInput) as caught:
        euler_cocycle_survey(DEHORNOY3, el(x, B3), count=30, seed=0, radius=3)
    assert str(caught.value) == \
        f"anchor {x!r} is not central; the circle quotient needs a central anchor"
    assert floored == []


@pytest.mark.parametrize("strands,conjugated,letters", [
    (3, False, 618), (3, True, 828), (4, False, 636), (4, True, 1620),
])
def test_lone_power_floor_acts_no_extra_letters(monkeypatch, strands, conjugated, letters):
    # A lone floor query acts the anchor powers' letters and h's letters once
    # per probe, and nothing more: no memo of floors sits inside power_floor.
    group = GroupRef.braid(strands)
    rng = random.Random(200 + strands)
    word: tuple = ()
    while len(word) < 200:
        word = BraidWord.from_letters(
            group, word + ((rng.randint(1, strands - 1), rng.choice((1, -1))),)).letters
    h = BraidWord(group, word)
    if conjugated:
        a = el("s1 s2^-1", group)
        h = a * full_twist(strands) ** 12 * a.inverse()
    acted = []
    dynnikov_act = ordo_groups.dynnikov_act

    def counting(coords, moves):
        moves = tuple(moves)
        acted.append(len(moves))
        return dynnikov_act(coords, moves)

    for module in (ordo_groups, ordo_quasimorph, ordo_orderings):
        monkeypatch.setattr(module, "dynnikov_act", counting, raising=False)
    ctx = AnchorContext(DehornoyOrdering(group), full_twist(strands))
    power_floor(ctx, h)
    assert sum(acted) == letters


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
        tree = table._forest
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


@pytest.mark.parametrize("cone,enumeration", [
    (DEHORNOY3, 4), (DEHORNOY4, 4), (CONJUGATED3, 4), (LEX2, 3),
    (DEHORNOY3, ["", "s1 s2 s1", "s2^-3", "s1^-1 s2 s1^2", "s2", "s2 s1^-1", "s1^2 s2^-1 s1",
                 "s1^-1", "s2^-3 s1"]),
], ids=["B3", "B4", "conjugated_B3", "lex2", "scattered_file"])
def test_realized_ranks_equal_the_ranks_of_a_hand_built_table(cone, enumeration):
    # realize hands its table the ranks its sort found; a table built from the
    # same elements and values ranks them from the values.
    if isinstance(enumeration, int):
        enumeration = ball_enumeration(cone, enumeration)
    else:
        enumeration = [parse_element(text, cone.group) for text in enumeration]
    table = realize(cone, enumeration)
    assert "_ranked" in table.__dict__
    distinct, rank_of, stations = table._ranked
    rebuilt = RealizationTable(cone, table.elements, table.values)._ranked
    assert (distinct, rank_of, stations) == rebuilt
    assert [type(t) for t in distinct] == [Fraction] * len(table.elements)
    assert partial_action_check(table, enumeration[2]) == \
        partial_action_check(RealizationTable(cone, table.elements, table.values), enumeration[2])


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


def test_memoized_floors_reject_foreign_elements():
    action = circle_action_from_ball(DEHORNOY3, full_twist(3), 2)
    s1 = el("s1", B3)
    assert action.floor(s1) == 0 and action.remainder(s1) == s1
    # A Z^6 vector spelling the key of s1 must not be read from the memo.
    for foreign in (LatticeElement(GroupRef.free_abelian(6), s1.key), el("s1", B4)):
        for call in (action.floor, action.remainder, action.t_prime):
            with pytest.raises(GroupMismatch):
                call(foreign)


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


# -- the circle stratum against the insertion it replaced -------------------


def _stratum_by_insertion(ctx, elements):
    """The stratum and theta as built before the forest sort: each new
    remainder is binary-searched into the cone-sorted remainders before it."""
    cone = ctx.cone
    stratum = [cone.group.identity()]
    present = {stratum[0].key}
    for h in elements:
        s = ordo_dynamics._split(ctx, h)[1]
        if s.key in present:
            continue
        i, _ = locate(cone, stratum, s)
        if i == 0:
            raise InvariantViolation(
                f"remainder {s.render()!r} of {h.render()!r} sorts below the identity")
        stratum.insert(i, s)
        present.add(s.key)
    return tuple(stratum), tuple(Fraction(i, len(stratum)) for i in range(len(stratum)))


@pytest.mark.parametrize("cone,x,radius", [
    (DEHORNOY3, full_twist(3), 4), (DEHORNOY3, full_twist(3).inverse(), 3),
    (DEHORNOY4, full_twist(4), 3), (DEHORNOY5, full_twist(5), 2),
    (CONJUGATED3, full_twist(3), 3), (CONJUGATED4, full_twist(4), 2),
    (LEX2, el("x1"), 2), (LEX2, el("x1^2 x2"), 2),
], ids=["B3", "B3_inverse_twist", "B4", "B5", "conjugated_B3", "conjugated_B4", "lex2",
        "lex2_x1^2x2"])
def test_circle_stratum_matches_insertion_on_balls(cone, x, radius):
    action = circle_action_from_ball(cone, x, radius)
    assert (action.stratum, action.theta_values) == \
        _stratum_by_insertion(AnchorContext(cone, x), action.stored)


@pytest.mark.parametrize("cone,x", [(DEHORNOY3, full_twist(3)), (DEHORNOY4, full_twist(4))],
                         ids=["B3", "B4"])
def test_euler_survey_stratum_matches_insertion(monkeypatch, cone, x):
    built = []
    sample_circle = ordo_dynamics._sample_circle
    monkeypatch.setattr(ordo_dynamics, "_sample_circle",
                        lambda *args: built.append(sample_circle(*args)) or built[-1])
    assert euler_cocycle_survey(cone, x, count=30, seed=5, radius=3).all_passed
    (action,) = built
    assert (action.stratum, action.theta_values) == \
        _stratum_by_insertion(AnchorContext(cone, x), action.stored)


@pytest.mark.parametrize("cone,x,radius", [
    (DEHORNOY3, full_twist(3), 3), (CONJUGATED3, full_twist(3), 3), (LEX2, el("x1"), 2),
], ids=["B3", "conjugated_B3", "lex2"])
def test_remainder_below_the_identity_names_the_earliest_sample(monkeypatch, cone, x, radius):
    ball = ball_enumeration(cone, radius)
    for bumped in ([ball[7]], [ball[-1], ball[12]], ball[20:5:-3]):
        keys = {h.key for h in bumped}
        monkeypatch.setattr("ordo.dynamics.power_floor",
                            lambda ctx, h: power_floor(ctx, h) + (h.key in keys))
        with pytest.raises(InvariantViolation) as got:
            circle_action_for_samples(cone, x, ball)
        with pytest.raises(InvariantViolation) as want:
            _stratum_by_insertion(AnchorContext(cone, x), ball)
        earliest = min(bumped, key=ball.index)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f" of {earliest.render()!r} sorts below the identity")


@pytest.mark.parametrize("cone,x,radius", [
    (DEHORNOY3, full_twist(3), 4), (DEHORNOY4, full_twist(4), 3),
], ids=["B3_r4", "B4_r3"])
def test_circle_stratum_sort_probes_fewer_than_insertion(monkeypatch, cone, x, radius):
    ball = ball_enumeration(cone, radius)
    ctx = AnchorContext(cone, x)
    for h in ball:  # the floors first, so that only the sorts are counted
        ordo_dynamics._split(ctx, h)
    acted, _ = count_kernel_letters_and_words(monkeypatch)
    ordo_dynamics._sample_circle(ctx, ball)
    walked = len(acted)
    acted.clear()
    _stratum_by_insertion(ctx, ball)
    # Remainders share their anchor power's letters, so most gallop from a
    # parent or sit in a first-letter class bracket, and a probe acts only the
    # letters after the prefix it shares: about half of insertion's kernel
    # passes (192 of 561 on B3, 431 of 876 on B4; the prefix-forest walk took
    # 232 and 447), where bisecting every remainder as a root takes nearly all.
    assert 0 < 5 * walked <= 3 * len(acted)


def test_circle_action_anchor_station():
    action = circle_action_from_ball(LEX2, el("x1"), 2)
    assert action.t_prime(el("x1")) == 1
    assert action.t_prime(Z2.identity()) == 0


def test_circle_action_requires_central_anchor():
    with pytest.raises(UnsupportedInput):
        circle_action_from_ball(DEHORNOY3, el("s1", B3), 2)


def test_circle_action_requires_cofinal_anchor():
    # The sampled action and the Euler survey refuse a bad anchor alike.
    for x, error in ((el("x2"), NotCofinal), (Z2.identity(), AnchorIsIdentity)):
        with pytest.raises(error) as sampled:
            circle_action_from_ball(LEX2, x, 2)
        with pytest.raises(error) as surveyed:
            euler_cocycle_survey(LEX2, x, count=3, seed=0)
        assert str(sampled.value) == str(surveyed.value)


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


@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_euler_survey_matches_the_per_pair_check(monkeypatch, n, conjugated):
    # The survey reports on the products f*g and f*r(g) it sampled; the
    # per-pair euler_identity_check builds them again from (f, g).  On the
    # survey's own action both give the same report for every pair drawn.
    group = GroupRef.braid(n)
    cone = DehornoyOrdering.create(n)
    if conjugated:
        cone = act(cone, parse_element("s1 s2^-1", group))
    actions, reports = [], []
    sample_circle, euler_report = ordo_dynamics._sample_circle, ordo_dynamics._euler_report
    monkeypatch.setattr(ordo_dynamics, "_sample_circle",
                        lambda *args: actions.append(sample_circle(*args)) or actions[-1])
    monkeypatch.setattr(ordo_dynamics, "_euler_report",
                        lambda *args: reports.append(euler_report(*args)) or reports[-1])
    for seed in range(25):
        survey = euler_cocycle_survey(cone, full_twist(n), count=10, seed=seed, radius=3)
        surveyed, action = reports[:], actions.pop()
        rng = random.Random(seed)
        pairs = [(random_element(group, rng, 3), random_element(group, rng, 3))
                 for _ in range(10)]
        assert [euler_identity_check(action, f, g) for f, g in pairs] == surveyed
        failures = tuple(f"f={f.render()!r} g={g.render()!r}: euler {r.euler_cocycle}, "
                         f"coboundary {r.coboundary}"
                         for (f, g), r in zip(pairs, surveyed) if not r.passed)
        assert survey == EulerSurvey(10, sum(r.passed for r in surveyed), failures)
        reports.clear()


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
    verdict = dynamically_equivalent(DEHORNOY3, moved, full_twist(3), mode="semi-dynamical")
    assert verdict.outcome == "Equivalent"
    assert verdict.left_class.to_json() == {"components": [{"exact": {}}], "basis": ["s1"]}
    assert verdict.right_class == verdict.left_class


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
