"""Element grammar, group laws, and braid constants."""

import random
import time
from fractions import Fraction

import pytest

import ordo.groups as ordo_groups
from ordo.errors import GroupMismatch, OrdoError, ParseError, UnsupportedInput
from ordo.exactreal import RealConstant, squarefree_split
from ordo.groups import (
    MAX_BALL_ELEMENTS,
    MAX_BALL_LETTERS,
    MAX_BRAID_LETTERS,
    MAX_SAMPLE_LETTERS,
    MAX_SAMPLES,
    BraidWord,
    GroupRef,
    LatticeElement,
    braid_ball,
    check_ball_size,
    check_sample_count,
    coordinate_ball,
    dynnikov_act,
    full_twist,
    half_twist,
    parse_element,
    random_element,
    twist_key,
)
from ordo.cohmaps import rotation_class, translation_values
from ordo.dynamics import (circle_action_from_ball, dynamically_equivalent, partial_action_check,
                           realize)
from ordo.orderings import (Cone, DehornoyOrdering, FlagOrdering, act, compare, is_cofinal,
                            is_right_invariant, ordering_from_json)
from ordo.quasimorph import AnchorContext, power_floor, stable_exact

from oracles import braid_words_up_to, brute_convex_cyclic_braid, first_words, locate

Z1 = GroupRef.free_abelian(1)
Z2 = GroupRef.free_abelian(2)
B3 = GroupRef.braid(3)


def test_parse_abelian():
    assert parse_element("x1^2 x2^-1", Z2) == LatticeElement(Z2, (2, -1))
    assert parse_element("", Z2) == Z2.identity()
    assert parse_element("x1 x1 x2^0", Z2) == LatticeElement(Z2, (2, 0))


def test_parse_braid_free_reduction():
    assert parse_element("s1 s1^-1 s2", B3) == BraidWord(B3, ((2, 1),))
    assert parse_element("s1^3", B3).letters == ((1, 1), (1, 1), (1, 1))
    assert parse_element("", B3) == B3.identity()


def test_parse_braid_letter_limit():
    half = MAX_BRAID_LETTERS // 2
    word = parse_element(f"s1^{half} s2^-{MAX_BRAID_LETTERS - half}", B3)
    assert len(word.letters) == MAX_BRAID_LETTERS
    # The limit counts literal letters, before free reduction.
    for text in (f"s1^{MAX_BRAID_LETTERS + 1}", f"s1^{half + 1} s1^-{half}"):
        with pytest.raises(UnsupportedInput):
            parse_element(text, B3)
    assert parse_element(f"x1^{10 * MAX_BRAID_LETTERS}", Z2).coords == (10 * MAX_BRAID_LETTERS, 0)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_element("x3", Z2)
    with pytest.raises(ParseError):
        parse_element("s1", Z2)
    with pytest.raises(ParseError):
        parse_element("s2", GroupRef.braid(2))
    with pytest.raises(ParseError):
        parse_element("x1^1.5", Z2)
    with pytest.raises(ParseError):
        parse_element("y1", Z2)


def test_power_abelian():
    assert parse_element("x1 x2^-2", Z2) ** 3 == LatticeElement(Z2, (3, -6))


def test_braid_multiply_inverse():
    s1 = parse_element("s1", B3)
    s2 = parse_element("s2", B3)
    assert s1 * s1.inverse() == B3.identity()
    assert (s1 * s2).inverse() == parse_element("s2^-1 s1^-1", B3)


def test_braid_words_are_validated_once():
    # Public construction still checks range, exponents and free reduction.
    with pytest.raises(ParseError):
        BraidWord(B3, ((1, 1), (1, -1)))
    with pytest.raises(ParseError):
        BraidWord(B3, ((3, 1),))
    with pytest.raises(ParseError):
        BraidWord.from_letters(B3, [(1, 1), (3, -1)])
    with pytest.raises(ParseError):
        BraidWord.from_letters(B3, [(1, 2)])
    # Products, inverses and powers skip the re-check; their words are the
    # ones the checked constructor accepts.
    rng = random.Random(4)
    for _ in range(200):
        a = random_element(B3, rng, 6)
        b = random_element(B3, rng, 6)
        for w in (a * b, a.inverse(), a ** rng.randint(-3, 3), b ** 2):
            assert BraidWord(B3, w.letters) == w


@pytest.mark.parametrize("strands", [3, 4, 5])
def test_braid_key_times_is_the_key_of_the_product(strands):
    group = GroupRef.braid(strands)
    rng = random.Random(strands)
    for _ in range(400):
        a = random_element(group, rng, 30)
        b = random_element(group, rng, 30)
        assert a.key_times(b) == (a * b).key
        # Free cancellation between the two words does not change the key.
        assert b.inverse().key_times(b) == group.identity().key
        assert a.key_times(a.inverse() * b) == b.key


def test_lattice_key_times_is_the_key_of_the_product():
    rng = random.Random(11)
    for _ in range(400):
        group = GroupRef.free_abelian(rng.randint(1, 4))
        a = random_element(group, rng, 50)
        b = random_element(group, rng, 50)
        assert a.key_times(b) == (a * b).key


def test_key_times_rejects_mixed_groups():
    pairs = [(parse_element("s1", B3), parse_element("s1", GroupRef.braid(4))),
             (parse_element("x1", Z2), parse_element("x1", GroupRef.free_abelian(3))),
             (parse_element("s1", B3), LatticeElement(GroupRef.free_abelian(6), (0,) * 6))]
    for a, b in pairs:
        for left, right in ((a, b), (b, a)):
            with pytest.raises(GroupMismatch):
                left.key_times(right)


def test_mixed_groups_rejected():
    with pytest.raises(GroupMismatch):
        parse_element("x1", Z2) * parse_element("x1", GroupRef.free_abelian(3))


def test_group_refs_are_interned():
    assert GroupRef.braid(3) is GroupRef.braid(3) is B3
    assert GroupRef.free_abelian(2) is GroupRef.free_abelian(2) is Z2
    assert GroupRef.free_abelian(3) is not GroupRef.braid(3)
    assert GroupRef.from_json({"kind": "braid", "strands": 3}) is B3
    assert GroupRef.from_json({"kind": "free_abelian", "rank": 2}) is Z2
    assert GroupRef.from_json(B3.to_json()) is B3
    assert ordering_from_json({"group": {"kind": "braid", "strands": 5},
                               "ordering": {"type": "dehornoy"}}).group is GroupRef.braid(5)
    assert DehornoyOrdering.create(4).group is GroupRef.braid(4)
    assert FlagOrdering.lex(3).group is GroupRef.free_abelian(3)
    assert parse_element("s1", B3).group is B3


@pytest.mark.parametrize("call,error,message", [
    (lambda: GroupRef.braid(1), ParseError, "braid strand count must be >= 2, got 1"),
    (lambda: GroupRef.braid(-3), ParseError, "braid strand count must be >= 2, got -3"),
    (lambda: GroupRef.free_abelian(0), ParseError, "free abelian rank must be >= 1, got 0"),
    (lambda: GroupRef.braid(65), UnsupportedInput,
     "braid strand count 65 is past the limit of 64 (MAX_GROUP_N)"),
    (lambda: GroupRef.free_abelian(10 ** 5000), UnsupportedInput,
     "free abelian rank <integer of 5001 digits> is past the limit of 64 (MAX_GROUP_N)"),
    (lambda: GroupRef("cyclic", 3), ParseError, "unknown group kind: 'cyclic'"),
    (lambda: GroupRef.from_json({"kind": "cyclic", "n": 3}), ParseError,
     "unknown group kind: 'cyclic'"),
    (lambda: GroupRef.from_json({"kind": "braid", "strands": True}), ParseError,
     "group field 'strands' must be an integer, got bool"),
    (lambda: GroupRef.from_json({"kind": "braid"}), ParseError,
     "braid strand count must be >= 2, got 0"),
])
def test_invalid_group_refs_raise_as_before(call, error, message):
    for _ in range(2):  # a refused group is not remembered
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message


def test_group_refs_of_other_number_types_are_built_as_before():
    flag = GroupRef.free_abelian(True)
    assert flag.n is True and flag == Z1 and hash(flag) == hash(Z1)
    assert flag is not GroupRef.free_abelian(True)
    assert type(GroupRef.free_abelian(1).n) is int
    assert GroupRef.free_abelian(1) is Z1
    assert LatticeElement(flag, (2,)) * LatticeElement(Z1, (3,)) == LatticeElement(Z1, (5,))
    twin = GroupRef("braid", 3)
    assert twin == B3 and twin is not B3
    assert parse_element("s1", twin) * parse_element("s2", B3) == parse_element("s1 s2", B3)


@pytest.mark.parametrize("build,detail", [
    (lambda: GroupRef.free_abelian("2"), "free abelian rank must be an int, got str"),
    (lambda: GroupRef.free_abelian(2.0), "free abelian rank must be an int, got float"),
    (lambda: GroupRef.braid(3.0), "braid strand count must be an int, got float"),
    (lambda: GroupRef.braid(Fraction(3)), "braid strand count must be an int, got Fraction"),
    (lambda: GroupRef("braid", None), "braid strand count must be an int, got NoneType"),
], ids=["rank-str", "rank-float", "strands-float", "strands-fraction", "strands-none"])
def test_group_refs_refuse_sizes_that_are_not_ints(build, detail):
    # "2" raised a raw TypeError; 2.0 and 3.0 built groups whose identity()
    # raised one.  Bools are ints and stay accepted.
    with pytest.raises(ParseError) as caught:
        build()
    assert str(caught.value) == detail


def _message(call):
    with pytest.raises(GroupMismatch) as caught:
        call()
    return str(caught.value)


B3_TEXT = "GroupRef(kind='braid', n=3)"
B4_TEXT = "GroupRef(kind='braid', n=4)"
Z2_TEXT = "GroupRef(kind='free_abelian', n=2)"
Z3_TEXT = "GroupRef(kind='free_abelian', n=3)"
QUERIED_B4_ON_B3 = f"element of {B4_TEXT} queried against cone over {B3_TEXT}"
QUERIED_Z3_ON_Z2 = f"element of {Z3_TEXT} queried against cone over {Z2_TEXT}"
QUERIED_B3_ON_Z2 = f"element of {B3_TEXT} queried against cone over {Z2_TEXT}"
QUERIED_Z2_ON_B3 = f"element of {Z2_TEXT} queried against cone over {B3_TEXT}"
COMBINED_Z3_Z2 = f"elements of {Z3_TEXT} and {Z2_TEXT} cannot be combined"
ANCHOR_B4_ON_B3 = f"anchor of {B4_TEXT} queried against cone over {B3_TEXT}"
ANCHOR_Z3_ON_Z2 = f"anchor of {Z3_TEXT} queried against cone over {Z2_TEXT}"
CONJUGATOR_B4_ON_B3 = f"conjugator of {B4_TEXT} queried against cone over {B3_TEXT}"
GENERATOR_Z3_ON_Z2 = f"generator of {Z3_TEXT} queried against cone over {Z2_TEXT}"
COMBINED_Z2_Z3 = f"elements of {Z2_TEXT} and {Z3_TEXT} cannot be combined"


class _ProductFree(Cone):
    """A cone with a sign and no sign_product of its own."""

    def __init__(self, base):
        self.group, self.sign = base.group, base.sign


def test_mixed_group_calls_name_the_foreign_operand():
    # Every cone call names its first foreign operand; only a product of two
    # elements says that they cannot be combined.
    dehornoy, conjugated, lex = (DehornoyOrdering.create(3),
                                 act(DehornoyOrdering.create(3), parse_element("s1", B3)),
                                 FlagOrdering.lex(2))
    plain = _ProductFree(dehornoy)
    s1, t1 = parse_element("s1 s2", B3), parse_element("s1 s3", GroupRef.braid(4))
    x1, y1 = parse_element("x1", Z2), parse_element("x1 x3", GroupRef.free_abelian(3))
    ball = [B3.identity(), parse_element("s1", B3), parse_element("s2^-1", B3)]
    lattice = [Z2.identity(), x1, parse_element("x2", Z2)]
    table = realize(dehornoy, ball)
    b2, z4 = GroupRef.braid(2), GroupRef.free_abelian(4)
    action = circle_action_from_ball(DehornoyOrdering(b2), full_twist(2), 2)
    # A lattice element whose coordinates are the key of a memoized B2 split.
    lookalike = LatticeElement(z4, action.stored[1].key)
    cases = [
        (lambda: dehornoy.sign_product(t1, s1), QUERIED_B4_ON_B3),
        (lambda: dehornoy.sign_product(s1, t1), QUERIED_B4_ON_B3),
        (lambda: dehornoy.sign_product(t1, t1), QUERIED_B4_ON_B3),
        (lambda: dehornoy.sign(parse_element("s3^-1", GroupRef.braid(4))), QUERIED_B4_ON_B3),
        (lambda: lex.sign(parse_element("x3", GroupRef.free_abelian(3))), QUERIED_Z3_ON_Z2),
        (lambda: lex.sign(s1), QUERIED_B3_ON_Z2),
        (lambda: conjugated.sign(t1), QUERIED_B4_ON_B3),
        (lambda: conjugated.sign_product(s1, t1), QUERIED_B4_ON_B3),
        (lambda: conjugated.sign_product(t1, x1), QUERIED_B4_ON_B3),
        (lambda: plain.sign_product(s1, t1), QUERIED_B4_ON_B3),
        (lambda: plain.sign_product(x1, t1), QUERIED_Z2_ON_B3),
        (lambda: lex.sign_product(y1, x1), QUERIED_Z3_ON_Z2),
        (lambda: lex.sign_product(x1, y1), QUERIED_Z3_ON_Z2),
        (lambda: lex.sign_product(y1, y1), QUERIED_Z3_ON_Z2),
        (lambda: lex.sign_product(s1, s1), QUERIED_B3_ON_Z2),
        (lambda: x1 * y1, COMBINED_Z2_Z3),
        (lambda: y1 * x1, COMBINED_Z3_Z2),
        (lambda: compare(dehornoy, s1, t1), QUERIED_B4_ON_B3),
        (lambda: compare(dehornoy, t1, s1), QUERIED_B4_ON_B3),
        (lambda: compare(conjugated, t1, s1), QUERIED_B4_ON_B3),
        (lambda: compare(plain, s1, t1), QUERIED_B4_ON_B3),
        (lambda: compare(lex, x1, y1), QUERIED_Z3_ON_Z2),
        (lambda: compare(lex, x1, s1), QUERIED_B3_ON_Z2),
        (lambda: locate(dehornoy, ball, t1), QUERIED_B4_ON_B3),
        (lambda: locate(conjugated, ball, t1), QUERIED_B4_ON_B3),
        (lambda: locate(lex, lattice, y1), QUERIED_Z3_ON_Z2),
        (lambda: realize(dehornoy, [t1, *ball]), QUERIED_B4_ON_B3),
        (lambda: realize(dehornoy, [*ball, t1]), QUERIED_B4_ON_B3),
        (lambda: realize(conjugated, [*ball, t1]), QUERIED_B4_ON_B3),
        (lambda: realize(lex, [*lattice, y1]), QUERIED_Z3_ON_Z2),
        (lambda: partial_action_check(table, t1), QUERIED_B4_ON_B3),
        (lambda: partial_action_check(realize(lex, lattice), y1), QUERIED_Z3_ON_Z2),
        (lambda: action.floor(lookalike), f"element of {z4} queried against cone over {b2}"),
        (lambda: power_floor(AnchorContext(dehornoy, full_twist(3)), t1), QUERIED_B4_ON_B3),
        (lambda: power_floor(AnchorContext(lex, x1), y1), QUERIED_Z3_ON_Z2),
        # The role checks: anchors, conjugators, generators and subgroup words.
        (lambda: AnchorContext(dehornoy, full_twist(4)), ANCHOR_B4_ON_B3),
        (lambda: AnchorContext(lex, x1, generators=(x1, y1)), GENERATOR_Z3_ON_Z2),
        (lambda: stable_exact(lex, y1, x1), ANCHOR_Z3_ON_Z2),
        (lambda: stable_exact(lex, x1, y1), QUERIED_Z3_ON_Z2),
        (lambda: DehornoyOrdering(B3, t1), CONJUGATOR_B4_ON_B3),
        (lambda: act(dehornoy, t1), CONJUGATOR_B4_ON_B3),
        (lambda: is_cofinal(dehornoy, t1), ANCHOR_B4_ON_B3),
        (lambda: is_cofinal(lex, x1, [y1]), GENERATOR_Z3_ON_Z2),
        (lambda: is_right_invariant(dehornoy, t1), ANCHOR_B4_ON_B3),
        (lambda: brute_convex_cyclic_braid(dehornoy, t1, 2),
         f"subgroup word of {B4_TEXT} queried against cone over {B3_TEXT}"),
    ]
    assert [_message(call) for call, _ in cases] == [message for _, message in cases]


def test_sample_letters_limit_bounds_samples_times_radius_on_braids():
    assert MAX_SAMPLE_LETTERS == 250_000
    for group in (B3, GroupRef.braid(64)):
        check_sample_count(2500, group, 100)
        check_sample_count(MAX_SAMPLES, group, 25)
        for count, radius in ((2501, 100), (3, 100_000), (MAX_SAMPLES, 26)):
            with pytest.raises(UnsupportedInput) as caught:
                check_sample_count(count, group, radius)
            assert str(caught.value) == (f"{count} samples of radius {radius} are past the "
                                         "limit of 250000 letters (MAX_SAMPLE_LETTERS)")
    # No draws draw no letters; lattice draws are none; a radius past
    # MAX_BRAID_LETTERS is refused by random_element, which names that limit.
    check_sample_count(0, B3, 10 ** 9)
    check_sample_count(MAX_SAMPLES, Z2, 10 ** 9)
    check_sample_count(MAX_SAMPLES, B3, MAX_BRAID_LETTERS + 1)


@pytest.mark.parametrize("conjugated", [False, True], ids=["dehornoy", "conjugated"])
def test_a_foreign_anchor_is_named_an_anchor_by_the_invariants(conjugated):
    # The centrality test that these run first names the anchor's role too.
    cone = DehornoyOrdering.create(3)
    if conjugated:
        cone = act(cone, parse_element("s1", B3))
    s3 = parse_element("s3", GroupRef.braid(4))
    for call in (lambda: rotation_class(cone, s3), lambda: translation_values(cone, s3),
                 lambda: dynamically_equivalent(cone, cone, s3)):
        assert _message(call) == ANCHOR_B4_ON_B3


def test_role_checks_on_interned_groups_compare_no_groups(monkeypatch):
    # Each role check is one `is` test when the groups are interned.
    calls = []
    eq = GroupRef.__eq__
    monkeypatch.setattr(GroupRef, "__eq__", lambda a, b: calls.append(b) or eq(a, b))
    lex, dehornoy = FlagOrdering.lex(2), DehornoyOrdering.create(3)
    x1, s1 = parse_element("x1", Z2), parse_element("s1", B3)
    ctx = AnchorContext(lex, x1, generators=(x1, parse_element("x2", Z2)))
    power_floor(ctx, parse_element("x1^5 x2", Z2))
    stable_exact(lex, x1, parse_element("x1 x2", Z2))
    is_cofinal(lex, x1, [x1])
    is_right_invariant(dehornoy, full_twist(3))
    act(act(dehornoy, s1), s1)
    brute_convex_cyclic_braid(dehornoy, s1, 1)
    assert calls == []


def test_lattice_results_equal_validated_elements():
    rng = random.Random(31)
    for group in (Z1, Z2, GroupRef.free_abelian(5)):
        for _ in range(200):
            g, h = random_element(group, rng, 9), random_element(group, rng, 9)
            k = rng.randint(-7, 7)
            for built, coords in [(g * h, tuple(a + b for a, b in zip(g.coords, h.coords))),
                                  (g.inverse(), tuple(-a for a in g.coords)),
                                  (g ** k, tuple(k * a for a in g.coords))]:
                validated = LatticeElement(group, coords)
                assert type(built) is LatticeElement and built.group is group
                assert built.coords == coords and type(built.coords) is tuple
                assert built == validated and hash(built) == hash(validated)
    with pytest.raises(ParseError) as caught:
        LatticeElement(Z2, (1, 2, 3))
    assert str(caught.value) == "coordinate length 3 does not match rank 2"


def test_half_and_full_twist():
    assert full_twist(2) == parse_element("s1^2", GroupRef.braid(2))
    assert half_twist(3) == parse_element("s1 s2 s1", B3)
    assert full_twist(3) == parse_element("s1 s2 s1", B3) ** 2
    for n in range(2, 6):
        assert len(full_twist(n)) == n * (n - 1)


def test_twist_key_closed_form_matches_acted_letters():
    for n in range(2, 11):
        twist, base = full_twist(n), (0, 1) * n
        assert twist_key(n, 0) == base == GroupRef.braid(n).identity().key
        up = down = base
        for k in range(1, 201):
            up = dynnikov_act(up, twist.letters)
            down = dynnikov_act(down, twist.inverse().letters)
            assert twist_key(n, k) == up, (n, k)
            assert twist_key(n, -k) == down, (n, -k)


def test_render_parse_round_trip():
    rng = random.Random(5)
    for _ in range(10_000):
        group = rng.choice([Z2, GroupRef.free_abelian(3), B3, GroupRef.braid(4)])
        g = random_element(group, rng, 6)
        assert parse_element(g.render(), group) == g


def test_group_laws_sampled():
    rng = random.Random(9)
    for _ in range(10_000):
        group = rng.choice([Z2, B3])
        g = random_element(group, rng, 5)
        h = random_element(group, rng, 5)
        assert (g * h).inverse() == h.inverse() * g.inverse()
        assert g * g.inverse() == group.identity()


def test_coordinate_ball():
    ball = coordinate_ball(Z2, 1)
    assert len(ball) == 9
    assert ball[0] == Z2.identity()
    assert ball[0].coords == (0, 0)
    norms = [max(map(abs, b.coords)) for b in ball]
    assert norms == sorted(norms)


def test_braid_words_up_to():
    words = braid_words_up_to(B3, 2)
    assert words[0] == B3.identity()
    # 4 letters, then 4*3 reduced two-letter words.
    assert len(words) == 1 + 4 + 12
    assert all(w.letters == tuple(w.letters) for w in words)


@pytest.mark.parametrize("strands", [3, 4, 5])
def test_braid_words_up_to_keys_each_word_from_its_parent(strands):
    group = GroupRef.braid(strands)
    words = braid_words_up_to(group, 5)
    # Graded, then lexicographic, as a sort of every reduced word would give.
    assert [w.letters for w in words] == sorted((w.letters for w in words),
                                                key=lambda w: (len(w), w))
    assert len(words) == 1 + sum(2 * (strands - 1) * (2 * strands - 3) ** (k - 1)
                                 for k in range(1, 6))
    for w in words:
        assert w.key == dynnikov_act((0, 1) * strands, w.letters), w.render()


@pytest.mark.parametrize("strands,radius", [(2, 6), (3, 6), (4, 5), (5, 4), (6, 3)])
def test_braid_ball_is_the_word_list_deduplicated_on_key(strands, radius):
    group = GroupRef.braid(strands)
    for r in range(radius + 1):
        walked, oracle = braid_ball(group, r), first_words(group, r)
        assert [w.letters for w in walked] == [w.letters for w in oracle]
        assert [w.key for w in walked] == [w.key for w in oracle]
        for w in walked:
            assert w.key == dynnikov_act((0, 1) * strands, w.letters), w.render()


SUFFIX_BALLS = [(2, 8), (3, 6), (4, 5), (5, 4), (6, 3), (7, 3)]


@pytest.mark.parametrize("strands,radius", SUFFIX_BALLS, ids=[f"B{n}_r{r}" for n, r in SUFFIX_BALLS])
def test_braid_ball_words_are_suffix_closed(strands, radius):
    # Every suffix of a first word is a first word, so every ball station but
    # the identity finds its tail (its word minus the first letter) in the
    # ball, as the station sort of ``realize`` reads it; prefixes likewise.
    words = {w.letters for w in braid_ball(GroupRef.braid(strands), radius)}
    assert all(w[1:] in words and w[:-1] in words for w in words if w)


@pytest.mark.parametrize("strands,radius,steps", [(3, 5, 346), (4, 4, 656)])
def test_braid_ball_steps_once_per_kept_word_and_letter(monkeypatch, strands, radius, steps):
    # One one-letter step per pair of a word kept below the last level and a
    # letter that does not cancel its last; the word list takes one per word.
    acted = []

    def counting_act(coords, letters):
        acted.append(len(letters))
        return dynnikov_act(coords, letters)

    monkeypatch.setattr(ordo_groups, "dynnikov_act", counting_act)
    ball = braid_ball(GroupRef.braid(strands), radius)
    parents = [w for w in ball if len(w) < radius]
    assert set(acted) <= {0, 1}
    assert sum(acted) == sum(2 * (strands - 1) - bool(w.letters) for w in parents) == steps
    assert len(braid_words_up_to(GroupRef.braid(strands), radius)) - 1 > steps


@pytest.mark.parametrize("group", [GroupRef.free_abelian(1), Z2, GroupRef.free_abelian(3),
                                   GroupRef.braid(2), B3, GroupRef.braid(4)])
def test_ball_sizes_are_counted_before_enumerating(monkeypatch, group):
    # A negative radius is refused by both enumerations alike.
    enumerate_ball = coordinate_ball if group.is_abelian else braid_ball
    refusers = (check_ball_size, coordinate_ball) if group.is_abelian else (braid_ball,)
    for refuse in refusers:
        with pytest.raises(UnsupportedInput, match="ball radius -1 is negative"):
            refuse(group, -1)
    for radius in range(4):
        count = (2 * radius + 1) ** group.n if group.is_abelian else \
            len(first_words(group, radius))
        assert len(enumerate_ball(group, radius)) == count
    if group.is_abelian:
        # The largest radius under the limit passes; one more is refused
        # unbuilt, and so is an astronomically large one.
        radius = int(MAX_BALL_ELEMENTS ** (1 / group.n) - 1) // 2
        while (2 * radius + 3) ** group.n <= MAX_BALL_ELEMENTS:
            radius += 1
        check_ball_size(group, radius)
        too_big = (radius + 1, 10 ** 30)
    else:
        # s1^k for |k| <= r are 2r + 1 braids of the ball, so a radius whose
        # line of s1 powers passes the limit is refused before any braid is keyed.
        too_big = (MAX_BALL_ELEMENTS // 2, 10 ** 30)
        monkeypatch.setattr(ordo_groups, "dynnikov_act", None)
    for radius in too_big:
        for refuse in refusers:
            with pytest.raises(UnsupportedInput, match=f"{MAX_BALL_ELEMENTS} elements "
                                                       r"\(MAX_BALL_ELEMENTS\)$"):
                refuse(group, radius)


def test_ball_limit_is_above_every_ball_in_use():
    # B4 radius 4 (469 braids) is the largest ball of the benchmark; B7
    # radius 5 (20 351 braids, 193 261 words), walked by the density search
    # of ``ordo equiv --mode dynamical`` on B7, is the largest of the tests.
    assert len(braid_ball(GroupRef.braid(4), 4)) == 469
    assert len(braid_ball(GroupRef.braid(7), 5)) == 20_351 < MAX_BALL_ELEMENTS
    with pytest.raises(UnsupportedInput, match="MAX_BALL_ELEMENTS"):
        braid_ball(GroupRef.braid(4), 12)


def test_braid_ball_on_seven_strands_is_the_word_list_deduplicated_on_key():
    group = GroupRef.braid(7)
    walked, oracle = braid_ball(group, 5), first_words(group, 5)
    assert [w.letters for w in walked] == [w.letters for w in oracle]
    assert [w.key for w in walked] == [w.key for w in oracle]


@pytest.mark.parametrize("strands,radius", [(3, 40), (64, 3)])
def test_braid_ball_is_refused_once_it_keeps_more_than_the_limit(strands, radius):
    # Neither ball is refused up front; the walk stops at the first braid
    # past the limit, at a length below the radius.
    start = time.perf_counter()
    with pytest.raises(UnsupportedInput, match=rf"\(MAX_BALL_ELEMENTS\): "
                                               rf"{MAX_BALL_ELEMENTS + 1} braids kept by length"):
        braid_ball(GroupRef.braid(strands), radius)
    assert time.perf_counter() - start < 3.0


def test_braid_ball_limit_is_read_when_walking(monkeypatch):
    monkeypatch.setattr(ordo_groups, "MAX_BALL_ELEMENTS", 262)
    with pytest.raises(UnsupportedInput, match="more than 262 elements.*263 braids kept by length 5"):
        braid_ball(B3, 5)
    monkeypatch.setattr(ordo_groups, "MAX_BALL_ELEMENTS", 263)
    assert len(braid_ball(B3, 5)) == 263


def test_braid_ball_letters_are_bounded_and_every_radius_5_ball_fits(monkeypatch):
    # On B2 the ball is the 2r+1 powers of s1, about r^2 letters, so a radius
    # the element limit lets through is refused on its letters, at length 1414.
    start = time.perf_counter()
    with pytest.raises(UnsupportedInput, match=rf"more than {MAX_BALL_LETTERS} letters "
                                               r"\(MAX_BALL_LETTERS\): \d+ letters kept by length 1414$"):
        braid_ball(GroupRef.braid(2), MAX_BALL_ELEMENTS // 2 - 1)
    assert time.perf_counter() - start < 1.0
    # B9 radius 5 is the largest radius-5 ball below ten strands.
    nine = braid_ball(GroupRef.braid(9), 5)
    assert (len(nine), sum(len(w) for w in nine)) == (57_959, 278_874)
    monkeypatch.setattr(ordo_groups, "MAX_BALL_LETTERS", 1129)
    with pytest.raises(UnsupportedInput, match="more than 1129 letters.*1130 letters kept by length 5"):
        braid_ball(B3, 5)
    monkeypatch.setattr(ordo_groups, "MAX_BALL_LETTERS", 1130)
    assert len(braid_ball(B3, 5)) == 263


def test_exponent_sum():
    assert parse_element("s1^2 s2^-1", B3).exponent_sum() == 1
    assert full_twist(3).exponent_sum() == 6


HUGE = 10 ** 5000


@pytest.mark.parametrize("call, error", [
    (lambda: squarefree_split(-HUGE), ParseError),
    (lambda: RealConstant.from_terms({-HUGE: 1}), ParseError),
    (lambda: BraidWord(B3, ((HUGE, 1),)), ParseError),
    (lambda: BraidWord(B3, ((-HUGE, 1),)), ParseError),
    (lambda: BraidWord(B3, ((1, HUGE),)), ParseError),
    (lambda: half_twist(-HUGE), ParseError),
    (lambda: half_twist(HUGE), UnsupportedInput),
], ids=["squarefree_split", "from_terms", "braid_index", "braid_negative_index",
        "braid_exponent", "half_twist_negative", "half_twist_positive"])
def test_integers_past_the_string_limit_in_messages_raise_ordo_errors(call, error):
    # Formatting such an integer with str() raises ValueError; no message may.
    with pytest.raises(OrdoError) as exc:
        call()
    assert type(exc.value) is error
    assert "<integer of 5001 digits>" in str(exc.value)
