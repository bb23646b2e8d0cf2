"""Bracketing floors, stable values, defect cocycle."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import ordo
from ordo.errors import InvariantViolation, NotBracketedWithinCap, NotCofinal, UnsupportedInput
from ordo.exactreal import ONE, ZERO, RealConstant, combine, mod_one
from ordo.groups import (
    MAX_BRAID_LETTERS,
    BraidWord,
    GroupRef,
    LatticeElement,
    dynnikov_act,
    full_twist,
    parse_element,
    random_element,
)
from ordo.orderings import (Cone, DehornoyOrdering, FlagOrdering, act, axioms_check,
                            is_central_braid, level_kernels)
from ordo.quasimorph import (
    DEFAULT_CAP,
    AnchorContext,
    StableValue,
    _enclosure,
    _max_true,
    _exact_ratio,
    _pairing_dots,
    defect_cocycle,
    power_floor,
    stable_approx,
    stable_enclosure,
    stable_exact,
    stable_map_properties,
)

from oracles import (count_isqrt, count_kernel_letters_and_words, first_level, refined_floor,
                     word_enclosure, word_floor)

Z2 = GroupRef.free_abelian(2)
Z3 = GroupRef.free_abelian(3)
B3 = GroupRef.braid(3)
LEX2 = FlagOrdering.lex(2)
LEX3 = FlagOrdering.lex(3)
SQRT2_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
DEHORNOY3 = DehornoyOrdering.create(3)


def el(text):
    return parse_element(text, Z2)


def el3(text):
    return parse_element(text, Z3)


def br(text):
    return parse_element(text, B3)


def lex_ctx(x="x1"):
    return AnchorContext(LEX2, el(x))


def twist_ctx():
    return AnchorContext(DEHORNOY3, full_twist(3))


def test_power_floor_of_anchor_powers():
    ctx = lex_ctx()
    for k in range(-6, 7):
        assert power_floor(ctx, el("x1") ** k) == k


def test_power_floor_lex_examples():
    ctx = lex_ctx()
    assert power_floor(ctx, el("x2^5")) == 0
    assert power_floor(ctx, el("x2^-1")) == -1


def test_power_floor_negative_anchor():
    # Anchor x1^-1 is order-negative; floors still satisfy floor(x^k) = k.
    ctx = lex_ctx("x1^-1")
    x = el("x1^-1")
    for k in range(-5, 6):
        assert power_floor(ctx, x ** k) == k
    # fg window for the negative case sits in {0, 1}.
    rng = random.Random(4)
    for _ in range(300):
        f = random_element(Z2, rng, 10)
        g = random_element(Z2, rng, 10)
        assert defect_cocycle(ctx, f, g) in (0, 1)


def test_power_floor_dehornoy_twist_times_s1():
    ctx = twist_ctx()
    assert power_floor(ctx, full_twist(3) * br("s1")) == 1


def test_power_floor_single_generator_powers_are_flat():
    # Powers of one generator never reach the full twist: floors stay 0 or -1.
    ctx = twist_ctx()
    for n in (1, 2, 6, 30):
        assert power_floor(ctx, br("s1") ** n) == 0
        assert power_floor(ctx, br("s1") ** -n) == -1


def test_power_floor_not_bracketed():
    ctx = AnchorContext(LEX2, el("x2"), generators=(el("x2"),), cap=64)
    with pytest.raises(NotBracketedWithinCap):
        power_floor(ctx, el("x1"))


# -- closed-form flag floors against the doubling search ---------------------


def _search_floor(ctx, h):
    """The doubling-then-bisection floor, the path braid cones still take."""
    x = ctx.anchor

    def at_least(n):
        return ctx.cone.sign(x ** (-n) * h) >= 0

    if ctx.anchor_sign > 0:
        return _max_true(at_least, ctx.cap)
    return -_max_true(lambda m: at_least(-m), ctx.cap)


B4 = GroupRef.braid(4)
CONJUGATED3 = act(DEHORNOY3, br("s1 s2^-1"))


@pytest.mark.parametrize("cone,anchor", [
    (DEHORNOY3, full_twist(3)),
    (DEHORNOY3, full_twist(3).inverse()),
    (DEHORNOY3, br("s1 s2")),
    (DEHORNOY3, br("s2^-1 s1^-1")),
    (DehornoyOrdering.create(4), full_twist(4)),
    (DehornoyOrdering.create(4), parse_element("s3^-1 s2^-1 s1^-1", B4)),
    (CONJUGATED3, full_twist(3)),
    (CONJUGATED3, br("s1 s2")),
    (CONJUGATED3, br("s2^-1 s1^-1")),
], ids=["B3_twist", "B3_twist_inverse", "B3_s1s2", "B3_s1s2_inverse", "B4_twist",
        "B4_s1s2s3_inverse", "conjugated_twist", "conjugated_s1s2", "conjugated_s1s2_inverse"])
def test_floor_through_cached_powers_matches_a_fresh_search(cone, anchor):
    rng = random.Random(53)
    shared = AnchorContext(cone, anchor)
    for _ in range(30):
        h = anchor ** rng.randint(-40, 40) * random_element(cone.group, rng, 8)
        want = _search_floor(AnchorContext(cone, anchor), h)
        assert power_floor(shared, h) == want
        assert power_floor(AnchorContext(cone, anchor), h) == want
    # Every key the searches left behind is key(c x^n), acted from the word c x^n.
    assert len(shared._keys) > 10
    for n, key in shared._keys.items():
        word = cone.conjugator * anchor ** n
        assert key == dynnikov_act((0, 1) * cone.group.n, word.letters), n


def _outcome(call):
    try:
        return call()
    except (NotBracketedWithinCap, UnsupportedInput) as exc:
        return type(exc), str(exc)


def _label(outcome):
    """A value, or an error's type and the first word of its text."""
    if isinstance(outcome, tuple) and isinstance(outcome[0], type):
        return f"{outcome[0].__name__}: {outcome[1].split()[0]}"
    return "value"


def _differential_contexts(rng):
    """(cone, anchor, cap, s1 only) on B3-B6: the Dehornoy cone and two
    conjugated cones; central anchors Delta^2, Delta^-2 and Delta^4 under the
    default cap, and a non-central anchor and its inverse under a small cap;
    and s_(n-1)^+-1 under the default cap, which s1 outruns up to the probe limit."""
    out = []
    for n in (3, 4, 5, 6):
        group = GroupRef.braid(n)
        plain = DehornoyOrdering(group)
        cones = [plain]
        while len(cones) < 3:
            if not (c := random_element(group, rng, 2 + 2 * len(cones))).is_identity:
                cones.append(act(plain, c))
        while (x := random_element(group, rng, 3)).is_identity or is_central_braid(plain, x):
            pass
        twist = full_twist(n)
        s_last = BraidWord(group, ((n - 1, 1),))
        anchors = [(twist, DEFAULT_CAP), (twist.inverse(), DEFAULT_CAP), (twist ** 2, DEFAULT_CAP),
                   (x, rng.choice((16, 256))), (x.inverse(), rng.choice((16, 256)))]
        out += [(cone, a, cap, False) for cone in cones for a, cap in anchors]
        out += [(cone, a, DEFAULT_CAP, True) for cone in cones[:2] for a in (s_last, s_last.inverse())]
    return out


def test_key_probes_match_the_word_building_path():
    # Floors and stable windows read on power keys against the path that
    # builds x^-N and h^n as words: values, NotBracketedWithinCap and every
    # refusal text agree, through a shared context and through fresh ones.
    rng = random.Random(2701)
    floors, windows = Counter(), Counter()
    for cone, x, cap, s1_only in _differential_contexts(rng):
        group = cone.group
        shared = AnchorContext(cone, x, cap=cap, require_cofinal=False)
        fresh = lambda: AnchorContext(cone, x, cap=cap, require_cofinal=False)  # noqa: E731
        for _ in range(1 if s1_only else 20):
            h = BraidWord(group, ((1, 1),)) if s1_only else \
                x ** rng.randint(-6, 6) * random_element(group, rng, 8)
            want = _outcome(lambda: word_floor(fresh(), h))
            assert _outcome(lambda: power_floor(shared, h)) == want, (cone, x, h)
            assert _outcome(lambda: power_floor(fresh(), h)) == want, (cone, x, h)
            floors[_label(want)] += 1
        for _ in range(0 if s1_only else 6):
            h = random_element(group, rng, 6)
            order = rng.randint(1, 12) if rng.random() < 0.8 else \
                rng.choice((0, MAX_BRAID_LETTERS // max(1, len(h)) + 1))
            want = _outcome(lambda: word_enclosure(fresh(), h, order))
            assert _outcome(lambda: stable_enclosure(shared, h, order)) == want, (cone, x, h)
            windows[_label(want)] += 1
    assert sum(floors.values()) + sum(windows.values()) >= 1000
    assert set(floors) == {"value", "NotBracketedWithinCap: no", "UnsupportedInput: floor"}, floors
    assert set(windows) == {"value", "NotBracketedWithinCap: no", "UnsupportedInput: order",
                            "UnsupportedInput: approximation"}, windows


class _FramelessBraidCone(Cone):
    """A braid cone with a sign of its own and no Dynnikov frame."""

    group = B3
    sign = DEHORNOY3.sign


def test_a_context_over_a_frameless_braid_cone_is_refused_when_built():
    with pytest.raises(UnsupportedInput) as caught:
        AnchorContext(_FramelessBraidCone(), full_twist(3))
    assert str(caught.value) == "_FramelessBraidCone has no Dynnikov frame to read floors on"


def test_only_orderings_reads_the_frame_layout():
    # Floors and circle splits reach a braid cone's frame through frame_key.
    for module in ("quasimorph", "dynamics", "cohmaps", "convexity", "cli"):
        assert "_frame" not in (Path(ordo.__file__).parent / f"{module}.py").read_text(), module


WORK_CONES = [DehornoyOrdering.create(4),
              act(DehornoyOrdering.create(4), parse_element("s1 s2^-1 s3", B4)), CONJUGATED3]


@pytest.mark.parametrize("cone", WORK_CONES, ids=["B4", "conjugated_B4", "conjugated_B3"])
def test_lone_floors_and_stable_windows_build_no_braid_word(monkeypatch, cone):
    rng = random.Random(61)
    x = full_twist(cone.group.n)
    hs = [x ** rng.randint(-9, 9) * random_element(cone.group, rng, 10) for _ in range(10)]
    acted, built = count_kernel_letters_and_words(monkeypatch)
    for h in hs:
        power_floor(AnchorContext(cone, x), h)
        stable_enclosure(AnchorContext(cone, x), h, 12)
        stable_approx(AnchorContext(cone, x), h, 12)
    assert acted and built == []


@pytest.mark.parametrize("cone", WORK_CONES, ids=["B4", "conjugated_B4", "conjugated_B3"])
def test_a_probe_acts_h_and_the_tail_on_a_cached_key(monkeypatch, cone):
    # Once a search has cached its power keys, each probe is one kernel pass
    # of h's letters (of h^n's reduced word, for a window) and the tail.
    rng = random.Random(62)
    x, tail = full_twist(cone.group.n), len(cone.conjugator)
    cases = []
    for _ in range(10):
        h = x ** rng.randint(-30, 30) * random_element(cone.group, rng, 10)
        n = rng.randint(1, 9)
        ctx = AnchorContext(cone, x)
        cases.append((ctx, h, n, power_floor(ctx, h), stable_enclosure(ctx, h, n)))
    acted, _ = count_kernel_letters_and_words(monkeypatch)
    for ctx, h, n, floor, window in cases:
        del acted[:]
        assert power_floor(ctx, h) == floor
        assert set(acted) == {len(h) + tail}
        del acted[:]
        assert stable_enclosure(ctx, h, n) == window
        assert set(acted) == {len(h ** n) + tail}


def _floor_or_error(floor, ctx, h):
    try:
        return floor(ctx, h)
    except NotBracketedWithinCap:
        return NotBracketedWithinCap


def _pairing_ratio(flag, seen_x, h):
    """<v, h> / <v, x> at x's first level v, or None when x pairs irrationally
    there; NotBracketedWithinCap when h pairs nonzero at an earlier level."""
    if (found := _pairing_dots(flag, seen_x, h, NotBracketedWithinCap)) is None:
        return None
    return RealConstant(tuple((m, Fraction(d, found[0])) for m, d in found[1]))


def _floor_case(flag, x, h):
    """Which branch of the closed form (x, h) takes."""
    try:
        ratio = _pairing_ratio(flag, flag.first_dots(x.coords), h)
    except NotBracketedWithinCap:
        return "not_bracketed"
    if ratio is None:
        return "irrational_anchor"
    j = first_level(flag, x)[0]
    if not ratio.is_rational or ratio.as_rational().denominator != 1:
        return "ratio"
    rest = first_level(flag, x ** (-ratio.as_rational().numerator) * h)
    return "tie_identity" if rest is None else f"tie_depth_{rest[0] - j}"


def _random_level_constant(rng):
    # Two thirds of the constants are rational, so rational anchor pairings
    # and integer ratios occur.
    radicands = (1,) if rng.random() < 2 / 3 else (1, 2, 3, 5)
    return RealConstant.from_terms({m: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                    for m in radicands if rng.random() < 0.6})


def _combination(rng, vectors, rank):
    coords = [0] * rank
    for v in vectors:
        k = rng.randint(-3, 3)
        coords = [a + k * b for a, b in zip(coords, v)]
    return tuple(coords)


def test_flag_floor_matches_search_on_random_flags():
    rng = random.Random(808)
    cases = Counter()
    flags = 0
    while flags < 100:
        rank = rng.randint(1, 4)
        levels = [[_random_level_constant(rng) for _ in range(rank)]
                  for _ in range(rng.randint(1, 4))]
        try:
            flag = FlagOrdering.create(levels)
        except UnsupportedInput:
            continue
        flags += 1
        group = flag.group
        # chain[i]: a basis of the elements pairing zero at every level before i.
        chain = [[tuple(int(i == k) for i in range(rank)) for k in range(rank)]]
        chain += [kernel for kernel in level_kernels(flag) if kernel]
        for _ in range(6):
            x = LatticeElement(group, _combination(rng, chain[rng.randrange(len(chain))], rank))
            if x.is_identity:
                continue
            ctx = AnchorContext(flag, x, cap=1 << 20, require_cofinal=False)
            j = first_level(flag, x)[0]
            hs = [LatticeElement(group, tuple(rng.randint(-6, 6) for _ in range(rank)))
                  for _ in range(3)]
            for depth in range(j, len(chain)):
                v = LatticeElement(group, _combination(rng, chain[depth], rank))
                hs += [v, x ** rng.randint(-4, 4) * v]
            for h in hs:
                assert _floor_or_error(power_floor, ctx, h) == \
                    _floor_or_error(_search_floor, ctx, h), (flag.levels, x, h)
                cases[_floor_case(flag, x, h)] += 1
                cases["positive_anchor" if ctx.anchor_sign > 0 else "negative_anchor"] += 1
                cases["later_anchor"] += j > 0
    for case in ("not_bracketed", "irrational_anchor", "ratio", "tie_identity",
                 "tie_depth_1", "tie_depth_2", "positive_anchor", "negative_anchor",
                 "later_anchor"):
        assert cases[case] > 0, cases


BEYOND_CAP = 10 ** 22 + 7


def _closed_form(ratio, s):
    """Floor (s = 1) or ceiling (s = -1) of an irrational ratio, by mpmath at a
    precision past its coefficients (independent of the integer floor engine)."""
    bits = 4 * max(max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                   for _, q in ratio.terms) + 256
    with mpmath.workprec(bits):
        value = mpmath.fsum(mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(m)
                            for m, q in ratio.terms)
        margin = mpmath.mpf(2) ** -(bits // 2)
        assert margin < value - mpmath.floor(value) < 1 - margin, "the oracle cannot tell"
        return int(mpmath.floor(value)) if s > 0 else int(mpmath.ceil(value))


def test_integer_flag_floor_matches_search_on_300_flags():
    rng = random.Random(1313)
    cases = Counter()
    flags = 0
    while flags < 300:
        rank = rng.randint(1, 4)
        levels = [[_random_level_constant(rng) for _ in range(rank)]
                  for _ in range(rng.randint(1, 4))]
        try:
            flag = FlagOrdering.create(levels)
        except UnsupportedInput:
            continue
        flags += 1
        group = flag.group
        chain = [[tuple(int(i == k) for i in range(rank)) for k in range(rank)]]
        chain += [kernel for kernel in level_kernels(flag) if kernel]
        # A unit anchor often pairs to a rational constant at a level with
        # irrational ones, so elements pair irrationally there.
        anchors = [LatticeElement(group, _combination(rng, chain[rng.randrange(len(chain))], rank))
                   for _ in range(3)]
        anchors.append(LatticeElement(group, chain[0][rng.randrange(rank)]) ** rng.choice((1, -1)))
        for x in anchors:
            if x.is_identity:
                continue
            ctx = AnchorContext(flag, x, cap=1 << 20, require_cofinal=False)
            s = ctx.anchor_sign
            j = first_level(flag, x)[0]
            hs = [LatticeElement(group, tuple(rng.randint(-6, 6) for _ in range(rank)))
                  for _ in range(2)]
            for depth in range(j + 1, len(chain)):
                hs.append(x ** rng.randint(-4, 4) * LatticeElement(
                    group, _combination(rng, chain[depth], rank)))
            for h in hs:
                want = _floor_or_error(_search_floor, ctx, h)
                assert _floor_or_error(power_floor, ctx, h) == want, (flag.levels, x, h)
                cases["positive_anchor" if s > 0 else "negative_anchor"] += 1
                if want is NotBracketedWithinCap:
                    cases["not_bracketed"] += 1
                    continue
                ratio = _pairing_ratio(flag, ctx.anchor_dots, h)
                if ratio is None:
                    cases["irrational_anchor"] += 1
                    continue
                # Left multiplication by x^K shifts every floor by K: past the cap.
                assert power_floor(ctx, x ** BEYOND_CAP * h) == BEYOND_CAP + want
                cases["beyond_cap"] += 1
                if not ratio.is_rational:
                    cases["irrational_element"] += 1
                    big = x ** BEYOND_CAP * h ** BEYOND_CAP
                    assert power_floor(ctx, big) == _closed_form(
                        _pairing_ratio(flag, ctx.anchor_dots, big), s)
                elif ratio.as_rational().denominator != 1:
                    cases["fraction"] += 1
                elif want == ratio.as_rational() - s:
                    cases["integer_ratio_n_minus_s"] += 1
                else:
                    cases["integer_ratio"] += 1
    for case in ("positive_anchor", "negative_anchor", "not_bracketed", "irrational_anchor",
                 "beyond_cap", "irrational_element", "fraction", "integer_ratio_n_minus_s",
                 "integer_ratio"):
        assert cases[case] > 20, cases


@pytest.mark.parametrize("anchor, element, want", [
    # Integer ratio 5, decided one and two levels down.
    ("x1", "x1^5 x2^-1", 4),
    ("x1", "x1^5 x3^-1", 4),
    ("x1", "x1^5 x2 x3^-9", 5),
    ("x1", "x1^5", 5),
    # Negative anchor: x^N <= h < x^(N-1).
    ("x1^-1", "x1^5 x2^-1", -4),
    ("x1^-1", "x1^5 x3", -5),
    ("x1^-2", "x1^7", -3),
    ("x1^-2", "x1^-7", 4),
    # Anchor first seen at the second level.
    ("x2", "x2^3 x3^-2", 2),
    ("x2^-3", "x2^7", -2),
    ("x2", "x3^-2", -1),
    ("x2", "", 0),
])
def test_flag_floor_cases(anchor, element, want):
    ctx = AnchorContext(LEX3, el3(anchor), require_cofinal=False)
    assert power_floor(ctx, el3(element)) == want == _search_floor(ctx, el3(element))


def test_flag_floor_element_seen_before_the_anchor():
    ctx = AnchorContext(LEX3, el3("x2"), require_cofinal=False)
    with pytest.raises(NotBracketedWithinCap) as exc:
        power_floor(ctx, el3("x1 x2^5"))
    assert "level 1" in str(exc.value)
    with pytest.raises(NotBracketedWithinCap):
        _search_floor(ctx, el3("x1 x2^5"))


def test_flag_floor_irrational_anchor_pairing_keeps_the_search():
    flag = FlagOrdering.create([[RealConstant.sqrt(2), RealConstant.rational(1)]])
    ctx = AnchorContext(flag, el("x1"), cap=64)
    assert power_floor(ctx, el("x2^3")) == 2  # floor(3 / sqrt 2)
    with pytest.raises(NotBracketedWithinCap):
        power_floor(ctx, el("x2^200"))  # 141 > 64: the cap still bounds the search


def test_flag_floor_past_the_cap_is_exact():
    k = 10 ** 22 + 12345
    ctx = AnchorContext(SQRT2_FLAG, el("x1"), cap=64)
    assert power_floor(ctx, el(f"x2^{k}")) == math.isqrt(2 * k * k)
    assert power_floor(ctx, el(f"x2^-{k}")) == -math.isqrt(2 * k * k) - 1


def test_flag_floor_certificate_is_checked(monkeypatch):
    # A cone answer contradicting the pairing ratio must not pass silently.
    # Every floor probe asks the cone for sign(x^-N h) through coords_sign,
    # as the sign of the lattice point h - N*x.
    ctx = lex_ctx()
    monkeypatch.setattr(FlagOrdering, "coords_sign", lambda cone, coords: 1)
    with pytest.raises(InvariantViolation):
        power_floor(ctx, el("x1^3 x2"))
    monkeypatch.setattr(FlagOrdering, "coords_sign", lambda cone, coords: -1)
    with pytest.raises(InvariantViolation):
        power_floor(ctx, el("x1^3 x2"))
    # Only an integer ratio may fall one step below its floor: a cone that
    # drops floor(sqrt 2) = 1 to 0 contradicts the pairing ratio.
    monkeypatch.setattr(FlagOrdering, "coords_sign",
                        lambda cone, coords: 1 if coords[0] >= 0 else -1)
    with pytest.raises(InvariantViolation):
        power_floor(AnchorContext(SQRT2_FLAG, el("x1")), el("x2"))


THREE_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2),
                                    RealConstant.sqrt(3)]])


def test_a_square_radicand_flag_floors_or_is_refused():
    # Stored as given, -sqrt(4) made [1, -sqrt(4)] a total flag whose floor of
    # x2^-1 failed its bracket certificate: InvariantViolation, exit 1.
    minus_sqrt4 = RealConstant(((4, Fraction(-1)),))
    with pytest.raises(UnsupportedInput, match="rank-deficient"):
        FlagOrdering.create([[ONE, minus_sqrt4]])
    flag = FlagOrdering.create([[ONE, minus_sqrt4], [ZERO, ONE]])
    ctx = AnchorContext(flag, el("x1"))
    # x2^-1 pairs 2 at the first level, as x1^2 does; the second puts it below.
    assert power_floor(ctx, el("x2^-1")) == 1 == _search_floor(ctx, el("x2^-1"))


def test_flag_queries_normalize_no_constant(monkeypatch):
    # Constants built on a query path are canonical by construction, so no
    # radicand is split: floors, defects, pairings, stable values, restriction.
    splits = []
    split = ordo.exactreal.squarefree_split
    monkeypatch.setattr("ordo.exactreal.squarefree_split", lambda m: splits.append(m) or split(m))
    x, f, g = el3("x1"), el3("x1^3 x2^-5 x3"), el3("x1^-2 x3^7")
    ctx = AnchorContext(THREE_FLAG, x)
    assert power_floor(ctx, f) == _search_floor(ctx, f)
    defect_cocycle(ctx, f, g)
    value = stable_exact(THREE_FLAG, x, f)
    mod_one(value + THREE_FLAG.level_pairing(0, g) * 3 - ONE)
    THREE_FLAG.restrict([(1, 0, 0), (0, 1, 1)])
    stable_approx(ctx, g, 5)
    assert splits == []


def test_flag_floor_takes_one_isqrt(monkeypatch):
    # A flag floor takes one isqrt per surd of its ratio: (i + j*sqrt 2) / 1
    # takes one, and on the three flag every floor of a floor, defect or
    # rotation class takes two.  Certificate probes and settle signs have at
    # most three terms and take none.
    ctx = AnchorContext(SQRT2_FLAG, el("x1"))
    three = AnchorContext(THREE_FLAG, el3("x1"))
    pairs = [(i, j) for i in (-7, 3, 10 ** 9) for j in (-5, 1, 10 ** 30)]
    want = [refined_floor([(1, i), (2, j)], 1) for i, j in pairs]
    calls = count_isqrt(monkeypatch)
    for (i, j), floor in zip(pairs, want):
        calls.clear()
        assert power_floor(ctx, el(f"x1^{i} x2^{j}")) == floor
        assert len(calls) == 1, (i, j)
    floors, dots_floor = [], ordo.exactreal.dots_floor
    for module in (ordo.exactreal, ordo.quasimorph):
        monkeypatch.setattr(module, "dots_floor",
                            lambda dots, q: floors.append(dots) or dots_floor(dots, q))
    calls.clear()
    assert power_floor(three, el3("x1^-4 x2^3 x3^-2")) == -4  # -4 + 3*sqrt 2 - 2*sqrt 3 = -3.22
    assert power_floor(three, el3("x2^-3960 x3^3104")) == -225  # just below -224: a settle
    assert defect_cocycle(three, el3("x2 x3^2"), el3("x1 x2^-3 x3")) in (-1, 0)
    ordo.rotation_class(THREE_FLAG, el3("x1"), [el3("x1 x2 x3"), el3("x2^-2 x3^5")])
    assert len(floors) == 2 + 3 + 2 * 2  # rotation: mod_one, then the range check
    assert all(sum(m != 1 for m, _ in dots) == 2 for dots in floors), floors
    assert len(calls) == 2 * len(floors)


def test_axioms_on_the_three_flag_refine_nothing(monkeypatch):
    # Every sign on the level (1, sqrt 2, sqrt 3) has at most three terms.
    calls = count_isqrt(monkeypatch)
    report = axioms_check(THREE_FLAG, 200, 3)
    assert report.passed and report.lo1_checked > 20
    assert calls == []


def _count_scans_and_builds(monkeypatch):
    """Record the coordinates of every flag level scan and of every lattice
    element built, validated or trusted."""
    scanned, built = [], []
    first_dots, init, trusted = (FlagOrdering.first_dots, LatticeElement.__init__,
                                 LatticeElement._trusted)
    monkeypatch.setattr(FlagOrdering, "first_dots", lambda flag, coords:
                        scanned.append(tuple(coords)) or first_dots(flag, coords))
    monkeypatch.setattr(LatticeElement, "__init__",
                        lambda g, group, coords: built.append(coords) or init(g, group, coords))
    monkeypatch.setattr(LatticeElement, "_trusted", staticmethod(
        lambda group, coords: built.append(coords) or trusted(group, coords)))
    return scanned, built


def _probe(x, h, n):
    """The coordinates of x^-n h: the lattice point h - n*x."""
    return tuple(a - n * b for a, b in zip(h.coords, x.coords))


@pytest.mark.parametrize("require_cofinal", [True, False])
@pytest.mark.parametrize("flag,x,generators", [
    (LEX2, "x1", None), (LEX2, "x1^-3 x2", ("x1", "x2^2")), (SQRT2_FLAG, "x1", None),
    (SQRT2_FLAG, "x1^-2", ("x2",)), (THREE_FLAG, "x1", None), (THREE_FLAG, "x1^-1", None),
], ids=["lex2", "lex2_generators", "sqrt2", "sqrt2_negative", "three", "three_negative"])
def test_flag_floor_work_counts(monkeypatch, require_cofinal, flag, x, generators):
    # A context scans its anchor once (and each generator once when it checks
    # cofinality); a floor scans h and its two certificate probes, h - N*x and
    # h - (N+s)*x, and builds no element; a defect, its context included, scans
    # 10 times and builds only f*g.
    group = flag.group
    rng = random.Random(41)
    x = parse_element(x, group)
    gens = None if generators is None else tuple(parse_element(g, group) for g in generators)
    gen_scans = len(gens) if gens and require_cofinal else 0
    samples = [random_element(group, rng, 30) for _ in range(60)]
    scanned, built = _count_scans_and_builds(monkeypatch)
    ctx = AnchorContext(flag, x, generators=gens, require_cofinal=require_cofinal)
    assert scanned.count(x.coords) == 1
    assert len(scanned) == 1 + gen_scans
    s = ctx.anchor_sign
    for h in samples:
        del scanned[:]
        n = power_floor(ctx, h)
        assert scanned[0] == h.coords, h
        assert sorted(scanned[1:]) == sorted([_probe(x, h, n), _probe(x, h, n + s)]), h
        assert built == [], h
    for f, g in zip(samples, samples[1:]):
        fg = f * g
        del scanned[:], built[:]
        defect_cocycle(AnchorContext(flag, x, generators=gens, require_cofinal=require_cofinal),
                       f, g)
        assert len(scanned) == 10 + gen_scans, (f, g)
        assert built == [fg.coords], (f, g)


def _product_floor(ctx, h):
    """The floor searched on sign_product(x^-N, h), the probe before coordinates."""
    cone, x = ctx.cone, ctx.anchor

    def at_least(n):
        return cone.sign_product(x ** -n, h) >= 0

    if cone.sign(x) > 0:
        return _max_true(at_least, ctx.cap)
    return -_max_true(lambda m: at_least(-m), ctx.cap)


def test_coordinate_probe_matches_the_product_probe():
    rng = random.Random(2424)
    flags = [LEX2, SQRT2_FLAG, THREE_FLAG]
    while len(flags) < 40:
        rank = rng.randint(1, 4)
        try:
            flags.append(FlagOrdering.create(
                [[_random_level_constant(rng) for _ in range(rank)]
                 for _ in range(rng.randint(1, 3))]))
        except UnsupportedInput:
            continue
    cases = Counter()
    for flag in flags:
        group = flag.group
        for _ in range(4):
            x = random_element(group, rng, 4)
            if x.is_identity:
                continue
            for anchor in (x, x.inverse()):
                ctx = AnchorContext(flag, anchor, cap=1 << 40, require_cofinal=False)
                dots = ctx.anchor_dots[1]
                irrational = len(dots) > 1 or dots[0][0] != 1
                for _ in range(3):
                    h = anchor ** rng.randint(-50, 50) * random_element(group, rng, 12)
                    floor = _floor_or_error(power_floor, ctx, h)
                    assert floor == _floor_or_error(_product_floor, ctx, h), \
                        (flag.levels, anchor, h)
                    near = 0 if floor is NotBracketedWithinCap else floor
                    for n in (near - 1, near, near + 1, rng.randint(-10 ** 6, 10 ** 6)):
                        probe = flag.coords_sign(_probe(anchor, h, n))
                        assert probe == flag.sign_product(anchor ** -n, h), (flag.levels, h, n)
                        cases["probes"] += 1
                    cases["negative_anchor" if ctx.anchor_sign < 0 else "positive_anchor"] += 1
                    cases["not_bracketed" if floor is NotBracketedWithinCap else "floor"] += 1
                    cases["irrational_anchor"] += irrational
    assert cases["probes"] >= 500 and all(cases[case] > 10 for case in (
        "negative_anchor", "positive_anchor", "not_bracketed", "floor",
        "irrational_anchor")), cases


def test_context_rejects_noncofinal_flag_anchor():
    with pytest.raises(NotCofinal):
        AnchorContext(LEX2, el("x2"), generators=(el("x1"), el("x2")))


def test_stable_exact_examples():
    assert stable_exact(LEX2, el("x1"), el("x1")) == ONE
    assert stable_exact(LEX2, el("x1"), el("x2")).is_zero
    assert stable_exact(SQRT2_FLAG, el("x1"), el("x2")) == RealConstant.sqrt(2)
    assert stable_exact(SQRT2_FLAG, el("x1"), el("x1^3 x2^2")) == \
        combine(ONE, RealConstant.sqrt(2), 3, 2)


def test_stable_exact_rejects_irrational_anchor_pairing():
    flag = FlagOrdering.create([[RealConstant.sqrt(2), RealConstant.rational(1)]])
    with pytest.raises(UnsupportedInput):
        stable_exact(flag, el("x1"), el("x2"))


@pytest.mark.parametrize("levels,x,text", [
    ([[0, 1], [RealConstant.sqrt(3), 1]], "x1", "sqrt(3) at level 2"),
    ([[0, 1], [RealConstant.sqrt(3), 1]], "x1^-2", "-2*sqrt(3) at level 2"),
    ([[RealConstant.sqrt(2), 1]], "x1^-2 x2", "1 - 2*sqrt(2) at level 1"),
])
def test_irrational_anchor_message_names_the_pairing_and_level(levels, x, text):
    flag = FlagOrdering.create([[c if isinstance(c, RealConstant) else RealConstant.rational(c)
                                 for c in level] for level in levels])
    want = (f"anchor pairing {text} is irrational; "
            "rescale the flag so the anchor pairing is rational")
    ctx = AnchorContext(flag, el(x), require_cofinal=False)
    for call in (lambda: stable_exact(flag, el(x), el("x1")),
                 lambda: _exact_ratio(flag, el(x), ctx.anchor_dots, el("x1^3")),
                 lambda: _enclosure(ctx, el("x1^-2"), 5)):
        with pytest.raises(UnsupportedInput) as info:
            call()
        assert str(info.value) == want


def test_stable_exact_rejects_noncofinal():
    with pytest.raises(NotCofinal):
        stable_exact(LEX2, el("x2"), el("x1"))


def _raised(call):
    try:
        call()
    except (NotCofinal, UnsupportedInput) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("flag,x,h", [
    (FlagOrdering.create([[RealConstant.sqrt(2), RealConstant.rational(1)]]), "x1", "x2"),
    (FlagOrdering.create([[RealConstant.sqrt(2), RealConstant.rational(1)]]), "x1^-2 x2", "x1"),
    (LEX2, "x2", "x1"), (LEX2, "x2^-1", "x1^3 x2"),
], ids=["irrational", "irrational_mixed", "blind", "blind_negative"])
def test_context_stable_values_raise_what_stable_exact_raises(flag, x, h):
    # The context's values read its anchor scan, not a fresh one, and fail alike.
    ctx = AnchorContext(flag, el(x), require_cofinal=False)
    want = _raised(lambda: stable_exact(flag, el(x), el(h)))
    assert want is not None
    assert _raised(lambda: _enclosure(ctx, el(h), 5)) == want
    if want[0] is UnsupportedInput:
        assert _raised(lambda: stable_approx(ctx, el(h), 5)) == want


def test_stable_map_properties_scan_the_anchor_once_per_context(monkeypatch):
    x = el("x1")
    scanned, _ = _count_scans_and_builds(monkeypatch)
    report = stable_map_properties(AnchorContext(LEX2, x), seed=0)
    assert len(report.checks) == 54
    # One scan for the context, then one per enclosure: 6 samples, 6
    # conjugates, 42 powers and 6 inverses, none of them of the anchor.
    assert sum(coords is x.coords for coords in scanned) == 1
    assert len(scanned) == 1 + 60


@pytest.mark.parametrize("count,detail", [
    (-3, "sample count -3 is negative"),
    (10_001, "sample count 10001 is past the limit of 10000 (MAX_SAMPLES)"),
])
def test_stable_map_properties_checks_the_sample_count(count, detail):
    with pytest.raises(UnsupportedInput) as info:
        stable_map_properties(AnchorContext(LEX2, el("x1")), sample_count=count)
    assert str(info.value) == detail


def test_stable_map_properties_bound_the_letters_drawn_on_braids():
    ctx = AnchorContext(DehornoyOrdering.create(3), full_twist(3))
    with pytest.raises(UnsupportedInput) as info:
        stable_map_properties(ctx, sample_count=6, radius=50_000)
    assert str(info.value) == ("6 samples of radius 50000 are past the limit "
                               "of 250000 letters (MAX_SAMPLE_LETTERS)")
    # Lattice draws are not letters: the same knobs pass on a flag.
    assert stable_map_properties(AnchorContext(LEX2, el("x1")), sample_count=6,
                                 radius=50_000).passed


def abs_leq_exact(value: RealConstant, bound: int | Fraction) -> bool:
    upper = combine(ONE, value, Fraction(bound), -1)
    lower = combine(value, ONE, 1, Fraction(bound))
    return upper.sign() >= 0 and lower.sign() >= 0


def test_stable_exact_matches_floor_ratio():
    # Independent certificate: |stable - floor(h^N)/N| <= 1/N, exactly.
    ctx = AnchorContext(SQRT2_FLAG, el("x1"))
    exact = stable_exact(SQRT2_FLAG, el("x1"), el("x2"))
    for n in (10, 100, 1000):
        floor_ratio = Fraction(power_floor(ctx, el("x2") ** n), n)
        gap = combine(exact, ONE, 1, -floor_ratio)
        assert abs_leq_exact(gap, Fraction(1, n))


def test_stable_approx_anchor_is_one():
    for ctx in (lex_ctx(), twist_ctx()):
        value = stable_approx(ctx, ctx.anchor, 25)
        assert value.approx == 1
        assert value.radius == Fraction(1, 25)


def test_stable_approx_twisting_number():
    # (s1 s2)^3 equals the full twist, so the stable value of s1 s2 is 1/3.
    value = stable_approx(twist_ctx(), br("s1 s2"), 300)
    assert abs(value.approx - Fraction(1, 3)) <= Fraction(1, 300)


def test_stable_approx_sqrt2_certificate():
    value = stable_approx(AnchorContext(SQRT2_FLAG, el("x1")), el("x2"), 100)
    assert value.radius == Fraction(1, 100)
    assert value.exact == RealConstant.sqrt(2)
    # StableValue validates |approx - exact| <= radius on construction.


def test_stable_value_invariant_rejects_bad_certificate():
    with pytest.raises(Exception):
        StableValue(Fraction(2), Fraction(1, 100), exact=RealConstant.sqrt(2))


def test_defect_examples():
    ctx = lex_ctx()
    assert defect_cocycle(ctx, el("x1"), el("x1")) == 0
    assert defect_cocycle(ctx, el("x2"), el("x2^-1")) == -1
    assert defect_cocycle(ctx, el("x1"), el("x1^-1")) == 0


def test_defect_bound_sampled():
    rng = random.Random(8)
    families = [
        (lex_ctx(), Z2, 20),
        (AnchorContext(SQRT2_FLAG, el("x1")), Z2, 20),
        (twist_ctx(), B3, 6),
    ]
    for ctx, group, radius in families:
        for _ in range(500):
            f = random_element(group, rng, radius)
            g = random_element(group, rng, radius)
            assert defect_cocycle(ctx, f, g) in (-1, 0)


def test_coboundary_identity():
    # d(defect) = 0: c(g,h) - c(fg,h) + c(f,gh) - c(f,g) = 0.
    rng = random.Random(9)
    ctx = twist_ctx()
    for _ in range(100):
        f = random_element(B3, rng, 4)
        g = random_element(B3, rng, 4)
        h = random_element(B3, rng, 4)
        total = (defect_cocycle(ctx, g, h) - defect_cocycle(ctx, f * g, h)
                 + defect_cocycle(ctx, f, g * h) - defect_cocycle(ctx, f, g))
        assert total == 0


def test_monotonicity():
    rng = random.Random(10)
    for ctx, group, radius in ((lex_ctx(), Z2, 15), (twist_ctx(), B3, 5)):
        for _ in range(200):
            g = random_element(group, rng, radius)
            h = random_element(group, rng, radius)
            from ordo.orderings import compare

            if compare(ctx.cone, g, h) <= 0:
                assert power_floor(ctx, g) <= power_floor(ctx, h)


def test_floor_is_left_equivariant_under_anchor():
    # floor(x^k h) = k + floor(h): left multiplication by the anchor shifts.
    rng = random.Random(11)
    ctx = twist_ctx()
    tw = full_twist(3)
    for _ in range(60):
        h = random_element(B3, rng, 5)
        k = rng.randint(-3, 3)
        assert power_floor(ctx, (tw ** k) * h) == k + power_floor(ctx, h)


def test_stable_map_properties_flag():
    ctx = AnchorContext(SQRT2_FLAG, el("x1"))
    report = stable_map_properties(ctx, seed=1)
    assert report.passed


def test_stable_map_properties_braid():
    report = stable_map_properties(twist_ctx(), seed=2, sample_count=3,
                                   approx_n=60, powers=(-2, -1, 0, 1, 2), radius=3)
    assert report.passed


def test_stable_map_properties_refuse_a_long_homogeneity_power_unbuilt(monkeypatch):
    fed = []  # letters each braid power feeds to free reduction
    power = BraidWord.__pow__
    monkeypatch.setattr(BraidWord, "__pow__",
                        lambda h, k: fed.append(abs(k) * len(h.letters)) or power(h, k))
    with pytest.raises(UnsupportedInput) as info:
        stable_map_properties(twist_ctx(), seed=0, approx_n=60, powers=(2, 2_000_000))
    assert str(info.value).startswith("homogeneity 2000000 power of a ")
    assert str(info.value).endswith(f"-letter braid is longer than {MAX_BRAID_LETTERS} letters")
    assert fed and max(fed) <= MAX_BRAID_LETTERS


PROPERTY_NAMES = {"conjugation_invariance", "homogeneity", "bounded_sums"}


def test_stable_map_properties_catch_an_inconsistent_exact_value(monkeypatch):
    values = itertools.count(10)
    monkeypatch.setattr("ordo.quasimorph._exact_ratio",
                        lambda flag, x, seen_x, h: RealConstant.rational(next(values)))
    report = stable_map_properties(AnchorContext(SQRT2_FLAG, el("x1")), seed=1)
    assert not report.passed
    assert {c.name for c in report.failures} == PROPERTY_NAMES


def test_stable_map_properties_catch_an_inconsistent_window(monkeypatch):
    values = itertools.count(10)
    monkeypatch.setattr("ordo.quasimorph.stable_approx",
                        lambda ctx, h, n: StableValue(Fraction(next(values)), Fraction(1, n)))
    report = stable_map_properties(twist_ctx(), seed=2, sample_count=3,
                                   approx_n=60, powers=(-2, -1, 0, 1, 2), radius=3)
    assert not report.passed
    assert {c.name for c in report.failures} == PROPERTY_NAMES


def test_stable_map_conjugation_example():
    ctx = twist_ctx()
    left = stable_approx(ctx, br("s2^-1") * br("s1 s2") * br("s2"), 300)
    right = stable_approx(ctx, br("s1 s2"), 300)
    assert abs(left.approx - right.approx) <= left.radius + right.radius


def test_stable_enclosure_mirrors_under_a_negative_anchor():
    # floor under x^-1 is minus floor under x, so the window flips.
    from ordo.quasimorph import stable_enclosure

    positive = twist_ctx()
    negative = AnchorContext(DEHORNOY3, full_twist(3).inverse())
    for word in ("s1 s2", "s1", "s2^-1 s1^-1", "s1 s2 s1"):
        for n in (1, 7, 30):
            lo, hi = stable_enclosure(positive, br(word), n)
            assert stable_enclosure(negative, br(word), n) == (-hi, -lo)
    assert stable_enclosure(negative, br("s1 s2"), 30) == (Fraction(-11, 30), Fraction(-1, 3))


def test_stable_map_properties_refuse_a_braid_radius_past_the_letter_limit():
    with pytest.raises(UnsupportedInput, match="MAX_BRAID_LETTERS"):
        stable_map_properties(twist_ctx(), radius=10 ** 9)
