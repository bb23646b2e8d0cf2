"""Bracketing floors, stable values, defect cocycle."""

import itertools
import random
from fractions import Fraction

import pytest

from ordo.errors import NotBracketedWithinCap, NotCofinal, UnsupportedInput
from ordo.exactreal import ONE, RealConstant, combine
from ordo.groups import GroupRef, full_twist, parse_element, random_element
from ordo.orderings import DehornoyOrdering, FlagOrdering
from ordo.quasimorph import (
    AnchorContext,
    StableValue,
    defect_cocycle,
    power_floor,
    stable_approx,
    stable_exact,
    stable_map_properties,
)

Z2 = GroupRef.free_abelian(2)
B3 = GroupRef.braid(3)
LEX2 = FlagOrdering.lex(2)
SQRT2_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
DEHORNOY3 = DehornoyOrdering.create(3)


def el(text):
    return parse_element(text, Z2)


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


def test_stable_exact_rejects_noncofinal():
    with pytest.raises(NotCofinal):
        stable_exact(LEX2, el("x2"), el("x1"))


def test_stable_exact_matches_floor_ratio():
    # Independent certificate: |stable - floor(h^N)/N| <= 1/N, exactly.
    from ordo.quasimorph import abs_leq_exact

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


PROPERTY_NAMES = {"conjugation_invariance", "homogeneity", "bounded_sums"}


def test_stable_map_properties_catch_an_inconsistent_exact_value(monkeypatch):
    values = itertools.count(10)
    monkeypatch.setattr("ordo.quasimorph.stable_exact",
                        lambda flag, x, h: RealConstant.rational(next(values)))
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
    assert left.overlaps(right)
