"""Exact constant arithmetic: canonical forms, sign, floor, Q-rank."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from ordo.errors import ParseError
from ordo.exactreal import (
    ONE,
    ZERO,
    RealConstant,
    combine,
    div_by_rational,
    format_rational,
    mod_one,
    parse_rational,
    q_rank,
)

SQRT2 = RealConstant.sqrt(2)
SQRT3 = RealConstant.sqrt(3)


def const(rational=0, **roots):
    terms = {1: Fraction(rational)}
    for key, coeff in roots.items():
        terms[int(key.lstrip("r"))] = Fraction(coeff)
    return RealConstant.from_terms(terms)


def test_combine_like_terms():
    assert combine(SQRT2, SQRT2, 1, 1) == RealConstant.sqrt(2, 2)


def test_combine_cancellation_gives_empty_map():
    a = const(1, r2=1)
    assert combine(a, a, 1, -1) is not None
    assert combine(a, a, 1, -1).terms == ()
    assert combine(a, a, 1, -1).is_zero


def test_combine_unlike_terms():
    got = combine(SQRT2, SQRT3, 3, -2)
    assert got == RealConstant.from_terms({2: 3, 3: -2})


def test_radicands_normalized_to_squarefree():
    assert RealConstant.sqrt(8) == RealConstant.sqrt(2, 2)
    assert RealConstant.sqrt(9) == RealConstant.rational(3)
    assert RealConstant.sqrt(12, Fraction(1, 2)) == RealConstant.sqrt(3)


def test_sign_zero():
    assert ZERO.sign() == 0


def test_sign_sqrt2_minus_1():
    assert combine(SQRT2, ONE, 1, -1).sign() == 1


def test_sign_7_minus_5_sqrt2():
    # Squaring oracle: 7^2 = 49 < 50 = (5*sqrt2)^2, so 7 - 5*sqrt2 < 0.
    assert 7 * 7 < 5 * 5 * 2
    assert const(7, r2=-5).sign() == -1


def test_floor_sqrt2():
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2


def test_floor_3_minus_2_sqrt2():
    # Interval oracle: 2*sqrt2 is within (2.82, 2.83), so the value is in (0.17, 0.18).
    assert const(3, r2=-2).floor() == 0


def test_floor_brackets_value():
    rng = random.Random(7)
    for _ in range(200):
        c = const(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                  r2=rng.randint(-9, 9), r3=rng.randint(-9, 9), r5=rng.randint(-9, 9))
        f = c.floor()
        assert combine(c, ONE, 1, -f).sign() >= 0
        assert combine(ONE * (f + 1), c, 1, -1).sign() > 0


def test_q_rank_examples():
    assert q_rank([ONE, SQRT2]) == 2
    assert q_rank([SQRT2, RealConstant.sqrt(2, 2)]) == 1
    assert q_rank([const(1, r2=1), const(1, r2=-1), SQRT2]) == 2


def test_q_rank_against_sympy_rank():
    # Independent oracle: rank of the rational coefficient matrix over Q.
    rng = random.Random(11)
    keys = [1, 2, 3, 5]
    for _ in range(50):
        consts = [
            RealConstant.from_terms({k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in keys})
            for _ in range(rng.randint(1, 5))
        ]
        matrix = sympy.Matrix([[sympy.Rational(c.coefficient(k)) for k in keys] for c in consts])
        assert q_rank(consts) == matrix.rank()


def test_q_rank_invariance():
    rng = random.Random(13)
    consts = [const(rng.randint(-5, 5), r2=rng.randint(-5, 5), r3=rng.randint(-5, 5))
              for _ in range(4)]
    base = q_rank(consts)
    shuffled = consts[:]
    rng.shuffle(shuffled)
    assert q_rank(shuffled) == base
    rescaled = [c.scale(Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7])))
                for c in consts]
    assert q_rank(rescaled) == base


def test_div_by_rational():
    assert div_by_rational(RealConstant.sqrt(2, 2), 2) == SQRT2
    assert div_by_rational(RealConstant.rational(3), -3) == RealConstant.rational(-1)
    assert div_by_rational(const(1, r3=1), 2) == const(Fraction(1, 2), r3=Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        div_by_rational(SQRT2, 0)


def test_no_irrational_multiplication():
    with pytest.raises(TypeError):
        SQRT2 * SQRT3  # noqa: B018
    with pytest.raises(TypeError):
        SQRT2 / SQRT3  # noqa: B018


def test_sign_of_self_difference_is_zero():
    rng = random.Random(3)
    for _ in range(500):
        c = const(rng.randint(-100, 100), r2=rng.randint(-100, 100),
                  r3=rng.randint(-100, 100), r5=rng.randint(-100, 100))
        assert combine(c, c, 1, -1).sign() == 0


def test_sign_agrees_with_float_interval():
    # Where a float evaluation is clearly bounded away from zero, sign must agree.
    rng = random.Random(17)
    agreements = 0
    for _ in range(20_000):
        c = const(rng.randint(-100, 100), r2=rng.randint(-100, 100),
                  r3=rng.randint(-100, 100), r5=rng.randint(-100, 100))
        approx = float(c.coefficient(1)) + float(c.coefficient(2)) * math.sqrt(2) \
            + float(c.coefficient(3)) * math.sqrt(3) + float(c.coefficient(5)) * math.sqrt(5)
        if abs(approx) > 1e-9:
            assert c.sign() == (1 if approx > 0 else -1)
            agreements += 1
    assert agreements > 10_000


def test_mod_one():
    assert mod_one(SQRT2) == combine(SQRT2, ONE, 1, -1)
    assert mod_one(RealConstant.rational(Fraction(7, 3))) == RealConstant.rational(Fraction(1, 3))
    assert mod_one(-SQRT2) == combine(SQRT2, ONE, -1, 2)


def test_mod_one_range():
    rng = random.Random(23)
    for _ in range(300):
        c = const(Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                  r2=rng.randint(-6, 6), r3=rng.randint(-6, 6))
        r = mod_one(c)
        assert r.sign() >= 0
        assert combine(ONE, r, 1, -1).sign() > 0


def test_json_round_trip():
    c = const(Fraction(3, 2), r2=-1)
    assert c.to_json() == {"1": "3/2", "2": "-1"}
    assert RealConstant.from_json(c.to_json()) == c
    assert RealConstant.from_json({}) == ZERO


def test_parse_rational_rejects_decimals():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    for bad in ["1.5", "", "1/0", "1/-2", "a", "1 /2"]:
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_str_rendering():
    assert str(const(Fraction(3, 2), r2=-1)) == "3/2 - sqrt(2)"
    assert str(ZERO) == "0"
    assert str(RealConstant.sqrt(2, -1)) == "-sqrt(2)"


def test_pell_constant_decided_without_precision_cap():
    # x - y*sqrt(2) with x^2 - 2y^2 = 1 is about 1/(2y): with y near 2^40000
    # its sign needs more than 65536 bits of refinement.
    x, y = 3, 2
    while y.bit_length() <= 40000:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    assert x * x - 2 * y * y == 1
    c = RealConstant(((1, Fraction(x)), (2, Fraction(-y))))
    assert c.sign() == 1
    assert c.floor() == 0
    assert (-c).floor() == -1


def test_format_rational_names_digit_count_past_the_string_limit():
    assert format_rational(10 ** 4299) == "1" + "0" * 4299
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    assert format_rational(10 ** 5000) == "<integer of 5001 digits>"
    assert format_rational(10 ** 5000 - 1) == "<integer of 5000 digits>"
    assert format_rational(Fraction(-(10 ** 4400) - 1, 3)) == "-<integer of 4401 digits>/3"
    assert str(SQRT2.scale(Fraction(10 ** 6000))) == "<integer of 6001 digits>*sqrt(2)"
