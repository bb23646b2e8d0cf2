"""Exact constant arithmetic: canonical forms, sign, floor, Q-rank."""

import collections
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from ordo.errors import ParseError
from ordo.exactreal import (
    ONE,
    ZERO,
    RealConstant,
    combine,
    div_by_rational,
    dots_floor,
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
    for bad in ["1.5", "", "1/0", "1/-2", "a", "1 /2", "\u0661", "1/\u0662", "3\n"]:
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_equal_radicand_keys_sum():
    # "02" names radicand 2 as "2" does; "8" is 2*2*2.
    assert RealConstant.from_json({"2": "1", "02": "3"}) == RealConstant.sqrt(2, 4)
    assert RealConstant.from_json({"2": "1", "8": "3"}) == RealConstant.sqrt(2, 7)


@pytest.mark.parametrize("key", ["\u0661", " 2", "2_0"])
def test_radicand_keys_take_ascii_digits_only(key):
    # int() reads each of these: as 1, 2 and 20.
    with pytest.raises(ParseError, match="bad radicand key"):
        RealConstant.from_json({key: "1"})


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


# -- the integer floor engine against an mpmath oracle ----------------------------


def _exact_floor(dots, q):
    """Floor of sum d*sqrt(m) / q: integer division for rational dots, else
    mpmath (sympy's arbitrary-precision backend) at four times the bits of the
    inputs, refused when the value lies too close to an integer to tell.

    sympy.floor itself is no oracle here: it floors the terms of a sum it has
    distributed a factor over, and returns 143901428080 for the dots below,
    whose value is 143901428081.92."""
    if all(m == 1 for m, _ in dots):
        return sum(d for _, d in dots) // q
    bits = 4 * max([abs(d).bit_length() for _, d in dots] + [abs(q).bit_length()]) + 256
    with mpmath.workprec(bits):
        value = mpmath.fsum(mpmath.mpf(d) * mpmath.sqrt(m) for m, d in dots) / q
        low = int(mpmath.floor(value))
        margin = mpmath.mpf(2) ** -(bits // 2)
        assert margin < value - low < 1 - margin, "the oracle cannot tell"
    return low


def _random_dots(rng, digits):
    radicands = rng.sample((1, 2, 3, 5, 6, 7, 10, 11), rng.randint(0, 4))
    dots = [(m, rng.randint(-10 ** digits, 10 ** digits)) for m in sorted(radicands)]
    return [(m, d) for m, d in dots if d]


def test_dots_floor_where_sympy_floor_splits_the_sum():
    dots = [(6, -822262667669), (7, -862974979277), (10, -415780865352)]
    assert dots_floor(dots, -39) == 143901428081 == _exact_floor(dots, -39)


def test_dots_floor_matches_the_oracle_on_random_dots():
    rng = random.Random(4300)
    seen = collections.Counter()
    for _ in range(600):
        digits = rng.choice((1, 3, 12, 40))
        dots = _random_dots(rng, digits)
        q = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(0, digits + 1))
        assert dots_floor(dots, q) == _exact_floor(dots, q), (dots, q)
        seen["negative_q" if q < 0 else "positive_q"] += 1
        seen["irrational" if any(m != 1 for m, _ in dots) else "rational"] += 1
    assert min(seen.values()) > 100, seen


def test_dots_floor_matches_the_oracle_near_the_digit_limit():
    rng = random.Random(4299)
    for _ in range(12):
        dots = _random_dots(rng, rng.randint(4200, 4299)) or [(2, 10 ** 4299 - 1)]
        q = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(0, 4299))
        assert dots_floor(dots, q) == _exact_floor(dots, q), (len(dots), q.bit_length())


def test_dots_floor_integer_values_and_pell_margins():
    for q in (1, -1, 3, -3, 10 ** 4299, -(10 ** 4299)):
        for k in (-5, 0, 7):
            assert dots_floor([(1, k * q)] if k else [], q) == k
            assert dots_floor([(1, k * q + 1)], q) == (k * q + 1) // q
    # x - y*sqrt(2) = 1/(x + y*sqrt(2)): just above 0, so its floor needs
    # far more bits than the coefficients have.
    x, y = 3, 2
    while y.bit_length() <= 4000:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    for q in (1, -1, 7, -7):
        dots = [(1, x), (2, -y)]
        assert dots_floor(dots, q) == (0 if q > 0 else -1) == _exact_floor(dots, q)
        assert dots_floor([(1, -x), (2, y)], q) == (-1 if q > 0 else 0)


def test_floor_of_constants_matches_the_oracle():
    rng = random.Random(91)
    for _ in range(300):
        c = const(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 60)),
                  r2=Fraction(rng.randint(-900, 900), rng.randint(1, 9)),
                  r3=Fraction(rng.randint(-900, 900), rng.randint(1, 9)) * (rng.random() < 0.5))
        scale = math.lcm(*(q.denominator for _, q in c.terms))
        assert c.floor() == _exact_floor([(m, int(q * scale)) for m, q in c.terms], scale), c
