"""Exact constants in the rational span of square roots of squarefree integers.

A value is a finite sum  sum_m q_m * sqrt(m)  with rational coefficients q_m
and squarefree positive radicands m (m = 1 is the rational part).  Since
{sqrt(m) : m squarefree} is linearly independent over Q, the representation
is canonical and a value is zero iff its term map is empty.  Sign and floor
are decided with no precision cap on integer dots (the value times its
common denominator) by ``dots_sign`` and ``dots_floor``, the one sign and the
one floor engine.  A sign of up to three terms compares squares; longer sums
refine dyadically, which ends as a nonzero value has a nonzero norm, so it is
bounded away from zero; the bits it needs grow with the size of the
coefficients.  A floor takes one ``isqrt`` per irrational term, as d*sqrt(m)
is never an integer, and at most one sign to settle the last unit.

The span is closed under addition, negation and rational scaling, which is
everything the rest of the package needs.  Multiplication of two irrational
constants is deliberately not provided; division is only ever by rationals.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import InvariantViolation, ParseError, UnsupportedInput, int_text, parse_integer
from .records import Record, set_field

Rational = int | Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")  # [0-9]: int() reads any Unicode digit
_RADICAND_RE = re.compile(r"-?[0-9]+")

MAX_RADICAND = 1 << 32  # squarefree_split trial-divides up to m^(1/3): 1626 at this limit


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (no decimals, no whitespace)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"not a rational literal: {text!r}")
    numerator, _, denominator = text.partition("/")
    return Fraction(parse_integer(numerator), parse_integer(denominator or "1"))


def format_rational(q: Rational) -> str:
    if q.denominator == 1:
        return int_text(q.numerator)
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"


def squarefree_split(m: int) -> tuple[int, int]:
    """Write m = s*s*m0 with m0 squarefree; returns (s, m0).  Trial division by 2
    and odd d while d^3 <= c, the cofactor left, moves every prime below its
    cube root into s or m0; c then has at most two prime factors, so it is
    squarefree unless it is a prime squared, which one isqrt decides."""
    if m <= 0:
        raise ParseError(f"radicand must be positive: {int_text(m)}")
    if m > MAX_RADICAND:
        raise UnsupportedInput(
            f"radicand {int_text(m)} is past the limit of {MAX_RADICAND} (MAX_RADICAND)")
    s, m0, c, d = 1, 1, m, 2
    while d * d * d <= c:
        if c % d:
            d += 1 if d == 2 else 2
        elif (c := c // d) % d:
            m0 *= d
        else:
            c, s = c // d, s * d
    r = math.isqrt(c)
    return (s * r, m0) if r * r == c else (s, m0 * c)


def dots_sign(dots: Sequence[tuple[int, int]]) -> int:
    """Sign of sum d*sqrt(m) over nonzero integers d and distinct squarefree m,
    sorted by m.  Up to three terms it is closed-form: two terms a*sqrt(m1) and
    b*sqrt(m2) of opposite signs compare a^2*m1 with b^2*m2; three compare
    a*sqrt(m1) with the rest u = b*sqrt(m2) + c*sqrt(m3), and when a and u
    differ in sign, a^2*m1 - u^2 is the two-term sum a^2*m1 - b^2*m2 - c^2*m3
    - 2bc*sqrt(m2*m3).  Its radicand need not be squarefree: the two-term rule
    compares squares only, and m2*m3 is no square.  Longer sums refine
    dyadically, which ends as the square roots are independent over Q."""
    m1, a = dots[0] if dots else (1, 0)
    if len(dots) == 2:
        m2, b = dots[1]
        if (a > 0) != (b > 0) and b * b * m2 > a * a * m1:
            a = b
    elif len(dots) == 3:
        (m2, b), (m3, c) = dots[1:]
        if (a > 0) != ((u := dots_sign(dots[1:])) > 0):
            r, cross = a * a * m1 - b * b * m2 - c * c * m3, (m2 * m3, -2 * b * c)
            if dots_sign(((1, r), cross) if r else (cross,)) < 0:
                a = u
    elif len(dots) > 3:
        slack, bits = sum(abs(d) for _, d in dots), 32
        # d*sqrt(m)*2^bits lies within |d| of d*isqrt(m << 2*bits).
        while abs(a := sum(d * math.isqrt(m << (2 * bits)) for m, d in dots)) < slack:
            bits *= 2
    return (a > 0) - (a < 0)


def dots_floor(dots: Sequence[tuple[int, int]], q: int) -> int:
    """Floor of sum d*sqrt(m) / q for dots as in dots_sign and an integer q != 0
    (a negative q is mirrored).  At 2^bits times its value each of the k surd
    terms is no integer: its floor is r = isqrt(d^2*m*4^bits) for d > 0, -r - 1
    for d < 0, and with the rational term they sum to a <= value*2^bits < a + k.
    bits is 0 for k <= 1; else 2^bits > 2^16*k, so the window rarely meets a
    multiple of q*2^bits, and never two; one sign of value - high*q settles it."""
    if q < 0:
        dots, q = [(m, -d) for m, d in dots], -q
    whole = dots[0][1] if dots and dots[0][0] == 1 else 0
    surds = dots[1:] if whole else dots
    bits = k.bit_length() + 16 if (k := len(surds)) > 1 else 0
    a = whole << bits
    for m, d in surds:
        root = math.isqrt(d * d * m << 2 * bits)
        a += root if d > 0 else -root - 1
    low = a // (unit := q << bits)
    if k < 2 or low == (high := (a + k - 1) // unit):
        return low
    whole -= high * q
    return high if dots_sign([(1, whole), *surds] if whole else surds) > 0 else low


class RealConstant(Record):
    """Canonical form: (radicand, coefficient) pairs sorted by squarefree
    radicand, no zero coefficients.  Every public constructor builds it: the
    bare ``RealConstant(terms)`` normalizes its pairs as ``from_terms`` does.
    Internal paths whose terms are canonical by construction build through
    ``_trusted``, so no flag query pays for normalizing."""

    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]]) -> None:
        set_field(self, "terms", RealConstant.from_terms(terms).terms)

    @staticmethod
    def _trusted(terms: tuple[tuple[int, Fraction], ...]) -> "RealConstant":
        # Terms in canonical form by construction.
        const = object.__new__(RealConstant)
        set_field(const, "terms", terms)
        return const

    @staticmethod
    def from_terms(terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]]) -> "RealConstant":
        """Build from radicand -> coefficient data, normalizing radicands to squarefree.
        A radicand must be an int and a coefficient an int or a Fraction (a bool
        is neither): anything else is a ParseError naming the term."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        squarefree = []
        for m, q in items:
            if type(m) is not int or type(q) not in (int, Fraction):
                raise ParseError(f"constant term {_term_text(m)}: {_term_text(q)} needs an int "
                                 "radicand and an int or Fraction coefficient")
            s, m0 = squarefree_split(m)
            squarefree.append((m0, Fraction(q) * s))
        return _accumulate(squarefree)

    @staticmethod
    def rational(q: Rational) -> "RealConstant":
        return RealConstant.from_terms({1: q})

    @staticmethod
    def sqrt(m: int, coeff: Rational = 1) -> "RealConstant":
        return RealConstant.from_terms({m: coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        return all(m == 1 for m, _ in self.terms)

    def coefficient(self, m: int) -> Fraction:
        for radicand, q in self.terms:
            if radicand == m:
                return q
        return Fraction(0)

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise InvariantViolation(f"not a rational value: {self}")
        return self.terms[0][1] if self.terms else Fraction(0)

    # -- arithmetic (Q-linear only) ----------------------------------------

    def __add__(self, other: "RealConstant") -> "RealConstant":
        return combine(self, other, 1, 1)

    def __sub__(self, other: "RealConstant") -> "RealConstant":
        return combine(self, other, 1, -1)

    def __neg__(self) -> "RealConstant":
        return self.scale(-1)

    def scale(self, q: Rational) -> "RealConstant":
        q = Fraction(q)
        if q == 0:
            return ZERO
        return RealConstant._trusted(tuple((m, c * q) for m, c in self.terms))

    def __mul__(self, other: Rational) -> "RealConstant":
        if isinstance(other, RealConstant):
            raise TypeError("multiplication of two constants is not supported")
        return self.scale(other)

    __rmul__ = __mul__

    def __truediv__(self, q: Rational) -> "RealConstant":
        if isinstance(q, RealConstant):
            raise TypeError("division by an irrational constant is not supported")
        return div_by_rational(self, q)

    # -- decisions ----------------------------------------------------------

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the value at the given dyadic precision."""
        lo = hi = Fraction(0)
        for m, q in self.terms:
            # root / 2^bits is sqrt(1) exactly, or below sqrt(m) by less than 2^-bits.
            root = math.isqrt(m << (2 * bits))
            ends = Fraction(q * root, 1 << bits), Fraction(q * (root + (m != 1)), 1 << bits)
            lo, hi = lo + min(ends), hi + max(ends)
        return lo, hi

    def _dots(self) -> tuple[list[tuple[int, int]], int]:
        """Integer dots of the value times the common denominator, and that denominator."""
        scale = math.lcm(*(q.denominator for _, q in self.terms))
        return [(m, q.numerator * (scale // q.denominator)) for m, q in self.terms], scale

    def sign(self) -> int:
        return dots_sign(self._dots()[0])

    def floor(self) -> int:
        return dots_floor(*self._dots())

    def __lt__(self, other: "RealConstant") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "RealConstant") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "RealConstant") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "RealConstant") -> bool:
        return (self - other).sign() >= 0

    # -- text and JSON -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, q in self.terms:
            mag = abs(q)
            if m == 1:
                body = format_rational(mag)
            elif mag == 1:
                body = f"sqrt({m})"
            else:
                body = f"{format_rational(mag)}*sqrt({m})"
            parts.append(("- " if q < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def to_json(self) -> dict[str, str]:
        return {str(m): format_rational(q) for m, q in self.terms}

    @staticmethod
    def from_json(obj: Mapping[str, str]) -> "RealConstant":
        if not isinstance(obj, Mapping):
            raise ParseError(f"constant must be a JSON object, got {type(obj).__name__}")
        terms = []  # pairs, not a dict: "2" and "02" sum as "2" and "8" do
        for key, value in obj.items():
            if not isinstance(key, str) or not _RADICAND_RE.fullmatch(key):
                raise ParseError(f"bad radicand key: {key!r}")
            terms.append((parse_integer(key), parse_rational(value)))
        return RealConstant.from_terms(terms)


def _term_text(v: object) -> str:
    return format_rational(v) if type(v) in (int, Fraction) else repr(v)


ZERO = RealConstant._trusted(())
ONE = RealConstant._trusted(((1, Fraction(1)),))


def _accumulate(terms: Iterable[tuple[int, Fraction]]) -> RealConstant:
    """The canonical constant of (squarefree radicand, coefficient) terms:
    equal radicands summed, zero sums dropped, sorted by radicand."""
    acc: dict[int, Fraction] = {}
    for m, q in terms:
        acc[m] = acc.get(m, Fraction(0)) + q
    return RealConstant._trusted(tuple(sorted((m, q) for m, q in acc.items() if q != 0)))


def combine(a: RealConstant, b: RealConstant, s: Rational, t: Rational) -> RealConstant:
    """Exact s*a + t*b."""
    return linear_combination(((s, a), (t, b)))


def linear_combination(pairs: Iterable[tuple[Rational, RealConstant]]) -> RealConstant:
    """Exact sum of coefficient * constant over the pairs."""
    return _accumulate((m, coeff * q) for coeff, const in pairs for m, q in const.terms)


def div_by_rational(a: RealConstant, s: Rational) -> RealConstant:
    s = Fraction(s)
    if s == 0:
        raise ZeroDivisionError("division of a constant by zero")
    return a.scale(1 / s)


def q_rank(constants: Sequence[RealConstant]) -> int:
    """Dimension over Q of the span of the given constants."""
    keys = sorted({m for c in constants for m, _ in c.terms})
    if not keys:
        return 0
    return linalg.rational_rank(
        [linalg.clear_denominators([c.coefficient(m) for m in keys]) for c in constants])


def mod_one(a: RealConstant) -> RealConstant:
    """Representative of a mod 1 in [0, 1): only the rational term moves."""
    surds = tuple(t for t in a.terms if t[0] != 1)
    whole = a.coefficient(1) - a.floor()
    return RealConstant._trusted(((1, whole),) + surds if whole else surds)
