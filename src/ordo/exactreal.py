"""Exact constants in the rational span of square roots of squarefree integers.

A value is a finite sum  sum_m q_m * sqrt(m)  with rational coefficients q_m
and squarefree positive radicands m (m = 1 is the rational part).  Since
{sqrt(m) : m squarefree} is linearly independent over Q, the representation
is canonical and a value is zero iff its term map is empty.  This gives
decidable sign and floor: a nonzero value has a nonzero norm, so it is
bounded away from zero and from every integer it does not equal, and
dyadic refinement decides both with no precision cap; the bits it needs
grow with the size of the coefficients.  ``dots_sign`` and ``dots_floor``,
the one sign and the one floor engine, decide both on integer dots.

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

MAX_RADICAND = 1 << 32  # the largest radicand squarefree_split factors by trial division


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
    """Write m = s*s*m0 with m0 squarefree; returns (s, m0)."""
    if m <= 0:
        raise ParseError(f"radicand must be positive: {int_text(m)}")
    if m > MAX_RADICAND:
        raise UnsupportedInput(
            f"radicand {int_text(m)} is past the limit of {MAX_RADICAND} (MAX_RADICAND)")
    s, m0, d = 1, m, 2
    while d * d <= m0:
        while m0 % (d * d) == 0:
            m0 //= d * d
            s *= d
        d += 1
    return s, m0


def dots_sign(dots: Sequence[tuple[int, int]]) -> int:
    """Sign of sum d*sqrt(m) over nonzero integers d and distinct squarefree m:
    a^2*m1 against b^2*m2 for two terms of opposite signs, else dyadic
    refinement, which ends as the square roots are independent over Q."""
    m1, a = dots[0] if dots else (1, 0)
    if len(dots) == 2:
        m2, b = dots[1]
        if (a > 0) != (b > 0) and b * b * m2 > a * a * m1:
            a = b
    elif len(dots) > 2:
        slack, bits = sum(abs(d) for _, d in dots), 32
        # d*sqrt(m)*2^bits lies within |d| of d*isqrt(m << 2*bits).
        while abs(a := sum(d * math.isqrt(m << (2 * bits)) for m, d in dots)) < slack:
            bits *= 2
    return (a > 0) - (a < 0)


def dots_floor(dots: Sequence[tuple[int, int]], q: int) -> int:
    """Floor of sum d*sqrt(m) / q for dots as in dots_sign and an integer q != 0:
    the refinement of dots_sign, until its slack window lies between two
    multiples of q, which ends as an irrational value is no integer."""
    slack, bits = sum(abs(d) for m, d in dots if m != 1), 32  # rational terms are exact
    while True:
        a, unit = sum(d * math.isqrt(m << (2 * bits)) for m, d in dots), q << bits
        if (low := (a - slack) // unit) == (a + slack) // unit:
            return low
        bits *= 2


class RealConstant(Record):
    """Canonical form: sorted (radicand, coefficient) pairs, no zero coefficients."""

    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, terms: tuple[tuple[int, Fraction], ...]) -> None:
        set_field(self, "terms", terms)

    @staticmethod
    def from_terms(terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]]) -> "RealConstant":
        """Build from radicand -> coefficient data, normalizing radicands to squarefree."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        squarefree = []
        for m, q in items:
            s, m0 = squarefree_split(int(m))
            squarefree.append((m0, Fraction(q) * s))
        return _accumulate(squarefree)

    @staticmethod
    def rational(q: Rational) -> "RealConstant":
        return RealConstant.from_terms({1: Fraction(q)})

    @staticmethod
    def sqrt(m: int, coeff: Rational = 1) -> "RealConstant":
        return RealConstant.from_terms({m: Fraction(coeff)})

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
        return RealConstant(tuple((m, c * q) for m, c in self.terms))

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


ZERO = RealConstant(())
ONE = RealConstant(((1, Fraction(1)),))


def _accumulate(terms: Iterable[tuple[int, Fraction]]) -> RealConstant:
    """The canonical constant of (squarefree radicand, coefficient) terms:
    equal radicands summed, zero sums dropped, sorted by radicand."""
    acc: dict[int, Fraction] = {}
    for m, q in terms:
        acc[m] = acc.get(m, Fraction(0)) + q
    return RealConstant(tuple(sorted((m, q) for m, q in acc.items() if q != 0)))


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
    """Representative of a mod 1 in [0, 1)."""
    return combine(a, ONE, 1, -a.floor())
