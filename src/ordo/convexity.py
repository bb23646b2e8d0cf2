"""Convexity certification for abelian subgroups, with a brute-force oracle.

A subgroup B of an ordered group A is convex when anything squeezed between
two B-elements already lies in B.  For a free abelian subgroup B of rank k
inside A = Z^n, given by an integer exponent matrix E (rows generate B),
convexity with respect to an anchored ordering is equivalent to three
checkable conditions on the translation numbers r_j of the coordinate
generators:

  1. every row of E is primitive (entries coprime);
  2. E r = 0 exactly;
  3. the Q-span of {r_1, ..., r_n} has dimension n - k.

The certification computes all three exactly on flag orderings.  The
independent oracle `brute_convex` knows nothing about translation numbers:
it enumerates a ball and looks for a betweenness violation directly.

Word-length obstructions: any element whose powers all have floor zero
forces  |sum_q e_q t_q| <= n  on the stable values t for every n-syllable
expression of it (equality 0 in the abelian case); intersecting these
constraints can certify that no ordering makes a cyclic subgroup convex.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import GroupMismatch, NotCofinal, ParseError, UnsupportedInput, parse_integer
from .exactreal import RealConstant, format_rational, linear_combination, q_rank
from .groups import Element, LatticeElement, check_ball_size
from .orderings import Cone, Decision, FlagOrdering, compare, flag_only, is_cofinal, level_kernels
from .quasimorph import stable_exact
from .records import Record


_ENTRY_RE = re.compile(r"-?[0-9]+")  # an exponent, as in a word expression's syllable


class ExponentMatrix(Record):
    """k x n integer matrix; row i encodes the subgroup generator
    x_1^{e_i1} ... x_n^{e_in}.  Rows must be linearly independent."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ParseError("exponent matrix needs at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ParseError("exponent matrix rows have unequal lengths")
        if linalg.rational_rank([list(r) for r in self.rows]) != len(self.rows):
            raise UnsupportedInput("exponent matrix rows are linearly dependent")

    @staticmethod
    def parse(text: str) -> "ExponentMatrix":
        """Rows separated by ';', entries by whitespace: "0 1; 1 0"."""
        rows = []
        for part in text.split(";"):
            entries = part.split()
            if not entries:
                raise ParseError("empty exponent matrix row")
            if not all(_ENTRY_RE.fullmatch(e) for e in entries):
                raise ParseError(f"bad exponent entry in {part!r}")
            rows.append(tuple(parse_integer(e) for e in entries))
        return ExponentMatrix(tuple(rows))

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def hnf(self) -> list[list[int]]:
        return linalg.row_hnf([list(r) for r in self.rows])


class ConvexityVerdict(Record):
    convex: bool
    failed_condition: int | None
    witness: str | None
    row_gcds: tuple[int, ...]
    pairing_values: tuple[RealConstant, ...]
    span_dimension: int
    translations: tuple[RealConstant, ...]

    def to_json(self) -> dict:
        return {
            "outcome": "Convex" if self.convex else "NotConvex",
            "failed_condition": self.failed_condition,
            "witness": self.witness,
            "row_gcds": list(self.row_gcds),
            "pairing_values": [v.to_json() for v in self.pairing_values],
            "span_dimension": self.span_dimension,
            "translations": [v.to_json() for v in self.translations],
        }


def check_convex(flag: FlagOrdering, x: LatticeElement, matrix: ExponentMatrix) -> ConvexityVerdict:
    """Certify convexity of the row span of the matrix via the three conditions.

    Needs a cofinal anchor and a saturated subgroup (torsion-free quotient);
    torsion quotients are rejected rather than extrapolated over.  For a
    level-one-blind anchor the criterion does not apply and the caller is
    pointed at the level-kernel fallback.

    The certificate binds relative to the anchor's archimedean stratum: on a
    flag ordering the certified subgroup is exactly the first level kernel.
    Deeper level kernels are convex too but sit inside the first; certify
    them by restricting the ordering to the first kernel and re-anchoring.
    """
    flag_only(flag.group, "convex")
    if matrix.n != flag.group.rank:
        raise GroupMismatch("exponent matrix width does not match the group rank")
    if matrix.k >= matrix.n:
        raise UnsupportedInput(
            "criterion needs a proper subgroup: k < n rows")
    if is_cofinal(flag, x) == Decision.NO:
        raise NotCofinal(
            "anchor is not cofinal; use level_kernels() to read convex "
            "subgroups off the flag directly")

    translations = tuple(stable_exact(flag, x, gen) for gen in flag.group.generators())
    row_gcds = tuple(linalg.vector_gcd(row) for row in matrix.rows)
    pairings = tuple(
        linear_combination(zip(row, translations)) for row in matrix.rows)
    span_dimension = q_rank(translations)

    for i, g in enumerate(row_gcds):
        if g != 1:
            return ConvexityVerdict(False, 1, f"row {i + 1} has gcd {g}",
                                    row_gcds, pairings, span_dimension, translations)
    # Torsion quotients that rowwise primitivity cannot see (possible for
    # k >= 2) are outside the criterion's reach; reject rather than guess.
    if not linalg.lattice_is_saturated([list(r) for r in matrix.rows]):
        raise UnsupportedInput(
            "subgroup has a torsion quotient inside its rational span; "
            "the criterion only applies to saturated subgroups")
    for i, value in enumerate(pairings):
        if not value.is_zero:
            return ConvexityVerdict(False, 2, f"row {i + 1} pairs to {value}",
                                    row_gcds, pairings, span_dimension, translations)
    expected = matrix.n - matrix.k
    if span_dimension != expected:
        return ConvexityVerdict(False, 3,
                                f"span dimension {span_dimension}, expected {expected}",
                                row_gcds, pairings, span_dimension, translations)
    return ConvexityVerdict(True, None, None, row_gcds, pairings, span_dimension, translations)


# ---------------------------------------------------------------------------
# brute-force betweenness oracle


class BruteForceResult(Record):
    violation: bool
    witness: Element | None = None
    below: Element | None = None
    above: Element | None = None

    def to_json(self) -> dict:
        if not self.violation:
            return {"outcome": "NoViolationInBall"}
        return {
            "outcome": "Violation",
            "witness": self.witness.render(),
            "below": self.below.render(),
            "above": self.above.render(),
        }


def brute_convex(cone: Cone, matrix: ExponentMatrix, radius: int) -> BruteForceResult:
    """Search the coordinate ball for an element squeezed between subgroup
    elements without belonging to the subgroup.  Independent of the
    translation-number criterion: only the sign oracle is consulted.
    """
    if radius < 1:
        raise UnsupportedInput("ball radius must be >= 1")
    if not cone.group.is_abelian:
        raise UnsupportedInput(
            "the exponent-matrix oracle enumerates coordinate balls of Z^n")
    if matrix.n != cone.group.rank:
        raise GroupMismatch("exponent matrix width does not match the group rank")
    check_ball_size(cone.group, radius)

    hnf = matrix.hnf()
    members: list[LatticeElement] = []
    outsiders: list[LatticeElement] = []
    for coords in itertools.product(range(-radius, radius + 1), repeat=matrix.n):
        g = LatticeElement(cone.group, coords)
        inside = linalg.lattice_coordinates(hnf, coords) is not None
        (members if inside else outsiders).append(g)

    return _squeezed(cone, members, outsiders)


def _squeezed(cone: Cone, members: Iterable[Element],
              outsiders: Iterable[Element]) -> BruteForceResult:
    """The first outsider strictly between the lowest and highest member."""
    lowest = highest = None
    for m in members:
        if lowest is None or compare(cone, m, lowest) < 0:
            lowest = m
        if highest is None or compare(cone, m, highest) > 0:
            highest = m
    # Between some pair of members iff between the extremes.
    for g in outsiders:
        if compare(cone, lowest, g) < 0 and compare(cone, g, highest) < 0:
            return BruteForceResult(True, g, lowest, highest)
    return BruteForceResult(False)


# ---------------------------------------------------------------------------
# word-length constraints on stable values


_SYLLABLE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?$")


class WordExpression(Record):
    """A product of syllables gen^exp; the syllable count drives the bound."""

    syllables: tuple[tuple[str, int], ...]
    source: str

    @staticmethod
    def parse(text: str) -> "WordExpression":
        syllables = []
        for token in text.split():
            match = _SYLLABLE_RE.match(token)
            if not match:
                raise ParseError(f"bad syllable {token!r}")
            name, exp = match.groups()
            syllables.append((name, parse_integer(exp) if exp is not None else 1))
        if not syllables:
            raise ParseError("empty word expression")
        return WordExpression(tuple(syllables), text)

    @property
    def syllable_count(self) -> int:
        return len(self.syllables)

    def exponent_sums(self) -> dict[str, int]:
        sums: dict[str, int] = {}
        for name, exp in self.syllables:
            sums[name] = sums.get(name, 0) + exp
        return sums


class Constraint(Record):
    """|constant + coefficient * t| <= bound for one unknown stable value."""

    source: str
    unknown: str | None
    coefficient: Fraction
    constant: Fraction
    bound: Fraction

    def interval(self) -> tuple[Fraction, Fraction] | None:
        """Feasible interval for the unknown; None when no unknown is involved."""
        if self.unknown is None:
            return None
        lo = (-self.bound - self.constant) / self.coefficient
        hi = (self.bound - self.constant) / self.coefficient
        return (min(lo, hi), max(lo, hi))

    def holds_without_unknown(self) -> bool:
        return abs(self.constant) <= self.bound

    def describe(self) -> str:
        if self.unknown is None:
            return f"|{format_rational(self.constant)}| <= {format_rational(self.bound)}"
        return (f"|{format_rational(self.constant)} + "
                f"{format_rational(self.coefficient)}*{self.unknown}| "
                f"<= {format_rational(self.bound)}")


class ConstraintVerdict(Record):
    feasible: bool
    intervals: Mapping[str, tuple[Fraction, Fraction]]
    conflict: tuple[Constraint, Constraint] | None

    def to_json(self) -> dict:
        body = {
            "outcome": "Feasible" if self.feasible else "Infeasible",
            "intervals": {
                name: [format_rational(lo), format_rational(hi)]
                for name, (lo, hi) in self.intervals.items()
            },
        }
        if self.conflict is not None:
            body["conflict"] = []
            for c in self.conflict:
                entry = {"constraint": c.describe(), "source": c.source}
                window = c.interval()
                if window is not None:
                    entry["interval"] = [format_rational(window[0]),
                                         format_rational(window[1])]
                body["conflict"].append(entry)
        return body


def word_constraints(expressions: Sequence[WordExpression | str],
                     pinned: Mapping[str, Fraction | int],
                     abelian: bool = False) -> ConstraintVerdict:
    """Intersect the stable-value constraints of several expressions of one element.

    Each n-syllable expression contributes |sum_q e_q t_q| <= n over the
    stable values t; pinned names are substituted first.  In the abelian
    case the constraint tightens to equality with zero.  At most one unknown
    may remain per expression (the supported fragment); Infeasible exposes a
    contradicting pair of constraints.
    """
    parsed = [WordExpression.parse(e) if isinstance(e, str) else e for e in expressions]
    pins = {name: Fraction(v) for name, v in pinned.items()}

    constraints: list[Constraint] = []
    for expr in parsed:
        sums = expr.exponent_sums()
        constant = Fraction(0)
        unknowns: dict[str, int] = {}
        for name, e in sums.items():
            if name in pins:
                constant += e * pins[name]
            elif e != 0:
                unknowns[name] = e
        if len(unknowns) > 1:
            raise UnsupportedInput(
                f"expression {expr.source!r} leaves {len(unknowns)} unknowns; "
                "pin all but one stable value")
        bound = Fraction(0) if abelian else Fraction(expr.syllable_count)
        if unknowns:
            (name, coeff), = unknowns.items()
            constraints.append(Constraint(expr.source, name, Fraction(coeff), constant, bound))
        else:
            constraints.append(Constraint(expr.source, None, Fraction(0), constant, bound))

    intervals: dict[str, tuple[Fraction, Fraction, Constraint, Constraint]] = {}
    for c in constraints:
        if c.unknown is None:
            if not c.holds_without_unknown():
                return ConstraintVerdict(False, {}, (c, c))
            continue
        lo, hi = c.interval()
        if c.unknown not in intervals:
            intervals[c.unknown] = (lo, hi, c, c)
            continue
        cur_lo, cur_hi, lo_src, hi_src = intervals[c.unknown]
        if lo > cur_lo:
            cur_lo, lo_src = lo, c
        if hi < cur_hi:
            cur_hi, hi_src = hi, c
        if cur_lo > cur_hi:
            return ConstraintVerdict(False, {}, (lo_src, hi_src))
        intervals[c.unknown] = (cur_lo, cur_hi, lo_src, hi_src)

    return ConstraintVerdict(
        True, {name: (lo, hi) for name, (lo, hi, _, _) in intervals.items()}, None)


# ---------------------------------------------------------------------------
# nesting of convex subgroups


class NestingReport(Record):
    passed: bool
    relations: tuple[str, ...]


def nesting_check(matrices: Sequence[ExponentMatrix]) -> NestingReport:
    """Convex subgroups of one ordering must form a chain: for every pair,
    one row lattice contains the other."""
    relations = []
    passed = True
    for i, j in itertools.combinations(range(len(matrices)), 2):
        a, b = matrices[i].hnf(), matrices[j].hnf()
        ab = linalg.lattice_contains(a, b)
        ba = linalg.lattice_contains(b, a)
        if ab and ba:
            relations.append(f"B{i + 1} = B{j + 1}")
        elif ab:
            relations.append(f"B{j + 1} < B{i + 1}")
        elif ba:
            relations.append(f"B{i + 1} < B{j + 1}")
        else:
            relations.append(f"B{i + 1} and B{j + 1} are incomparable")
            passed = False
    return NestingReport(passed, tuple(relations))
