"""Translation-number invariants of anchored orderings.

The stable values of a basis of the (torsion-free) abelianization, reduced
mod 1, form the rotation class of an anchored ordering: a tuple in [0,1)^b
that plays the role of a bounded-cohomology class whenever real bounded
2-cohomology of the subgroup vanishes.  The unreduced tuple (with an
infinity marker when the anchor is not cofinal) is the translation-value
lift.  Every component is an exact constant: a pairing ratio on flag
orderings, and on braid cones, whose anchor is then a twist power, a
fractional Dehn twist coefficient read off one short certified window.

Also here: naturality of the class under restriction, the construction of a
flag ordering realizing prescribed translation numbers (exactly those tuples
pairing to 1 with the anchor are realizable), and the doubled-circle
coordinates for orderings of Z^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import (
    GroupMismatch,
    InvariantViolation,
    MembershipUnknown,
    NotCofinal,
    NotRealizable,
    NotRightInvariant,
    UnsupportedInput,
    printable_int,
)
from .exactreal import ONE, RealConstant, linear_combination, mod_one, q_rank
from .groups import BraidWord, Element, GroupRef, LatticeElement, full_twist
from .orderings import (
    Cone,
    Decision,
    DehornoyOrdering,
    FlagOrdering,
    cone_sign,
    flag_only,
    is_central_braid,
    is_cofinal,
    is_right_invariant,
)
from .quasimorph import AnchorContext, stable_enclosure, stable_exact
from .records import Record


def default_basis(group: GroupRef) -> tuple[Element, ...]:
    """Basis of the free part of the abelianization.

    For Z^n the standard basis; for braid groups the abelianization is Z and
    all generators are homologous, so the first generator represents it.
    """
    if group.is_abelian:
        return tuple(group.generators())
    return (group.generators()[0],)


def _anchor_is_cofinal(cone: Cone, x: Element) -> bool:
    """Whether the anchor is certified cofinal; raises unless right-invariance
    is certified, which holds only for central anchors, where cofinality is
    decided."""
    invariance = is_right_invariant(cone, x)
    if invariance.outcome == Decision.NO:
        raise NotRightInvariant(
            f"right multiplication by {x.render()!r} does not preserve the order "
            f"(witness {invariance.witness.render()!r})")
    if invariance.outcome == Decision.UNKNOWN:
        raise MembershipUnknown("right-invariance under the anchor is undecided")
    return is_cofinal(cone, x) == Decision.YES


def unwrap_central_conjugation(cone: Cone, x: Element) -> Cone:
    """Drop a Dehornoy cone's conjugator when the anchor is central.

    Stable values are conjugation-invariant, so a conjugated cone has the
    same translation invariants as the Dehornoy cone whenever the anchor is
    central.
    """
    if isinstance(cone, DehornoyOrdering) and cone.conjugator.letters and \
            is_central_braid(cone, x):
        return DehornoyOrdering(cone.group)
    return cone


def _twist_values(cone: Cone, x: BraidWord, basis: Sequence[Element]) -> tuple[RealConstant, ...]:
    """Exact stable values under a central anchor x = Delta^2j on n strands.

    Under Delta^2 the Dehornoy stable value is the fractional Dehn twist
    coefficient (Malyutin, "Twist number of (closed) braids", St. Petersburg
    Math. J. 16, 2005), a rational of denominator at most n (Kazez-Roberts,
    "Fractional Dehn twists in knot theory and contact topology", AGT 13,
    2013).  Two such rationals lie at least 1/(n(n-1)) apart, so the window
    of width 1/(n(n-1)+1) holds exactly one; under Delta^2j it is divided by j.
    """
    if not isinstance(cone, DehornoyOrdering):
        raise UnsupportedInput(f"{type(cone).__name__} has no exact stable values")
    n = cone.group.strands
    ctx = AnchorContext(cone, full_twist(n))
    j = x.exponent_sum() // (n * (n - 1))
    values = []
    for h in basis:
        lo, hi = stable_enclosure(ctx, h, n * (n - 1) + 1)
        inside = {f for q in range(1, n + 1) if (f := Fraction(math.ceil(lo * q), q)) <= hi}
        if len(inside) != 1:
            raise InvariantViolation(f"twist window [{lo}, {hi}] of {h.render()!r} holds "
                                     f"{len(inside)} fractions of denominator at most {n}")
        values.append(RealConstant.rational(inside.pop() / j))
    return tuple(values)


class RotationClass(Record):
    """Mod-1 stable values on an abelianization basis; each entry in [0,1)."""

    components: tuple[RealConstant, ...]
    basis: tuple[Element, ...]

    def __post_init__(self) -> None:
        for c in self.components:
            if c.floor() != 0:
                raise InvariantViolation(f"rotation class component {c} outside [0,1)")

    def equals(self, other: "RotationClass") -> Decision:
        if len(self.components) != len(other.components):
            raise GroupMismatch("rotation classes over different bases")
        return Decision.YES if self.components == other.components else Decision.NO

    def to_json(self) -> dict:
        return {
            "components": [{"exact": c.to_json()} for c in self.components],
            "basis": [b.render() for b in self.basis],
        }


class TranslationValues(Record):
    """Unreduced stable values, or the infinity marker for non-cofinal anchors."""

    components: tuple[RealConstant, ...] | None
    basis: tuple[Element, ...]

    @property
    def is_infinity(self) -> bool:
        return self.components is None

    def to_json(self) -> dict:
        if self.is_infinity:
            return {"infinity": True, "basis": [b.render() for b in self.basis]}
        return {
            "infinity": False,
            "components": [{"exact": c.to_json()} for c in self.components],
            "basis": [b.render() for b in self.basis],
        }


def _stable_components(cone: Cone, x: Element,
                       basis: Sequence[Element]) -> tuple[RealConstant, ...]:
    if isinstance(cone, FlagOrdering):
        return tuple(stable_exact(cone, x, y) for y in basis)
    return _twist_values(cone, x, basis)


def rotation_class(cone: Cone, x: Element,
                   basis: Sequence[Element] | None = None) -> RotationClass:
    """Stable values of the basis, reduced mod 1.

    Requires the anchor to be order-compatible (right-invariance) and
    cofinal; an Unknown membership answer raises rather than guessing.
    """
    cone = unwrap_central_conjugation(cone, x)
    if not _anchor_is_cofinal(cone, x):
        raise NotCofinal(f"{x.render()!r} is not cofinal for the subgroup")
    basis = tuple(basis) if basis is not None else default_basis(cone.group)
    return RotationClass(tuple(mod_one(c) for c in _stable_components(cone, x, basis)), basis)


def translation_values(cone: Cone, x: Element,
                       basis: Sequence[Element] | None = None) -> TranslationValues:
    """The unreduced lift; non-cofinal anchors map to infinity."""
    cone = unwrap_central_conjugation(cone, x)
    basis = tuple(basis) if basis is not None else default_basis(cone.group)
    if not _anchor_is_cofinal(cone, x):
        return TranslationValues(None, basis)
    return TranslationValues(_stable_components(cone, x, basis), basis)


# ---------------------------------------------------------------------------
# naturality under restriction


class NaturalityReport(Record):
    passed: bool
    sublattice_basis: tuple[tuple[int, ...], ...]
    pulled_back: tuple[RealConstant, ...]
    restricted: tuple[RealConstant, ...]


def _integer_coordinates(basis_rows: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    coords = linalg.lattice_coordinates(basis_rows, vec)
    if coords is None:
        raise InvariantViolation("vector not in the sublattice it was built from")
    return coords


def naturality_check(flag: FlagOrdering, x: LatticeElement,
                     sublattice: Sequence[LatticeElement]) -> NaturalityReport:
    """Restriction commutes with the class: pull back the values on the big
    lattice to the sublattice, versus recomputing inside the restricted
    ordering; both reductions mod 1 must agree exactly.

    The restricted ordering is taken on the lattice generated by the
    sublattice together with the anchor, so the anchor survives restriction.
    """
    flag_only(flag.group, "naturality")
    columns = [k.coords for k in sublattice]
    ambient = translation_values(flag, x)
    if ambient.is_infinity:
        raise NotCofinal("anchor is not cofinal on the ambient lattice")
    pulled = tuple(
        mod_one(linear_combination(zip(col, ambient.components)))
        for col in columns)

    span_rows = [list(col) for col in columns] + [list(x.coords)]
    basis_rows = linalg.row_hnf(span_rows)
    restricted_flag = flag.restrict(basis_rows)
    sub = restricted_flag.group
    x_inside = LatticeElement(sub, tuple(_integer_coordinates(basis_rows, x.coords)))
    restricted = []
    for col in columns:
        k_inside = LatticeElement(sub, tuple(_integer_coordinates(basis_rows, col)))
        restricted.append(mod_one(stable_exact(restricted_flag, x_inside, k_inside)))
    restricted = tuple(restricted)

    passed = all(a == b for a, b in zip(pulled, restricted))
    return NaturalityReport(passed, tuple(tuple(b) for b in basis_rows), pulled, restricted)


# ---------------------------------------------------------------------------
# construction from prescribed translation numbers


def is_realizable(values: Sequence[RealConstant], x: LatticeElement) -> bool:
    """Prescribed translation numbers are realizable iff they pair to exactly 1."""
    pairing = linear_combination(zip(x.coords, values))
    return pairing == ONE


def construct_from_translations(values: Sequence[RealConstant], x: LatticeElement) -> FlagOrdering:
    """A flag ordering whose translation numbers at the anchor are the values.

    The first level is the prescribed vector itself; the remaining levels
    order the integer kernel of the pairing lexicographically in the
    coordinates of its Hermite-form basis.  Read-back: the stable value of
    e_i is values[i], and the rotation class is the values mod 1.
    """
    flag_only(x.group, "construct")
    n = len(values)
    if x.group.rank != n:
        raise GroupMismatch("anchor rank does not match the value vector")
    if x.is_identity:
        raise NotRealizable("anchor must be a nonzero lattice element")
    if not is_realizable(values, x):
        pairing = linear_combination(zip(x.coords, values))
        raise NotRealizable(f"values pair to {pairing}, need exactly 1")

    keys = sorted({m for v in values for m, _ in v.terms})
    constraint_rows = [
        linalg.clear_denominators([v.coefficient(k) for v in values]) for k in keys]
    basis_rows = linalg.integer_kernel_basis(constraint_rows, n)

    duals: list[list[Fraction]] = []
    for l in range(len(basis_rows)):
        unit = [int(i == l) for i in range(len(basis_rows))]
        dual = linalg.hermite_solve(basis_rows, unit)
        if [sum(a * d for a, d in zip(row, dual)) for row in basis_rows] != unit:
            raise InvariantViolation("kernel basis has no dual functionals")
        duals.append(dual)

    levels = [list(values)] + [[RealConstant.rational(c) for c in dual] for dual in duals]
    try:
        return FlagOrdering.create(levels)
    except UnsupportedInput as exc:
        raise NotRealizable(f"rank completion failed: {exc}") from exc


# ---------------------------------------------------------------------------
# doubled-circle coordinates for orderings of Z^2


class SikoraPoint(Record):
    """Direction of a rank-2 flag, with the side bit for rational directions.

    A rational direction (p, q) is stored primitive; the side records the
    sign of the ordering on the kernel generator (-q, p), i.e. which of the
    two orderings with the same rational direction this is.  An irrational
    direction is stored as the first level rescaled to primitive integer
    coefficients.
    """

    kind: str  # "rational" | "irrational"
    direction: tuple
    side: int | None = None

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {
                "kind": "rational",
                "direction": [printable_int(c, "direction entry") for c in self.direction],
                "side": "plus" if self.side > 0 else "minus",
            }
        return {
            "kind": "irrational",
            "direction": [c.to_json() for c in self.direction],
        }


def sikora_coordinate(flag: FlagOrdering) -> SikoraPoint:
    """The doubled-circle coordinate of a flag ordering of Z^2.

    The direction is that of the first level that is not zero, which a total
    flag has; on a rational direction the kernel generator is nonzero, so the
    total flag signs it nonzero, and that sign is the side."""
    flag_only(flag.group, "sikora")
    if flag.group.rank != 2:
        raise UnsupportedInput("doubled-circle coordinates need rank 2")
    # A level that pairs to zero everywhere does not affect the order.
    c1, c2 = next(level for level in flag.levels if not all(c.is_zero for c in level))
    if q_rank([c1, c2]) == 2:
        return SikoraPoint("irrational", _primitive_pair(c1, c2))
    reference = c1 if not c1.is_zero else c2
    ref_key, ref_coeff = reference.terms[0]
    p, q = linalg.clear_denominators(
        [c1.coefficient(ref_key) / ref_coeff, c2.coefficient(ref_key) / ref_coeff])
    # Fix the sign so the first level is a positive multiple of (p, q).
    ref_int = p if not c1.is_zero else q
    if reference.sign() * (1 if ref_int > 0 else -1) < 0:
        p, q = -p, -q
    kernel_gen = LatticeElement(flag.group, (-q, p))
    return SikoraPoint("rational", (p, q), cone_sign(flag, kernel_gen))


def _primitive_pair(c1: RealConstant, c2: RealConstant) -> tuple[RealConstant, RealConstant]:
    coeffs = [q for c in (c1, c2) for _, q in c.terms]
    factor = linalg.clear_denominators(coeffs)[0] / coeffs[0]
    return (c1.scale(factor), c2.scale(factor))


def slope_of(point: SikoraPoint) -> RealConstant | None:
    """Second coordinate of the double cover: q/p, or None for infinity.

    For an irrational point the slope is the exact ratio of the direction
    entries, available when the first entry is rational (the same condition
    under which the translation value of the second generator is exact).
    """
    if point.kind == "rational":
        p, q = point.direction
        if p == 0:
            return None
        return RealConstant.rational(Fraction(q, p))
    c1, c2 = point.direction
    if c1.is_zero:
        return None
    if not c1.is_rational:
        raise UnsupportedInput(
            "slope of an irrational direction with irrational first entry "
            "is outside the supported constant field")
    return c2 / c1.as_rational()
