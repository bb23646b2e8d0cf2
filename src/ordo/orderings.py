"""Positive-cone oracles for left orderings.

A cone knows its group and answers a total sign question: sign(g) is +1 when
g is order-positive, -1 when g is order-negative, 0 exactly for the identity.
The two axioms every cone must satisfy:

  LO1  positives are closed under multiplication;
  LO2  {positives, negatives, identity} partition the group.

Two concrete families are provided.  Flag orderings of Z^n compare the exact
pairings of an element against a sequence of constant vectors, first nonzero
pairing wins.  A flag is built only when the stacked rational expansion of
its levels has full rank, so every flag satisfies LO1/LO2 by construction.
The Dehornoy ordering of the braid group calls a word positive when it
admits a representative in which the lowest occurring generator index
appears only positively.  Its sign is read off the Dynnikov coordinates of
the braid (``BraidWord.key``), in integer arithmetic linear in the word length.  Handle reduction decides the
same question by rewriting words; it is kept as an independent check of the
coordinate sign.

``compare`` reads the sign of a product through ``Cone.sign_product``, which
the flag and Dehornoy cones answer without building the product, and
``check_group`` names the first operand of a foreign group; the one search
that sorts elements by a cone is in ``dynamics``.  Every braid cone is the
Dehornoy cone moved by one conjugator c (the identity by default), and its
Dynnikov frame (key(c), c^-1's letters), built with the cone, is its only
sign path: sign(g) is the sign of g's letters and then the tail acting on
the start key; floors read it only through ``frame_key``.  On a frame a sign,
a product sign or a comparison is one pass of the kernel over raw letters,
and ``compare`` first drops the words' common prefix.  Whether an element lies in a finite set is a question of
identity, not of order, and is answered by a dict on ``key``.

Also here: restriction of flag orderings to sublattices, ``act``, which
moves a Dehornoy cone by composing conjugators and returns a flag as is,
the bounded/exact membership predicates (cofinality, right-invariance under
an anchor, density), and ``flag_only``, the one refusal of braid input by
the computations defined on flag orderings only.
"""

from __future__ import annotations

import enum
import math
import random
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Callable, Iterable, Sequence

from . import linalg
from .errors import (
    AnchorIsIdentity,
    GroupMismatch,
    HandleReductionLimit,
    InvariantViolation,
    ParseError,
    UnsupportedInput,
)
from .exactreal import RealConstant, dots_sign
from .groups import (
    BraidWord,
    Element,
    GroupRef,
    LatticeElement,
    check_sample_count,
    dynnikov_act,
    free_reduce,
    inverse_letters,
    key_walk,
    parse_element,
    random_element,
    twist_key,
)
from .records import Record, cached

DEFAULT_REDUCTION_STEPS = 400_000


class Decision(str, enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown_within_cap"


class Density(str, enum.Enum):
    DENSE = "dense"
    DISCRETE = "discrete"
    UNKNOWN = "unknown_within_cap"


class Cone:
    """Order oracle interface: a group plus a total sign function."""

    group: GroupRef
    _frame: tuple[tuple[int, ...], Letters] | None = None  # the Dynnikov frame, if any
    least_key: tuple[int, ...] | None = None  # key of the least positive element, if known

    def sign(self, g: Element) -> int:
        raise NotImplementedError

    def sign_product(self, a: Element, b: Element) -> int:
        """sign(a * b); a cone that can read it without the product overrides this."""
        check_group(self, a)
        check_group(self, b)
        return self.sign(a * b)


def check_group(cone: Cone, g: Element, role: str = "element") -> None:
    if g.group is not cone.group and g.group != cone.group:
        raise GroupMismatch(f"{role} of {g.group} queried against cone over {cone.group}")


_FLAG_ONLY = {
    "construct": "the construction from translation numbers needs an anchor in Z^n",
    "convex": "the convexity criterion needs a flag ordering",
    "level_kernels": "level kernels need a flag ordering",
    "naturality": "the naturality check needs a flag ordering",
    "sikora": "sikora coordinates need a flag ordering of Z^2",
    "stable_exact": "exact stable values need a flag ordering",
}


def flag_only(group: GroupRef, computation: str) -> None:
    """Refuse a braid group for a computation defined on flag orderings of
    Z^n only: a ParseError (exit 2) with the computation's refusal text."""
    if not group.is_abelian:
        raise ParseError(_FLAG_ONLY[computation])


def cone_sign(cone: Cone, g: Element) -> int:
    check_group(cone, g)
    return cone.sign(g)


def compare(cone: Cone, a: Element, b: Element) -> int:
    """Sign of the order comparison: -1 if a < b, 0 if equal, +1 if a > b.

    On a cone with a Dynnikov frame a common prefix p drops out, as
    (p a')^-1 (p b') = a'^-1 b', whose letters act in one pass: no word is built."""
    frame = cone._frame
    if frame is None:
        return -cone.sign_product(a.inverse(), b)
    if a.group is not cone.group or b.group is not cone.group:
        check_group(cone, a)
        check_group(cone, b)
    la, lb = a.letters, b.letters
    c = _shared(la, lb)
    return -dynnikov_sign(frame[0], inverse_letters(la[c:]) + lb[c:] + frame[1])


def _shared(la: Letters, lb: Letters) -> int:  # the length of the common prefix
    c, n = 0, min(len(la), len(lb))
    while c < n and la[c] == lb[c]:
        c += 1
    return c


def quotient_sign(cone: Cone, g: Element) -> Callable[[Element], int]:
    """m -> sign(g^-1 m) = compare(m, g), for many m of the cone's group against one g.
    On a frame the prefix q of g = q s and m = q t drops out: t's letters and the
    tail act on key(c s^-1), cached per suffix s; a frameless cone reads ``sign_product``."""
    if cone._frame is None:
        return partial(cone.sign_product, g.inverse())
    (start, tail), lg = cone._frame, g.letters
    keys = {len(lg): start}  # k -> key(c s^-1), s g's letters from k on

    def sign(m: BraidWord) -> int:
        k = _shared(lg, m.letters)
        if k not in keys:  # acted from the nearest longer suffix's key
            a = min(a for a in keys if a > k)
            keys[k] = dynnikov_act(keys[a], inverse_letters(lg[k:a]))
        return dynnikov_sign(keys[k], m.letters[k:] + tail)
    return sign


# ---------------------------------------------------------------------------
# flag orderings of Z^n


class FlagOrdering(Cone, Record):
    """Lexicographic comparison against a flag of exact constant vectors, in integers.

    Total by construction: the constructor refuses levels whose stacked
    expansion has a nonzero kernel (``is_total``), so no nonzero element
    pairs to zero at every level and no flag query meets one."""

    group: GroupRef
    levels: tuple[tuple[RealConstant, ...], ...]

    def __init__(self, group: GroupRef, levels: Sequence[Sequence[RealConstant]]) -> None:
        if not group.is_abelian:
            raise ParseError("flag orderings are defined on free abelian groups")
        for j, level in enumerate(levels):
            if not isinstance(level, (tuple, list)):
                raise ParseError(f"flag level {j + 1} is of type {type(level).__name__}, "
                                 "not a list or tuple of constants")
            if len(level) != group.rank:
                raise ParseError(f"level length {len(level)} does not match rank {group.rank}")
            for i, c in enumerate(level):
                if not isinstance(c, RealConstant):
                    raise ParseError(f"entry {i + 1} of flag level {j + 1} is of type "
                                     f"{type(c).__name__}, not RealConstant")
        self.__dict__["group"] = group
        self.__dict__["levels"] = tuple(tuple(level) for level in levels)
        if not self.is_total():
            raise UnsupportedInput(
                "flag is rank-deficient: some nonzero vector pairs to zero at every level")

    @staticmethod
    def create(levels: Sequence[Sequence[RealConstant]]) -> "FlagOrdering":
        """The flag of these levels on Z^rank, rank the length of the first level."""
        if not levels:
            raise ParseError("a flag ordering needs at least one level")
        first = levels[0]  # a level that is not a sequence is refused by the constructor
        return FlagOrdering(GroupRef.free_abelian(len(first) if isinstance(first, (tuple, list))
                                                  else 1), levels)

    @staticmethod
    def from_rational_rows(rows: Sequence[Sequence[int | Fraction]]) -> "FlagOrdering":
        return FlagOrdering.create([[RealConstant.rational(x) for x in row] for row in rows])

    @staticmethod
    def lex(rank: int) -> "FlagOrdering":
        """The lexicographic ordering of Z^rank."""
        rows = [[1 if j == i else 0 for j in range(rank)] for i in range(rank)]
        return FlagOrdering.from_rational_rows(rows)

    @cached
    def _expansion(self) -> tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]:
        # Per level: a positive scale and one integer row per occurring
        # squarefree radicand m; the level pairs g to sum_m (row_m . g) sqrt(m) / scale.
        out = []
        for level in self.levels:
            keys = sorted({m for c in level for m, _ in c.terms})
            scale = math.lcm(*(q.denominator for c in level for _, q in c.terms))
            out.append((scale, tuple((k, tuple(int(c.coefficient(k) * scale) for c in level))
                                     for k in keys)))
        return tuple(out)

    def is_total(self) -> bool:
        stacked = [row for _, rows in self._expansion for _, row in rows]
        return linalg.rational_rank(stacked) == self.group.rank

    @cached
    def _generator_level(self) -> int:
        # The first level where some x_i pairs nonzero: one with a nonzero row entry.
        return next((j for j, (_, rows) in enumerate(self._expansion)
                     if any(any(row) for _, row in rows)), len(self.levels))

    def sign(self, g: LatticeElement) -> int:
        if g.group is not self.group:
            check_group(self, g)
        return self.coords_sign(g.coords)

    def sign_product(self, a: LatticeElement, b: LatticeElement) -> int:
        if a.group is not self.group or b.group is not self.group:
            check_group(self, a)
            check_group(self, b)
        return self.coords_sign([p + q for p, q in zip(a.coords, b.coords)])

    def coords_sign(self, coords: Sequence[int]) -> int:
        """The sign of the lattice point with these coordinates: every flag sign query."""
        found = self.first_dots(coords)
        return 0 if found is None else dots_sign(found[1])

    def first_dots(self, coords: Sequence[int]) -> tuple[int, tuple[tuple[int, int], ...]] | None:
        """(j, dots) at the first level j where the coordinates pair nonzero, to sum
        d*sqrt(m) / scale_j; None when there is none, which on a total flag is the identity.
        Every flag sign query enters here once, and each level it reads is one
        ``_level_dots`` loop: no element or constant is built."""
        for j, (_, rows) in enumerate(self._expansion):
            if dots := _level_dots(rows, coords):
                return j, dots
        return None

    def level_pairing(self, j: int, g: LatticeElement | Sequence[int]) -> RealConstant:
        coords = g.coords if isinstance(g, LatticeElement) else g
        scale, rows = self._expansion[j]
        return RealConstant._trusted(tuple((m, Fraction(d, scale))
                                           for m, d in _level_dots(rows, coords)))

    def restrict(self, basis: Sequence[LatticeElement] | Sequence[Sequence[int]]) -> "FlagOrdering":
        """The induced ordering on the sublattice spanned by the basis columns.
        It is total, as this flag is and the basis has full rank; a refusal by
        the constructor is therefore a bug (InvariantViolation)."""
        columns = [b.coords if isinstance(b, LatticeElement) else tuple(b) for b in basis]
        if not columns:
            raise UnsupportedInput("restriction needs at least one basis vector")
        for col in columns:
            if len(col) != self.group.rank:
                raise UnsupportedInput("basis vector length does not match the ambient rank")
        matrix = [list(col) for col in columns]
        if linalg.rational_rank(matrix) != len(columns):
            raise UnsupportedInput("restriction basis is rank-deficient")
        new_levels = []
        for j in range(len(self.levels)):
            new_level = tuple(self.level_pairing(j, col) for col in columns)
            if any(not c.is_zero for c in new_level):
                new_levels.append(new_level)
        try:
            return FlagOrdering(GroupRef.free_abelian(len(columns)), tuple(new_levels))
        except UnsupportedInput as exc:
            raise InvariantViolation("restriction of a total flag lost totality") from exc


def _level_dots(rows: Sequence[tuple[int, Sequence[int]]],
                coords: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(radicand, integer dot product) per row of a level, zero dots dropped: the
    one home of the level dot product.  A plain loop, as every flag sign scans
    through it and a generator frame per level cost about a third of a scan."""
    dots = []
    for m, row in rows:
        if dot := sum(map(mul, row, coords)):
            dots.append((m, dot))
    return tuple(dots)


# ---------------------------------------------------------------------------
# handle reduction and the Dehornoy ordering

Letters = tuple[tuple[int, int], ...]


def handle_reduce(letters: Iterable[tuple[int, int]], strands: int) -> Letters:
    """Reduce a braid word until it contains no handle.

    A handle is a subword  s_i^e ... s_i^-e  whose interior only uses
    generator indices > i; reducing it deletes the flanking letters and
    rewrites each interior s_{i+1}^d as s_{i+1}^-e s_i^d s_{i+1}^e.  The
    first handle (earliest closing letter) is reduced at every step, so the
    handle being reduced never contains a nested one.  The step cap guards
    against implementation bugs; the procedure itself always terminates.
    """
    word = list(free_reduce(letters))
    steps = 0
    while True:
        last = [-1] * (strands + 1)
        handle = None
        for j, (idx, e) in enumerate(word):
            p = -1
            for i in range(1, idx + 1):
                if last[i] > p:
                    p = last[i]
            if p >= 0 and word[p][0] == idx and word[p][1] == -e:
                handle = (p, j)
                break
            last[idx] = j
        if handle is None:
            return tuple(word)
        p, j = handle
        idx, e = word[p]
        body: list[tuple[int, int]] = []
        for k, d in word[p + 1:j]:
            if k == idx + 1:
                body += ((k, -e), (idx, d), (k, e))
            else:
                body.append((k, d))
        word = list(free_reduce(word[:p] + body + word[j + 1:]))
        steps += 1
        if steps > DEFAULT_REDUCTION_STEPS:
            raise HandleReductionLimit(
                f"no reduced form after {DEFAULT_REDUCTION_STEPS} handle reductions")


def main_generator_sign(reduced: Letters) -> int:
    """Sign of a handle-free word: the lowest occurring index is one-signed."""
    if not reduced:
        return 0
    lowest = min(idx for idx, _ in reduced)
    signs = {e for idx, e in reduced if idx == lowest}
    if len(signs) != 1:
        raise InvariantViolation("handle-free word with a two-signed main generator")
    return signs.pop()


class DehornoyOrdering(Cone, Record):
    """Order oracle for the braid group via sigma-positivity, moved by a
    conjugator c: sign(g) is the sigma-sign of c g c^-1."""

    group: GroupRef
    conjugator: BraidWord

    def __init__(self, group: GroupRef, conjugator: BraidWord | None = None) -> None:
        if group.is_abelian:
            raise ParseError("the Dehornoy ordering lives on braid groups")
        c = group.identity() if conjugator is None else conjugator
        self.__dict__.update(group=group, conjugator=c)
        check_group(self, c, "conjugator")
        tail = inverse_letters(c.letters)
        # key(c^-1 s_(n-1) c), the least positive element (Dehornoy-Dynnikov-Rolfsen-Wiest).
        least = dynnikov_act((0, 1) * group.n, tail + ((group.n - 1, 1),) + c.letters) if tail \
            else (0, 1) * (group.n - 2) + (1, 0, 0, 2)  # key(s_(n-1)), with no kernel pass
        self.__dict__.update(_frame=(c.key, tail), least_key=least)

    @staticmethod
    def create(strands: int) -> "DehornoyOrdering":
        return DehornoyOrdering(GroupRef.braid(strands))

    def sign(self, g: BraidWord) -> int:
        if g.group is not self.group:
            check_group(self, g)
        start, tail = self._frame
        return dynnikov_sign(start, g.letters + tail) if tail else dynnikov_sign(g.key)

    def sign_product(self, a: BraidWord, b: BraidWord) -> int:
        if a.group is not self.group or b.group is not self.group:
            check_group(self, a)
            check_group(self, b)
        start, tail = self._frame
        if tail:
            return dynnikov_sign(start, a.letters + b.letters + tail)
        return dynnikov_sign(a.key, b.letters)


def dynnikov_sign(coords: tuple[int, ...], letters: Letters = ()) -> int:
    """First nonzero entry of (a1, b1 - 1, a2, b2 - 1, ...) of the Dynnikov
    coordinates moved by the letters: the Dehornoy sign of the braid with
    that key (Dehornoy, "Efficient solutions to the braid isotopy problem",
    Discrete Appl. Math. 156 (2008))."""
    if letters:
        coords = dynnikov_act(coords, letters)
    for k in range(0, len(coords), 2):
        a, b = coords[k], coords[k + 1]
        if a:
            return 1 if a > 0 else -1
        if b != 1:
            return 1 if b > 1 else -1
    return 0


def act(cone: Cone, h: Element) -> Cone:
    """Move the cone by h: the new cone ranks g by the old rank of h g h^-1.

    Conjugation is trivial in abelian groups, so the cone is returned as is.
    A Dehornoy cone with conjugator c becomes the one with conjugator c h.
    """
    check_group(cone, h, "conjugator")
    if cone.group.is_abelian:
        return cone
    if not isinstance(cone, DehornoyOrdering):
        raise UnsupportedInput(f"{type(cone).__name__} has no Dynnikov frame to conjugate")
    return DehornoyOrdering(cone.group, cone.conjugator * h)


def frame_key(cone: Cone, key: tuple[int, ...] | None = None,
              letters: Letters = ()) -> tuple[int, ...]:
    """The one reading of a braid cone's frame outside this module.  With no
    key: key(c), c the conjugator.  With key(c g): w's letters and then the
    tail c^-1 act on it in one kernel pass, giving key(c g w c^-1), whose
    ``dynnikov_sign`` is the cone's sign of g w (and key(g) when g is central
    and w empty).  A braid cone with no frame is refused."""
    if cone._frame is None:
        raise UnsupportedInput(f"{type(cone).__name__} has no Dynnikov frame to read floors on")
    start, tail = cone._frame
    return start if key is None else dynnikov_act(key, letters + tail)


def is_central_braid(cone: Cone, x: Element) -> bool:
    """Whether the anchor x is a (nonzero or zero) power of the full twist, hence central."""
    if x.group.is_abelian or x.is_identity:
        return True
    check_group(cone, x, "anchor")
    n = x.group.strands
    power, rest = divmod(x.exponent_sum(), n * (n - 1))
    return not rest and x.key == twist_key(n, power)


# ---------------------------------------------------------------------------
# axiom checking


class AxiomsReport(Record):
    passed: bool
    samples: int
    lo1_checked: int
    lo1_failures: tuple[str, ...]
    lo2_failures: tuple[str, ...]
    kernel_witness: str | None = None  # always None: every flag is total when built

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "samples": self.samples,
            "lo1_checked": self.lo1_checked,
            "lo1_failures": list(self.lo1_failures),
            "lo2_failures": list(self.lo2_failures),
            "kernel_witness": self.kernel_witness,
        }


def axioms_check(cone: Cone, samples: int, seed: int, radius: int = 8) -> AxiomsReport:
    """Sampled LO1/LO2 verification; failures are reported with witnesses.

    A flag's totality, which no sample can certify, is checked when the flag
    is built, so ``kernel_witness`` stays None.
    """
    check_sample_count(samples, cone.group, radius)
    rng = random.Random(seed)
    lo1_failures: list[str] = []
    lo2_failures: list[str] = []
    lo1_checked = 0
    for _ in range(samples):
        g = random_element(cone.group, rng, radius)
        h = random_element(cone.group, rng, radius)
        sg, sg_inv = cone_sign(cone, g), cone_sign(cone, g.inverse())
        if g.is_identity:
            ok = sg == 0 and sg_inv == 0
        else:
            ok = sg == -sg_inv and sg != 0
        if not ok:
            lo2_failures.append(g.render())
        if sg > 0 and cone_sign(cone, h) > 0:
            lo1_checked += 1
            if cone.sign_product(g, h) <= 0:
                lo1_failures.append(f"{g.render()} | {h.render()}")
    passed = not lo1_failures and not lo2_failures
    return AxiomsReport(passed, samples, lo1_checked, tuple(lo1_failures), tuple(lo2_failures))


# ---------------------------------------------------------------------------
# membership predicates


def is_cofinal(cone: Cone, x: Element,
               generators: Sequence[Element] | None = None) -> Decision:
    """Do powers of x bracket the subgroup generated by the given elements?

    Exact for flag orderings.  For braid cones the answer is Yes when x is a
    nonzero central twist power (universally cofinal) and Unknown otherwise,
    without a search: bracketing each generator would not extend to products
    without right-invariance (all generators of B_3 are bracketed by powers
    of s1, yet the full twist is not).
    """
    check_group(cone, x, "anchor")
    if x.is_identity:
        raise AnchorIsIdentity("cofinality anchor must not be the identity")
    check_generators(cone, generators)
    if isinstance(cone, FlagOrdering):
        return flag_cofinal(cone, cone.first_dots(x.coords), generators)
    return Decision.YES if is_central_braid(cone, x) else Decision.UNKNOWN


def check_generators(cone: Cone, generators: Sequence[Element] | None) -> None:
    for h in generators or ():
        check_group(cone, h, "generator")


def flag_cofinal(flag: FlagOrdering, anchor_dots: tuple | None,
                 generators: Sequence[LatticeElement] | None) -> Decision:
    """is_cofinal on a flag, from the anchor's ``first_dots`` scan."""
    # Powers of x bracket h iff x is seen at a level no later than h's;
    # an element seen at no level (the identity) counts as seen last.
    first = len(flag.levels) if anchor_dots is None else anchor_dots[0]
    least = flag._generator_level if generators is None else min(
        (len(flag.levels) if (found := flag.first_dots(g.coords)) is None else found[0]
         for g in generators), default=first)
    return Decision.YES if first <= least else Decision.NO


class InvarianceVerdict(Record):
    outcome: Decision
    witness: Element | None = None

    def to_json(self) -> dict:
        return {"outcome": self.outcome.value,
                "witness": None if self.witness is None else self.witness.render()}


def is_right_invariant(cone: Cone, x: Element, cap: int = 5) -> InvarianceVerdict:
    """Does right multiplication by x preserve the order of the group?

    Yes without search for abelian groups and for central braid anchors.
    Otherwise each braid z of ``key_walk`` over the generators, x and their
    inverses, up to cap steps, is checked once for sign(z) == sign(x^-1 z x);
    the first mismatch is a definite No.  A power of s_(n-1) has none under
    the unconjugated Dehornoy cone.  More than MAX_BALL_ELEMENTS braids are refused.
    """
    check_group(cone, x, "anchor")
    if is_central_braid(cone, x):
        return InvarianceVerdict(Decision.YES)
    if isinstance(cone, DehornoyOrdering) and not cone.conjugator.letters and \
            x.key == (x.group.generators()[-1] ** x.exponent_sum()).key:
        return InvarianceVerdict(Decision.UNKNOWN)
    steps = [h.letters for g in cone.group.generators() + [x] for h in (g, g.inverse())]
    x_inv = x.inverse()
    walk = key_walk(cone.group, steps, cap)
    next(walk)  # the identity
    for z in walk:
        if cone_sign(cone, z) != cone.sign_product(x_inv * z, x):
            return InvarianceVerdict(Decision.NO, z)
    return InvarianceVerdict(Decision.UNKNOWN)


class DensityVerdict(Record):
    outcome: Density
    minimal_positive: Element | None = None
    smallest_positive_seen: Element | None = None


def level_kernels(flag: FlagOrdering) -> list[tuple[tuple[int, ...], ...]]:
    """The chain of level-kernel sublattices K_1 >= K_2 >= ... (HNF bases).

    These are exactly the proper convex subgroups of a flag ordering; the
    fallback report when the convexity criterion's anchor is not cofinal.
    """
    flag_only(flag.group, "level_kernels")
    stacked: list[list[int]] = []
    out = []
    for _, rows in flag._expansion:
        stacked.extend(row for _, row in rows)
        out.append(tuple(map(tuple, linalg.integer_kernel_basis(stacked, flag.group.rank))))
    return out


def _flag_density(flag: FlagOrdering) -> DensityVerdict:
    """The first level with an empty kernel, which a total flag has, embeds the
    kernel before it, the last stratum, in R: dense at rank two or more, else
    discrete, its generator basis[0], signed, the minimal positive element."""
    rank = flag.group.rank
    basis = [[1 if j == i else 0 for j in range(rank)] for i in range(rank)]
    for kernel in level_kernels(flag):
        if not kernel:
            break
        basis = kernel
    if len(basis) >= 2:
        return DensityVerdict(Density.DENSE)
    candidate = LatticeElement(flag.group, tuple(basis[0]))
    if flag.sign(candidate) < 0:
        candidate = candidate.inverse()
    if flag.sign(candidate) <= 0:
        raise InvariantViolation("minimal positive candidate is not positive")
    return DensityVerdict(Density.DISCRETE, minimal_positive=candidate)


def is_dense(cone: Cone, cap: int = 5) -> DensityVerdict:
    """Dense means no minimal positive element.

    Exact for flag orderings: the final archimedean stratum is discrete iff
    it has rank 1, and then its generator, signed, is the minimal positive
    element.  For braid cones only a bounded search is run, one sign per
    braid of the radius-cap ball, walked lazily as ``braid_ball`` walks it,
    and the verdict stays Unknown, reporting the smallest positive found.
    The walk stops at the cone's least positive element (``least_key``).
    """
    if isinstance(cone, FlagOrdering):
        return _flag_density(cone)
    smallest: Element | None = None
    for w in key_walk(cone.group, [((i, e),) for i in range(1, cone.group.n) for e in (-1, 1)],
                      cap):  # braid_ball's walk, lazily
        # w < smallest reads sign(smallest^-1 w) < 0, with one inverse per new smallest.
        if cone.sign(w) > 0 and (smallest is None or cone.sign_product(smallest_inv, w) < 0):
            smallest, smallest_inv = w, w.inverse()
        if w.key == cone.least_key:  # no positive braid is smaller
            break
    return DensityVerdict(Density.UNKNOWN, smallest_positive_seen=smallest)


# ---------------------------------------------------------------------------
# JSON schema


def ordering_to_json(cone: Cone) -> dict:
    return {"group": cone.group.to_json(), "ordering": _part_to_json(cone)}


def _part_to_json(cone: Cone) -> dict:
    if isinstance(cone, FlagOrdering):
        return {
            "type": "flag",
            "levels": [[c.to_json() for c in level] for level in cone.levels],
        }
    if isinstance(cone, DehornoyOrdering):
        part = {"type": "dehornoy"}
        if cone.conjugator.letters:
            part = {"type": "conjugated", "base": part, "by": cone.conjugator.render()}
        return part
    raise UnsupportedInput(f"cannot serialize cone of type {type(cone).__name__}")


def ordering_from_json(doc: dict) -> Cone:
    if not isinstance(doc, dict) or "group" not in doc or "ordering" not in doc:
        raise ParseError("ordering document needs 'group' and 'ordering' fields")
    group = GroupRef.from_json(doc["group"])
    return _part_from_json(group, doc["ordering"])


def _part_from_json(group: GroupRef, obj: dict) -> Cone:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("ordering part needs a 'type' field")
    kind = obj["type"]
    if kind == "flag":
        levels = obj.get("levels")
        if not isinstance(levels, list) or not levels:
            raise ParseError("flag ordering needs a nonempty 'levels' list")
        if not all(isinstance(level, list) for level in levels):
            raise ParseError("each flag level must be a list of constants")
        parsed = [[RealConstant.from_json(c) for c in level] for level in levels]
        for level in parsed:
            if len(level) != group.rank:
                raise ParseError("flag level length does not match the group rank")
        return FlagOrdering.create(parsed)
    if kind == "dehornoy":
        if group.is_abelian:
            raise ParseError("the Dehornoy ordering needs a braid group")
        return DehornoyOrdering(group)
    if kind == "conjugated":
        base = _part_from_json(group, obj.get("base", {}))
        return act(base, parse_element(obj.get("by", ""), group))
    raise ParseError(f"unknown ordering type: {kind!r}")
