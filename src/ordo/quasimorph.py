"""The bracketing quasimorphism of an anchored ordering and its stable map.

Fix a cone P and an anchor x with x != 1.  When powers of x bracket a
subgroup H and right multiplication by x preserves the order on <H, x>, the
integer

    power_floor(h) = N  with  x^N <= h < x^{N+1}   (x positive)
                     N  with  x^N <= h < x^{N-1}   (x negative)

is a quasimorphism of defect 1 on H: bracketing f and g separately brackets
fg within a two-power window.  Its stable map

    stable(h) = lim power_floor(h^N) / N

is homogeneous and conjugation-invariant; the defect bound makes
power_floor(h^N)/N a certified approximation with radius 1/N.  On flag
orderings the stable map is computed exactly as a pairing ratio, and, when
the anchor pairs rationally, power_floor is closed-form at any size up to
the integer-string digit limit: read off that ratio and certified by two
cone queries.  The exponent cap bounds only the search on braids, whose
probes act h's letters on cached Dynnikov keys of anchor powers, and on
irrational pairings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    AnchorIsIdentity,
    InvariantViolation,
    NotBracketedWithinCap,
    NotCofinal,
    OrdoError,
    UnsupportedInput,
    int_text,
    printable_int,
)
from .exactreal import ONE, RealConstant, combine, dots_floor, dots_sign, format_rational
from .groups import (
    MAX_BRAID_LETTERS,
    BraidWord,
    Element,
    check_sample_count,
    dynnikov_act,
    inverse_letters,
    random_element,
)
from .orderings import (Cone, Decision, FlagOrdering, Letters, check_generators, check_group,
                        cone_sign, dynnikov_sign, flag_cofinal, flag_only, frame_key)
from .records import Record

DEFAULT_CAP = 1 << 62
DEFAULT_APPROX_ORDER = 300


class AnchorContext(Record):
    """A cone with a bracketing anchor and the subgroup the floors live on.

    With require_cofinal the context refuses anchors certified non-cofinal
    (exact on flag orderings); without it a non-cofinal anchor surfaces
    later as NotBracketedWithinCap from the search itself.  The context reads
    the anchor's sign (``anchor_sign``) when it is built, and on a flag its
    level scan (``anchor_dots``, else None), which gives its cofinality and
    every floor's pairing ratio.  On a braid cone it caches the Dynnikov keys
    of the anchor powers, key(c x^n) with c the cone's conjugator
    (``power_key``), and refuses a cone with no frame; ``_splits`` memoizes
    the circle splits (``dynamics._split``).  Its fields and caches go in by
    one ``__dict__`` update, once every check has passed.
    """

    cone: Cone
    anchor: Element
    generators: tuple[Element, ...] | None
    cap: int
    require_cofinal: bool

    def __init__(self, cone: Cone, anchor: Element, generators: tuple[Element, ...] | None = None,
                 cap: int = DEFAULT_CAP, require_cofinal: bool = True) -> None:
        flag = isinstance(cone, FlagOrdering)
        keys = {} if flag else {0: frame_key(cone)}
        check_group(cone, anchor, "anchor")
        if cap < 1:
            raise UnsupportedInput("search cap must be positive")
        dots = cone.first_dots(anchor.coords) if flag else None
        sign = dots_sign(dots[1]) if dots else cone_sign(cone, anchor)
        if sign == 0:
            raise AnchorIsIdentity("anchor must not be the identity")
        if require_cofinal and flag:
            check_generators(cone, generators)
            if flag_cofinal(cone, dots, generators) == Decision.NO:
                raise NotCofinal("anchor is not cofinal for the requested subgroup")
        self.__dict__.update(cone=cone, anchor=anchor, generators=generators, cap=cap,
                             require_cofinal=require_cofinal, anchor_dots=dots,
                             anchor_sign=sign, _splits={}, _keys=keys)

    def power_key(self, n: int) -> tuple[int, ...]:
        """key(c x^n), c the braid cone's conjugator, cached per context: |n - m|
        anchor letters act on the cached key(c x^m) of the same sign nearest below
        (|m| < |n|).  An x^n past MAX_BRAID_LETTERS letters is refused unbuilt."""
        key = self._keys.get(n)
        if key is None:
            _check_power(self.anchor, n, "floor probe")
            below = max((m for m in self._keys if 0 <= m * n < n * n), key=abs)
            unit = self.anchor.letters if n > 0 else inverse_letters(self.anchor.letters)
            key = self._keys[n] = dynnikov_act(self._keys[below], unit * abs(n - below))
        return key


def _max_true(pred: Callable[[int], bool], cap: int, sign: int = 1) -> int:
    """Largest N with pred(N), where pred holds on a down-closed set of Z; with
    sign -1 the least N with pred(N), where pred holds on an up-closed set."""
    if sign < 0:
        return -_max_true(lambda m: pred(-m), cap)
    if pred(0):
        lo, hi = 0, 1
        while pred(hi):
            lo, hi = hi, hi * 2
            if hi > cap:
                raise NotBracketedWithinCap(f"no bracket within exponent cap {cap}")
    else:
        hi, lo = 0, -1
        while not pred(lo):
            hi, lo = lo, lo * 2
            if -lo > cap:
                raise NotBracketedWithinCap(f"no bracket within exponent cap {cap}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _pairing_dots(flag: FlagOrdering, seen_x: tuple, h: Element,
                  blind: type[OrdoError]) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """(q, dots): <v, h> / <v, x> = sum d*sqrt(m) / q at x's first level v, as the
    level's scale cancels, from x's first_dots seen_x (every caller has refused
    an identity anchor); None if x pairs irrationally there.  Raises `blind` if
    h pairs nonzero at an earlier level."""
    seen_h = flag.first_dots(h.coords)
    j, anchor_dots = seen_x
    if seen_h is not None and seen_h[0] < j:
        raise blind(f"element pairs nonzero at level {seen_h[0] + 1}, where the anchor is blind")
    if len(anchor_dots) > 1 or anchor_dots[0][0] != 1:
        return None
    return anchor_dots[0][1], seen_h[1] if seen_h is not None and seen_h[0] == j else ()


def power_floor(ctx: AnchorContext, h: Element) -> int:
    """The bracketing integer of h: closed-form on flags, else a capped search.

    Compares h against anchor powers through the cone only; every query is
    sign(x^-N h), so the value depends on finitely many cone answers: on a flag
    the sign of the lattice point h - N*x, with no element built, on a braid
    h's letters and the frame's tail acting on the context's key(c x^-N).
    """
    cone, s = ctx.cone, ctx.anchor_sign
    if h.group is not cone.group:
        check_group(cone, h)

    if isinstance(cone, FlagOrdering):
        def at_least(n: int) -> bool:
            return cone.coords_sign([a - n * b for a, b in zip(h.coords, ctx.anchor.coords)]) >= 0

        if (found := _pairing_dots(cone, ctx.anchor_dots, h, NotBracketedWithinCap)) is not None:
            # N is the floor (s = 1) or ceiling (s = -1) of the ratio
            # sum d*sqrt(m) / q, or ratio - s when lower levels decide an integer ratio.
            q, dots = found
            n = s * dots_floor(dots, s * q)
            if at_least(n):
                certified = not at_least(n + s)
            else:
                integral = all(m == 1 for m, _ in dots) and sum(d for _, d in dots) == n * q
                certified = integral and at_least(n - s)
                n -= s
            if not certified:
                raise InvariantViolation(f"flag floor {int_text(n)} failed its bracket certificate")
            return printable_int(n, "flag floor")
        return _max_true(at_least, ctx.cap, s)
    return _letters_floor(ctx, h.letters)


def _letters_floor(ctx: AnchorContext, letters: Letters) -> int:
    """power_floor on a braid cone of the braid with these letters, reduced or
    not: each probe is one kernel pass of the letters and the frame's tail."""
    cone = ctx.cone
    return _max_true(lambda n: dynnikov_sign(frame_key(cone, ctx.power_key(-n), letters)) >= 0,
                     ctx.cap, ctx.anchor_sign)


class StableValue(Record):
    """A certified approximation, optionally with the exact value attached."""

    approx: Fraction
    radius: Fraction
    exact: RealConstant | None = None

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise UnsupportedInput("radius must be nonnegative")
        if self.exact is not None:
            low = combine(self.exact, ONE, 1, -(self.approx - self.radius))
            high = combine(ONE, self.exact, self.approx + self.radius, -1)
            if low.sign() < 0 or high.sign() < 0:
                raise InvariantViolation(
                    f"exact value {self.exact} outside certified interval "
                    f"{self.approx} +- {self.radius}")

    def to_json(self) -> dict:
        return {
            "value": format_rational(self.approx),
            "radius": format_rational(self.radius),
            "exact": self.exact.to_json() if self.exact is not None else None,
        }


def stable_exact(flag: FlagOrdering, x: Element, h: Element) -> RealConstant:
    """Exact stable value on a flag ordering: a ratio of first-level pairings.

    At the first level seeing the anchor, power_floor(h^N) tracks
    N * <v, h> / <v, x> within 1, so the limit is the pairing ratio.  The
    anchor pairing must be a nonzero rational: irrational anchor pairings
    would take the ratio outside the supported constant field and are
    rejected rather than approximated.
    """
    flag_only(flag.group, "stable_exact")
    check_group(flag, x, "anchor")
    check_group(flag, h)
    if x.is_identity:
        raise AnchorIsIdentity("anchor must not be the identity")
    return _exact_ratio(flag, x, flag.first_dots(x.coords), h)


def _exact_ratio(flag: FlagOrdering, x: Element, seen_x: tuple,
                 h: Element) -> RealConstant:
    """stable_exact from x's ``first_dots`` scan seen_x, as a context holds it:
    <v, h> / <v, x> at x's first level v, as _pairing_dots."""
    if (found := _pairing_dots(flag, seen_x, h, NotCofinal)) is None:
        raise UnsupportedInput(
            f"anchor pairing {flag.level_pairing(seen_x[0], x)} at level {seen_x[0] + 1} is "
            "irrational; rescale the flag so the anchor pairing is rational")
    q, dots = found
    return RealConstant._trusted(tuple((m, Fraction(d, q)) for m, d in dots))


def _check_power(h: Element, n: int, what: str) -> None:
    """Refuse h^n for a braid h longer than MAX_BRAID_LETTERS, from lengths alone."""
    if isinstance(h, BraidWord) and abs(n) * len(h.letters) > MAX_BRAID_LETTERS:
        raise UnsupportedInput(
            f"{what} {int_text(n)} power of a {len(h.letters)}-letter braid is longer "
            f"than {MAX_BRAID_LETTERS} letters")


def _order_floor(ctx: AnchorContext, h: Element, n: int) -> int:
    """power_floor(h^n) at an approximation order n >= 1.  A braid h^n is not
    built: with h = p u p^-1 and u cyclically reduced, each probe acts p, n
    copies of u and p^-1, the letters of the reduced word of h^n."""
    if n < 1:
        raise UnsupportedInput("approximation order must be >= 1")
    _check_power(h, n, "order")
    if not isinstance(h, BraidWord):
        return power_floor(ctx, h ** n)
    if h.group is not ctx.cone.group:
        check_group(ctx.cone, h)
    w, k = h.letters, 0
    while 2 * k + 1 < len(w) and w[k] == (w[-1 - k][0], -w[-1 - k][1]):
        k += 1
    return _letters_floor(ctx, w[:k] + w[k:len(w) - k] * n + w[len(w) - k:])


def stable_approx(ctx: AnchorContext, h: Element, n: int) -> StableValue:
    """power_floor(h^n)/n with certified radius 1/n.

    The radius follows from defect 1: floors of powers are superadditive up
    to 1 per split, so |stable(h) - floor(h^n)/n| <= 1/n.
    """
    approx = Fraction(_order_floor(ctx, h, n), n)
    exact = None
    if isinstance(ctx.cone, FlagOrdering):
        exact = _exact_ratio(ctx.cone, ctx.anchor, ctx.anchor_dots, h)
    return StableValue(approx, Fraction(1, n), exact)


def stable_enclosure(ctx: AnchorContext, h: Element, n: int) -> tuple[Fraction, Fraction]:
    """Sharp one-sided window [lo, hi] containing the stable value.

    With a positive anchor the defect lands in {-1, 0}, so floors of powers
    are superadditive and floor(h^nm) <= m*floor(h^n) + m - 1; the limit
    therefore lies in [floor(h^n)/n, (floor(h^n)+1)/n].  A negative anchor
    mirrors the window.  Both endpoints are attainable.
    """
    value = _order_floor(ctx, h, n)
    if ctx.anchor_sign > 0:
        return Fraction(value, n), Fraction(value + 1, n)
    return Fraction(value - 1, n), Fraction(value, n)


def defect_cocycle(ctx: AnchorContext, f: Element, g: Element) -> int:
    """floor(f) + floor(g) - floor(fg); lands in {-1,0} (positive anchor)
    or {0,1} (negative anchor).  Any value outside that set is a bug and is
    raised, never silently admitted."""
    value = power_floor(ctx, f) + power_floor(ctx, g) - power_floor(ctx, f * g)
    allowed = (-1, 0) if ctx.anchor_sign > 0 else (0, 1)
    if value not in allowed:
        raise InvariantViolation(
            f"defect cocycle value {value} outside {allowed} for "
            f"f={f.render()!r}, g={g.render()!r}")
    return value


# ---------------------------------------------------------------------------
# stable-map property suite


class PropertyCheck(Record):
    name: str
    detail: str
    passed: bool


class StableMapReport(Record):
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[PropertyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


Enclosure = tuple[RealConstant, RealConstant]


def _enclosure(ctx: AnchorContext, h: Element, n: int) -> Enclosure:
    """[lo, hi] around stable(h): the exact point on flag orderings, the
    certified window approx +- radius at order n on braid cones."""
    if isinstance(ctx.cone, FlagOrdering):
        value = _exact_ratio(ctx.cone, ctx.anchor, ctx.anchor_dots, h)
        return value, value
    v = stable_approx(ctx, h, n)
    return RealConstant.rational(v.approx - v.radius), RealConstant.rational(v.approx + v.radius)


def stable_map_properties(ctx: AnchorContext, seed: int = 0, sample_count: int = 6,
                          approx_n: int = DEFAULT_APPROX_ORDER,
                          powers: Sequence[int] = (-3, -2, -1, 0, 1, 2, 3),
                          radius: int = 4) -> StableMapReport:
    """Conjugation invariance, homogeneity, and bounded sums of the stable map.

    Every stable value is an enclosure [lo, hi]: a single exact point on
    flag orderings, the certified window approx +- radius on braid cones.
    A check passes when its two enclosures meet, which on flags is exact
    equality or an exact inequality.
    """
    check_sample_count(sample_count, ctx.cone.group, radius)
    rng = random.Random(seed)
    group = ctx.cone.group
    elements = [random_element(group, rng, radius) for _ in range(sample_count)]
    singles = [_enclosure(ctx, h, approx_n) for h in elements]
    checks: list[PropertyCheck] = []

    def check(name: str, h: Element, left: Enclosure, right: Enclosure) -> None:
        meet = left[0] <= right[1] and right[0] <= left[1]
        detail = f"[{left[0]}, {left[1]}] vs [{right[0]}, {right[1]}] for h={h.render()!r}"
        checks.append(PropertyCheck(name, detail, meet))

    # Conjugation invariance: stable(a^-1 h a) = stable(h).
    for h, single in zip(elements, singles):
        a = random_element(group, rng, radius)
        check("conjugation_invariance", h, _enclosure(ctx, a.inverse() * h * a, approx_n), single)

    # Homogeneity: stable(h^M) = M * stable(h); a negative M swaps the ends.
    for h, (lo, hi) in zip(elements, singles):
        for m in powers:
            _check_power(h, m, "homogeneity")
            whole = _enclosure(ctx, h ** m, max(1, approx_n // max(1, abs(m))))
            scaled = (lo.scale(m), hi.scale(m)) if m >= 0 else (hi.scale(m), lo.scale(m))
            check("homogeneity", h, whole, scaled)

    # Bounded sums: if stable(h_1...h_k) = 0 then |sum stable(h_i)| <= k - 1.
    # Here k = 2 with h_1 h_2 = h h^-1, the identity.
    for h, (lo, hi) in zip(elements, singles):
        inv_lo, inv_hi = _enclosure(ctx, h.inverse(), approx_n)
        check("bounded_sums", h, (lo + inv_lo, hi + inv_hi), (-ONE, ONE))

    return StableMapReport(tuple(checks))
