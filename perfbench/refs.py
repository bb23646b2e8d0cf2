"""Reference answers computed without ordo.

Flag floors use integer square roots (one irrational term) or sympy (more
terms).  Braid signs use Dynnikov coordinates, an algorithm independent of
handle reduction: B_n acts on Z^(2n) by piecewise-linear maps, a word is
trivial iff it fixes (0, 1, 0, 1, ...), and it is sigma-positive iff the
first nonzero entry of (a1, b1 - 1, a2, b2 - 1, ...) of the image is
positive (Dehornoy, "Efficient solutions to the braid isotopy problem",
Discrete Appl. Math. 156 (2008)).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from gen import (Word, constant_to_json, format_rational, free_reduce, full_twist, inverse,
                 render_lattice, render_word, words_up_to)


# ---------------------------------------------------------------------------
# exact constants: dicts radicand -> Fraction


def pairing(level, coords) -> dict:
    acc: dict[int, Fraction] = {}
    for c, const in zip(coords, level):
        if c:
            for m, q in const.items():
                acc[m] = acc.get(m, Fraction(0)) + c * q
    return {m: q for m, q in acc.items() if q != 0}


def scale(const: dict, q: Fraction) -> dict:
    return {m: v * q for m, v in const.items() if v * q != 0}


def const_floor(const: dict) -> int:
    irrational = {m: q for m, q in const.items() if m != 1 and q != 0}
    a = Fraction(const.get(1, 0))
    if not irrational:
        return math.floor(a)
    if len(irrational) == 1:
        ((m, b),) = irrational.items()
        # value = (A + B sqrt(m)) / D with integers; B^2 m is never a square.
        d = math.lcm(a.denominator, b.denominator)
        big_a, big_b = int(a * d), int(b * d)
        s = math.isqrt(big_b * big_b * m)
        return (big_a + s) // d if big_b > 0 else (big_a - s - 1) // d
    import sympy

    expr = sympy.Rational(a.numerator, a.denominator)
    for m, q in irrational.items():
        expr += sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(m)
    return int(sympy.floor(expr))


def const_sign(const: dict) -> int:
    if not const:
        return 0
    return 1 if const_floor(const) >= 0 else -1


def mod_one(const: dict) -> dict:
    out = dict(const)
    out[1] = Fraction(out.get(1, 0)) - const_floor(const)
    return {m: q for m, q in out.items() if q != 0}


class Flag:
    """A flag ordering of Z^rank given by its levels of constants."""

    def __init__(self, name: str, levels):
        self.name = name
        self.levels = [[{m: Fraction(q) for m, q in c.items()} for c in level]
                       for level in levels]
        self.rank = len(self.levels[0])

    def to_json(self) -> dict:
        return {"group": {"kind": "free_abelian", "rank": self.rank},
                "ordering": {"type": "flag",
                             "levels": [[constant_to_json(c) for c in level]
                                        for level in self.levels]}}

    def sign(self, coords) -> int:
        for level in self.levels:
            s = const_sign(pairing(level, coords))
            if s:
                return s
        return 0

    def anchor_ratio(self, x, h) -> dict:
        """Pairing of h over the (rational, positive) pairing of x at x's level."""
        for level in self.levels:
            px = pairing(level, x)
            if px:
                if set(px) != {1} or px[1] <= 0:
                    raise ValueError("reference floors need a positive rational anchor pairing")
                return scale(pairing(level, h), 1 / px[1])
            if pairing(level, h):
                raise ValueError("element is not bracketed by the anchor")
        raise ValueError("anchor pairs to zero everywhere")

    def floor(self, x, h) -> int:
        """Largest N with x^N <= h, for an anchor that pairs positively."""
        ratio = self.anchor_ratio(x, h)
        n = const_floor(ratio)
        if set(ratio) <= {1} and Fraction(ratio.get(1, 0)) == n:
            rest = tuple(a - n * b for a, b in zip(h, x))
            if self.sign(rest) < 0:
                n -= 1
        return n


# ---------------------------------------------------------------------------
# Dynnikov coordinates


def _act(c: list[int], i: int, e: int) -> None:
    k = 2 * i - 2
    a1, b1, a2, b2 = c[k:k + 4]
    if e > 0:
        z = a1 - min(b1, 0) - a2 + max(b2, 0)
        c[k:k + 4] = [a1 + max(b1, 0) + max(max(b2, 0) - z, 0),
                      b2 - max(z, 0),
                      a2 + min(b2, 0) + min(min(b1, 0) + z, 0),
                      b1 + max(z, 0)]
    else:
        z = a1 + min(b1, 0) - a2 - max(b2, 0)
        c[k:k + 4] = [a1 - max(b1, 0) - max(max(b2, 0) + z, 0),
                      b2 + min(z, 0),
                      a2 - min(b2, 0) - min(min(b1, 0) - z, 0),
                      b1 - min(z, 0)]


def dynnikov(word: Word, n: int) -> tuple[int, ...]:
    c = [0, 1] * n
    for i, e in word:
        _act(c, i, e)
    return tuple(c)


def braid_sign(word: Word, n: int) -> int:
    c = dynnikov(word, n)
    for k in range(n):
        for v in (c[2 * k], c[2 * k + 1] - 1):
            if v:
                return 1 if v > 0 else -1
    return 0


def braid_compare(a: Word, b: Word, n: int) -> int:
    """-1 if a < b, 0 if equal, +1 if a > b in the Dehornoy order."""
    return -braid_sign(inverse(a) + b, n)


# ---------------------------------------------------------------------------
# expected answers per query


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _is_central(word: Word, n: int) -> bool:
    """Mirror of ordo's test: a power of the full twist, decided by Dynnikov."""
    if not word:
        return True
    period, total = n * (n - 1), sum(e for _, e in word)
    if total % period:
        return False
    k = total // period
    twist = full_twist(n) * abs(k)
    return braid_sign(word + (inverse(twist) if k > 0 else twist), n) == 0


def _right_invariance(x: Word, n: int, cap: int) -> dict:
    """Mirror of ordo's bounded right-invariance search, signs by Dynnikov."""
    if _is_central(x, n):
        return {"outcome": "yes", "witness": None}
    alphabet = []
    for g in [((i, 1),) for i in range(1, n)] + [x]:
        alphabet += [g, inverse(g)]
    frontier: list[Word] = [()]
    x_inv = inverse(x)
    for _ in range(cap):
        nxt = []
        for word in frontier:
            for letter in alphabet:
                z = free_reduce(word + letter)
                if not z:
                    continue
                if braid_sign(z, n) != braid_sign(x_inv + z + x, n):
                    return {"outcome": "no", "witness": render_word(z)}
                nxt.append(z)
        frontier = nxt
    return {"outcome": "unknown_within_cap", "witness": None}


def _ball(n: int, radius: int) -> list[Word]:
    seen, out = set(), []
    for w in words_up_to(n, radius):
        key = dynnikov(w, n)
        if key not in seen:
            seen.add(key)
            out.append(w)
    return out


def _realize(ball: list[Word], n: int) -> list[Fraction]:
    ordered: list[tuple[Word, Fraction]] = []
    values = []
    for g in ball:
        lo, hi = 0, len(ordered)
        while lo < hi:
            mid = (lo + hi) // 2
            if braid_compare(ordered[mid][0], g, n) < 0:
                lo = mid + 1
            else:
                hi = mid
        if not ordered:
            t = Fraction(0)
        elif lo == 0:
            t = ordered[0][1] - 1
        elif lo == len(ordered):
            t = ordered[-1][1] + 1
        else:
            t = (ordered[lo - 1][1] + ordered[lo][1]) / 2
        ordered.insert(lo, (g, t))
        values.append(t)
    return values


def _smallest_positive(n: int, cap: int) -> str | None:
    smallest = None
    for w in words_up_to(n, cap):
        if braid_sign(w, n) > 0 and (smallest is None or
                                     braid_sign(inverse(w) + smallest, n) > 0):
            smallest = w
    return None if smallest is None else render_word(smallest)


class Checker:
    """Classifies each answer as correct, a known refusal, or a failure."""

    REFUSED = "refused"

    def __init__(self, flags: dict, golden: dict):
        self.flags = flags
        self.golden = golden
        self.balls: dict[int, tuple[list[Word], list[Fraction]]] = {}

    def _ball_and_values(self, n: int, radius: int):
        if n not in self.balls:
            ball = _ball(n, radius)
            self.balls[n] = (ball, _realize(ball, n))
        return self.balls[n]

    def classify(self, q: dict, answer: str, ball_radius: dict) -> str | bool:
        """True if correct, REFUSED for a documented refusal, else False."""
        got = json.loads(answer)
        if q.get("beyond_cap") and got == {"error": "NotBracketedWithinCap"}:
            return self.REFUSED
        op = q["op"]
        if op == "stable":
            num, den = q["target"]
            if not isinstance(got, dict) or "value" not in got:
                return False
            value, radius = Fraction(got["value"]), Fraction(got["radius"])
            return radius == Fraction(1, q["order"]) and \
                abs(value - Fraction(num, den)) <= radius
        return answer == self.expected(q, ball_radius)

    def expected(self, q: dict, ball_radius: dict) -> str:
        op = q["op"]
        if op in ("cli", "convex", "sikora"):
            return self.golden[golden_key(q)]
        if op in ("floor", "defect", "stable_exact", "rotation", "translation"):
            flag = self.flags[q["flag"]]
            x = q["x"]
            if op == "floor":
                return _canon(flag.floor(x, q["h"]))
            if op == "defect":
                f, g = q["f"], q["g"]
                fg = [a + b for a, b in zip(f, g)]
                return _canon(flag.floor(x, f) + flag.floor(x, g) - flag.floor(x, fg))
            if op == "stable_exact":
                return _canon(constant_to_json(flag.anchor_ratio(x, q["h"])))
            values = [flag.anchor_ratio(x, b) for b in q["basis"]]
            basis = [render_lattice(b) for b in q["basis"]]
            if op == "rotation":
                return _canon({"components": [{"exact": constant_to_json(mod_one(v))}
                                              for v in values], "basis": basis})
            return _canon({"infinity": False, "basis": basis,
                           "components": [{"exact": constant_to_json(v)} for v in values]})
        if op == "construct":
            tau = [{int(m): Fraction(v) for m, v in t.items()} for t in q["tau"]]
            return _canon({"components": [{"exact": constant_to_json(mod_one(t))} for t in tau],
                           "basis": [f"x{i + 1}" for i in range(len(tau))]})
        n = q.get("n")
        if op == "dsign":
            return _canon({"positive": 1, "negative": -1, "identity": 0}[q["kind"]]
                          if q["kind"] != "random" else braid_sign(_word(q["word"]), n))
        if op == "bfloor":
            return _canon(q["k"])
        if op == "compare":
            return _canon(braid_compare(_word(q["a"]), _word(q["b"]), n))
        if op == "ball":
            ball, _ = self._ball_and_values(n, q["radius"])
            return _canon([render_word(w) for w in ball])
        if op == "realize":
            _, values = self._ball_and_values(n, ball_radius[n])
            return _canon([format_rational(v) for v in values])
        if op == "pac":
            ball, values = self._ball_and_values(n, ball_radius[n])
            station = {dynnikov(w, n): v for w, v in zip(ball, values)}
            g = _word(q["g"])
            pairs = sorted((t, station[dynnikov(g + w, n)]) for w, t in zip(ball, values)
                           if dynnikov(g + w, n) in station)
            increasing = all(b1 > b0 for (_, b0), (_, b1) in zip(pairs, pairs[1:]))
            return _canon([len(pairs), increasing])
        if op == "euler":
            return _canon([q["count"], q["count"], 0])
        if op == "dense":
            return _canon(["unknown_within_cap", _smallest_positive(n, q["cap"])])
        if op == "rinv":
            return _canon(_right_invariance(_word(q["x"]), n, q["cap"]))
        raise ValueError(f"no reference for op {op!r}")


def _word(letters) -> Word:
    return tuple((int(i), int(e)) for i, e in letters)


def golden_key(q: dict) -> str:
    return _canon(q)
