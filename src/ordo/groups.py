"""Group elements for the two supported families: free abelian Z^n and braid B_n.

Elements carry their group reference.  Lattice elements are exponent vectors;
braid words are freely reduced sequences of (generator index, +-1) letters.
Braid words are kept freely reduced but are not put into any canonical form.
Every element has a ``key``, a complete invariant of the group element it
represents: the exponent vector for lattices, the Dynnikov coordinates for
braids.  Equal keys mean equal elements, so finite sets of elements are
dicts on ``key``.  ``a.key_times(b)`` is the key of a * b without building
the product: the coordinate sum, or b's letters acting on a's coordinates.
A braid word built where its key is already known (a parent's key moved by a
step in ``key_walk``, the one braid enumeration, which keeps a braid only when
its key is new; a circle remainder keyed from a power key) is handed it by ``with_key``.

The shared text grammar is whitespace-separated tokens ``x<k>`` (abelian) or
``s<k>`` (braid), each optionally suffixed ``^<signed integer>``; the empty
string is the identity.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Iterable, Iterator, Sequence

from .errors import GroupMismatch, ParseError, UnsupportedInput, int_text, parse_integer
from .records import Record, cached, set_field

FREE_ABELIAN = "free_abelian"
BRAID = "braid"

_TOKEN_RE = re.compile(r"^([xs])([1-9][0-9]*)(?:\^(-?[0-9]+))?$")

MAX_BRAID_LETTERS = 100_000  # the longest braid literal or stable-value power ordo builds
MAX_BALL_ELEMENTS = 100_000  # the most lattice points or braids a ball may hold
MAX_BALL_LETTERS = 2_000_000  # the most letters the braids of a ball may hold together
MAX_SAMPLES = 10_000  # the most random draws a sampled check (axioms, cocycle) makes
MAX_SAMPLE_LETTERS = 250_000  # the most samples x radius a sampled check makes on braids
MAX_GROUP_N = 64  # the largest rank or strand count a group may have


class GroupRef(Record):
    """Which group we are in: FreeAbelian(rank n) or Braid(strands n)."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind == FREE_ABELIAN:
            what, least = "free abelian rank", 1
        elif self.kind == BRAID:
            what, least = "braid strand count", 2
        else:
            raise ParseError(f"unknown group kind: {self.kind!r}")
        if self.n < least:
            raise ParseError(f"{what} must be >= {least}, got {int_text(self.n)}")
        if self.n > MAX_GROUP_N:
            raise UnsupportedInput(
                f"{what} {int_text(self.n)} is past the limit of {MAX_GROUP_N} (MAX_GROUP_N)")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self) -> int:
        return hash((self.kind, self.n))

    @staticmethod
    def free_abelian(rank: int) -> "GroupRef":
        return _interned(FREE_ABELIAN, rank)

    @staticmethod
    def braid(strands: int) -> "GroupRef":
        return _interned(BRAID, strands)

    @property
    def is_abelian(self) -> bool:
        return self.kind == FREE_ABELIAN

    @property
    def rank(self) -> int:
        return self.n

    @property
    def strands(self) -> int:
        return self.n

    def identity(self) -> "Element":
        if self.is_abelian:
            return LatticeElement(self, (0,) * self.n)
        return BraidWord(self, ())

    def generators(self) -> list["Element"]:
        if self.is_abelian:
            return [LatticeElement(self, tuple(1 if j == i else 0 for j in range(self.n)))
                    for i in range(self.n)]
        return [BraidWord(self, ((i, 1),)) for i in range(1, self.n)]

    def to_json(self) -> dict:
        if self.is_abelian:
            return {"kind": FREE_ABELIAN, "rank": self.n}
        return {"kind": BRAID, "strands": self.n}

    @staticmethod
    def from_json(obj: dict) -> "GroupRef":
        try:
            kind = obj["kind"]
        except (TypeError, KeyError):
            raise ParseError("group object needs a 'kind' field") from None
        if kind == FREE_ABELIAN:
            return GroupRef.free_abelian(_json_int(obj, "rank"))
        if kind == BRAID:
            return GroupRef.braid(_json_int(obj, "strands"))
        raise ParseError(f"unknown group kind: {kind!r}")


_INTERNED: dict[tuple[str, int], GroupRef] = {}


def _interned(kind: str, n: int) -> GroupRef:
    """One GroupRef per valid (kind, n) with n a plain int, so that group checks
    mostly end at ``is``; any other n builds a fresh GroupRef."""
    if type(n) is not int:
        return GroupRef(kind, n)
    return _INTERNED.get((kind, n)) or _INTERNED.setdefault((kind, n), GroupRef(kind, n))


def _json_int(obj: dict, key: str) -> int:
    """A JSON integer field of a group object; bools and floats are rejected."""
    value = obj.get(key, 0)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"group field {key!r} must be an integer, got {type(value).__name__}")
    return value


class LatticeElement(Record):
    group: GroupRef
    coords: tuple[int, ...]

    def __init__(self, group: GroupRef, coords: tuple[int, ...]) -> None:
        set_field(self, "group", group)
        set_field(self, "coords", coords)
        if len(coords) != group.n:
            raise ParseError(f"coordinate length {len(coords)} does not match rank {group.n}")

    @staticmethod
    def _trusted(group: GroupRef, coords: tuple[int, ...]) -> "LatticeElement":
        # Coordinates of the group's rank by construction.
        element = object.__new__(LatticeElement)
        set_field(element, "group", group)
        set_field(element, "coords", coords)
        return element

    @property
    def key(self) -> tuple[int, ...]:
        return self.coords

    def key_times(self, other: "LatticeElement") -> tuple[int, ...]:
        """The key of self * other: the coordinate sum."""
        _same_group(self, other)
        return tuple(a + b for a, b in zip(self.coords, other.coords))

    @property
    def is_identity(self) -> bool:
        return not any(self.coords)

    def __mul__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement._trusted(self.group, self.key_times(other))

    def inverse(self) -> "LatticeElement":
        return LatticeElement._trusted(self.group, tuple(-a for a in self.coords))

    def __pow__(self, k: int) -> "LatticeElement":
        return LatticeElement._trusted(self.group, tuple(k * a for a in self.coords))

    def render(self) -> str:
        return " ".join(
            f"x{i + 1}" if c == 1 else f"x{i + 1}^{int_text(c)}"
            for i, c in enumerate(self.coords) if c != 0)

    def __str__(self) -> str:
        return self.render() or "1"


def _check_letters(group: GroupRef, letters: tuple[tuple[int, int], ...]) -> None:
    for i, e in letters:
        if not 1 <= i <= group.n - 1:
            raise ParseError(f"generator index {int_text(i)} out of range for {group.n} strands")
        if e not in (1, -1):
            raise ParseError(f"letter exponent must be +-1, got {int_text(e)}")


def inverse_letters(letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The letters of the inverse word: reversed, each exponent negated."""
    return tuple([(i, -e) for i, e in reversed(letters)])  # a list is built faster than a generator


def free_reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Cancel adjacent (i, e)(i, -e) pairs, cascading."""
    out: list[tuple[int, int]] = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def dynnikov_act(coords: tuple[int, ...], letters: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Dynnikov coordinates (a1, b1, ..., an, bn) moved by a letter sequence.

    B_n acts on Z^(2n) by piecewise-linear maps, s_i changing a_i, b_i,
    a_(i+1), b_(i+1); letters act left to right, so key(u v) is v's letters
    acting on key(u).  The orbit map of (0, 1, ..., 0, 1) is injective, so
    its image is a complete invariant of the braid (Dynnikov, Russian Math.
    Surveys 57 (2002); Dehornoy-Dynnikov-Rolfsen-Wiest, Ordering Braids, ch. 12).
    """
    c = list(coords)
    for i, e in letters:
        k = 2 * i - 2
        a1, b1, a2, b2 = c[k], c[k + 1], c[k + 2], c[k + 3]
        b1_pos = b1 if b1 > 0 else 0
        b1_neg = b1 - b1_pos
        b2_pos = b2 if b2 > 0 else 0
        b2_neg = b2 - b2_pos
        if e > 0:
            t = a1 - b1_neg - a2 + b2_pos
            t_pos = t if t > 0 else 0
            u = b2_pos - t
            v = b1_neg + t
            c[k] = a1 + b1_pos + (u if u > 0 else 0)
            c[k + 1] = b2 - t_pos
            c[k + 2] = a2 + b2_neg + (v if v < 0 else 0)
            c[k + 3] = b1 + t_pos
        else:
            t = a1 + b1_neg - a2 - b2_pos
            t_neg = t if t < 0 else 0
            u = b2_pos + t
            v = b1_neg - t
            c[k] = a1 - b1_pos - (u if u > 0 else 0)
            c[k + 1] = b2 + t_neg
            c[k + 2] = a2 - b2_neg - (v if v < 0 else 0)
            c[k + 3] = b1 - t_neg
    return tuple(c)


class BraidWord(Record):
    group: GroupRef
    letters: tuple[tuple[int, int], ...]

    def __init__(self, group: GroupRef, letters: tuple[tuple[int, int], ...]) -> None:
        set_field(self, "group", group)
        set_field(self, "letters", letters)
        _check_letters(group, letters)
        if letters != free_reduce(letters):
            raise ParseError("braid word is not freely reduced")

    @staticmethod
    def from_letters(group: GroupRef, letters: Iterable[tuple[int, int]]) -> "BraidWord":
        reduced = free_reduce(letters)
        _check_letters(group, reduced)
        return BraidWord._trusted(group, reduced)

    @staticmethod
    def _trusted(group: GroupRef, letters: tuple[tuple[int, int], ...]) -> "BraidWord":
        # Letters that are in range and freely reduced by construction.
        word = object.__new__(BraidWord)
        set_field(word, "group", group)
        set_field(word, "letters", letters)
        return word

    def with_key(self, key: tuple[int, ...]) -> "BraidWord":
        """This word with its key given: the caller has acted it out already."""
        self.__dict__["key"] = key
        return self

    @cached
    def key(self) -> tuple[int, ...]:
        """Dynnikov coordinates of the braid: its letters acting on (0, 1, ..., 0, 1)."""
        return dynnikov_act((0, 1) * self.group.n, self.letters)

    def key_times(self, other: "BraidWord") -> tuple[int, ...]:
        """The key of self * other, unbuilt: other's letters act on self.key
        (a group action, so free reduction would not change it)."""
        _same_group(self, other)
        return dynnikov_act(self.key, other.letters)

    @property
    def is_identity(self) -> bool:
        # The empty word fixes (0, 1, ..., 0, 1), so that is the identity's key.
        return self.key == (0, 1) * self.group.n

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        _same_group(self, other)
        return BraidWord._trusted(self.group, free_reduce(self.letters + other.letters))

    def inverse(self) -> "BraidWord":
        return BraidWord._trusted(self.group, inverse_letters(self.letters))

    def __pow__(self, k: int) -> "BraidWord":
        if k == 0:
            return self.group.identity()
        base = self.letters if k > 0 else self.inverse().letters
        return BraidWord._trusted(self.group, free_reduce(base * abs(k)))

    def exponent_sum(self) -> int:
        return sum(e for _, e in self.letters)

    def render(self) -> str:
        parts: list[str] = []
        run_index, run_sum = None, 0
        for i, e in self.letters + ((0, 0),):
            if i == run_index:
                run_sum += e
                continue
            if run_index is not None:
                parts.append(f"s{run_index}" if run_sum == 1 else f"s{run_index}^{run_sum}")
            run_index, run_sum = i, e
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render() or "1"


Element = LatticeElement | BraidWord


def _same_group(a: Element, b: Element) -> None:
    if a.group is not b.group and a.group != b.group:
        raise GroupMismatch(f"elements of {a.group} and {b.group} cannot be combined")


def parse_element(text: str, group: GroupRef) -> Element:
    """Parse the element grammar; empty string is the identity."""
    if not isinstance(text, str):
        raise ParseError(f"element expression must be a string, got {type(text).__name__}")
    want_prefix = "x" if group.is_abelian else "s"
    coords = [0] * group.n
    powers: list[tuple[int, int]] = []
    for token in text.split():
        match = _TOKEN_RE.match(token)
        if not match:
            raise ParseError(f"bad token {token!r}")
        prefix, index_text, exp_text = match.groups()
        if prefix != want_prefix:
            raise ParseError(f"token {token!r} does not belong to {group.kind}")
        index = parse_integer(index_text)
        exponent = parse_integer(exp_text) if exp_text is not None else 1
        if group.is_abelian:
            if index > group.n:
                raise ParseError(f"generator x{index} out of range for rank {group.n}")
            coords[index - 1] += exponent
        else:
            if index > group.n - 1:
                raise ParseError(f"generator s{index} out of range for {group.n} strands")
            powers.append((index, exponent))
    if group.is_abelian:
        return LatticeElement(group, tuple(coords))
    if sum(abs(e) for _, e in powers) > MAX_BRAID_LETTERS:
        raise UnsupportedInput(f"braid literal expands to more than {MAX_BRAID_LETTERS} letters")
    letters = [(index, 1 if e > 0 else -1) for index, e in powers for _ in range(abs(e))]
    return BraidWord.from_letters(group, letters)


def half_twist(n: int) -> BraidWord:
    """The positive half twist (s1..s_{n-1})(s1..s_{n-2})...(s1 s2)(s1)."""
    if n < 2:
        raise ParseError(f"half twist needs at least 2 strands, got {int_text(n)}")
    group = GroupRef.braid(n)
    letters = [(i, 1) for length in range(n - 1, 0, -1) for i in range(1, length + 1)]
    return BraidWord(group, tuple(letters))


def full_twist(n: int) -> BraidWord:
    """Square of the half twist; generates the center of the braid group."""
    delta = half_twist(n)
    return delta * delta


def twist_key(n: int, k: int) -> tuple[int, ...]:
    """The key of Delta^(2k) on n strands: for k != 0, a_i = sgn(k) (n - i),
    b_1 = (n - 1)(1 - 2|k|), b_n = 1 + 2(n - 1)|k| and other b_i = 0."""
    if k == 0:
        return (0, 1) * n
    s, m = (1, k) if k > 0 else (-1, -k)
    key = [v for i in range(1, n + 1) for v in (s * (n - i), 0)]
    key[1], key[-1] = (n - 1) * (1 - 2 * m), 1 + 2 * (n - 1) * m
    return tuple(key)


def random_element(group: GroupRef, rng: random.Random, radius: int) -> Element:
    """Uniform coordinates in [-radius, radius]^n, or a random word of length <= radius."""
    if radius < 0:
        raise UnsupportedInput("sampling radius must be nonnegative")
    if group.is_abelian:
        return LatticeElement(group, tuple(rng.randint(-radius, radius) for _ in range(group.n)))
    if radius > MAX_BRAID_LETTERS:
        raise UnsupportedInput(f"braid sampling radius {int_text(radius)} is past the limit "
                               f"of {MAX_BRAID_LETTERS} letters (MAX_BRAID_LETTERS)")
    length = rng.randint(0, radius)
    letters = [(rng.randint(1, group.n - 1), rng.choice((1, -1))) for _ in range(length)]
    return BraidWord.from_letters(group, letters)


def check_ball_size(group: GroupRef, radius: int) -> None:
    """Refuse a negative radius, or a lattice ball of more than MAX_BALL_ELEMENTS
    points, counted unbuilt as (2r+1)^n with the radius clipped to the limit."""
    if radius < 0:
        raise UnsupportedInput(f"ball radius {int_text(radius)} is negative")
    if (2 * min(radius, MAX_BALL_ELEMENTS) + 1) ** group.n > MAX_BALL_ELEMENTS:
        raise UnsupportedInput(f"the radius-{int_text(radius)} ball holds more than "
                               f"{MAX_BALL_ELEMENTS} elements (MAX_BALL_ELEMENTS)")


def check_sample_count(count: int, group: GroupRef, radius: int) -> None:
    """Refuse a sampled check of fewer than 0 or more than MAX_SAMPLES draws, or of
    count x radius past MAX_SAMPLE_LETTERS on braids (random_element refuses a radius)."""
    if count < 0:
        raise UnsupportedInput(f"sample count {int_text(count)} is negative")
    if count > MAX_SAMPLES:
        raise UnsupportedInput(f"sample count {int_text(count)} is past the limit of "
                               f"{MAX_SAMPLES} (MAX_SAMPLES)")
    letters = 0 if group.is_abelian or radius > MAX_BRAID_LETTERS else count * radius
    if letters > MAX_SAMPLE_LETTERS:
        raise UnsupportedInput(f"{count} samples of radius {int_text(radius)} are past the "
                               f"limit of {MAX_SAMPLE_LETTERS} letters (MAX_SAMPLE_LETTERS)")


def coordinate_ball(group: GroupRef, radius: int) -> list[LatticeElement]:
    """All lattice points with max-norm <= radius, in graded lexicographic order."""
    check_ball_size(group, radius)
    points = itertools.product(range(-radius, radius + 1), repeat=group.n)
    ordered = sorted(points, key=lambda c: (max(map(abs, c), default=0), c))
    return [LatticeElement(group, c) for c in ordered]


def key_walk(group: GroupRef, steps: Sequence[tuple[tuple[int, int], ...]],
             radius: int) -> Iterator[BraidWord]:
    """Each braid that is a product of at most radius steps once, breadth first.

    Steps 2k and 2k+1 are mutual inverses, s1 and s1^-1 among them.  After the
    identity, each level extends the braids kept at the level before by every
    step but the inverse of the one that made the parent (that child is the
    grandparent), keys a child as the step acting on the parent's key, and
    keeps it, as the parent's word times the step, only when the key is new.
    Past MAX_BALL_ELEMENTS kept braids, MAX_BALL_LETTERS letters in them, or
    2r+1 powers of s1, it refuses."""
    check_ball_size(GroupRef.free_abelian(1), radius)  # the powers of s1: a rank-1 ball
    moves = [(j, step, (step[0][0], -step[0][1])) for j, step in enumerate(steps)]
    after = [[m for m in moves if m[0] != j ^ 1] for j in range(len(steps))]  # all but j's inverse
    level = [(group.identity(), moves)]  # kept braids, each with the moves that extend it
    seen = {level[0][0].key}
    kept_letters = 0
    yield level[0][0]
    for length in range(1, radius + 1):
        parents, level = level, []
        for word, extend in parents:
            letters, key = word.letters, word.key
            for j, step, back in extend:
                if (child_key := dynnikov_act(key, step)) in seen:
                    continue
                seen.add(child_key)
                if len(seen) > MAX_BALL_ELEMENTS:
                    raise UnsupportedInput(
                        f"the radius-{radius} ball holds more than {MAX_BALL_ELEMENTS} elements "
                        f"(MAX_BALL_ELEMENTS): {len(seen)} braids kept by length {length}")
                joined = letters + step
                if letters and letters[-1] == back:
                    joined = free_reduce(joined)
                kept_letters += len(joined)
                if kept_letters > MAX_BALL_LETTERS:
                    raise UnsupportedInput(
                        f"the radius-{radius} ball holds more than {MAX_BALL_LETTERS} letters "
                        f"(MAX_BALL_LETTERS): {kept_letters} letters kept by length {length}")
                level.append((BraidWord._trusted(group, joined).with_key(child_key), after[j]))
                yield level[-1][0]


def braid_ball(group: GroupRef, radius: int) -> list[BraidWord]:
    """Each braid of word length <= radius once, as its first word in graded
    lexicographic order: ``key_walk`` over the sorted letters keeps each level
    sorted, and a first word minus its last letter is a first word."""
    return list(key_walk(group, [((i, e),) for i in range(1, group.n) for e in (-1, 1)], radius))
