"""Seeded input generators and braid invariants computed without ordo.

Braid words are tuples of letters (i, e): generator index i >= 1 and
exponent e in {+1, -1}.  Lattice elements are tuples of ints.  Constants are
dicts radicand -> Fraction (radicand 1 is the rational part), the same
convention as ordo's JSON constants.

Everything here is a pure function of its arguments and a random.Random,
so one seed always regenerates the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

Letter = tuple[int, int]
Word = tuple[Letter, ...]


def make_rng(workload: str, seed: int, stream: str) -> random.Random:
    """An independent, reproducible stream per (workload, seed, purpose)."""
    return random.Random(f"{workload}/{seed}/{stream}")


# ---------------------------------------------------------------------------
# braid words


def free_reduce(letters) -> Word:
    out: list[Letter] = []
    for i, e in letters:
        if out and out[-1][0] == i and out[-1][1] == -e:
            out.pop()
        else:
            out.append((i, e))
    return tuple(out)


def inverse(word: Word) -> Word:
    return tuple((i, -e) for i, e in reversed(word))


def random_word(rng: random.Random, n: int, length: int) -> Word:
    """A freely reduced word of exactly the given length in B_n."""
    out: list[Letter] = []
    while len(out) < length:
        letter = (rng.randint(1, n - 1), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)


def sigma_positive_word(rng: random.Random, n: int, length: int, main: int) -> Word:
    """A freely reduced word whose lowest index `main` occurs only positively.

    Such a word is sigma-positive, so its Dehornoy sign is +1 by definition.
    About a third of the letters are s_main; the rest use higher indices
    with random signs.
    """
    if not 1 <= main <= n - 1:
        raise ValueError(f"main generator {main} out of range for B{n}")
    out: list[Letter] = [(main, 1)]
    while len(out) < length:
        if main == n - 1 or rng.random() < 1 / 3:
            letter = (main, 1)
        else:
            letter = (rng.randint(main + 1, n - 1), rng.choice((1, -1)))
        if out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)


def _rewrites(word: list[Letter], p: int) -> list[list[Letter]]:
    """Braid-relation rewrites of the subword starting at position p."""
    out = []
    if p + 1 < len(word):
        (i, a), (j, b) = word[p], word[p + 1]
        if abs(i - j) >= 2:
            out.append([(j, b), (i, a)])
    if p + 2 < len(word):
        (i, a), (j, b), (k, c) = word[p], word[p + 1], word[p + 2]
        if k == i and abs(i - j) == 1:
            if a == b == c:
                # s_i s_j s_i = s_j s_i s_j, and the same for inverses.
                out.append([(j, a), (i, a), (j, a)])
            elif c == -a:
                # s_i^a s_j^b s_i^-a = s_j^-a s_i^b s_j^a.
                out.append([(j, -a), (i, b), (j, a)])
    return out


def scramble(rng: random.Random, word: Word, n: int, insertions: int, moves: int) -> Word:
    """An equal braid written differently.

    Inserts `insertions` cancelling pairs s s^-1 at random places, then makes
    `moves` attempts at a braid-relation rewrite at a random position.  The
    result represents the same braid; only the letters change.
    """
    letters = list(word)
    for _ in range(insertions):
        p = rng.randint(0, len(letters))
        i, e = rng.randint(1, n - 1), rng.choice((1, -1))
        letters[p:p] = [(i, e), (i, -e)]
    for _ in range(moves):
        if len(letters) < 2:
            break
        p = rng.randrange(len(letters) - 1)
        options = _rewrites(letters, p)
        if options:
            new = rng.choice(options)
            letters[p:p + len(new)] = new
    return free_reduce(letters)


def half_twist(n: int) -> Word:
    return tuple((i, 1) for length in range(n - 1, 0, -1) for i in range(1, length + 1))


def full_twist(n: int) -> Word:
    return half_twist(n) * 2


def render_word(word: Word) -> str:
    """Text form in ordo's element grammar, with runs collapsed."""
    parts: list[str] = []
    run_index, run_sum = None, 0
    for i, e in tuple(word) + ((0, 0),):
        if i == run_index:
            run_sum += e
            continue
        if run_index is not None:
            parts.append(f"s{run_index}" if run_sum == 1 else f"s{run_index}^{run_sum}")
        run_index, run_sum = i, e
    return " ".join(parts)


def words_up_to(n: int, length: int) -> list[Word]:
    """All freely reduced words of length <= length, graded then lexicographic."""
    alphabet = [(i, e) for i in range(1, n) for e in (1, -1)]
    out: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(length):
        nxt = [w + (a,) for w in frontier for a in alphabet
               if not (w and w[-1] == (a[0], -a[1]))]
        frontier = sorted(nxt)
        out.extend(frontier)
    return out


# braid invariants, used to check the generators


def exponent_sum(word: Word) -> int:
    return sum(e for _, e in word)


def permutation(word: Word, n: int) -> tuple[int, ...]:
    """Image in S_n: s_i swaps positions i and i+1."""
    perm = list(range(n))
    for i, _ in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def _laurent_mul(p: dict, q: dict) -> dict:
    out: dict[int, int] = {}
    for a, x in p.items():
        for b, y in q.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _laurent_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def burau(word: Word, n: int) -> tuple:
    """Unreduced Burau matrix over Z[t, 1/t], as a hashable tuple.

    s_i acts on columns i and i+1 by [[1 - t, t], [1, 0]]; its inverse by
    [[0, 1], [1/t, 1 - 1/t]].  Faithful on B_3.
    """
    one = {0: 1}
    m = [[dict(one) if r == c else {} for c in range(n)] for r in range(n)]
    block = {1: ({0: 1, 1: -1}, {1: 1}, {0: 1}, {}),
             -1: ({}, {0: 1}, {-1: 1}, {0: 1, -1: -1})}
    for i, e in word:
        a, b, c, d = block[e]
        u, v = i - 1, i
        for row in m:
            x, y = row[u], row[v]
            row[u] = _laurent_add(_laurent_mul(x, a), _laurent_mul(y, c))
            row[v] = _laurent_add(_laurent_mul(x, b), _laurent_mul(y, d))
    return tuple(tuple(tuple(sorted(p.items())) for p in row) for row in m)


# ---------------------------------------------------------------------------
# lattice elements and constants


def random_lattice(rng: random.Random, rank: int, radius: int) -> tuple[int, ...]:
    return tuple(rng.randint(-radius, radius) for _ in range(rank))


def random_rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def render_lattice(coords) -> str:
    return " ".join(f"x{i + 1}" if c == 1 else f"x{i + 1}^{c}"
                    for i, c in enumerate(coords) if c != 0)


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def constant_to_json(const: dict) -> dict:
    return {str(m): format_rational(q) for m, q in sorted(const.items()) if q != 0}
