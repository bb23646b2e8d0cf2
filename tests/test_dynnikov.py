"""Dynnikov coordinates against handle reduction, the independent oracle.

The production Dehornoy sign reads the first nonzero entry of
(a1, b1 - 1, a2, b2 - 1, ...) off ``BraidWord.key``; handle reduction
decides the same sign by rewriting words.  Every sign here is checked
against ``main_generator_sign(handle_reduce(...))``.
"""

import random

from ordo.groups import BraidWord, GroupRef, parse_element
from ordo.orderings import DehornoyOrdering, handle_reduce, main_generator_sign

from oracles import braid_words_up_to


def oracle_sign(word):
    return main_generator_sign(handle_reduce(word.letters, word.group.strands))


def random_letters(rng, n, length):
    return [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]


def reduced_letters(rng, n, length):
    """A freely reduced word of exactly the given length."""
    out = []
    while len(out) < length:
        letter = (rng.randint(1, n - 1), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out.append(letter)
    return out


def relator(rng, n):
    """A word equal to the identity braid that is not freely trivial."""
    i = rng.randint(1, n - 2)
    far = [j for j in range(1, n) if abs(j - i) >= 2]
    if far and rng.random() < 0.5:
        j = rng.choice(far)
        word = [(i, 1), (j, 1), (i, -1), (j, -1)]
    else:
        word = [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
    if rng.random() < 0.5:
        word = [(k, -e) for k, e in reversed(word)]
    return word


def scrambled(rng, letters, n, relators=3):
    """The same braid spelled differently: relators inserted at random places."""
    out = list(letters)
    for _ in range(relators):
        at = rng.randint(0, len(out))
        out[at:at] = relator(rng, n)
    return out


def inverse_letters(letters):
    return [(i, -e) for i, e in reversed(letters)]


def test_dynnikov_sign_matches_handle_reduction_on_random_words():
    rng = random.Random(20260601)
    for _ in range(10_000):
        n = rng.randint(3, 8)
        group = GroupRef.braid(n)
        w = BraidWord.from_letters(group, random_letters(rng, n, rng.randint(0, 40)))
        assert DehornoyOrdering(group).sign(w) == oracle_sign(w), w.render()


def test_dynnikov_sign_on_identity_words_and_conjugates():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(3, 8)
        group, cone = GroupRef.braid(n), DehornoyOrdering.create(n)
        letters = random_letters(rng, n, rng.randint(1, 20))
        w = BraidWord.from_letters(group, letters)
        h = BraidWord.from_letters(group, random_letters(rng, n, rng.randint(1, 10)))
        assert cone.sign(w * w.inverse()) == 0
        # w times a scrambled inverse is the identity, though not freely trivial.
        trivial = BraidWord.from_letters(group, letters + scrambled(rng, inverse_letters(letters), n))
        assert trivial.letters
        assert cone.sign(trivial) == oracle_sign(trivial) == 0
        assert trivial.key == group.identity().key
        conjugate = h * w * h.inverse()
        assert cone.sign(conjugate) == oracle_sign(conjugate)


def test_dynnikov_sign_on_long_words():
    rng = random.Random(11)
    for k in range(36):
        n = 3 + k % 3
        group = GroupRef.braid(n)
        w = BraidWord(group, tuple(reduced_letters(rng, n, rng.randint(200, 400))))
        assert len(w) >= 200
        assert DehornoyOrdering(group).sign(w) == oracle_sign(w), (n, len(w))


def test_key_is_a_braid_invariant():
    b3 = GroupRef.braid(3)
    assert parse_element("s1 s2 s1", b3).key == parse_element("s2 s1 s2", b3).key
    b5 = GroupRef.braid(5)
    assert parse_element("s1 s3", b5).key == parse_element("s3 s1", b5).key
    assert parse_element("s1", b3).key != parse_element("s2", b3).key
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(3, 6)
        group = GroupRef.braid(n)
        letters = random_letters(rng, n, rng.randint(0, 15))
        w = BraidWord.from_letters(group, letters)
        assert BraidWord.from_letters(group, scrambled(rng, letters, n)).key == w.key


def test_keys_differ_exactly_for_distinct_braids():
    # Every pair of words of length <= 3, so braids spelled twice are included.
    words = braid_words_up_to(GroupRef.braid(3), 3)
    spelled_twice = 0
    for a in words:
        for b in words:
            same = oracle_sign(a.inverse() * b) == 0
            assert (a.key == b.key) == same, (a.render(), b.render())
            spelled_twice += same and a != b
    assert spelled_twice > 0
