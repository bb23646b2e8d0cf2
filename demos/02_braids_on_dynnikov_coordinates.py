#!/usr/bin/env python3
"""The Dehornoy ordering of braid groups, read off Dynnikov coordinates.

A braid's key is the image of (0, 1, ..., 0, 1) under the piecewise-linear
action of B_n on Z^(2n).  Two words name the same braid exactly when their
keys agree, and the braid is order-positive exactly when the first nonzero
entry of (a1, b1 - 1, a2, b2 - 1, ...) is positive.
"""

from ordo import (
    DehornoyOrdering,
    GroupRef,
    cone_sign,
    compare,
    full_twist,
    is_cofinal,
    is_right_invariant,
    parse_element,
)
from ordo.orderings import is_central_braid

B3 = GroupRef.braid(3)
D = DehornoyOrdering.create(3)


def braid(text):
    return parse_element(text, B3)


def key_sign(key):
    """The first nonzero entry of (a1, b1 - 1, a2, b2 - 1, ...), signed."""
    shifted = [c - (k % 2) for k, c in enumerate(key)]
    return next((1 if c > 0 else -1 for c in shifted if c), 0)


print("=== keys: Dynnikov coordinates (a1, b1, a2, b2, a3, b3) ===")
for text in ["", "s1", "s1^-1", "s2", "s1 s2 s1^-1"]:
    print(f"  key({text or '1':>12}) = {braid(text).key}")

print()
print("=== equal keys, equal braids ===")
pairs = [("s1 s2 s1", "s2 s1 s2"), ("s1 s2 s1^-1", "s2^-1 s1 s2"), ("s1 s2", "s2 s1")]
for left, right in pairs:
    same = braid(left).key == braid(right).key
    print(f"  {left:>12} {'=' if same else '!='} {right}")
print(f"  key of s1 s2 times s1, unbuilt: {braid('s1 s2').key_times(braid('s1'))}")

print()
print("=== the sign read off the key ===")
for text in ["s1 s2^-1", "s2 s1^-1", "s2^-1 s1 s2", "s1 s2 s1 s2^-1 s1^-1 s2^-1"]:
    w = braid(text)
    print(f"  {text:>26}: key sign {key_sign(w.key):+d}, cone sign {cone_sign(D, w):+d}")

print()
print("=== the full twist generates the center ===")
twist = full_twist(3)
print(f"  full twist = {twist.render()}, key {twist.key}")
print(f"  central: {is_central_braid(D, twist)}")
for gen_text in ["s1", "s2"]:
    g = braid(gen_text)
    print(f"  twist {gen_text} and {gen_text} twist have equal keys: "
          f"{twist.key_times(g) == g.key_times(twist)}")

print()
print("=== universal cofinality of the twist ===")
print(f"  is_cofinal(D, twist) = {is_cofinal(D, twist).value}")
print(f"  right-invariance under the twist: "
      f"{is_right_invariant(D, twist).outcome.value}")
verdict = is_right_invariant(D, braid("s1"), cap=4)
print(f"  right-invariance under s1: {verdict.outcome.value}"
      + (f", witness {verdict.witness.render()!r}" if verdict.witness else ""))

print()
print("=== comparisons sort braids ===")
sample = [braid(t) for t in ["", "s1", "s2", "s1 s2", "s2 s1", "s1^-1", "s1 s2 s1"]]
ranked = sorted(sample, key=lambda w: sum(
    1 for v in sample if compare(D, v, w) < 0))
print("  ascending:", "  ".join(w.render() or "1" for w in ranked))
