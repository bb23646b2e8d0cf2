"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance and time bound is pinned here; nothing is deferred.
"""

import json
import random
import time
from fractions import Fraction

from ordo.cli import main
from ordo.exactreal import ONE, RealConstant, combine, mod_one
from ordo.groups import GroupRef, LatticeElement, full_twist, parse_element, random_element
from ordo.orderings import DehornoyOrdering, FlagOrdering, compare
from ordo.quasimorph import AnchorContext, power_floor, stable_approx, stable_exact, stable_map_properties
from ordo.cohmaps import (
    construct_from_translations,
    is_realizable,
    rotation_class,
    sikora_coordinate,
    slope_of,
    translation_values,
)
from ordo.convexity import ExponentMatrix, brute_convex, check_convex, level_kernels
from ordo.dynamics import (
    ball_enumeration,
    dynamically_equivalent,
    euler_cocycle_survey,
    realize,
)
from ordo.errors import NotCofinal, UnsupportedInput

Z2 = GroupRef.free_abelian(2)
Z3 = GroupRef.free_abelian(3)
B3 = GroupRef.braid(3)
LEX2 = FlagOrdering.lex(2)
SQRT2_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
DEHORNOY3 = DehornoyOrdering.create(3)
TWIST3 = full_twist(3)


def el(text, group=Z2):
    return parse_element(text, group)


def report(number, label, elapsed, bound, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s / limit {bound}s)")
    assert passed, f"criterion {number} failed"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.2f}s)"


def test_criterion_1_defect_bound():
    start = time.time()
    rng = random.Random(1)
    families = [
        (AnchorContext(LEX2, el("x1")), Z2, 25),
        (AnchorContext(SQRT2_FLAG, el("x1")), Z2, 25),
        (AnchorContext(DEHORNOY3, TWIST3), B3, 6),
    ]
    violations = 0
    for ctx, group, radius in families:
        for _ in range(10_000):
            f = random_element(group, rng, radius)
            g = random_element(group, rng, radius)
            value = power_floor(ctx, f) + power_floor(ctx, g) - power_floor(ctx, f * g)
            if abs(value) > 1:
                violations += 1
    report(1, "defect bound over 10^4 pairs per family", time.time() - start, 30,
           violations == 0)


def test_criterion_2_obstruction_cli(capsys):
    start = time.time()
    code = main(["obstruct", "--anchor", "x",
                 "--expr", "x^1 y^2", "--expr", "x^3 y^-1"])
    payload = json.loads(capsys.readouterr().out)
    intervals = sorted(entry["interval"] for entry in payload.get("conflict", []))
    ok = (code == 0 and payload["outcome"] == "Infeasible"
          and intervals == [["-3/2", "1/2"], ["1", "5"]])
    elapsed = time.time() - start
    with capsys.disabled():
        report(2, "obstruct CLI returns the infeasible interval pair", elapsed, 1, ok)


def test_criterion_3_twisting_number():
    start = time.time()
    ctx = AnchorContext(DEHORNOY3, TWIST3)
    value = stable_approx(ctx, el("s1 s2", B3), 300)
    ok = abs(value.approx - Fraction(1, 3)) <= Fraction(1, 300)
    report(3, "stable value of s1 s2 within 1/300 of 1/3", time.time() - start, 60, ok)


def test_criterion_4_round_trip():
    start = time.time()
    rng = random.Random(4)
    all_exact = True
    for trial in range(100):
        group = Z2 if trial % 2 == 0 else Z3
        n = group.rank
        coords = [rng.choice([1, -1, 2, 3])] + [rng.randint(-2, 2) for _ in range(n - 1)]
        x = LatticeElement(group, tuple(coords))
        tail = [RealConstant.from_terms({1: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                         2: rng.randint(-2, 2),
                                         3: rng.randint(-2, 2)})
                for _ in range(n - 1)]
        paired = sum((x.coords[i + 1] * t for i, t in enumerate(tail)),
                     RealConstant.rational(0))
        values = [combine(ONE, paired, 1, -1) / x.coords[0]] + tail
        assert is_realizable(values, x)
        flag = construct_from_translations(values, x)
        got = rotation_class(flag, x, basis=group.generators())
        for want, have in zip(values, got.components):
            if mod_one(want) != have:
                all_exact = False
    report(4, "rotation class of 100 constructed orderings is the data mod 1",
           time.time() - start, 10, all_exact)


def _random_flag_for_agreement(rng, rank):
    style = rng.random()
    group_rows = []
    if style < 0.35:
        group_rows = [[1 if j == i else 0 for j in range(rank)] for i in range(rank)]
        return FlagOrdering.from_rational_rows(group_rows)
    if style < 0.7:
        level = [RealConstant.rational(rng.choice([1, 2]))]
        level += [RealConstant.from_terms({1: rng.randint(-2, 2), 2: rng.randint(-2, 2)})
                  for _ in range(rank - 1)]
        levels = [level]
    else:
        first = [RealConstant.rational(rng.choice([1, 2]))]
        first += [RealConstant.rational(rng.randint(-2, 2)) for _ in range(rank - 1)]
        levels = [first] + [[RealConstant.rational(1 if j == i else 0) for j in range(rank)]
                            for i in range(1, rank)]
    try:
        return FlagOrdering.create(levels)
    except UnsupportedInput:  # not total
        return None


def test_criterion_5_convexity_vs_brute_force():
    start = time.time()
    rng = random.Random(5)
    instances = 0
    convex_agreements = not_convex_agreements = undecided = 0
    while instances < 200:
        rank = rng.choice([2, 3])
        group = Z2 if rank == 2 else Z3
        flag = _random_flag_for_agreement(rng, rank)
        if flag is None:
            continue
        kernels = [k for k in level_kernels(flag) if k]
        if rng.random() < 0.4 and kernels and len(kernels[0]) == 1:
            matrix = ExponentMatrix(kernels[0])
        else:
            row = [rng.randint(-3, 3) for _ in range(rank)]
            if not any(row):
                continue
            matrix = ExponentMatrix((tuple(row),))
        try:
            verdict = check_convex(flag, el("x1", group), matrix)
        except (NotCofinal, UnsupportedInput):
            continue
        instances += 1
        if verdict.convex:
            assert not brute_convex(flag, matrix, 5).violation
            convex_agreements += 1
        elif verdict.failed_condition == 2:
            found = any(brute_convex(flag, matrix, radius).violation
                        for radius in range(1, 9))
            if found:
                not_convex_agreements += 1
            else:
                undecided += 1
        else:
            not_convex_agreements += 1
    ok = convex_agreements >= 10 and not_convex_agreements >= 100
    report(5, f"criterion vs ball oracle on 200 instances "
              f"({convex_agreements} convex, {not_convex_agreements} not, "
              f"{undecided} undecided)",
           time.time() - start, 120, ok)


def test_criterion_6_sikora_consistency():
    start = time.time()
    rng = random.Random(6)
    checked = 0
    all_equal = True
    while checked < 100:
        style = rng.random()
        if style < 0.4:
            # Rational slope: rational first level plus a completing level.
            p = rng.randint(-4, 4)
            q = rng.randint(-4, 4)
            if (p, q) == (0, 0):
                continue
            levels = [[RealConstant.rational(p), RealConstant.rational(q)],
                      [RealConstant.rational(rng.randint(-2, 2)),
                       RealConstant.rational(rng.randint(1, 3))]]
        else:
            first = [RealConstant.rational(rng.choice([1, 2, -1, 3])),
                     RealConstant.from_terms({1: rng.randint(-3, 3),
                                              2: rng.choice([1, -1, 2]),
                                              3: rng.randint(-2, 2)})]
            levels = [first]
        try:
            flag = FlagOrdering.create(levels)
        except UnsupportedInput:  # not total
            continue
        point = sikora_coordinate(flag)
        slope = slope_of(point)
        values = translation_values(flag, el("x1"), basis=[el("x2")])
        if values.is_infinity:
            agree = slope is None
        else:
            agree = slope is not None and slope == values.components[0]
        if not agree:
            all_equal = False
        checked += 1
    report(6, "slope of the circle coordinate equals the translation value, 100 flags",
           time.time() - start, 5, all_equal)


def test_criterion_7_euler_identity():
    start = time.time()
    ok = True
    for cone, x in ((LEX2, el("x1")), (SQRT2_FLAG, el("x1")), (DEHORNOY3, TWIST3)):
        survey = euler_cocycle_survey(cone, x, count=1000, seed=7, radius=2)
        if not survey.all_passed:
            ok = False
    report(7, "Euler cocycle identity over 10^3 pairs per family",
           time.time() - start, 60, ok)


def test_criterion_8_realization_contract():
    start = time.time()
    ok = True
    for cone, radius in ((LEX2, 4), (DEHORNOY3, 4)):
        enumeration = ball_enumeration(cone, radius)
        table = realize(cone, enumeration)
        stations = sorted(zip(table.values, range(len(enumeration))))
        for (t0, i0), (t1, i1) in zip(stations, stations[1:]):
            if not (t0 < t1 and compare(cone, enumeration[i0], enumeration[i1]) < 0):
                ok = False
        for cut in range(1, len(enumeration) + 1):
            prefix = realize(cone, enumeration[:cut])
            if prefix.values != table.values[:cut]:
                ok = False
                break
    report(8, "order embedding and prefix stability on radius-4 balls",
           time.time() - start, 30, ok)


def test_criterion_9_stable_map_properties():
    start = time.time()
    flag_ctx = AnchorContext(SQRT2_FLAG, el("x1"))
    flag_ok = True
    rng = random.Random(9)
    for _ in range(50):
        h = random_element(Z2, rng, 10)
        base = stable_exact(SQRT2_FLAG, el("x1"), h)
        for m in range(-3, 4):
            if stable_exact(SQRT2_FLAG, el("x1"), h ** m) != base.scale(m):
                flag_ok = False
    braid_report = stable_map_properties(
        AnchorContext(DEHORNOY3, TWIST3), seed=9, sample_count=4,
        approx_n=120, powers=(-3, -2, -1, 0, 1, 2, 3), radius=4)
    lex_report = stable_map_properties(flag_ctx, seed=10, sample_count=6, radius=10)
    ok = flag_ok and braid_report.passed and lex_report.passed
    report(9, "homogeneity exact on flags, conjugation certified on braids",
           time.time() - start, 60, ok)


def test_criterion_10_equivalence_verdicts():
    start = time.time()
    doubled = FlagOrdering.create(
        [[RealConstant.rational(2), RealConstant.sqrt(2, 2)]])
    sqrt3_flag = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(3)]])
    same = dynamically_equivalent(SQRT2_FLAG, doubled, el("x1"), mode="dynamical")
    different = dynamically_equivalent(SQRT2_FLAG, sqrt3_flag, el("x1"), mode="dynamical")
    discrete = dynamically_equivalent(LEX2, LEX2, el("x1"), mode="dynamical")
    ok = (same.outcome == "Equivalent"
          and different.outcome == "NotEquivalent"
          and discrete.outcome == "Unknown" and "not dense" in discrete.reason)
    report(10, "equivalence verdicts: rescaled equal, sqrt3 differs, lex unknown",
           time.time() - start, 1, ok)
