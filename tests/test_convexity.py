"""Convexity criterion vs the brute-force ball oracle; word constraints; nesting."""

import random
from fractions import Fraction

import pytest

from ordo.errors import NotCofinal, UnsupportedInput
from ordo.exactreal import RealConstant
from ordo.groups import GroupRef, full_twist, parse_element
from ordo.orderings import DehornoyOrdering, FlagOrdering, act, cone_sign
from ordo.convexity import (
    _squeezed,
    ExponentMatrix,
    WordExpression,
    brute_convex,
    check_convex,
    level_kernels,
    nesting_check,
    word_constraints,
)

from oracles import _MAX_CYCLIC_EXPONENT, braid_words_up_to, brute_convex_cyclic_braid

Z2 = GroupRef.free_abelian(2)
Z3 = GroupRef.free_abelian(3)
LEX2 = FlagOrdering.lex(2)
SQRT2_FLAG = FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])


def el(text, group=Z2):
    return parse_element(text, group)


def test_exponent_matrix_parse():
    m = ExponentMatrix.parse("0 1; 1 0")
    assert m.rows == ((0, 1), (1, 0))
    with pytest.raises(UnsupportedInput):
        ExponentMatrix.parse("1 1; 2 2")


def test_lex_axis_convex():
    verdict = check_convex(LEX2, el("x1"), ExponentMatrix.parse("0 1"))
    assert verdict.convex
    assert verdict.row_gcds == (1,)
    assert verdict.span_dimension == 1
    # Independent oracle agrees on the radius-6 ball.
    assert not brute_convex(LEX2, ExponentMatrix.parse("0 1"), 6).violation


def test_lex_anchor_axis_not_convex():
    verdict = check_convex(LEX2, el("x1"), ExponentMatrix.parse("1 0"))
    assert not verdict.convex
    assert verdict.failed_condition == 2
    found = brute_convex(LEX2, ExponentMatrix.parse("1 0"), 2)
    assert found.violation
    # The witness really is squeezed and really is outside the subgroup.
    assert found.witness.coords[1] != 0


def test_lex_violation_has_hand_checked_witness():
    # x1^-1 < x2 < x1 in the lexicographic order.
    found = brute_convex(LEX2, ExponentMatrix.parse("1 0"), 2)
    assert found.violation
    from ordo.orderings import compare

    assert compare(LEX2, found.below, found.witness) < 0
    assert compare(LEX2, found.witness, found.above) < 0


def test_irrational_flag_rank_one_never_convex():
    for rows in ("1 0", "0 1", "1 1", "2 -3"):
        verdict = check_convex(SQRT2_FLAG, el("x1"), ExponentMatrix.parse(rows))
        assert not verdict.convex
        assert verdict.failed_condition in (2, 3)
        grown = None
        for radius in range(2, 9):
            result = brute_convex(SQRT2_FLAG, ExponentMatrix.parse(rows), radius)
            if result.violation:
                grown = result
                break
        assert grown is not None


def test_non_primitive_row_fails_condition_one():
    verdict = check_convex(LEX2, el("x1"), ExponentMatrix.parse("0 2"))
    assert not verdict.convex
    assert verdict.failed_condition == 1
    # (0, 1) sits between (0, -2) and (0, 2) without being in the subgroup.
    assert brute_convex(LEX2, ExponentMatrix.parse("0 2"), 3).violation


def test_condition_three_on_z3():
    # Translations (1, -1, 0): row (1 1 0) pairs to zero but the span
    # dimension is 1, not n - k = 2.
    flag = FlagOrdering.from_rational_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    verdict = check_convex(flag, el("x1", Z3), ExponentMatrix.parse("1 1 0"))
    assert not verdict.convex
    assert verdict.failed_condition == 3
    assert brute_convex(flag, ExponentMatrix.parse("1 1 0"), 3).violation


def test_level_kernel_is_convex_on_z3():
    # Flag (1, sqrt2, 0) then (0, 0, 1): kernel of level one is <(  -? )>...
    flag = FlagOrdering.create([
        [RealConstant.rational(1), RealConstant.sqrt(2), RealConstant.rational(0)],
        [RealConstant.rational(0), RealConstant.rational(0), RealConstant.rational(1)],
    ])
    verdict = check_convex(flag, el("x1", Z3), ExponentMatrix.parse("0 0 1"))
    assert verdict.convex
    assert not brute_convex(flag, ExponentMatrix.parse("0 0 1"), 4).violation


def test_whole_lattice_trivially_unviolated():
    assert not brute_convex(LEX2, ExponentMatrix.parse("1 0; 0 1"), 3).violation


def test_check_convex_rejects_full_rank():
    with pytest.raises(UnsupportedInput):
        check_convex(LEX2, el("x1"), ExponentMatrix.parse("1 0; 0 1"))


def test_non_cofinal_anchor_points_to_fallback():
    with pytest.raises(NotCofinal):
        check_convex(LEX2, el("x2"), ExponentMatrix.parse("0 1"))
    kernels = level_kernels(LEX2)
    assert kernels[0] == ((0, 1),)
    assert kernels[1] == ()


def test_certified_convex_subgroup_is_the_first_level_kernel():
    # With a level-one anchor the certificate picks out exactly the first
    # level kernel; deeper kernels are certified after restricting to it.
    flag = FlagOrdering.from_rational_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    kernels = [k for k in level_kernels(flag) if k]
    assert kernels[0] == ((0, 1, 0), (0, 0, 1))
    assert check_convex(flag, el("x1", Z3), ExponentMatrix(kernels[0])).convex
    # The deeper kernel <(0,0,1)> is convex (the ball oracle finds nothing)
    # but the single-anchor certificate does not reach it.
    deeper = ExponentMatrix(kernels[1])
    assert not check_convex(flag, el("x1", Z3), deeper).convex
    assert not brute_convex(flag, deeper, 4).violation
    # Restrict to the first kernel and re-anchor: now it certifies.
    restricted = flag.restrict([el("x2", Z3), el("x3", Z3)])
    inner = check_convex(restricted, el("x1"), ExponentMatrix.parse("0 1"))
    assert inner.convex
    # Subgroups that are not level kernels fail outright.
    for rows in ("1 0 0", "0 1 1", "1 1 0"):
        assert not check_convex(flag, el("x1", Z3), ExponentMatrix.parse(rows)).convex


def test_torsion_quotient_rejected():
    # Rowwise-primitive but index 2 inside its rational span.
    flag = FlagOrdering.from_rational_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(UnsupportedInput):
        check_convex(flag, el("x1", Z3), ExponentMatrix.parse("0 1 1; 0 1 -1"))
    # The ball oracle confirms the subgroup is genuinely not convex.
    assert brute_convex(flag, ExponentMatrix.parse("0 1 1; 0 1 -1"), 2).violation


def test_oracle_agreement_randomized():
    rng = random.Random(77)
    agree_convex = agree_not_convex = undecided = 0
    for _ in range(200):
        rank = rng.choice([2, 3])
        group = Z2 if rank == 2 else Z3
        flag = random_flag(rng, rank)
        if flag is None:
            continue
        matrix = random_subgroup(rng, flag, rank)
        if matrix is None:
            continue
        anchor = el("x1", group)
        try:
            verdict = check_convex(flag, anchor, matrix)
        except (NotCofinal, UnsupportedInput):
            continue
        if verdict.convex:
            assert not brute_convex(flag, matrix, 5).violation
            agree_convex += 1
        elif verdict.failed_condition == 2:
            found = False
            for radius in range(1, 9):
                if brute_convex(flag, matrix, radius).violation:
                    found = True
                    break
            if found:
                agree_not_convex += 1
            else:
                undecided += 1
        else:
            agree_not_convex += 1
    assert agree_convex >= 10
    assert agree_not_convex >= 50


def random_flag(rng, rank):
    style = rng.random()
    if style < 0.3:
        rows = [[1 if j == i else 0 for j in range(rank)] for i in range(rank)]
        return FlagOrdering.from_rational_rows(rows)
    if style < 0.6:
        level = [RealConstant.rational(rng.randint(1, 3))]
        level += [RealConstant.from_terms({1: rng.randint(-2, 2), 2: rng.randint(-2, 2)})
                  for _ in range(rank - 1)]
        levels = [level]
    else:
        first = [RealConstant.rational(rng.randint(1, 2))]
        first += [RealConstant.rational(rng.randint(-2, 2)) for _ in range(rank - 1)]
        levels = [first] + [[RealConstant.rational(1 if j == i else 0) for j in range(rank)]
                            for i in range(1, rank)]
    try:
        return FlagOrdering.create(levels)
    except UnsupportedInput:  # not total
        return None


def random_subgroup(rng, flag, rank):
    # Half the draws aim at the certified subgroup (the first level kernel)
    # so the Convex branch of the agreement gets exercised too.
    kernels = [k for k in level_kernels(flag) if k]
    if rng.random() < 0.5 and kernels and len(kernels[0]) < rank:
        return ExponentMatrix(kernels[0])
    row = [rng.randint(-3, 3) for _ in range(rank)]
    if not any(row):
        return None
    return ExponentMatrix((tuple(row),))


def test_brute_convex_cyclic_braid():
    cone = DehornoyOrdering.create(3)
    # The cyclic subgroup of the full twist is not convex: s1 sits between
    # the identity and the twist.
    result = brute_convex_cyclic_braid(cone, full_twist(3), radius=2)
    assert result.violation


def _brute_cyclic_by_sign(cone, word, radius):
    """brute_convex_cyclic_braid as it was: g is in <word> when
    sign(g p^-1) = 0 for one of the powers p."""
    powers = [word ** k for k in range(-_MAX_CYCLIC_EXPONENT, _MAX_CYCLIC_EXPONENT + 1)]
    in_ball_powers = [p for p in powers if len(p.letters) <= radius * len(word.letters)]
    outsiders = (g for g in braid_words_up_to(cone.group, radius)
                 if not any(cone_sign(cone, g * p.inverse()) == 0 for p in powers))
    return _squeezed(cone, in_ball_powers, outsiders)


@pytest.mark.parametrize("cone,words,radius", [
    (DehornoyOrdering.create(3), ["s1", "s2", "s1 s2", "s2^2 s1^-1", "s1 s2 s1"], 4),
    (DehornoyOrdering.create(4), ["s1", "s3", "s1 s3^-1", "s2 s3 s2", "s1 s2 s3"], 3),
    (act(DehornoyOrdering.create(3), parse_element("s2 s1^-1", GroupRef.braid(3))),
     ["s1", "s1 s2^-1", "s1 s2 s1^-1"], 3),
])
def test_cyclic_braid_membership_by_key_matches_the_sign_oracle(cone, words, radius):
    subgroups = [parse_element(w, cone.group) for w in words] + [full_twist(cone.group.strands)]
    outcomes = set()
    for word in subgroups:
        result = brute_convex_cyclic_braid(cone, word, radius)
        assert result == _brute_cyclic_by_sign(cone, word, radius)
        outcomes.add(result.violation)
    assert outcomes == {True, False}


def test_word_expression_parse():
    expr = WordExpression.parse("x^1 y^2")
    assert expr.syllable_count == 2
    assert expr.exponent_sums() == {"x": 1, "y": 2}
    with pytest.raises(Exception):
        WordExpression.parse("x^^2")


def test_word_constraints_infeasible_pair():
    verdict = word_constraints(["x^1 y^2", "x^3 y^-1"], pinned={"x": 1})
    assert not verdict.feasible
    first, second = verdict.conflict
    windows = sorted([first.interval(), second.interval()])
    assert windows == [(Fraction(-3, 2), Fraction(1, 2)), (Fraction(1), Fraction(5))]


def test_word_constraints_abelian_tight():
    verdict = word_constraints(["x^1"], pinned={"x": 1}, abelian=True)
    assert not verdict.feasible


def test_word_constraints_zero_exponents_feasible():
    verdict = word_constraints(["x^1 x^-1 y^0"], pinned={"x": 1})
    assert verdict.feasible


def test_word_constraints_feasible_interval():
    verdict = word_constraints(["x^1 y^2"], pinned={"x": 1})
    assert verdict.feasible
    assert verdict.intervals["y"] == (Fraction(-3, 2), Fraction(1, 2))


def test_word_constraints_too_many_unknowns():
    with pytest.raises(UnsupportedInput):
        word_constraints(["y^1 z^1"], pinned={"x": 1})


def test_nesting_chain():
    flag = FlagOrdering.from_rational_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    kernels = [ExponentMatrix(k) for k in level_kernels(flag) if k]
    report = nesting_check(kernels)
    assert report.passed
    assert any("<" in r or "=" in r for r in report.relations)


def test_nesting_single_subgroup():
    assert nesting_check([ExponentMatrix.parse("0 1")]).passed


def test_nesting_detects_incomparable():
    report = nesting_check([ExponentMatrix.parse("1 0"), ExponentMatrix.parse("0 1")])
    assert not report.passed


def test_sikora_criterion_consistency_on_z2():
    # A cyclic subgroup <(p,q)> is certified convex exactly when the circle
    # direction is rational and <(p,q)> is its kernel (perpendicular to it);
    # irrational directions admit no convex cyclic subgroup.
    from math import gcd

    from ordo.cohmaps import sikora_coordinate

    rng = random.Random(88)
    rational_hits = irrational_flags = 0
    for _ in range(120):
        if rng.random() < 0.5:
            p_dir, q_dir = rng.randint(-3, 3), rng.randint(-3, 3)
            if (p_dir, q_dir) == (0, 0) or p_dir == 0:
                continue
            levels = [[RealConstant.rational(p_dir), RealConstant.rational(q_dir)],
                      [RealConstant.rational(0), RealConstant.rational(1)]]
        else:
            levels = [[RealConstant.rational(rng.choice([1, 2])),
                       RealConstant.from_terms({1: rng.randint(-2, 2), 2: rng.choice([1, -1])})]]
        try:
            flag = FlagOrdering.create(levels)
        except UnsupportedInput:  # not total
            continue
        point = sikora_coordinate(flag)
        for _ in range(6):
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            if (p, q) == (0, 0) or gcd(p, q) != 1:
                continue
            matrix = ExponentMatrix(((p, q),))
            try:
                verdict = check_convex(flag, el("x1"), matrix)
            except NotCofinal:
                continue
            kernel_matches = (point.kind == "rational"
                              and point.direction[0] * p + point.direction[1] * q == 0)
            assert verdict.convex == kernel_matches
            if verdict.convex:
                rational_hits += 1
        if point.kind == "irrational":
            irrational_flags += 1
    assert rational_hits >= 5
    assert irrational_flags >= 10
