"""Command-line front end with stable JSON output.

Every subcommand prints a single JSON document on stdout.  Exit codes:
0 = computed (verdict content lives in the JSON, including negative
verdicts), 2 = invalid input, 3 = could not decide within the configured
caps.  Randomized subcommands take an explicit seed (default 0) so output
is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .convexity import ExponentMatrix, brute_convex, check_convex, word_constraints
from .dynamics import (
    ball_enumeration,
    dynamically_equivalent,
    euler_cocycle_survey,
    partial_action_check,
    realize,
)
from .errors import OrdoError, ParseError
from .exactreal import RealConstant, parse_rational
from .cohmaps import (
    construct_from_translations,
    rotation_class,
    sikora_coordinate,
    slope_of,
    translation_values,
)
from .groups import GroupRef, parse_element
from .orderings import FlagOrdering, axioms_check, ordering_from_json, ordering_to_json
from .quasimorph import (
    DEFAULT_CAP,
    AnchorContext,
    power_floor,
    stable_approx,
)


def _parse_json(text: str, context: str = ""):
    """json.loads, with any ValueError (malformed JSON, or a number past the
    integer-string digit limit) turned into a ParseError."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(f"{context}{exc}") from exc


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return _parse_json(text, f"invalid JSON in {path}: ")


def _load_ordering(path: str):
    return ordering_from_json(_load_json(path))


def _emit(payload: dict, exit_code: int = 0) -> int:
    print(json.dumps(payload, sort_keys=True, indent=2))
    return exit_code


def _cmd_axioms(args) -> int:
    cone = _load_ordering(args.ordering)
    report = axioms_check(cone, args.samples, args.seed, args.radius)
    return _emit(report.to_json())


def _cmd_rho(args) -> int:
    cone = _load_ordering(args.ordering)
    x = parse_element(args.x, cone.group)
    ctx = AnchorContext(cone, x, cap=args.cap, require_cofinal=False)
    value = power_floor(ctx, parse_element(args.element, cone.group))
    return _emit({"value": value})


def _cmd_stable(args) -> int:
    cone = _load_ordering(args.ordering)
    x = parse_element(args.x, cone.group)
    ctx = AnchorContext(cone, x, cap=args.cap, require_cofinal=False)
    value = stable_approx(ctx, parse_element(args.element, cone.group), args.n)
    return _emit(value.to_json())


def _parse_basis(args, cone):
    if args.basis:
        return [parse_element(b, cone.group) for b in args.basis]
    return None


def _cmd_psi(args) -> int:
    cone = _load_ordering(args.ordering)
    x = parse_element(args.x, cone.group)
    got = rotation_class(cone, x, basis=_parse_basis(args, cone))
    return _emit(got.to_json())


def _cmd_psitilde(args) -> int:
    cone = _load_ordering(args.ordering)
    x = parse_element(args.x, cone.group)
    got = translation_values(cone, x, basis=_parse_basis(args, cone))
    return _emit(got.to_json())


def _cmd_construct(args) -> int:
    tau = _parse_json(args.tau)
    if not isinstance(tau, list) or not tau:
        raise ParseError("--tau must be a nonempty JSON array of constants")
    group = GroupRef.free_abelian(len(tau))
    values = [RealConstant.from_json(entry) for entry in tau]
    x = parse_element(args.x, group)
    flag = construct_from_translations(values, x)
    doc = ordering_to_json(flag)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return _emit(doc)


def _cmd_sikora(args) -> int:
    cone = _load_ordering(args.ordering)
    if not isinstance(cone, FlagOrdering):
        raise ParseError("sikora coordinates need a flag ordering of Z^2")
    point = sikora_coordinate(cone)
    payload = point.to_json()
    slope = slope_of(point)
    payload["slope"] = "infinity" if slope is None else slope.to_json()
    return _emit(payload)


def _cmd_convex(args) -> int:
    cone = _load_ordering(args.ordering)
    if not isinstance(cone, FlagOrdering):
        raise ParseError("the convexity criterion needs a flag ordering")
    x = parse_element(args.x, cone.group)
    matrix = ExponentMatrix.parse(args.subgroup)
    verdict = check_convex(cone, x, matrix)
    payload = verdict.to_json()
    if args.brute_radius:
        payload["ball_oracle"] = brute_convex(cone, matrix, args.brute_radius).to_json()
    return _emit(payload)


def _cmd_obstruct(args) -> int:
    pinned: dict[str, Fraction] = {}
    if args.anchor:
        pinned[args.anchor] = Fraction(1)
    for pin in args.pin or []:
        name, _, value = pin.partition("=")
        if not name or not value:
            raise ParseError(f"bad --pin {pin!r}; expected name=p/q")
        pinned[name] = parse_rational(value)
    if not args.expr:
        raise ParseError("at least one --expr is required")
    verdict = word_constraints(args.expr, pinned, abelian=args.abelian)
    return _emit(verdict.to_json())


def _cmd_realize(args) -> int:
    cone = _load_ordering(args.ordering)
    if args.enumeration:
        expressions = _load_json(args.enumeration)
        if not isinstance(expressions, list):
            raise ParseError("enumeration file must hold a JSON array of expressions")
        enumeration = [parse_element(e, cone.group) for e in expressions]
    else:
        enumeration = ball_enumeration(cone, args.ball)
    table = realize(cone, enumeration)
    payload = table.to_json()
    if args.act:
        payload["action_check"] = partial_action_check(
            table, parse_element(args.act, cone.group)).to_json()
    return _emit(payload)


def _cmd_cocycle(args) -> int:
    cone = _load_ordering(args.ordering)
    x = parse_element(args.x, cone.group)
    survey = euler_cocycle_survey(cone, x, args.samples, args.seed, args.radius)
    return _emit(survey.to_json())


def _cmd_equiv(args) -> int:
    left = _load_ordering(args.a)
    right = _load_ordering(args.b)
    if left.group != right.group:
        raise ParseError("the two orderings live on different groups")
    x = parse_element(args.x, left.group)
    mode = "semi-dynamical" if args.mode == "semi" else args.mode
    verdict = dynamically_equivalent(left, right, x, mode=mode)
    return _emit(verdict.to_json(), exit_code=0 if verdict.outcome != "Unknown" else 3)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they print one JSON document as well."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    parser = _Parser(
        prog="ordo",
        description="Exact computation with left orderings of groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("axioms", _cmd_axioms, "sampled LO1/LO2 check of an ordering")
    p.add_argument("--ordering", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int, default=8)

    p = add("rho", _cmd_rho, "bracketing floor of an element")
    p.add_argument("--ordering", required=True)
    p.add_argument("--x", required=True, help="anchor element expression")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("element")

    p = add("stable", _cmd_stable, "certified stable value floor(h^n)/n")
    p.add_argument("--ordering", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("element")

    p = add("psi", _cmd_psi, "rotation class (stable values mod 1)")
    p.add_argument("--ordering", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--basis", action="append")

    p = add("psitilde", _cmd_psitilde, "unreduced translation values, or infinity")
    p.add_argument("--ordering", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--basis", action="append")

    p = add("construct", _cmd_construct, "flag ordering with prescribed translation numbers")
    p.add_argument("--x", required=True)
    p.add_argument("--tau", required=True,
                   help='JSON array of constants, e.g. \'[{"1":"1"},{"2":"1"}]\'')
    p.add_argument("--out", help="also write the ordering JSON to this path")

    p = add("sikora", _cmd_sikora, "doubled-circle coordinate of a rank-2 flag")
    p.add_argument("--ordering", required=True)

    p = add("convex", _cmd_convex, "three-condition convexity certificate")
    p.add_argument("--ordering", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--subgroup", required=True, help='rows of exponents, e.g. "0 1" or "1 0; 0 2"')
    p.add_argument("--brute-radius", type=int, default=0,
                   help="also run the ball oracle at this radius")

    p = add("obstruct", _cmd_obstruct, "stable-value constraints from word expressions")
    p.add_argument("--expr", action="append", required=True,
                   help='word expression, e.g. "x^1 y^2" (repeatable)')
    p.add_argument("--anchor", help="generator pinned to stable value 1")
    p.add_argument("--pin", action="append", help="extra pinned value name=p/q")
    p.add_argument("--abelian", action="store_true",
                   help="use the tight abelian form (equality with zero)")

    p = add("realize", _cmd_realize, "inductive realization table on a ball")
    p.add_argument("--ordering", required=True)
    p.add_argument("--ball", type=int, default=3)
    p.add_argument("--enumeration", help="JSON array of element expressions")
    p.add_argument("--act", help="also check the partial action of this element")

    p = add("cocycle", _cmd_cocycle, "Euler cocycle identity over random pairs")
    p.add_argument("--ordering", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int, default=3)

    p = add("equiv", _cmd_equiv, "equivalence verdict for two orderings")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--mode", choices=["dynamical", "semi-dynamical", "semi"],
                   default="dynamical")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help; usage errors raise ParseError
        return 2 if exc.code not in (0, None) else 0
    except OrdoError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}, sort_keys=True, indent=2))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
