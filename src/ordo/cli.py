"""Command-line front end with stable JSON output.

Every subcommand prints a single JSON document on stdout.  Exit codes:
0 = computed (verdict content lives in the JSON, including negative
verdicts), 2 = invalid input, 3 = could not decide within the configured
caps.  Randomized subcommands take an explicit seed (default 0) so output
is byte-identical across runs.

Handlers return a record or a dict; ``main`` alone prints it and picks the
exit code: an ``OrdoError`` exits with its own code, a document whose
outcome is Unknown with 3, anything else with 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .convexity import ExponentMatrix, brute_convex, check_convex, word_constraints
from .dynamics import (ball_enumeration, check_enumeration_size, dynamically_equivalent,
                       euler_cocycle_survey, letter_bounded, partial_action_check, realize)
from .errors import OrdoError, ParseError
from .exactreal import RealConstant, parse_rational
from .cohmaps import (construct_from_translations, rotation_class, sikora_coordinate, slope_of,
                      translation_values)
from .groups import GroupRef, parse_element
from .orderings import axioms_check, flag_only, ordering_from_json, ordering_to_json
from .quasimorph import DEFAULT_CAP, AnchorContext, power_floor, stable_approx


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


# The most bytes an input file may hold; larger ones are refused before they are parsed.
MAX_INPUT_BYTES = 16 * 1024 * 1024


def _parse_json(text: str, context: str = ""):
    """json.loads, with any ValueError (malformed JSON, or a number past the
    integer-string digit limit) or RecursionError (nesting past the
    interpreter's depth) turned into a ParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{context}{exc}") from exc


def _file(path: str, text: str | None = None) -> str | None:
    """The text of the file at path or, given text, write it there.  A file
    the system refuses, one past MAX_INPUT_BYTES or one that is not UTF-8
    is a ParseError; at most MAX_INPUT_BYTES + 1 bytes are read."""
    try:
        if text is not None:
            Path(path).write_text(text)
            return None
        with open(path, "rb") as f:
            data = f.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"cannot {'read' if text is None else 'write'} {path}: {exc}") from exc
    if len(data) > MAX_INPUT_BYTES:
        raise ParseError(f"{path} holds more than MAX_INPUT_BYTES = {MAX_INPUT_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_json(path: str):
    return _parse_json(_file(path), f"invalid JSON in {path}: ")


def _load(args, flag_only_for: str | None = None):
    """(cone, anchor): the --ordering file's cone and --x read in its group,
    None without --x.  A flag-only computation refuses a braid cone before
    --x is read."""
    cone = ordering_from_json(_load_json(args.ordering))
    if flag_only_for:
        flag_only(cone.group, flag_only_for)
    return cone, None if args.x is None else parse_element(args.x, cone.group)


def _cmd_axioms(args):
    cone, _ = _load(args)
    return axioms_check(cone, args.samples, args.seed, args.radius)


def _floor_context(args):
    """The anchor context rho and stable measure in, and the element measured."""
    cone, x = _load(args)
    ctx = AnchorContext(cone, x, cap=args.cap, require_cofinal=False)
    return ctx, parse_element(args.element, cone.group)


def _cmd_rho(args):
    return {"value": power_floor(*_floor_context(args))}


def _cmd_stable(args):
    return stable_approx(*_floor_context(args), args.n)


def _cmd_psi(args):
    """psi (the rotation class) and psitilde (the unreduced translation values)."""
    cone, x = _load(args)
    basis = [parse_element(b, cone.group) for b in args.basis] if args.basis else None
    invariant = rotation_class if args.command == "psi" else translation_values
    return invariant(cone, x, basis=basis)


def _cmd_construct(args):
    tau = _parse_json(args.tau)
    if not isinstance(tau, list) or not tau:
        raise ParseError("--tau must be a nonempty JSON array of constants")
    group = GroupRef.free_abelian(len(tau))
    values = [RealConstant.from_json(entry) for entry in tau]
    x = parse_element(args.x, group)
    doc = ordering_to_json(construct_from_translations(values, x))
    if args.out:
        _file(args.out, _dumps(doc) + "\n")
    return doc


def _cmd_sikora(args):
    cone, _ = _load(args)
    point = sikora_coordinate(cone)
    payload = point.to_json()
    slope = slope_of(point)
    payload["slope"] = "infinity" if slope is None else slope.to_json()
    return payload


def _cmd_convex(args):
    cone, x = _load(args, flag_only_for="convex")
    matrix = ExponentMatrix.parse(args.subgroup)
    payload = check_convex(cone, x, matrix).to_json()
    if args.brute_radius:
        payload["ball_oracle"] = brute_convex(cone, matrix, args.brute_radius).to_json()
    return payload


def _cmd_obstruct(args):
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
    return word_constraints(args.expr, pinned, abelian=args.abelian)


def _cmd_realize(args):
    cone, _ = _load(args)
    if args.enumeration:
        expressions = _load_json(args.enumeration)
        if not isinstance(expressions, list):
            raise ParseError("enumeration file must hold a JSON array of expressions")
        check_enumeration_size(len(expressions))
        enumeration = letter_bounded(parse_element(e, cone.group) for e in expressions)
    else:
        enumeration = ball_enumeration(cone, args.ball)
    table = realize(cone, enumeration)
    payload = table.to_json()
    if args.act:
        payload["action_check"] = partial_action_check(
            table, parse_element(args.act, cone.group)).to_json()
    return payload


def _cmd_cocycle(args):
    cone, x = _load(args)
    return euler_cocycle_survey(cone, x, args.samples, args.seed, args.radius)


def _cmd_equiv(args):
    left, right = (ordering_from_json(_load_json(path)) for path in (args.a, args.b))
    if left.group != right.group:
        raise ParseError("the two orderings live on different groups")
    x = parse_element(args.x, left.group)
    mode = "semi-dynamical" if args.mode == "semi" else args.mode
    return dynamically_equivalent(left, right, x, mode=mode)


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

    def add(name, handler, help_text, *inputs, x_help=None):
        """A subcommand whose required inputs (--ordering, the anchor --x,
        ...) come first, in the order given; without --x, args.x is None."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, x=None)
        for flag in inputs:
            p.add_argument(flag, required=True, help=x_help if flag == "--x" else None)
        return p

    p = add("axioms", _cmd_axioms, "sampled LO1/LO2 check of an ordering", "--ordering")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int, default=8)

    p = add("rho", _cmd_rho, "bracketing floor of an element", "--ordering", "--x",
            x_help="anchor element expression")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("element")

    p = add("stable", _cmd_stable, "certified stable value floor(h^n)/n", "--ordering", "--x")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("element")

    for name, help_text in (("psi", "rotation class (stable values mod 1)"),
                            ("psitilde", "unreduced translation values, or infinity")):
        p = add(name, _cmd_psi, help_text, "--ordering", "--x")
        p.add_argument("--basis", action="append")

    p = add("construct", _cmd_construct, "flag ordering with prescribed translation numbers",
            "--x")
    p.add_argument("--tau", required=True,
                   help='JSON array of constants, e.g. \'[{"1":"1"},{"2":"1"}]\'')
    p.add_argument("--out", help="also write the ordering JSON to this path")

    add("sikora", _cmd_sikora, "doubled-circle coordinate of a rank-2 flag", "--ordering")

    p = add("convex", _cmd_convex, "three-condition convexity certificate", "--ordering", "--x")
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

    p = add("realize", _cmd_realize, "inductive realization table on a ball", "--ordering")
    p.add_argument("--ball", type=int, default=3)
    p.add_argument("--enumeration", help="JSON array of element expressions")
    p.add_argument("--act", help="also check the partial action of this element")

    p = add("cocycle", _cmd_cocycle, "Euler cocycle identity over random pairs",
            "--ordering", "--x")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int, default=3)

    p = add("equiv", _cmd_equiv, "equivalence verdict for two orderings", "--a", "--b", "--x")
    p.add_argument("--mode", choices=["dynamical", "semi-dynamical", "semi"],
                   default="dynamical")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.handler(args)
        payload = result if isinstance(result, dict) else result.to_json()
        code = 3 if payload.get("outcome") == "Unknown" else 0
    except SystemExit as exc:  # --help; usage errors raise ParseError
        return 2 if exc.code not in (0, None) else 0
    except OrdoError as exc:
        payload, code = {"error": exc.code, "detail": str(exc)}, exc.exit_code
    print(_dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
