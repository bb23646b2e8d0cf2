"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` (used verbatim in CLI
JSON output) and the CLI exit code it maps to: 2 for invalid input, 3 for
"could not decide within the configured caps".  ``parse_integer`` is the one
conversion of literal digits, so that an oversized literal is a ParseError,
``int_text`` the one conversion back, so that no message fails on an
integer past Python's integer-string digit limit, and ``printable_int`` the
one check that a derived integer can be printed as a JSON number.
"""


class OrdoError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    exit_code = 2


class ParseError(OrdoError):
    """Malformed element expression, rational literal, or JSON document."""

    code = "ParseError"
    exit_code = 2


class GroupMismatch(OrdoError):
    """Operands belong to different groups."""

    code = "GroupMismatch"
    exit_code = 2


class UnsupportedInput(OrdoError):
    """Structurally valid input outside the supported fragment.

    Examples: rank-deficient restriction matrices, anchors whose first-level
    pairing is irrational, subgroup data the brute-force oracle cannot
    enumerate.
    """

    code = "UnsupportedInput"
    exit_code = 2


class AnchorIsIdentity(OrdoError):
    """The bracketing anchor must not be the identity."""

    code = "AnchorIsIdentity"
    exit_code = 2


class NotCofinal(OrdoError):
    """The anchor is certified non-cofinal for the requested subgroup."""

    code = "NotCofinal"
    exit_code = 2


class NotRightInvariant(OrdoError):
    """The ordering is certified not right-invariant under the anchor."""

    code = "NotRightInvariant"
    exit_code = 2


class NotRealizable(OrdoError):
    """Prescribed translation data does not pair to 1 with the anchor."""

    code = "NotRealizable"
    exit_code = 2


class NotBracketedWithinCap(OrdoError):
    """No bracketing power was found within the search cap."""

    code = "NotBracketedWithinCap"
    exit_code = 3


class MembershipUnknown(OrdoError):
    """A required membership predicate answered Unknown within its cap."""

    code = "MembershipUnknown"
    exit_code = 3


class HandleReductionLimit(OrdoError):
    """Handle reduction exceeded its step cap (guards against bugs, not theory)."""

    code = "HandleReductionLimit"
    exit_code = 3


class MissingOrbitPoint(OrdoError):
    """A sampled circle action does not cover a required orbit point."""

    code = "MissingOrbitPoint"
    exit_code = 3


class InvariantViolation(OrdoError):
    """An internal invariant failed; indicates a bug, never widened silently."""

    code = "InvariantViolation"
    exit_code = 1


def parse_integer(text: str) -> int:
    """int(text) for a validated digit string; a literal past Python's
    integer-string digit limit is a ParseError naming only its length."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal of {len(text)} characters is too long") from None


def printable_int(n: int, what: str) -> int:
    """n, once it is known to print as a JSON number; UnsupportedInput naming
    its digit count when it is past Python's integer-string digit limit."""
    try:
        str(n)
    except ValueError:
        raise UnsupportedInput(f"{what} {int_text(n)} is too long to print") from None
    return n


def int_text(n: int) -> str:
    """str(n), or its digit count when n is past Python's integer-string limit."""
    try:
        return str(n)
    except ValueError:
        pass
    size = abs(n)
    # 0.301029 < log10(2), so this starts at or below the digit count less one.
    digits = (size.bit_length() - 1) * 301029 // 1000000
    while 10 ** digits <= size:
        digits += 1
    return f"{'-' if n < 0 else ''}<integer of {digits} digits>"
