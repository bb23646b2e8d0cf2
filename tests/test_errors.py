"""Static checks on the error classes."""

import ast
from pathlib import Path

import ordo
from ordo import errors


def _raised_names() -> set[str]:
    """Every name a ``raise`` statement under src/ordo raises or calls."""
    names = set()
    for path in sorted(Path(ordo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised_somewhere():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.OrdoError)
               and obj is not errors.OrdoError}
    unraised = classes - _raised_names()
    assert classes and not unraised, sorted(unraised)
