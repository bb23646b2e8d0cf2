"""The README's limits cite constants that exist, at the values they have,
and every ordo name it cites as `head.name` exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import ordo

README = Path(__file__).resolve().parent.parent / "README.md"
# A constant cited as `module.MAX_NAME`.
CITED = re.compile(r"`(\w+)\.(MAX_\w+)`")
# A decimal number (digit groups split by spaces, as in "100 000") and at
# most one unit word just before the cited constant's parenthesis.
STATED = re.compile(r"(?<!\S)(\d{1,3}(?: \d{3})*|\d+)(?: [a-z]+)? \(`(\w+)\.(MAX_\w+)`")
# A name cited as `head.name`.
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`")


def _limits_section() -> str:
    text = README.read_text()
    start = text.index("\n## Guarantees and limits\n")
    end = text.find("\n## ", start + 1)
    return " ".join(text[start:end if end >= 0 else len(text)].split())


def _constant(module: str, name: str):
    return getattr(importlib.import_module(f"ordo.{module}"), name, None)


def test_readme_limits_cite_existing_constants_at_their_values():
    section = _limits_section()
    cited = set(CITED.findall(section))
    assert {("groups", "MAX_BALL_ELEMENTS"), ("exactreal", "MAX_RADICAND"),
            ("cli", "MAX_INPUT_BYTES")} <= cited
    for module, name in cited:
        assert _constant(module, name) is not None, f"{module}.{name}"
    stated = STATED.findall(section)
    assert {name for _, _, name in stated} >= {"MAX_BALL_ELEMENTS", "MAX_BALL_LETTERS",
                                              "MAX_BRAID_LETTERS", "MAX_SAMPLES", "MAX_GROUP_N",
                                              "MAX_INPUT_BYTES"}
    for number, module, name in stated:
        assert int(number.replace(" ", "")) == _constant(module, name), \
            f"{number} ({module}.{name})"


def _ordo_heads() -> dict:
    """ordo's modules by name, and the classes each defines."""
    modules = {info.name: importlib.import_module(f"ordo.{info.name}")
               for info in pkgutil.iter_modules(ordo.__path__)}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__}
    return {**classes, **modules}


def test_readme_dotted_names_resolve():
    # `head.name` with head an ordo module or class names a module attribute,
    # a class attribute or a record field, so a renamed or deleted name
    # cannot linger in the prose.
    heads = _ordo_heads()
    cited = {(head, name) for head, name in DOTTED.findall(README.read_text()) if head in heads}
    assert len(cited) >= 25
    for head, name in sorted(cited):
        obj = heads[head]
        assert hasattr(obj, name) or name in getattr(obj, "_fields", ()), f"{head}.{name}"
