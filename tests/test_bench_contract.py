"""The benchmark still finds the names it uses.

perfbench/tracing.py wraps ordo's layers from outside the package, by name,
and perfbench/runner.py calls the package's exports as ``self.ordo.<name>``.
A renamed method or a dropped export would only break benchmark runs.  One
test runs one call per wrapped layer under the tracer and checks both the
answers and the span counts; another scans the runner's source for the
exports it reads.
"""

import importlib.util
import re
from pathlib import Path

import ordo
import ordo.cli  # noqa: F401  (the tracer looks up every layer module, the CLI included)
from ordo import exactreal, orderings, quasimorph
from ordo.exactreal import RealConstant
from ordo.groups import GroupRef, parse_element

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _queries():
    # Module attribute lookups, so that the tracer's rebindings are seen.
    z2, b3 = GroupRef.free_abelian(2), GroupRef.braid(3)
    flag = orderings.FlagOrdering.create([[RealConstant.rational(1), RealConstant.sqrt(2)]])
    braid = orderings.DehornoyOrdering.create(3)
    anchored = quasimorph.AnchorContext(flag, parse_element("x1", z2))
    # Flag floors run on integer dots and refine no interval, so the
    # enclosure is asked for on its own.
    exactreal.RealConstant.interval(RealConstant.sqrt(2), 16)
    return (
        flag.sign(parse_element("x1^3 x2^-2", z2)),
        quasimorph.power_floor(anchored, parse_element("x2^5", z2)),
        orderings.compare(braid, parse_element("s1 s2 s1", b3), parse_element("s2 s1 s2^-1", b3)),
    )


def test_tracer_binds_every_traced_name():
    untraced = _queries()
    tracer = _load_tracing().Tracer()
    with tracer.active():
        traced = _queries()
    assert traced == untraced == (1, 7, 1)
    figures = tracer.collect()
    for name in ("orderings.flag_sign.calls", "exactreal.interval.calls",
                 "orderings.compare.calls"):
        assert figures[name] > 0, name


def test_runner_reads_only_names_the_package_exports():
    names = set(re.findall(r"self\.ordo\.(\w+)", (PERFBENCH / "runner.py").read_text()))
    assert {"compare", "is_dense", "realize", "euler_cocycle_survey"} <= names
    assert [name for name in sorted(names) if not hasattr(ordo, name)] == []
