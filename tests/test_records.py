"""Every frozen record against a dataclass twin built from the same fields.

The table lists each record class with its fields, their defaults, the
fields derived in construction, and two argument tuples giving different
records.  The oracle for construction, ``repr``, ``==`` and ``hash`` is a
frozen dataclass made by ``dataclasses.make_dataclass`` from those fields.
"""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

import ordo
import ordo.orderings as ordo_orderings
from ordo.cohmaps import NaturalityReport, RotationClass, SikoraPoint, TranslationValues
from ordo.convexity import (
    BruteForceResult,
    Constraint,
    ConstraintVerdict,
    ConvexityVerdict,
    ExponentMatrix,
    NestingReport,
    WordExpression,
)
from ordo.dynamics import (
    ActionCheck,
    EquivalenceVerdict,
    EulerIdentityReport,
    EulerSurvey,
    RealizationTable,
    SampledCircleAction,
    ball_enumeration,
    circle_action_from_ball,
    realize,
)
from ordo.exactreal import RealConstant
from ordo.groups import BraidWord, GroupRef, LatticeElement, full_twist, parse_element
from ordo.orderings import (
    AxiomsReport,
    Decision,
    DehornoyOrdering,
    Density,
    DensityVerdict,
    FlagOrdering,
    InvarianceVerdict,
)
from ordo.quasimorph import (DEFAULT_CAP, AnchorContext, PropertyCheck, StableMapReport,
                             StableValue, power_floor)
from ordo.records import Record, cached

Z2, B3 = GroupRef.free_abelian(2), GroupRef.braid(3)
LEX2, DEHORNOY3 = FlagOrdering.lex(2), DehornoyOrdering.create(3)
X1, S1 = parse_element("x1", Z2), parse_element("s1", B3)
THIRD = RealConstant.rational(Fraction(1, 3))
ACTIONS = [circle_action_from_ball(LEX2, X1, 1), circle_action_from_ball(DEHORNOY3, full_twist(3), 1)]
BALL = ball_enumeration(DEHORNOY3, 2)
REQUIRED = object()


def _sample_action(i):
    return ACTIONS[i].ctx, ACTIONS[i].stratum, ACTIONS[i].theta_values, ACTIONS[i].stored


def _sample_table(i):
    table = realize(DEHORNOY3, BALL[:4 + i])
    return table.cone, table.elements, table.values


# (class, ((field, default or REQUIRED), ...), {derived field: its value from the record},
#  the init arguments of sample i = 0, 1)
RECORDS = [
    (GroupRef, (("kind", REQUIRED), ("n", REQUIRED)), {},
     lambda i: [("braid", 3), ("free_abelian", 2)][i]),
    (LatticeElement, (("group", REQUIRED), ("coords", REQUIRED)), {},
     lambda i: (Z2, [(1, -2), (0, 3)][i])),
    (BraidWord, (("group", REQUIRED), ("letters", REQUIRED)), {},
     lambda i: (B3, [((1, 1), (2, -1)), ((2, 1),)][i])),
    (RealConstant, (("terms", REQUIRED),), {},
     lambda i: ([((1, Fraction(1, 2)),), ((2, Fraction(3)),)][i],)),
    (FlagOrdering, (("group", REQUIRED), ("levels", REQUIRED)), {},
     lambda i: (Z2, ((THIRD, RealConstant.sqrt(2 + i)),))),
    # The conjugator's default, the identity of the group, depends on the group.
    (DehornoyOrdering, (("group", REQUIRED), ("conjugator", REQUIRED)), {},
     lambda i: (B3, [S1, B3.identity()][i])),
    (AxiomsReport, (("passed", REQUIRED), ("samples", REQUIRED), ("lo1_checked", REQUIRED),
                    ("lo1_failures", REQUIRED), ("lo2_failures", REQUIRED),
                    ("kernel_witness", None)), {},
     lambda i: (True, 10 + i, 3, (), ("s1",), None)),
    (InvarianceVerdict, (("outcome", REQUIRED), ("witness", None)), {},
     lambda i: (Decision.NO, [S1, S1.inverse()][i])),
    (DensityVerdict, (("outcome", REQUIRED), ("minimal_positive", None),
                      ("smallest_positive_seen", None)), {},
     lambda i: (Density.UNKNOWN, None, [S1, S1.inverse()][i])),
    (AnchorContext, (("cone", REQUIRED), ("anchor", REQUIRED), ("generators", None),
                     ("cap", DEFAULT_CAP), ("require_cofinal", True)), {},
     lambda i: (DEHORNOY3, [S1, S1.inverse()][i], (S1,), 1000 + i, False)),
    (StableValue, (("approx", REQUIRED), ("radius", REQUIRED), ("exact", None)), {},
     lambda i: (Fraction(1, 3), Fraction(1, 10 + i), THIRD)),
    (PropertyCheck, (("name", REQUIRED), ("detail", REQUIRED), ("passed", REQUIRED)), {},
     lambda i: ("homogeneity", f"detail {i}", bool(i))),
    (StableMapReport, (("checks", REQUIRED),), {},
     lambda i: ((PropertyCheck("homogeneity", "d", bool(i)),),)),
    (RealizationTable, (("cone", REQUIRED), ("elements", REQUIRED), ("values", REQUIRED)), {},
     _sample_table),
    (ActionCheck, (("checked", REQUIRED), ("passed", REQUIRED), ("failure", None)), {},
     lambda i: (4, False, f"failure {i}")),
    (SampledCircleAction, (("ctx", REQUIRED), ("stratum", REQUIRED),
                           ("theta_values", REQUIRED), ("stored", REQUIRED)), {},
     _sample_action),
    (EulerIdentityReport, (("euler_cocycle", REQUIRED), ("coboundary", REQUIRED),
                           ("passed", REQUIRED)), {},
     lambda i: (Fraction(i), -i, True)),
    (EulerSurvey, (("total", REQUIRED), ("passed", REQUIRED), ("failures", REQUIRED)), {},
     lambda i: (30, 30 - i, ("f",) * i)),
    (EquivalenceVerdict, (("outcome", REQUIRED), ("mode", REQUIRED), ("reason", None),
                          ("left_class", None), ("right_class", None)), {},
     lambda i: ("Unknown", "dynamical", f"reason {i}", RotationClass((THIRD,), (X1,)), None)),
    (ExponentMatrix, (("rows", REQUIRED),), {},
     lambda i: ([((1, 0),), ((0, 1), (1, 1))][i],)),
    (ConvexityVerdict, (("convex", REQUIRED), ("failed_condition", REQUIRED),
                        ("witness", REQUIRED), ("row_gcds", REQUIRED),
                        ("pairing_values", REQUIRED), ("span_dimension", REQUIRED),
                        ("translations", REQUIRED)), {},
     lambda i: (False, 2, "row 1", (1,), (THIRD,), 1 + i, (THIRD, THIRD))),
    (BruteForceResult, (("violation", REQUIRED), ("witness", None), ("below", None),
                        ("above", None)), {},
     lambda i: (True, X1, X1.inverse(), [X1, X1 * X1][i])),
    (WordExpression, (("syllables", REQUIRED), ("source", REQUIRED)), {},
     lambda i: ((("a", 1), ("b", -1 - i)), "a b^-1")),
    (Constraint, (("source", REQUIRED), ("unknown", REQUIRED), ("coefficient", REQUIRED),
                  ("constant", REQUIRED), ("bound", REQUIRED)), {},
     lambda i: ("a b", "a", Fraction(1), Fraction(i), Fraction(2))),
    (ConstraintVerdict, (("feasible", REQUIRED), ("intervals", REQUIRED),
                         ("conflict", REQUIRED)), {},
     lambda i: (True, {"a": (Fraction(-1), Fraction(i))}, None)),
    (NestingReport, (("passed", REQUIRED), ("relations", REQUIRED)), {},
     lambda i: (True, (f"B1 < B{2 + i}",))),
    (RotationClass, (("components", REQUIRED), ("basis", REQUIRED)), {},
     lambda i: ((THIRD, RealConstant.rational(Fraction(i, 2))), (X1, X1.inverse()))),
    (TranslationValues, (("components", REQUIRED), ("basis", REQUIRED)), {},
     lambda i: ([None, (THIRD,)][i], (X1,))),
    (NaturalityReport, (("passed", REQUIRED), ("sublattice_basis", REQUIRED),
                        ("pulled_back", REQUIRED), ("restricted", REQUIRED)), {},
     lambda i: (True, ((1, i),), (THIRD,), (THIRD,))),
    (SikoraPoint, (("kind", REQUIRED), ("direction", REQUIRED), ("side", None)), {},
     lambda i: ("rational", (1, 2), [1, -1][i])),
]

# Caches a record fills on use, beyond its cached properties.
WARM = {
    AnchorContext: lambda ctx: power_floor(ctx, ctx.anchor ** 3),
    SampledCircleAction: lambda action: [action.floor(h) for h in action.stored],
    RealizationTable: lambda table: table.lookup(table.elements[-1]),
    DehornoyOrdering: lambda cone: cone.sign(S1),
}


def _twin(cls, fields, derived):
    """A frozen dataclass of the same name over the same fields, every one passed."""
    specs = [(name, object, dataclasses.field() if default is REQUIRED
              else dataclasses.field(default=default)) for name, default in fields]
    return dataclasses.make_dataclass(
        cls.__qualname__, specs + [(name, object) for name in derived], frozen=True)


def _twin_of(twin, record):
    return twin(**{name: getattr(record, name) for name in record._fields})


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def _warm(record):
    for name in dir(type(record)):
        if isinstance(getattr(type(record), name, None), cached):
            getattr(record, name)
    if type(record) in WARM:
        WARM[type(record)](record)


def test_the_table_covers_every_record_class():
    classes = {obj for module in ("groups", "exactreal", "orderings", "quasimorph", "dynamics",
                                  "convexity", "cohmaps")
               for obj in vars(getattr(ordo, module)).values()
               if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record}
    assert classes == {cls for cls, *_ in RECORDS} and len(RECORDS) == 30


def test_no_module_imports_dataclasses():
    for path in sorted((Path(ordo.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, path.name


@pytest.mark.parametrize("cls,fields,derived,sample", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_matches_its_dataclass_twin(cls, fields, derived, sample):
    names = [name for name, _ in fields]
    assert cls._fields == tuple(names) + tuple(derived)
    twin = _twin(cls, fields, derived)
    a, b = cls(*sample(0)), cls(*sample(1))
    # Keyword construction, and the defaults when only the required fields are given.
    assert cls(**dict(zip(names, sample(0)))) == a
    required = [value for (name, default), value in zip(fields, sample(0)) if default is REQUIRED]
    short = cls(*required)
    for name, default in fields:
        if default is not REQUIRED:
            assert getattr(short, name) == default
    for name, value in derived.items():
        assert getattr(a, name) == value(a)
    # The same repr, == and hash as the twin.
    for record in (a, b, short):
        assert repr(record) == repr(_twin_of(twin, record))
        assert _hash(record) == _hash(_twin_of(twin, record))
    a2 = cls(*sample(0))
    pairs = [(a, a2), (a, b), (b, a), (a, short)]
    assert [x == y for x, y in pairs] == \
        [_twin_of(twin, x) == _twin_of(twin, y) for x, y in pairs]
    assert [x != y for x, y in pairs] == \
        [_twin_of(twin, x) != _twin_of(twin, y) for x, y in pairs]
    assert a == a2 and a != b and a != _twin_of(twin, a) and a != tuple(sample(0))
    # A missing, unknown, repeated or derived argument is a TypeError.
    bad_calls = [lambda: cls(), lambda: cls(*sample(0), bogus=1),
                 lambda: cls(*sample(0), *sample(0)),
                 lambda: cls(*sample(0), **{names[0]: sample(0)[0]})]
    bad_calls += [lambda: cls(*sample(0), **{name: None}) for name in derived]
    for call in bad_calls:
        with pytest.raises(TypeError):
            call()
    # Frozen: no assignment or deletion, of a field or of anything else.
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == a2 and repr(a) == repr(_twin_of(twin, a2))


@pytest.mark.parametrize("cls,fields,derived,sample", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_caches_stay_out_of_equality_and_repr(cls, fields, derived, sample):
    record, fresh = cls(*sample(0)), cls(*sample(0))
    text, digest = repr(record), _hash(record)
    _warm(record)
    assert repr(record) == repr(fresh) == text
    assert _hash(record) == _hash(fresh) == digest
    assert record == fresh and fresh == record


def _counted(monkeypatch, cls, name):
    """Count the computations of the cached attribute cls.name."""
    descriptor, calls = cls.__dict__[name], []
    compute = descriptor.compute
    monkeypatch.setattr(descriptor, "compute", lambda obj: calls.append(obj) or compute(obj))
    return calls


def test_the_package_caches_four_attributes_with_cached():
    found = {(cls.__name__, name) for module in ("groups", "orderings", "dynamics")
             for cls in vars(getattr(ordo, module)).values() if isinstance(cls, type)
             for name, value in vars(cls).items() if isinstance(value, cached)}
    assert found == {("BraidWord", "key"), ("RealizationTable", "_forest"),
                     ("RealizationTable", "_ranked"), ("SampledCircleAction", "_theta_of")}
    # A flag's level rows are no cache: its constructor stores them with its levels.
    assert "_expansion" not in vars(FlagOrdering) and "_expansion" in vars(LEX2)
    for path in sorted((Path(ordo.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert "cached_property" not in {alias.name for alias in node.names}, path.name


def test_a_cached_attribute_is_computed_once_and_a_preset_value_wins(monkeypatch):
    keys = _counted(monkeypatch, BraidWord, "key")
    word = parse_element("s1 s2^-1", B3)
    assert word.key == word.key and len(keys) == 1
    preset = parse_element("s2", B3).with_key((9,))
    assert preset.key == (9,) and len(keys) == 1
    # A flag's rows are computed by its constructor, once per level read, and
    # never after; level 0 raises the rank, so some generator is seen there.
    level_rows, rows = ordo_orderings._level_rows, []
    monkeypatch.setattr(ordo_orderings, "_level_rows",
                        lambda level: rows.append(level) or level_rows(level))
    flag = FlagOrdering.lex(3)
    assert len(rows) == 3 and flag._expansion is flag._expansion
    assert flag._expansion == tuple(map(level_rows, flag.levels)) and len(rows) == 3
    assert min(flag.first_dots(g.coords)[0] for g in flag.group.generators()) == 0
    forests, ranks = (_counted(monkeypatch, RealizationTable, name)
                      for name in ("_forest", "_ranked"))
    table = realize(DEHORNOY3, ball_enumeration(DEHORNOY3, 2))  # realize presets both
    assert table._forest is table._forest and table._ranked is table._ranked
    assert not forests and not ranks
    built = RealizationTable(DEHORNOY3, table.elements, table.values)
    assert built._forest == table._forest and built._forest is built._forest
    assert built._ranked is built._ranked and len(forests) == len(ranks) == 1
    thetas = _counted(monkeypatch, SampledCircleAction, "_theta_of")
    action = circle_action_from_ball(DEHORNOY3, full_twist(3), 1)
    assert action._theta_of is action._theta_of and len(thetas) == 1
