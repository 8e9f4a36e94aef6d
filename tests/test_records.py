"""The engine records: immutable named tuples whose checks run on every way in."""

import ast
import importlib
import json
import pkgutil
import typing
from pathlib import Path

import pytest

import ssmin
from ssmin import cli
from ssmin.ambient import Vec3
from ssmin.catalog import (FamilyId, SolutionFamily, build, convergence_orders, make_family,
                           ode_reference_tasks, verify_auto)
from ssmin.cli import RunConfig, UsageError
from ssmin.errors import ParameterConstraintViolation
from ssmin.jets import Interval
from ssmin.ode import OdeCase, OdeId, integrate
from ssmin.pde import CaseId, equivalence_sweep
from ssmin.surface import frame_from_jets

from oracles import mean_curvature_from_jets


def _records():
    """One instance of every record, each built as the engine builds it."""
    built = build(make_family(FamilyId.F2_23))
    surface = built.surface
    fj, gj = surface.f.at(0.1), surface.g.at(0.2)
    curvature = mean_curvature_from_jets(surface.ttype, surface.space,
                                         surface.space.connection, fj, gj)
    case = OdeCase(OdeId.O2_21, 0.0)
    return [
        Vec3(1.0, 2.0, 3.0), surface.space, Interval(0.0, 1.0), surface.f,
        surface, curvature.first, frame_from_jets(surface.ttype, surface.space, fj, gj),
        curvature.sigma, curvature, case, integrate(case, 0.0, (0.0, 0.1), 0.05),
        equivalence_sweep(CaseId.E_M_I, 5, 1), make_family(FamilyId.F2_39, branch="minus"),
        built.domain, built, verify_auto(make_family(FamilyId.F2_23), 5, 1),
        ode_reference_tasks(0.01)[0](), convergence_orders()[0], RunConfig("verify", all=True),
    ]


def test_every_record_is_an_immutable_named_tuple():
    records = _records()
    assert len({type(record) for record in records}) == 19
    for record in records:
        assert record == tuple(record) and len(record) == len(record._fields)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 0


# repr texts as the dataclass records printed them
@pytest.mark.parametrize("make,text", [
    (lambda: Interval(0.0, 1.5), "Interval(lo=0.0, hi=1.5)"),
    (lambda: make_family(FamilyId.F2_39, branch="minus", a_hat=3),
     "SolutionFamily(family_id=<FamilyId.F2_39: 'F2_39'>, params=(('a_hat', 3.0), "
     "('b_hat', 0.0), ('c0_hat', 1.0)), branch=<Branch.MINUS: 'minus'>)"),
    (lambda: verify_auto(make_family(FamilyId.F3_10), 5, 1),
     "FamilyReport(theorem='3.1', family_id='F3_10', branch='plus', params={'a': 0.0, 'b_bar': 0.0, "
     "'c': 1.5}, n_samples=5, mode='residual-only', max_abs_numerator=None, "
     "max_abs_residual=3.552713678800501e-15, tolerance=1e-08, verdict=True, "
     "empty_reason=\"no spacelike points: 1 - f'^2 - g'^2 <= 1 - c^2 = -1.25 < 0\")"),
    (lambda: equivalence_sweep(CaseId.L_M_I, 5, 1),
     "EquivalenceRecord(case=<CaseId.L_M_I: 'L_M_I'>, n_samples=5, attempts=5, "
     "acceptance_rate=1.0, max_rel_deviation=1.7562452761952818e-16, tolerance=1e-10, "
     "verdict=True)"),
], ids=["Interval", "SolutionFamily", "FamilyReport", "EquivalenceRecord"])
def test_repr_is_pinned(make, text):
    assert repr(make()) == text


def test_fields_are_the_serialized_key_order(tmp_path):
    # every record a command writes out, and the config it echoes
    for record in (equivalence_sweep(CaseId.E_M_I, 5, 1),
                   verify_auto(make_family(FamilyId.F2_23), 5, 1),
                   ode_reference_tasks(0.01)[0](), convergence_orders()[0]):
        text = json.dumps(cli._record(record))
        assert list(json.loads(text)) == list(record._fields)
    out = tmp_path / "out.json"
    assert cli.main(["ode-compare", "--step", "0.01", "--output", str(out)]) == 0
    echoed = [name for name in RunConfig._fields if name != "output"]
    assert list(json.loads(out.read_text())["config"]) == echoed


def test_vector_operators_are_arithmetic_not_tuple_ones():
    v, w = Vec3(1.0, 2.0, 3.0), Vec3(0.5, 0.5, 0.5)
    assert (v + w, v - w, -v) == (Vec3(1.5, 2.5, 3.5), Vec3(0.5, 1.5, 2.5), Vec3(-1, -2, -3))
    assert v * 2 == 2 * v == 2.0 * v == Vec3(2.0, 4.0, 6.0)
    assert all(type(x) is Vec3 for x in (v + w, v - w, -v, v * 2, 2 * v))


@pytest.mark.parametrize("make,change,error", [
    (lambda: Interval(0.0, 1.0), {"hi": 0.0}, ValueError),
    (lambda: make_family(FamilyId.F2_23), {"params": (("nope", 1.0),)},
     ParameterConstraintViolation),
    (lambda: RunConfig("verify", all=True), {"samples": 0}, UsageError),
    (lambda: RunConfig("verify", all=True), {"command": "mesh"}, UsageError),
], ids=["Interval", "SolutionFamily", "RunConfig-samples", "RunConfig-format"])
def test_checked_records_check_construction_and_replace(make, change, error):
    record = make()
    with pytest.raises(error):
        record._replace(**change)
    with pytest.raises(error):
        type(record)(**{**record._asdict(), **change})


def test_checked_records_normalise_on_replace():
    with pytest.raises(ValueError, match=r"empty interval \[1.0, 1.0\]"):
        Interval(1.0, 1.0)
    with pytest.raises(ParameterConstraintViolation, match="F2_23 has no parameter 'nope'"):
        SolutionFamily(FamilyId.F2_23, (("nope", 1.0),))
    fam = make_family(FamilyId.F2_23)._replace(params=(("c3", 2),))
    assert fam.params == (("a", 0.0), ("c3", 2.0), ("c5", 0.0))
    cfg = RunConfig("verify", all=True)
    assert cfg.format == "json" and cfg._replace(format=None).format == "json"
    # each config holds a dict of its own, the default one included
    given = {"c3": 1.0}
    assert RunConfig("verify", family="F2_23", params=given).params is not given
    assert cfg.params == {} and cfg.params is not RunConfig("verify", all=True).params


def test_annotations_are_evaluated_at_definition():
    # PEP 563 string annotations cost one ForwardRef per record field at import
    # time, and nothing reads them: a name used before its definition is quoted
    package = Path(ssmin.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                assert "annotations" not in {alias.name for alias in node.names}, path.name
    records, unevaluated = 0, set()
    for info in pkgutil.iter_modules(ssmin.__path__):
        module = importlib.import_module(f"ssmin.{info.name}")
        for name, cls in vars(module).items():
            if not (isinstance(cls, type) and issubclass(cls, tuple)
                    and cls.__module__ == module.__name__ and "__annotations__" in vars(cls)):
                continue
            records += 1
            unevaluated |= {(name, field) for field, hint in cls.__annotations__.items()
                            if isinstance(hint, (str, typing.ForwardRef))}
    assert records == 20
    assert unevaluated == {("_FamilyFields", "family_id")}
