"""CLI behavior: exit codes, formats, determinism, and config handling."""

import dataclasses
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ssmin import cli
from ssmin.catalog import ConvergenceRecord, FamilyReport, OdeComparisonRecord, build
from ssmin.cli import RunConfig, main
from ssmin.pde import EquivalenceRecord


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_verify_single_family(tmp_path):
    code, text = run(tmp_path, "verify", "--family", "F2_23", "--c3", "0",
                     "--a", "0", "--samples", "200", "--seed", "7")
    assert code == 0
    payload = json.loads(text)
    record = payload["records"][0]
    assert record["family_id"] == "F2_23"
    assert record["max_abs_numerator"] <= 1e-9
    assert record["verdict"] == "pass"


def test_verify_constraint_violation_exit_code(tmp_path, capsys):
    code = main(["verify", "--family", "F2_39", "--a-hat", "-1"])
    assert code == 1
    assert "a_hat" in capsys.readouterr().err


def test_verify_all(tmp_path):
    code, text = run(tmp_path, "verify", "--all", "--samples", "60", "--seed", "3")
    assert code == 0
    payload = json.loads(text)
    assert payload["summary"]["all_pass"] is True
    assert payload["summary"]["n_records"] == 38  # two settings per family


def test_verify_failure_exit_code(tmp_path):
    # spacelike plane from the printed constant branch is not minimal
    code, text = run(tmp_path, "verify", "--family", "F3_31", "--c0-prime", "1",
                     "--c1-prime", repr(math.sqrt(3.0)), "--samples", "50")
    assert code == 2
    assert json.loads(text)["records"][0]["verdict"] == "fail"


def test_residual_command(tmp_path):
    code, text = run(tmp_path, "residual", "--case", "E_M_I",
                     "--fjet", "0,0,0", "--gjet", "0,0,0")
    assert code == 0
    assert json.loads(text)["residual"] == -2.0


@pytest.mark.parametrize("case,fjet,gjet", [
    ("E_M_I", "0,1e200,0", "0,1e200,1"),  # 0 * inf: NaN
    ("E_NM_ALL", "0,1e200,1e200", "0,1e200,1e200"),  # inf
])
def test_residual_overflow_is_a_domain_error(capsys, case, fjet, gjet):
    # finite jets whose residual overflows print no NaN or Infinity
    assert main(["residual", "--case", case, "--fjet", fjet, "--gjet", gjet]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ssmin: DomainError: ")


def _fields(record_type):
    return [f.name for f in dataclasses.fields(record_type)]


def _header(columns):
    return ["| " + " | ".join(header for header, _, _ in columns) + " |",
            "|" + "---|" * len(columns)]


def _has_lines(text, lines):
    all_lines = text.splitlines()
    return any(all_lines[i:i + len(lines)] == lines for i in range(len(all_lines)))


@pytest.mark.parametrize("argv,record_type,columns", [
    (["verify", "--all", "--samples", "10"], FamilyReport, cli._FAMILY_COLUMNS),
    (["equivalence", "--all", "--samples", "20"], EquivalenceRecord,
     cli._EQUIVALENCE_COLUMNS),
    (["ode-compare", "--step", "0.01"], OdeComparisonRecord, cli._ODE_COLUMNS),
], ids=["verify", "equivalence", "ode-compare"])
def test_records_follow_their_engine_schema(tmp_path, argv, record_type, columns):
    # JSON keys are the engine record's fields in order; tables come from one spec
    code, text = run(tmp_path, *argv)
    assert code == 0
    payload = json.loads(text)
    assert all(list(record) == _fields(record_type) for record in payload["records"])
    code, markdown = run(tmp_path, *argv, "--format", "markdown", name="out.md")
    assert code == 0
    assert _has_lines(markdown, _header(columns))
    if record_type is OdeComparisonRecord:
        assert all(list(o) == _fields(ConvergenceRecord) for o in payload["convergence"])
        assert _has_lines(markdown, _header(cli._CONVERGENCE_COLUMNS))


def test_report_compact_records_follow_their_columns(tmp_path):
    code, text = run(tmp_path, "report", "--all", "--samples", "10")
    assert code == 0
    payload = json.loads(text)
    assert all(list(r) == ["theorem", *_fields(FamilyReport)] for r in payload["records"])
    for part, columns in (("equivalence", cli._EQUIVALENCE_COLUMNS), ("ode", cli._ODE_COLUMNS)):
        assert all(list(r) == [key for _, key, _ in columns] for r in payload[part])


def test_equivalence_command(tmp_path):
    code, text = run(tmp_path, "equivalence", "--case", "E_M_I",
                     "--samples", "1000", "--seed", "1")
    assert code == 0
    record = json.loads(text)["records"][0]
    assert record["max_rel_deviation"] <= 1e-10
    assert record["acceptance_rate"] == 1.0


def test_equivalence_runs_the_samples_given(tmp_path):
    # an explicit --samples 200 is run as given; a bare call defaults to 1000
    code, text = run(tmp_path, "equivalence", "--case", "E_M_I", "--samples", "200")
    assert code == 0
    assert json.loads(text)["records"][0]["n_samples"] == 200
    code, text = run(tmp_path, "equivalence", "--case", "E_M_I")
    assert code == 0
    payload = json.loads(text)
    assert payload["config"]["samples"] == payload["records"][0]["n_samples"] == 1000


def test_equivalence_spacelike_rejection_rate(tmp_path):
    code, text = run(tmp_path, "equivalence", "--case", "L_M_I", "--samples", "500")
    assert code == 0
    record = json.loads(text)["records"][0]
    assert 0.0 < record["acceptance_rate"] < 1.0
    assert record["attempts"] > record["n_samples"]


def test_equivalence_unknown_case(capsys):
    assert main(["equivalence", "--case", "X_Y_Z"]) == 1
    assert "unknown case" in capsys.readouterr().err


def test_ode_compare(tmp_path):
    code, text = run(tmp_path, "ode-compare", "--step", "0.001")
    assert code == 0
    payload = json.loads(text)
    assert all(r["verdict"] == "pass" for r in payload["records"])
    assert all(o["observed_order"] >= 3.8 for o in payload["convergence"])


def test_ode_compare_fails_below_the_convergence_order(tmp_path, monkeypatch):
    # negative control: the observed orders (about 4.0 and 4.1) miss a bound of 5
    from ssmin import catalog

    monkeypatch.setattr(catalog, "MIN_CONVERGENCE_ORDER", 5.0)
    code, text = run(tmp_path, "ode-compare", "--step", "0.01")
    assert code == 2
    assert json.loads(text)["summary"]["all_pass"] is True


def _parse_obj(text):
    vertices, faces = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            parts = line.split()
            assert len(parts) == 4
            vertices.append(tuple(float(p) for p in parts[1:]))
        elif line.startswith("f "):
            faces.append(tuple(int(p) for p in line.split()[1:]))
    return vertices, faces


def test_mesh_obj_counts_and_validity(tmp_path):
    code, text = run(tmp_path, "mesh", "--family", "F2_51", "--c", "1",
                     "--nu", "64", "--nv", "64", "--format", "obj", name="m.obj")
    assert code == 0
    vertices, faces = _parse_obj(text)
    assert len(vertices) == 4096
    assert len(faces) == 3969
    assert all(len(f) == 4 for f in faces)
    assert all(1 <= idx <= 4096 for f in faces for idx in f)
    assert all(all(math.isfinite(c) for c in v) for v in vertices)


def test_verify_empty_domain_family_reports_residual_only(tmp_path):
    code, text = run(tmp_path, "verify", "--family", "F3_10", "--samples", "80")
    assert code == 0
    record = json.loads(text)["records"][0]
    assert record["mode"] == "residual-only"
    assert record["max_abs_numerator"] is None
    assert record["verdict"] == "pass"
    assert "spacelike" in record["empty_reason"]


def test_mesh_type_ii_quadrature_family(tmp_path):
    code, text = run(tmp_path, "mesh", "--family", "F2_39", "--nu", "6",
                     "--nv", "7", "--format", "obj", name="tube.obj")
    assert code == 0
    vertices, faces = _parse_obj(text)
    assert len(vertices) == 42
    assert len(faces) == 30
    # Type II immersion: y carries f+g; x and z trace the grid
    xs = sorted({v[0] for v in vertices})
    assert len(xs) == 6


def test_mesh_csv_format(tmp_path):
    code, text = run(tmp_path, "mesh", "--family", "F2_51", "--nu", "5",
                     "--nv", "4", "--format", "csv", name="m.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "u,v,x,y,z"
    assert len(lines) == 1 + 5 * 4


def test_mesh_range_crossing_singularity(capsys):
    code = main(["mesh", "--family", "F2_23", "--u-range", "0:1", "--format", "obj"])
    assert code == 1
    err = capsys.readouterr().err
    assert "suggested" in err


def test_mesh_empty_domain_family(capsys):
    code = main(["mesh", "--family", "F3_10", "--format", "obj"])
    assert code == 1
    assert "spacelike" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "F3_10", "--c", "3"],
    ["verify", "--family", "F3_13", "--c-hat", "-2.2"],
    ["verify", "--family", "F3_31", "--c0-prime", "3"],
    ["verify", "--family", "F3_36", "--c1", "3"],
    ["verify", "--family", "F3_41", "--c1", "3"],
])
def test_verify_steep_affine_profile_residual_only(tmp_path, argv):
    # a line steeper than the moderate-slope cap still gets a residual box
    code, text = run(tmp_path, *argv, "--samples", "50")
    assert code == 0
    record = json.loads(text)["records"][0]
    assert record["mode"] == "residual-only"
    assert record["verdict"] == "pass"


def test_report_determinism(tmp_path):
    args = ["report", "--all", "--format", "json", "--seed", "42",
            "--samples", "60"]
    code1, text1 = run(tmp_path, *args, name="r1.json")
    code2, text2 = run(tmp_path, *args, name="r2.json")
    assert code1 == code2 == 0
    assert text1 == text2


def test_report_markdown_structure(tmp_path):
    code, text = run(tmp_path, "report", "--all", "--format", "markdown",
                     "--samples", "40", name="r.md")
    assert code == 0
    for theorem in ("2.2", "2.3", "2.4", "3.1", "3.2", "3.3", "3.4"):
        assert f"## Theorem {theorem}" in text
    assert "overall: PASS" in text


def test_report_perturbed_fails(tmp_path):
    code, text = run(tmp_path, "report", "--all", "--perturb", "0.01",
                     "--samples", "40", name="rp.json")
    assert code == 2
    payload = json.loads(text)
    assert payload["summary"]["all_pass"] is False
    assert any(r["verdict"] == "fail" for r in payload["records"])


def test_run_config_round_trip():
    cfg = RunConfig(command="verify", family="F2_23", params={"c3": 0.5},
                    branch="plus", samples=123, seed=9, u_range=[0.0, 0.5])
    data = json.loads(json.dumps(cfg.to_dict()))
    assert RunConfig.from_dict(data) == cfg
    assert (cfg.format, RunConfig(command="mesh").format) == ("json", "obj")


def test_config_file_overrides_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "F2_24", "samples": 17}))
    out = tmp_path / "o.json"
    code = main(["verify", "--family", "F2_23", "--samples", "99",
                 "--config", str(cfg_path), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["family"] == "F2_24"
    assert payload["config"]["samples"] == 17
    assert payload["records"][0]["family_id"] == "F2_24"


def test_config_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"no_such_field": 1}))
    assert main(["verify", "--family", "F2_23", "--config", str(cfg_path)]) == 1


BAD_INVOCATIONS = [
    ["verify"],
    ["verify", "--family", "NOPE"],
    ["verify", "--all", "--c3", "1"],
    ["verify", "--family", "F2_23", "--branch", "plus"],
    ["equivalence"],
    ["equivalence", "--case", "bogus"],
    ["residual", "--case", "E_M_I"],
    ["residual", "--case", "E_M_I", "--fjet", "1,2", "--gjet", "0,0,0"],
    ["mesh", "--family", "F2_23", "--u-range", "1:0"],
    ["mesh", "--family", "F2_23", "--nu", "1"],
    ["nonsense-command"],
    ["verify", "--family", "F2_23", "--config", "/nonexistent/path.json"],
]


@settings(max_examples=len(BAD_INVOCATIONS), deadline=None)
@given(st.sampled_from(BAD_INVOCATIONS))
def test_usage_errors_exit_one(argv):
    assert main(argv) == 1


@pytest.mark.parametrize("argv,config,field", [
    (["verify", "--all", "--samples", "0"], None, "samples"),
    (["verify", "--family", "F2_23", "--samples", "-5"], None, "samples"),
    (["equivalence", "--all", "--samples", "0"], None, "samples"),
    (["verify", "--family", "F2_23", "--c3", "nan"], None, "params"),
    (["verify", "--family", "F2_23", "--tolerance", "inf"], None, "tolerance"),
    (["verify", "--family", "F2_23"], {"samples": "abc"}, "samples"),
    (["verify", "--family", "F2_23"], ["samples"], "JSON object"),
    (["verify", "--family", "F2_23"], {"command": "bogus"}, "command"),
    (["residual", "--case", "E_M_I", "--gjet", "0,0,0"], {"fjet": [1.0, 2.0]}, "fjet"),
    (["residual", "--case", "E_M_I", "--fjet", "0,0,0"], {"gjet": [0.0] * 4}, "gjet"),
    (["mesh", "--family", "F2_23"], {"u_range": [1.0, 0.0]}, "u_range"),
    (["mesh", "--family", "F2_23"], {"v_range": [0.0]}, "v_range"),
    (["ode-compare", "--step", "1e9"], None, "step"),
    (["ode-compare", "--step", "0"], None, "step"),
    (["report", "--all", "--step", "0.4"], None, "step"),
    (["mesh", "--family", "F2_23"], {"format": "xml"}, "format"),
    (["equivalence", "--case", "E_M_I"], {"format": "xml"}, "format"),
    (["verify", "--family", "F2_23"], {"format": "csv"}, "format"),
    (["residual", "--case", "E_M_I", "--fjet", "0,0,0", "--gjet", "0,0,0",
      "--format", "markdown"], None, "format"),
    (["mesh", "--family", "F2_23", "--nu", "1"], None, "nu"),
    (["mesh", "--family", "F2_23"], {"nv": 0}, "nv"),
])
def test_bad_input_rejected_once(tmp_path, capsys, argv, config, field):
    # no vacuous pass, no traceback: RunConfig rejects the input with exit 1
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ssmin: error: ") and field in err


@pytest.mark.parametrize("argv,exit_code", [
    # the admissible box itself reaches where a_hat*e^(4v) overflows
    (["verify", "--family", "F2_39", "--a-hat", "1e-300"], 1),
    # overflowing probes of the residual-only box search count as off-domain
    (["verify", "--family", "F3_12", "--c", "0.99995"], 0),
    (["verify", "--family", "F3_14", "--c-hat", "0.99995"], 0),
])
def test_integrand_overflow_is_a_domain_error(tmp_path, capsys, argv, exit_code):
    code, text = run(tmp_path, *argv, "--samples", "50")
    assert code == exit_code
    if exit_code:
        assert capsys.readouterr().err.startswith("ssmin: DomainError: ")
    else:
        assert json.loads(text)["summary"]["all_pass"] is True


def test_mesh_evaluates_each_profile_once_per_grid_line(tmp_path, monkeypatch):
    calls = []

    def counted(profile, axis):
        def fn(x):
            calls.append(axis)
            return profile.fn(x)
        return replace(profile, fn=fn)

    def counting_build(fam):
        built = build(fam)
        surface = replace(built.surface, f=counted(built.surface.f, "u"),
                          g=counted(built.surface.g, "v"))
        return replace(built, surface=surface)

    monkeypatch.setattr(cli, "build", counting_build)
    code, text = run(tmp_path, "mesh", "--family", "F2_39", "--nu", "9", "--nv", "7",
                     "--format", "csv", name="m.csv")
    assert code == 0 and len(text.splitlines()) == 1 + 9 * 7
    assert (calls.count("u"), calls.count("v")) == (9, 7)
