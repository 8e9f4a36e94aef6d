"""CLI behavior: exit codes, formats, determinism, and config handling."""

import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import _parser
import ssmin
from ssmin import catalog, cli, jets
from ssmin.catalog import (ConvergenceRecord, FamilyId, FamilyReport, OdeComparisonRecord,
                           build, default_settings)
from ssmin.cli import REPORT_SWEEP_SAMPLES, RunConfig, _record, main
from ssmin.errors import EmptyDomain
from ssmin.pde import CaseId, EquivalenceRecord, equivalence_sweep
from ssmin.sampling import child_seed
from ssmin.surface import TranslationType


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


@pytest.mark.parametrize("argv,needle", [
    (["verify", "--family", "F2_39", "--a-hat", "-1"], "a_hat"),
    # parameters whose closed forms overflow or collapse while the family is built
    (["verify", "--family", "F2_23", "--c3", "1e200"], "F2_23"),
    (["mesh", "--family", "F2_23", "--c3", "1e200"], "F2_23"),
    (["verify", "--family", "F2_35", "--c0-tilde", "1e200"], "F2_35"),
    (["verify", "--family", "F2_51", "--c", "1e-320"], "F2_51"),
])
def test_verify_constraint_violation_exit_code(tmp_path, capsys, argv, needle):
    code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ssmin: ParameterConstraintViolation: ") and needle in err


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
    ("E_M_II_III", "0,0,0", "0,-1e300,0"),  # g1 ** 3 raises OverflowError
])
def test_residual_overflow_is_a_domain_error(capsys, case, fjet, gjet):
    # finite jets whose residual overflows print no NaN or Infinity
    assert main(["residual", "--case", case, "--fjet", fjet, "--gjet", gjet]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ssmin: DomainError: ") and "Traceback" not in captured.err


def test_large_slopes_reach_a_verdict(capsys):
    # at the far end of this box f' = 3000 and g' - f' is about 1.7e-4, so E*G and
    # F*F are about 8.1e13, and their difference lost the true det of about 0.0033
    # to rounding: EG - F^2 read -0.015625 and the command exited 1.  The sigma
    # form's numerator then cancelled too (16384); the Levi-Civita-plus-one-term
    # numerator reads about 1.2e-3.  That still fails the absolute 1e-6, so the
    # command exits 2 until the verdict bound scales with the terms (ROADMAP item 4).
    argv = ["verify", "--family", "F3_30", "--c0-hat", "3000", "--a-hat", "-0.3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    [record] = json.loads(captured.out)["records"]
    assert record["n_samples"] == 200 and record["verdict"] == "fail"
    assert record["max_abs_numerator"] < 1e-2


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
    assert all(list(record) == list(record_type._fields) for record in payload["records"])
    code, markdown = run(tmp_path, *argv, "--format", "markdown", name="out.md")
    assert code == 0
    assert _has_lines(markdown, _header(columns))
    if record_type is OdeComparisonRecord:
        assert all(list(o) == list(ConvergenceRecord._fields) for o in payload["convergence"])
        assert _has_lines(markdown, _header(cli._CONVERGENCE_COLUMNS))


def test_each_record_kind_has_one_schema(tmp_path):
    # report's sections hold the records that the one-table commands write, and
    # every record of every JSON command carries its verdict and the bound it met
    def payload(*argv):
        code, text = run(tmp_path, *argv)
        assert code == 0
        return json.loads(text)
    report = payload("report", "--all", "--samples", "10", "--step", "0.01")
    ode = payload("ode-compare", "--step", "0.01")
    assert report["ode"] == ode["records"]
    assert all(list(r) == list(FamilyReport._fields) for r in report["records"])
    assert all(list(r) == list(EquivalenceRecord._fields) for r in report["equivalence"])
    record_lists = [report["records"], report["equivalence"], report["ode"], ode["records"],
                    ode["convergence"],
                    payload("verify", "--family", "F2_23", "--samples", "5")["records"],
                    payload("equivalence", "--case", "E_M_I", "--samples", "20")["records"]]
    for records in record_lists:
        assert records and all(r["verdict"] in ("pass", "fail")
                               and r.keys() & {"tolerance", "min_order"} for r in records)


@pytest.mark.parametrize("settings", [
    ["--samples", "10", "--seed", "7"], ["--samples", "5", "--perturb", "0.01"],
], ids=["seed-7", "perturbed"])
def test_report_family_records_are_verify_all_records(tmp_path, settings):
    # the same checks on the same child streams, whatever else report runs
    code, text = run(tmp_path, "report", "--all", "--step", "0.01", *settings)
    report = json.loads(text)
    assert code == (0 if report["summary"]["all_pass"] else 2)
    code, text = run(tmp_path, "verify", "--all", *settings)
    verify = json.loads(text)
    assert code == (0 if verify["summary"]["all_pass"] else 2)
    assert report["records"] == verify["records"]
    assert report["summary"]["families"] == verify["summary"]


@pytest.mark.parametrize("seed,samples", [(7, 10), (3, 600)])
def test_report_equivalence_records_are_its_own_sweeps(tmp_path, seed, samples):
    # each case's sweep on child stream 1000 + its index, at REPORT_SWEEP_SAMPLES
    # samples at least: streams and counts no `equivalence` command uses
    code, text = run(tmp_path, "report", "--all", "--step", "0.01", "--seed", str(seed),
                     "--samples", str(samples))
    report = json.loads(text)
    assert code == (0 if report["summary"]["all_pass"] else 2)
    n_samples = max(samples, REPORT_SWEEP_SAMPLES)
    expected = [_record(equivalence_sweep(case, n_samples, child_seed(seed, 1000 + i)))
                for i, case in enumerate(CaseId)]
    assert report["equivalence"] == json.loads(json.dumps(expected))


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
    monkeypatch.setattr(catalog, "MIN_CONVERGENCE_ORDER", 5.0)
    code, text = run(tmp_path, "ode-compare", "--step", "0.01")
    assert code == 2
    payload = json.loads(text)
    assert [(o["min_order"], o["verdict"]) for o in payload["convergence"]] == [(5.0, "fail")] * 2
    summary = payload["summary"]
    assert summary["all_pass"] is False and summary["records"]["all_pass"] is True
    assert summary["convergence"]["n_fail"] == 2


@pytest.mark.parametrize("argv,min_order,passes", [
    (["verify", "--family", "F2_23", "--samples", "20"], None, True),
    (["verify", "--family", "F2_23", "--samples", "20", "--perturb", "0.01"], None, False),
    (["equivalence", "--case", "E_M_I", "--samples", "20"], None, True),
    (["equivalence", "--case", "E_M_I", "--samples", "20", "--tolerance", "0"], None, False),
    (["ode-compare", "--step", "0.01"], None, True),
    (["ode-compare", "--step", "0.01"], 5.0, False),
    (["report", "--all", "--samples", "10", "--step", "0.01"], None, True),
    (["report", "--all", "--samples", "10", "--step", "0.01", "--perturb", "0.01"], None, False),
], ids=["verify", "verify-perturb", "equivalence", "equivalence-tolerance-0", "ode-compare",
        "ode-compare-order-5", "report", "report-perturb"])
def test_the_exit_code_is_the_summary_verdict(tmp_path, monkeypatch, argv, min_order, passes):
    # exit 0 exactly when summary.all_pass, and that is whether every record passes
    if min_order is not None:
        monkeypatch.setattr(catalog, "MIN_CONVERGENCE_ORDER", min_order)
    code, text = run(tmp_path, *argv)
    payload = json.loads(text)
    records = [r for part in payload.values() if isinstance(part, list) for r in part]
    assert payload["summary"]["all_pass"] is passes
    assert code == (0 if passes else 2)
    assert all(r["verdict"] == "pass" for r in records) is passes


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


@pytest.mark.parametrize("argv,message", [
    # f(u) and g(v) are finite, but at u = v = -3 their sum is -inf
    (["mesh", "--family", "F2_50", "--c0", "5e307", "--c1", "5e307", "--format", "csv"],
     "ssmin: DomainError: height f(u) + g(v) = -inf at u=-3.0, v=-3.0"),
    # the admissible box of F2_51 at a tiny c is finite, but too wide to space 64 lines
    (["mesh", "--family", "F2_51", "--c", "1e-308"],
     "ssmin: DomainError: u range [-1.520837931072954e+308, 1.520837931072954e+308] "
     "is too wide for 64 grid lines"),
    (["mesh", "--family", "F2_50", "--v-range", "-5e307:5e307", "--nv", "3"],
     "ssmin: DomainError: v range [-5e+307, 5e+307] is too wide for 3 grid lines"),
])
def test_mesh_overflow_is_a_domain_error(tmp_path, capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and "nan" not in captured.err
    assert captured.out == ""
    # the mesh is streamed, but its output file is opened only once every height is finite
    out = tmp_path / "mesh.out"
    assert main([*argv, "--output", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("c0", ["1e300", "-1e300"])
def test_a_box_too_narrow_to_fold_keeps_its_draws(capsys, c0):
    # the u box is 1.7e-300 wide: with 2**-53 folded into its width, the first
    # sample would lie at u=6.825229296958285e-301
    assert main(["verify", "--family", "F3_38", "--c0", c0, "--samples", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ssmin: DomainError: F3_38.f: non-finite jet "
                            "at u=6.825229341670129e-301\n")


def test_mesh_large_heights_that_sum_finitely(tmp_path):
    # max|f| + max|g| overflows, yet f >= 5e307 and g <= -5e307 here, so no sum does
    code, text = run(tmp_path, "mesh", "--family", "F2_50", "--c0", "5e307", "--c1", "-5e307",
                     "--u-range", "1:3", "--v-range", "1:3", "--nu", "3", "--nv", "3",
                     "--format", "csv", name="m.csv")
    assert code == 0
    rows = [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
    assert len(rows) == 9 and all(math.isfinite(x) for row in rows for x in row)
    assert [row[4] for row in rows[:3]] == [5e307 + g for g in (-5e307, -1e308, -1.5e308)]


def test_mesh_empty_domain_family(capsys):
    code = main(["mesh", "--family", "F3_10", "--format", "obj"])
    assert code == 1
    assert "spacelike" in capsys.readouterr().err


def test_mesh_grid_spans_exactly_its_box():
    # lo + (hi - lo) * i / (n - 1) at i = n - 1 rounds past hi for about one n in
    # ten; F3_43's defaults at n = 7 on v did
    boxes = []
    for fid in FamilyId:
        for fam in default_settings(fid):
            try:
                boxes.extend(zip("uv", build(fam).domain.sampling_box()))
            except EmptyDomain:
                continue
    assert len(boxes) >= 2 * len(FamilyId)
    for axis, box in boxes:
        for n in range(2, 301):
            grid = cli._grid(axis, box, n)
            assert (len(grid), grid[0], grid[-1]) == (n, box.lo, box.hi), (axis, box, n)
            assert all(a <= b for a, b in zip(grid, grid[1:])), (axis, box, n)


@pytest.mark.parametrize("nu,nv", [(2, 2), (2, 7), (7, 2), (3, 5), (5, 3)])
def test_mesh_obj_faces_match_the_grid_connectivity(capsys, nu, nv):
    assert main(["mesh", "--family", "F2_51", "--format", "obj",
                 "--nu", str(nu), "--nv", str(nv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    faces = [line for line in lines if line.startswith("f")]
    assert len(lines) - len(faces) == nu * nv
    corners = [(a, a + 1, a + nv + 1, a + nv)
               for a in (i * nv + j + 1 for i in range(nu - 1) for j in range(nv - 1))]
    assert faces == ["f %d %d %d %d" % face for face in corners]


@pytest.mark.parametrize("fmt", ["csv", "obj"])
def test_mesh_is_written_one_grid_line_at_a_time(fmt):
    nu, nv = 5, 3
    cfg = RunConfig(command="mesh", family="F2_51", format=fmt, nu=nu, nv=nv)
    us, vs = [0.25 * i for i in range(nu)], [0.5 * j for j in range(nv)]
    chunks = cli._mesh_chunks(cfg, TranslationType.I, us, [1.0] * nu, vs, [2.0] * nv)
    if fmt == "csv":
        assert next(chunks) == "u,v,x,y,z\n"
    face_rows = [nv - 1] * (nu - 1) if fmt == "obj" else []
    assert [chunk.count("\n") for chunk in chunks] == [nv] * nu + face_rows


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "F3_10", "--c", "3"],
    ["verify", "--family", "F3_13", "--c-hat", "-2.2"],
    ["verify", "--family", "F3_31", "--c0-prime", "3"],
    ["verify", "--family", "F3_36", "--c1", "3"],
    ["verify", "--family", "F3_41", "--c1", "3"],
])
def test_verify_steep_affine_profile_residual_only(tmp_path, argv):
    # a line of any slope is sampled on the whole line, clipped at SAMPLING_CAP
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


# sha256 of stdout; any change to these outputs must be deliberate
_OUTPUT_SHA256 = [
    pytest.param(["report", "--all", "--seed", "42", "--format", "json"], 0,
                 "fb28b4f16d26c015ce130f97ea7c912fd0d471c07d7d5b1959b4ce64ce6a2fd6",
                 id="report"),
    pytest.param(["report", "--all", "--seed", "42", "--format", "markdown"], 0,
                 "51e6524afb3ec6836318b549dded5d71f3c6a6f67e97e59d3366870334b30d53",
                 id="report-markdown"),
    pytest.param(["report", "--all", "--perturb", "0.01"], 2,
                 "b8643c11e8615a7b28b26b8631bf3c4965b916e75269a5841b20069fab8e6c35",
                 id="report-perturb"),
    pytest.param(["equivalence", "--all", "--samples", "300", "--seed", "3"], 0,
                 "2bee013dcf0def49416e9e6e7de3222df3dc7b85a29d8a81e3490b78e691eb1d",
                 id="equivalence"),
    # hundreds of 256-draw sampler blocks per case
    pytest.param(["equivalence", "--all", "--samples", "6000", "--seed", "5"], 0,
                 "608763be10bade4993e5e51cff6a4b6460a6d0388a2c30054fd751d790d1cd91",
                 id="equivalence-6000"),
    pytest.param(["verify", "--all", "--seed", "3"], 0,
                 "ebc3901515b724721692167b34fd6b826fc49ab64acc5b6c47b82693d6875368",
                 id="verify"),
    pytest.param(["verify", "--all", "--seed", "3", "--format", "markdown"], 0,
                 "5a11433bee3c66d233cf7ce607601b6b743f4e9ef435e809d01fedfe58c720db",
                 id="verify-markdown"),
    pytest.param(["ode-compare"], 0,
                 "26e14c27ed57d69a956b4ab95df02928298898956eac18bbac32439c135c7530",
                 id="ode-compare"),
    # a quadrature-backed and a closed-form family, 64x64
    pytest.param(["mesh", "--family", "F2_39", "--format", "csv"], 0,
                 "3f8cfbd907fa9c9ddab568b34309d3045a9cdd811ccc8f93b89e55962b6a80d7",
                 id="mesh-F2_39"),
    pytest.param(["mesh", "--family", "F2_51"], 0,
                 "cf11bb2ea8f8c99a89c962afe3945853f3f2f007ab327fb8a78f2dd09286d8d4",
                 id="mesh-F2_51"),
    # the boxes reach where an exponential alone overflows (see
    # test_integrand_overflow_is_a_domain_error); the first takes the log-space radicand
    pytest.param(["verify", "--family", "F2_39", "--a-hat", "1e-300"], 0,
                 "e0693adf6a1cf1a09511176ef196ab6ce727f96afe0f9fe9abed64c4af8da677",
                 id="verify-F2_39-tiny-a-hat"),
    pytest.param(["verify", "--family", "F3_12", "--c", "0.99995"], 0,
                 "1391fcadc477a699d2c8c163105f8875527e5ee4812a85cbfe668b981555aec4",
                 id="verify-F3_12-steep"),
    pytest.param(["verify", "--family", "F3_14", "--c-hat", "0.99995"], 0,
                 "e546d8d63acb4838f0429156441cff93f5ad1ff5b85b12806db547ac67e5b57a",
                 id="verify-F3_14-steep"),
]


@pytest.mark.parametrize("argv,exit_code,digest", _OUTPUT_SHA256)
def test_output_is_byte_identical(capsys, argv, exit_code, digest):
    assert main(argv) == exit_code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert err == ""


# sha256 of json [exit code, stdout, stderr] of mesh for every family: csv at the
# default 64x64, then obj at 2x7 and at 8x8.  Four families have no spacelike
# points, so all three of their commands give the same EmptyDomain error.
_MESH_SHA256 = {
    "F2_23": ("93e2c45c8b3327df01272801a452922d07b3f9f6446bf625490bbd057d44ef42",
              "237c8c63ffef91d6dfe26b5ee99e9cbe39ae1a72f276d3c084a688a9f5bcc3b4",
              "5df01df76978851b13d5f8985a793a0bede8352f7407d878f7f733c270c80a24"),
    "F2_24": ("16ca9e45cc30592940b730321a5a35f8e135f44696cb0e410ec194cd4c4dc1c1",
              "003df128fecb39dc3271f34a3ab66fbfc226fd8165e1357a3efecc84c106a071",
              "380fc9db2b07d329e7dc4e19d782dd8abea588ceb6a29feb0a8e39ab35d65b3b"),
    "F2_35": ("60179b2b196fe3daa26d5b7d16db0c528e812c49a6bacd702565253a301c390d",
              "b020b414080a72a7537c37fe72bbbe3cdc183cb0cd3b708b6a935de056fb3510",
              "c38063d99f2d7cfe332a25b9f055bdbc6bf0033e07555ac2122b16ae7e845e34"),
    "F2_39": ("c941be87ee8f9f71632203a3594d33128251c8cd89b138c9e68f84c1e362acda",
              "8043aa3aa19a706a3255e60b077c6670874f2c0d05c1b769625267cadfd6588e",
              "9a91e0a5131cc7c1fcc660fa194fbb1e7c64780570505649dcbcad5a44608419"),
    "F2_40": ("b810a2c170f9b86078b56a9c9626b9b2778bf21893aec555f610e32436ef1b4f",
              "3afe538014cbd37fd3b036b90bcf93c73e321e2fe9857e248d47886fe8bc64aa",
              "037f211649905985682f498fccb98a699df32800e7be7933816a1c6be9c0c611"),
    "F2_50": ("81e9376b4e2f51441ed8345be6a7a53cb31f29a934c6fe1239a7123af2c0379c",
              "e3afceaa7d9591dda3e59eb101a2522e59ffbf0ccad891290f4f28503bdc5672",
              "1cdab6802e7f4bc43c7f990baf5dd434ef9d3dd3c568d821a55207ab3c20e59f"),
    "F2_51": ("5a323e3a5b910adc6ff5e9e85927415127c41bf07026535c9d627ac6585dd87b",
              "964a57b19d46b97d47ed0319f0a34ca04b16573dc02def1baa28e137293f1556",
              "8601319ea5f3cd8aa2b26a1712509ea0a0874d67ecf898cc29331bde4756e8e4"),
    "F3_10": ("33ded9dcc0a7ed04abdf73b65c4506231db4a425141f1fab62fefb8d897f43af",
              "33ded9dcc0a7ed04abdf73b65c4506231db4a425141f1fab62fefb8d897f43af",
              "33ded9dcc0a7ed04abdf73b65c4506231db4a425141f1fab62fefb8d897f43af"),
    "F3_12": ("c32da7d9bccc09f04c7f69548e32a6b2799579913ee295830ea38eedf73b778c",
              "7a33df45da9a2514300cc0c1b1ad9af4db5adcdc303fd0e4519b3600b6f5de16",
              "957886b60a314aa27bbf14c29843f8eae3602d404c3520ca8b6b0ae5d2cf037e"),
    "F3_13": ("c999c236b9c118f407ebc5815e4db962ef2459182b78c0c52b4a2e550653c145",
              "c999c236b9c118f407ebc5815e4db962ef2459182b78c0c52b4a2e550653c145",
              "c999c236b9c118f407ebc5815e4db962ef2459182b78c0c52b4a2e550653c145"),
    "F3_14": ("6f6b88d2fe0fdd42cfc9497c18ee69f8f1f79ea26ac27fd6d5f1dd717c411256",
              "cfdbf3c06424878bebe0ff0cb6b0c135bfd999bc4d4be02e40469234b3f9b1f5",
              "1f4c8a05f75e605443ca8d6ca04718040e1714883ff8d9499eb2bd58832b6269"),
    "F3_25": ("8ab63a716922fc6f95c6c406e0f14021e22b1dd32799ab8188c92ac37dc9a95a",
              "8ab63a716922fc6f95c6c406e0f14021e22b1dd32799ab8188c92ac37dc9a95a",
              "8ab63a716922fc6f95c6c406e0f14021e22b1dd32799ab8188c92ac37dc9a95a"),
    "F3_27": ("dc8e860103294e9fcc946d3527efa27bae9c30ee9c869703463f96c4f9f6b6f1",
              "9810601c04c0fee7378e81c25dca7b2f7a0256477528a2e963c39807d0639f17",
              "33186bdedbcafbbc747d83e582c3ce97c148fe208da52d9a99cd1b6c989f4d68"),
    "F3_30": ("b510021747341003a69333cbfef11da450535bbdc3fd7a8afa7fc2fbd2324876",
              "bcbab75cc9513f7864dc192aeb388b4cf7ee170d9296a127f40900d7afe3206f",
              "7ed03c67daafcd3b32148a3483f3dd10a472c9f403aeb1f65b4ec3bd00cd6847"),
    "F3_31": ("62de86fa6b21f8481b9284ee7035263c65d40182efe2bd0d4fc4644e58bda642",
              "62de86fa6b21f8481b9284ee7035263c65d40182efe2bd0d4fc4644e58bda642",
              "62de86fa6b21f8481b9284ee7035263c65d40182efe2bd0d4fc4644e58bda642"),
    "F3_36": ("4bbbd473271c1466d7a8ecd59fc66171241d1e1dba994ddc1fe254c85239b75a",
              "41ba27e982ffa7dbe28cedb795788d2d233e4e00bdbf00da03c018faf5e78658",
              "4fb28745e82edeb72d4fc2110f7801d4b82afd12f3604e18fca219acb17569b2"),
    "F3_38": ("1a7be6eb24bbe8f94543608cca6d8ae2d555ebbfb502e8613702c65c8b8eb0e9",
              "8f061dc49b36ca10623cc752ce578e09e456a386fc3005f201ac3271270ae71f",
              "afa024b229cf5ee6b40696517d0c5c6462abb4f45f8b14d52de14eae6a5fde4c"),
    "F3_41": ("5f4fec1c90fca343ffa3e8aae0691a08b129387f7c972e457e210f8c34770279",
              "565e088e9acfa3ce364d45d274a205b735c663ef6c354469af6ba5943520afca",
              "d68cb9adc80446cf57f7203e1b40bb3d85ff191c599df0eebabccde69a90e7ca"),
    "F3_43": ("c88d047811394a84e71cf6f28e8f1fce592e834969884f0a270175a05f8b7cc7",
              "75c384db6c944afd4095337346c1a7b84abfeaa16cc40a615def83c9db6d311c",
              "ae90cef9b72651df85a9040c97925780dabfa3db49ce02faf4e2eaaa61bf2742"),
}


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda fid: fid.value)
def test_mesh_of_every_family_is_byte_identical(capsys, family):
    digests = []
    for extra in (["--format", "csv"], ["--format", "obj", "--nu", "2", "--nv", "7"],
                  ["--format", "obj", "--nu", "8", "--nv", "8"]):
        code = main(["mesh", "--family", family.value, *extra])
        captured = capsys.readouterr()
        blob = json.dumps([code, captured.out, captured.err])
        digests.append(hashlib.sha256(blob.encode("utf-8")).hexdigest())
    assert tuple(digests) == _MESH_SHA256[family.value]


# sha256 of json [exit code, stdout, stderr] of the help, version and parse-error
# paths; the help is rendered from the flag tables, unwrapped
_PARSER_SHA256 = [
    (["--help"], "3a7096e4efc041ad6b9643d9d54261de08d9221faf3fc08d5c05a8854ae29d5e"),
    (["residual", "--help"], "ea0f0d733b6dc2c53673b2c595c2e25334a4ab9bdf7a716298413fcfdc5a44ef"),
    (["verify", "--help"], "c59246cbe59f60de090aa6dc1009ca2ca818972f533fe124152a5132281ad7ea"),
    (["equivalence", "--help"],
     "9c71b2265554368726dc6b24ddc74eba759fc4e6fbfb4fc3e087ac7c1ddb6273"),
    (["ode-compare", "--help"],
     "eb410d43d7107fa1a1bedf34b81515cc0f7b529a15058ace58b27eb6ecf15efe"),
    (["mesh", "--help"], "35c4657265ccfc0c4a339bd1fd918638190c30ac6b9db1ec9e066018abe18a8a"),
    (["report", "--help"], "e982b83c47341141649e827ea624a40392e7f70a60ca940e91ca629b8f9c3743"),
    (["--version"], "d29d0aa1564f36b92f1110a6917654e76aca36a62d239ab7b0f2212e787afc1a"),
    ([], "ce8cbcfac5960827fbef9b99bd7ef78bf876fb00dc0f51aa570643164e930435"),
    (["nonsense-command"], "5852a5ee0bda4be47b71fa4d7741f3e6bbe75f111022dbce93244600959ba6d0"),
    (["mesh", "--bogus"], "96d00670a1f079ce222031c2d3b9c654a6caabb2ca8f26852bfaf0ab4749b3dd"),
    (["--bogus", "mesh", "--family", "F2_39"],
     "96d00670a1f079ce222031c2d3b9c654a6caabb2ca8f26852bfaf0ab4749b3dd"),
]


@pytest.mark.parametrize("argv,digest", _PARSER_SHA256,
                         ids=[" ".join(argv) or "no-arguments" for argv, _ in _PARSER_SHA256])
def test_parser_output_is_byte_identical(capsys, argv, digest):
    code = main(argv)
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err])
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == digest


# A representative argv of each command: flags of every kind, "=" and negative values
_COMMAND_ARGV = {
    "residual": ["residual", "--case", "E_M_I", "--fjet", "0,-1,0", "--gjet", "-1e-3,0,0.5"],
    "verify": ["verify", "--family", "F2_51", "--c", "-0.5", "--samples", "9", "--seed=4",
               "--tolerance", "1e-3", "--perturb", "0", "--format", "markdown"],
    "equivalence": ["equivalence", "--all", "--samples", "30", "--output", "eq.json"],
    "ode-compare": ["ode-compare", "--step", "0.01", "--config", "c.json"],
    "mesh": ["mesh", "--family", "F2_39", "--nu", "5", "--nv=4", "--u-range", "-0.5:0.5",
             "--format", "csv"],
    "report": ["report", "--all", "--step", "2e-3"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_command_is_parsed_by_its_own_parser_alone(command):
    # the command's flag table gives the values that argparse gives, built
    # from the same table (the test oracle in tests/_parser.py)
    argv = _COMMAND_ARGV[command]
    assert cli._parse(argv) == vars(_parser._build_parser().parse_args(argv))


@pytest.mark.parametrize("argv,message", [
    (["residual", "--config=--"], "ssmin: error: cannot read config '--': "),
    (["verify", "--seed=--"], "ssmin: error: argument --seed: invalid int value: '--'\n"),
    # without "=", "--" ends the flags, so no value follows
    (["verify", "--seed", "--"], "ssmin: error: argument --seed: expected one argument\n"),
])
def test_a_dash_dash_value_after_equals_is_taken_as_written(capsys, argv, message):
    # argparse drops it, leaving an empty list where the flag's value belongs
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(message)


def test_help_does_not_depend_on_the_terminal(capsys, monkeypatch):
    helps = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["verify", "--help"]) == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].err == ""
    lines = helps[0].out.splitlines()
    assert lines[:3] == ["usage: ssmin verify [FLAG ...]", "",
                         "verify classified solution families"]
    # one line per flag, in table order, each with its value name or choices
    flags = [line.split()[0] for line in lines if line.startswith("  --")]
    assert flags == list(cli._flag_table("verify"))
    assert {"  --format {json,markdown}", "  --all", "  --a-hat A_HAT"} <= set(lines)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(-2.225073858507201e-308)  # the largest subnormal, negated
@example(1.7976931348623157e308)
def test_percent_format_is_the_format_spec(x):
    # the mesh fills its line templates with "%", the rest of its text with f-strings
    assert "%.17g" % x == f"{x:.17g}"


def test_mesh_memory_stays_flat(tmp_path):
    # a 512 x 512 OBJ is about 24 MB of text, streamed one grid line at a time.  The
    # peak is read from VmHWM: ru_maxrss would carry over the peak of this process.
    status = Path("/proc/self/status")
    if not (status.exists() and "VmHWM" in status.read_text()):
        pytest.skip("no VmHWM in /proc/self/status")
    script = ("import re, sys, ssmin.cli\n"
              "assert not sys.argv[1:] or ssmin.cli.main(sys.argv[1:]) == 0\n"
              "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])")
    env = {**os.environ, "PYTHONPATH": str(Path(ssmin.__file__).parent.parent)}

    def peak_kib(*argv):
        return int(subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True,
                                  capture_output=True, text=True).stdout)

    out = tmp_path / "m.obj"
    grown = peak_kib("mesh", "--family", "F2_51", "--nu", "512", "--nv", "512",
                     "--output", str(out)) - peak_kib()
    assert out.stat().st_size > 20_000_000
    assert grown < 16 * 1024


def _ssmin_process(*argv, stdout):
    env = {**os.environ, "PYTHONPATH": str(Path(ssmin.__file__).parent.parent)}
    return subprocess.Popen([sys.executable, "-m", "ssmin.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


def test_a_reader_that_closes_early_ends_the_output_not_the_command():
    # `ssmin mesh ... | head -1`: the reader closes after one line of a 6 MB mesh
    proc = _ssmin_process("mesh", "--family", "F2_51", "--nu", "256", "--nv", "256",
                          stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"v ")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""


@pytest.mark.parametrize("argv", [["mesh", "--bogus"], ["nonsense-command"], ["verify", "--help"]])
def test_the_module_entry_parses_as_main_does(capsys, argv):
    # `python3 -m ssmin.cli` runs the module as __main__: its help and errors are main's
    code = main(argv)
    captured = capsys.readouterr()
    proc = _ssmin_process(*argv, stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out.decode(), err.decode()) == (code, captured.out, captured.err)


@pytest.mark.parametrize("argv,exit_code", [
    (["report", "--all", "--perturb", "0.01"], 2),
    # output this short fails only when stdout is flushed
    (["residual", "--case", "E_M_I", "--fjet", "0,0,0", "--gjet", "0,0,0"], 0),
])
def test_a_closed_stdout_keeps_the_commands_exit_code(argv, exit_code):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _ssmin_process(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.wait(timeout=120) == exit_code
    assert proc.stderr.read() == b""


def test_output_dash_is_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["mesh", "--family", "F2_39", "--nu", "2", "--nv", "2"]
    assert main(argv) == 0
    mesh = capsys.readouterr().out
    assert main(["mesh", "--output", "-", *argv[1:]]) == 0
    assert capsys.readouterr().out == mesh and mesh.startswith("v ")
    assert list(tmp_path.iterdir()) == []


def test_an_unwritable_output_file_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(["residual", "--case", "E_M_I", "--fjet", "0,0,0", "--gjet", "0,0,0",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("ssmin: io error: ")


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
                    branch="plus", samples=123, seed=9)
    mesh = RunConfig(command="mesh", family="F2_23", u_range=[0.0, 0.5])
    for config in (cfg, mesh):
        data = json.loads(json.dumps(config._asdict()))
        assert RunConfig.from_dict(data) == config
    assert (cfg.format, RunConfig(command="mesh").format) == ("json", "obj")


def test_equivalence_takes_one_default_every_way_in(tmp_path):
    # flags, a config file and a library call give one config: 1000 samples per sweep
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "equivalence", "all": True}))
    by_flags = cli._config_from_args(cli._parse(["equivalence", "--all"]))
    by_file = cli._config_from_args(cli._parse(["equivalence", "--config", str(path)]))
    by_call = RunConfig(command="equivalence", all=True)
    assert by_flags == by_file == by_call == by_call._replace(seed=0)
    assert by_call.samples == 1000
    assert RunConfig("equivalence", all=True, samples=200).samples == 200


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


def test_a_config_names_no_other_command(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for argv, config in ((["verify", "--family", "F2_23"], {"command": "ode-compare"}),
                         (["residual", "--case", "E_M_I", "--fjet", "0,0,0", "--gjet", "0,0,0"],
                          {"command": "report", "all": True})):
        cfg_path.write_text(json.dumps(config))
        assert main([*argv, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == ("", f"ssmin: error: config {str(cfg_path)!r} is for "
                                           f"command {config['command']!r}, not {argv[0]}\n")
    # the config that a run echoes names its own command, and runs it again
    first = run(tmp_path, "verify", "--family", "F2_23", "--samples", "5")
    cfg_path.write_text(json.dumps(json.loads(first[1])["config"]))
    assert run(tmp_path, "verify", "--config", str(cfg_path)) == first


@pytest.mark.parametrize("flags,config", [
    (["--output", ""], None), (["--output="], None), ([], {"output": ""})])
def test_an_empty_output_is_refused(tmp_path, monkeypatch, capsys, flags, config):
    # it would write to stdout, as if --output were not given
    monkeypatch.chdir(tmp_path)
    argv = ["mesh", "--family", "F2_39", "--nu", "2", "--nv", "2", *flags]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "ssmin: error: output must name a file, or - for "
                                       "stdout; got ''\n")
    with pytest.raises(cli.UsageError):
        RunConfig(command="mesh", output="")


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
    # hi - lo overflows, so the grid could not be spaced
    (["mesh", "--family", "F2_50", "--u-range", "-1e308:1e308"], None, "u_range"),
    (["mesh", "--family", "F2_50"], {"v_range": [-1e308, 1e308]}, "v_range"),
    (["ode-compare", "--step", "1e9"], None, "step"),
    (["ode-compare", "--step", "0"], None, "step"),
    (["report", "--all", "--step", "0.4"], None, "step"),
    # one scalar cannot be the bound of families, equivalence sweeps and ODE runs at once
    (["report", "--all"], {"tolerance": 1e-3}, "tolerance"),
    (["mesh", "--family", "F2_23"], {"format": "xml"}, "format"),
    (["equivalence", "--case", "E_M_I"], {"format": "xml"}, "format"),
    (["verify", "--family", "F2_23"], {"format": "csv"}, "format"),
    (["residual", "--case", "E_M_I", "--fjet", "0,0,0", "--gjet", "0,0,0",
      "--format", "markdown"], None, "format"),
    (["mesh", "--family", "F2_23", "--nu", "1"], None, "nu"),
    (["mesh", "--family", "F2_23"], {"nv": 0}, "nv"),
    # only verify, equivalence and report draw samples
    (["ode-compare", "--seed", "9", "--samples", "7"], None, "seed"),
    (["ode-compare"], {"seed": 9}, "seed"),
    (["ode-compare"], {"samples": 7}, "samples"),
    (["mesh", "--family", "F2_23", "--samples", "7"], None, "samples"),
    (["mesh", "--family", "F2_23"], {"seed": 1}, "seed"),
    (["residual", "--case", "E_M_I", "--fjet", "0,0,0", "--gjet", "0,0,0"],
     {"samples": 7}, "samples"),
    # --all runs every setting or case, so a selector next to it is refused
    (["verify", "--all", "--c3", "1"], None, "family parameters"),
    (["verify", "--all", "--family", "F2_23"], None, "family"),
    (["verify", "--all", "--branch", "minus"], None, "branch"),
    (["equivalence", "--all", "--case", "E_M_I"], None, "case"),
    (["report", "--all"], {"family": "F2_23"}, "family"),
    # report always covers every family
    (["report", "--samples", "5"], None, "report covers every family; pass --all"),
    # no command takes a setting it does not read
    (["equivalence", "--all", "--samples", "10"], {"nu": 7}, "nu"),
    (["ode-compare"], {"family": "F2_23"}, "family"),
    (["ode-compare"], {"all": True}, "all"),
    (["mesh", "--family", "F2_23"], {"tolerance": 1e-3}, "tolerance"),
    # no verdict can meet a negative bound
    (["verify", "--family", "F2_23", "--tolerance", "-1"], None, "tolerance"),
    (["ode-compare", "--tolerance", "-1"], None, "tolerance"),
    (["equivalence", "--case", "E_M_I"], {"tolerance": -1e-3}, "tolerance"),
    # a config branch is checked against the same names as --branch
    (["verify", "--family", "F2_39", "--samples", "5"], {"branch": "sideways"}, "branch"),
    (["mesh", "--family", "F2_39"], {"branch": "sideways"}, "branch"),
    # a config file (given as its bytes) that cannot be read: not UTF-8, and
    # JSON nested past the recursion limit
    pytest.param(["verify", "--all"], b"\xff\xfe", "cannot read config",
                 id="config-not-utf8"),
    pytest.param(["verify", "--all"], b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 "cannot read config", id="config-nested-too-deep"),
    # a step so small that a reference run would take more than 100,000 RK4 steps
    (["ode-compare", "--step", "1e-300"], None, "step"),
    (["report", "--all", "--step", "1e-300"], None, "step"),
    # a seed outside [0, 2^64) would alias one inside it
    (["verify", "--family", "F2_23", "--seed", "-1"], None, "seed"),
    (["verify", "--all", "--seed", "18446744073709551616"], None, "seed"),
    (["equivalence", "--all"], {"seed": -18446744073709551616}, "seed"),
])
def test_bad_input_rejected_once(tmp_path, capsys, argv, config, field):
    # no vacuous pass, no traceback: RunConfig rejects the input with exit 1
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        if isinstance(config, bytes):
            cfg_path.write_bytes(config)
        else:
            cfg_path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ssmin: error: ") and field in err


# One value of the wrong type per kind of RunConfig annotation, with its exact
# message: the type is named as written in the class, finite floats only.
_TYPE_MESSAGES = [
    ("verify", "samples", "x", "samples must be int (finite numbers only), got 'x'"),
    ("verify", "all", 1, "all must be bool (finite numbers only), got 1"),
    ("verify", "tolerance", "1e-3",
     "tolerance must be float | None (finite numbers only), got '1e-3'"),
    ("verify", "tolerance", math.inf,
     "tolerance must be float | None (finite numbers only), got inf"),
    ("verify", "family", 3, "family must be str | None (finite numbers only), got 3"),
    ("mesh", "u_range", [0, "a"],
     "u_range must be list[float] | None (finite numbers only), got [0, 'a']"),
    ("verify", "params", {"c3": "x"},
     "params must be dict[str, float] (finite numbers only), got {'c3': 'x'}"),
]


@pytest.mark.parametrize("command,name,value,message", _TYPE_MESSAGES)
def test_type_messages_are_pinned(tmp_path, capsys, command, name, value, message):
    # the same text from a library call and from a config file
    with pytest.raises(cli.UsageError) as info:
        RunConfig(command, **{name: value})
    assert str(info.value) == message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({name: value}))
    assert main([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"ssmin: error: {message}\n"


def test_seed_must_lie_in_the_splitmix64_range():
    # splitmix64 reduces a seed mod 2^64, so one outside [0, 2^64) would alias
    assert RunConfig("verify", all=True, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    for seed in (-1, 2 ** 64, -2 ** 64):
        with pytest.raises(cli.UsageError, match=rf"^seed must lie in \[0, 2\^64\), got {seed}$"):
            RunConfig("verify", all=True, seed=seed)


def test_step_has_a_lower_bound():
    for step in (1e-300, 1.19e-5):
        with pytest.raises(cli.UsageError, match="^step must lie in"):
            RunConfig("ode-compare", step=step)
        with pytest.raises(cli.UsageError, match="^step must lie in"):
            RunConfig("report", all=True, step=step)
    # the smallest step takes 100,000 RK4 steps over the longest reference span (1.2)
    assert catalog.SHORTEST_ODE_STEP == 1.2 / 100_000
    assert RunConfig("ode-compare", step=catalog.SHORTEST_ODE_STEP).step == 1.2e-5


def test_samples_have_an_upper_bound(capsys):
    # refused while the config is built: a report at the cap would take minutes
    assert main(["report", "--all", "--samples", "1000000000"]) == 1
    assert capsys.readouterr().err.startswith("ssmin: error: samples must be at most ")
    cap = cli.MAX_SAMPLES
    assert RunConfig("report", all=True, samples=cap).samples == cap
    for command in ("report", "verify", "equivalence"):
        for samples in (cap + 1, 1_000_000_000):
            with pytest.raises(cli.UsageError, match=rf"^samples must be at most {cap:,}, "
                                                     rf"got {samples:,}$"):
                RunConfig(command, all=True, samples=samples)


def test_mesh_vertex_count_has_an_upper_bound():
    # only configs are built: a mesh at the cap would take seconds
    cap = cli.MAX_MESH_VERTICES
    assert RunConfig("mesh", family="F2_51", nu=2, nv=cap // 2).nv == cap // 2
    for nu, nv in ((100_000_000, 2), (20_000, 20_000), (2, cap // 2 + 1)):
        with pytest.raises(cli.UsageError, match=rf"^nu \* nv must be at most {cap:,} vertices, "
                                                 rf"got {nu} \* {nv} = {nu * nv:,}$"):
            RunConfig("mesh", family="F2_51", nu=nu, nv=nv)


@pytest.mark.parametrize("argv,advice", [
    (["residual", "--fjet", "0,0,0", "--gjet", "0,0,0"], False),
    (["mesh"], False),
    (["verify"], True),
    (["equivalence"], True),
])
def test_missing_selector_advises_all_only_where_taken(capsys, argv, advice):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "is required" in err and ("--all" in err) is advice


def test_zero_tolerance_is_accepted(tmp_path):
    # a bound of 0 is strict, not malformed: the run goes ahead and fails
    code, text = run(tmp_path, "ode-compare", "--step", "0.01", "--tolerance", "0")
    assert code == 2
    assert json.loads(text)["config"]["tolerance"] == 0.0


# A small run of each command, and a value other than the default for each
# setting: every RunConfig field but command, format and output.
_SMALL_RUNS = {
    "residual": ["residual", "--case", "E_M_I", "--fjet", "0,0,0", "--gjet", "0,0,0"],
    "verify": ["verify", "--family", "F2_39", "--samples", "3"],
    "equivalence": ["equivalence", "--case", "L_M_I", "--samples", "3"],
    "ode-compare": ["ode-compare", "--step", "0.01"],
    "mesh": ["mesh", "--family", "F2_39", "--nu", "3", "--nv", "3"],
    "report": ["report", "--all", "--samples", "3", "--step", "0.01"],
}
_PROBES = {
    "family": "F2_51", "params": {"a_hat": 3.0}, "branch": "minus", "case": "E_NM_ALL",
    "fjet": [0.0, 1.0, 0.0], "gjet": [0.0, 0.0, 1.0], "all": True, "samples": 4, "seed": 1,
    "tolerance": 1e-3, "perturb": 0.01, "nu": 4, "nv": 4, "u_range": [-1.0, 1.0],
    "v_range": [0.0, 1.0], "step": 0.02,
}
# The settings each command reads.  Written out rather than taken from the CLI,
# so that a wrong entry in its command table fails the test either way.
_READS = {
    "residual": {"case", "fjet", "gjet"},
    "verify": {"family", "params", "branch", "all", "samples", "seed", "tolerance", "perturb"},
    "equivalence": {"case", "all", "samples", "seed", "tolerance"},
    "ode-compare": {"step", "tolerance"},
    "mesh": {"family", "params", "branch", "nu", "nv", "u_range", "v_range"},
    "report": {"all", "samples", "seed", "step", "perturb"},
}


def test_every_accepted_setting_is_read(tmp_path, capsys):
    # a setting either exits 1 naming it or changes the output: the payload
    # without its config echo, or the whole output of mesh and residual
    def outcome(argv, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main([*argv, "--config", str(path)])
        out, err = capsys.readouterr()
        if out.startswith("{"):
            out = json.loads(out)
            out.pop("config", None)
        return code, out, err

    defaults = RunConfig._field_defaults
    assert set(_PROBES) == set(RunConfig._fields) - {"command", "format", "output"}
    read = set()
    for command, argv in _SMALL_RUNS.items():
        for name, value in _PROBES.items():
            assert value != defaults[name]
            # every family or case: the selectors go
            probe = {name: value, "family": None, "case": None} if name == "all" else {name: value}
            code, out, err = outcome(argv, probe)
            if code == 1 and re.search(rf"\b{name}\b", err):
                continue
            assert (code, out) != outcome(argv, {name: defaults[name]})[:2], (command, name)
            read.add((command, name))
    assert {name for _, name in read} == set(_PROBES)  # no setting is dead
    assert read == {(command, name) for command, names in _READS.items() for name in names}


@pytest.mark.parametrize("argv,flag,value", [
    (["mesh", "--family", "F2_23", "--nu", "3", "--nv", "3"], "--u-range", "-0.5:0.5"),
    (["residual", "--case", "E_M_I", "--gjet", "0,0,0"], "--fjet", "-1,0,0"),
    (["verify", "--family", "F3_30", "--samples", "20"], "--a-hat", "-1e-3"),
    (["verify", "--family", "F2_23", "--samples", "20"], "--c3", "-.5"),
])
def test_negative_flag_values_parse(capsys, argv, flag, value):
    # a value opening with "-" and a digit, or "-." and a digit, is a number, not a flag
    assert main([*argv, flag, value]) == 0
    spaced = capsys.readouterr().out
    assert main([*argv, f"{flag}={value}"]) == 0
    assert capsys.readouterr().out == spaced
    for unknown in (["--bogus", "1"], ["-x"]):
        assert main([*argv, *unknown]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,exit_code", [
    # the admissible box reaches where e^(4v) overflows, yet a_hat*e^(4v) is finite
    (["verify", "--family", "F2_39", "--a-hat", "1e-300", "--samples", "50"], 0),
    # residual-only boxes reach SAMPLING_CAP in the exponent's variable, short of
    # where the ratio's exponential overflows
    (["verify", "--family", "F3_12", "--c", "0.99995", "--samples", "50"], 0),
    (["verify", "--family", "F3_14", "--c-hat", "0.99995", "--samples", "50"], 0),
    # and short of where e^(q*u) overflows, or 1/a^2 underflows (|q*u| > ~355)
    (["verify", "--family", "F3_38", "--c0", "400", "--c-hat", "1"], 0),
    (["verify", "--family", "F3_43", "--c0-bar", "400", "--c3", "-1"], 0),
    # the residual's g' ** 3 overflows while g' is finite
    (["verify", "--family", "F2_35", "--c0-tilde", "1e105"], 1),
    (["verify", "--family", "F2_35", "--c0-tilde", "-1e105"], 1),
    # g'' = coeff*a*e*r ** -1.5 overflows where the radicand r is tiny
    *[(["mesh", "--family", "F2_39", "--c0-hat", c0_hat, "--nu", "3", "--nv", "3", *branch], 1)
      for c0_hat in ("1e105", "-1e105") for branch in ([], ["--branch", "minus"])],
    (["verify", "--family", "F2_39", "--c0-hat", "1e110", "--a-hat", "1e-300"], 1),
    (["verify", "--family", "F3_30", "--c0-hat", "1e105", "--a-hat", "0.3"], 1),
])
def test_integrand_overflow_is_a_domain_error(tmp_path, capsys, argv, exit_code):
    code, text = run(tmp_path, *argv)
    assert code == exit_code
    if exit_code == 1:
        assert capsys.readouterr().err.startswith("ssmin: DomainError: ")
    else:
        assert json.loads(text)["summary"]["all_pass"] is (exit_code == 0)


class _Integrated(Exception):
    pass


def test_no_check_integrates(capsys, monkeypatch):
    # every check reads only d1 and d2, so none may run quadrature; mesh reads
    # values and must reach the patch, or the guard would be vacuous
    def refuse(*args, **kwargs):
        raise _Integrated()

    checks = [["verify", "--all", "--samples", "20"], ["report", "--all", "--samples", "20"],
              ["ode-compare"]]
    outputs = []
    for patched in (False, True):
        with monkeypatch.context() as mp:
            if patched:
                mp.setattr(jets, "adaptive_simpson", refuse)
            codes = [main(argv) for argv in checks]
            outputs.append((codes, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == [0, 0, 0]
    monkeypatch.setattr(jets, "adaptive_simpson", refuse)
    with pytest.raises(_Integrated):
        main(["mesh", "--family", "F2_39", "--nu", "5", "--nv", "4"])


def test_only_mesh_computes_closed_form_values(tmp_path, monkeypatch):
    # the checks read slopes alone, so `verify --all` and `ode-compare` take no
    # logarithm in `ssmin.jets`; mesh takes one per grid line of F2_51's two
    # log|cos| profiles, or the count would be vacuous
    logs = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def log(self, x):
            logs.append(x)
            return math.log(x)

    monkeypatch.setattr(jets, "math", CountingMath())
    assert run(tmp_path, "verify", "--all", "--seed", "3")[0] == 0
    assert run(tmp_path, "ode-compare")[0] == 0
    assert logs == []
    code, _ = run(tmp_path, "mesh", "--family", "F2_51", "--nu", "9", "--nv", "7",
                  "--format", "csv", name="m.csv")
    assert code == 0 and len(logs) == 9 + 7


def test_mesh_evaluates_each_profile_once_per_grid_line(tmp_path, monkeypatch):
    calls = []

    def counted(profile, axis):
        def fn(x, value=True):
            calls.append(axis)
            return profile.fn(x, value)
        return profile._replace(fn=fn)

    def counting_build(fam):
        built = build(fam)
        surface = built.surface._replace(f=counted(built.surface.f, "u"),
                                         g=counted(built.surface.g, "v"))
        return built._replace(surface=surface)

    monkeypatch.setattr(cli, "build", counting_build)
    code, text = run(tmp_path, "mesh", "--family", "F2_39", "--nu", "9", "--nv", "7",
                     "--format", "csv", name="m.csv")
    assert code == 0 and len(text.splitlines()) == 1 + 9 * 7
    assert (calls.count("u"), calls.count("v")) == (9, 7)


# Modules that `dataclasses` loads and nothing else in `import ssmin.cli` needs:
# importing them would double the start-up cost every CLI call pays.  No module
# imports argparse (with gettext): the flag tables parse every argv and render
# its help.  json is read and written only by --config and JSON output, and is
# imported where it runs.
_UNLOADED = ("numpy", "dataclasses", "inspect", "ast", "dis", "tokenize",
             "argparse", "gettext", "json")


def test_runtime_imports_only_the_standard_library():
    # every absolute import of the package, lazy ones inside functions too
    package = Path(ssmin.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (path.name, module)
                # argparse is only the tests' oracle of the flag-table parser
                assert module.split(".")[0] not in ("dataclasses", "argparse"), \
                    (path.name, module)
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    loaded = subprocess.run([sys.executable, "-c",
                             "import sys, ssmin, ssmin.cli; print(*sorted(sys.modules))"],
                            env=env, check=True, capture_output=True, text=True).stdout.split()
    assert "ssmin.cli" in loaded
    assert not set(_UNLOADED) & set(loaded)


def test_a_well_formed_command_imports_nothing_after_the_cli():
    # nor do help, version and a parse error: the flag tables parse every argv
    # and render the help.  The probe imports nothing before ssmin.cli, json
    # included: a JSON command imports json as it writes, and nothing else does.
    script = ("import contextlib, io, sys, ssmin.cli\n"
              "for argv in sys.argv[1:]:\n"
              "    before = set(sys.modules)\n"
              "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
              "            contextlib.redirect_stderr(io.StringIO()):\n"
              "        code = ssmin.cli.main(argv.split())\n"
              "    print(code, *sorted(set(sys.modules) - before), sep=',')")
    env = {**os.environ, "PYTHONPATH": str(Path(ssmin.__file__).parent.parent)}
    markdown = [*_SMALL_RUNS["verify"], "--format", "markdown"]
    parsed_only = [["--help"], ["mesh", "--help"], ["--version"], ["mesh", "--bogus"]]
    # report and equivalence --all fork (`cli._on_two_cpus`) where they may run
    # on two CPUs; what comes back from the child loads with marshal
    split = ["equivalence", "--all", "--samples", "500"]
    runs = [*parsed_only, _SMALL_RUNS["mesh"], markdown, *_SMALL_RUNS.values(), split]
    imported = subprocess.run([sys.executable, "-c", script, *map(" ".join, runs)], env=env,
                              check=True, capture_output=True, text=True).stdout
    lines = [line.split(",") for line in imported.splitlines()]
    assert [int(line[0]) for line in lines] == [0, 0, 0, 1] + [0] * (len(runs) - 4)
    imports = [line[1:] for line in lines]
    quiet = len(parsed_only) + 2  # then mesh and a markdown run
    assert imports[:quiet] == [[]] * quiet
    first_json = imports[quiet]  # residual
    assert "json" in first_json
    assert all(name == "_json" or name.split(".")[0] == "json" for name in first_json)
    assert imports[quiet + 1:] == [[]] * (len(runs) - quiet - 1)
