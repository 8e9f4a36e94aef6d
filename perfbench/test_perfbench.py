"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def _names(kind: str) -> list[str]:
    return sorted(m["name"] for m in run.load_benchmark_spec()[kind])


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, kind):
    result = _bench("equivalence", trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == _names(kind)
    units = {m["name"]: m["unit"] for m in run.load_benchmark_spec()[kind]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_tracer_metric_names_are_declared():
    declared = set(_names("per_layer"))
    measured_outside = {"cli.bytes_out", "trace.overhead_s"}
    assert set(tracer.layer_metrics(tracer.SpanStats())) == declared - measured_outside


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_reproduces_inputs(workload):
    reference = run.load_reference(workload)
    for seed in (0, 7, 12345):
        assert run.workload_commands(workload, seed) == run.workload_commands(workload, seed)
        assert (run.workload_commands(workload, seed)
                == run.workload_commands(workload, seed + run.SEED_POOL))
    for seed in range(run.SEED_POOL):
        for argv in run.workload_commands(workload, seed):
            assert run.command_key(argv) in reference["outputs"]
    if workload != "mesh":
        assert run.workload_commands(workload, 1) != run.workload_commands(workload, 2)


def _cli(argv: list[str]) -> str:
    import ssmin.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ssmin.cli.main(argv) == 0
    return out.getvalue()


def test_tracer_leaves_outputs_unchanged():
    import ssmin.curvature
    import ssmin.pde
    import ssmin.surface

    original = ssmin.surface.frame_from_jets
    commands = [
        ["verify", "--all", "--samples", "8", "--seed", "5"],
        ["equivalence", "--all", "--samples", "40", "--seed", "5"],
        ["mesh", "--family", "F2_39", "--nu", "5", "--nv", "4", "--format", "csv"],
        ["ode-compare", "--step", "0.01"],
    ]
    plain = [_cli(argv) for argv in commands]
    t = tracer.Tracer()
    with t:
        wrapped = ssmin.surface.frame_from_jets
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert ssmin.curvature.frame_from_jets is wrapped
        assert ssmin.pde.frame_from_jets is wrapped
        traced = [_cli(argv) for argv in commands]
    assert traced == plain
    assert ssmin.pde.frame_from_jets is original
    metrics = tracer.layer_metrics(t.aggregate())
    for name in ("jets.profile_at_quad.calls", "jets.adaptive_simpson.calls",
                 "surface.immersion.calls", "ode.integrate.calls", "ode.rk4_nodes",
                 "pde.equivalence.attempts", "catalog.verify_auto.calls"):
        assert metrics[name] > 0, name


def test_checks_reject_wrong_outputs():
    ref = {"records": [{"n_samples": 200, "max": 1.0e-12, "verdict": "pass"}]}
    near = {"records": [{"n_samples": 200, "max": 1.0e-12 + 1e-13, "verdict": "pass"}]}
    assert run.json_mismatch(near, ref) is None
    assert run.json_mismatch({"records": [{"n_samples": 199, "max": 1.0e-12,
                                           "verdict": "pass"}]}, ref)
    assert run.json_mismatch({"records": [{"n_samples": 200, "max": 2e-9,
                                           "verdict": "pass"}]}, ref)
    assert run.json_mismatch({"records": []}, ref)
    assert run.json_mismatch({"records": [{"n_samples": 200, "max": 1.0e-12}]}, ref)
    assert run.json_mismatch({"records": [{"n_samples": 200, "max": 1.0e-12, "verdict": "pass",
                                           "margin": 0.5}]}, ref) is None
    mesh = "v 1 2 3\nv 4 5 6\nf 1 2 3 4\n"
    assert run.mesh_mismatch("v 1.0000000000001 2 3\nv 4 5 6\nf 1 2 3 4\n", mesh) is None
    assert run.mesh_mismatch("v 1.001 2 3\nv 4 5 6\nf 1 2 3 4\n", mesh)
    assert run.mesh_mismatch("v 1 2 3\nv 4 5 6\nf 1 2 4 3\n", mesh)
    assert run.mesh_mismatch("v 1 2 3\nv 4 5 6\n", mesh)
