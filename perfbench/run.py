"""ssmin benchmark runner.

Usage:
    python3 perfbench/run.py --workload {report,equivalence,mesh} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each timed run (a "rep") is a fresh single-threaded interpreter
running ``perfbench/worker.py``, which times ``import ssmin.cli`` and then the
workload's commands through ``ssmin.cli.main``.  One closed-loop client runs
the reps back to back, with no threads, until ``--seconds`` have passed.

Every command of every rep is one operation.  An operation fails unless it
exits 0, reports ``all_pass`` where the command has it, and matches the stored
reference output: every reference key present, identical strings and integers
(record counts, ``n_samples``, equivalence ``attempts``, mesh faces), and
floats within ``ABS_TOL + REL_TOL * |reference|``.  All reps of one command must also give
byte-identical output, traced or not.

``--trace 0`` prints the end-to-end metrics, medians over the reps.  Every
time is scaled to a nominal processor speed; see worker.py.
``--trace 1`` alternates untraced and traced reps and prints the per-layer
metrics of the traced ones (medians), plus ``trace.overhead_s``, the traced
minus the untraced median wall time.  The first traced rep writes its spans to
``perfbench/out/``.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

# Workload seeds map onto this many program seeds, whose outputs are stored
# in reference/ so that every run can be checked number by number.
SEED_POOL = 32
EQUIVALENCE_SAMPLES = 6000
ABS_TOL = 1e-9
REL_TOL = 1e-9
TIME_UNITS = frozenset({"s", "ms", "us"})
# A run must end within 180 s; reps are cut off well before that.
HARD_LIMIT_S = 170.0


def program_seed(seed: int) -> int:
    return seed % SEED_POOL


def workload_commands(workload: str, seed: int) -> list[list[str]]:
    """The ssmin argv lists one rep of the workload runs, made from the seed."""
    ps = str(program_seed(seed))
    if workload == "report":
        return [["report", "--all", "--format", "json", "--seed", ps]]
    if workload == "equivalence":
        return [["equivalence", "--all", "--samples", str(EQUIVALENCE_SAMPLES), "--seed", ps]]
    if workload == "mesh":
        # mesh samples nothing, so its inputs are the same for every seed.
        return [["mesh", "--family", "F2_39", "--format", "csv"],
                ["mesh", "--family", "F2_51", "--format", "obj"]]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("report", "equivalence", "mesh")


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{workload}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


# -- output checks ------------------------------------------------------------

def _float_close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def json_mismatch(got, ref, path: str = "$") -> str | None:
    """First difference between two parsed outputs beyond the tolerance, or None.

    Keys the output has beyond the reference's are allowed, so that adding a
    field to a record does not fail the check; every reference key must match.
    """
    if isinstance(got, float) and isinstance(ref, float):
        return None if _float_close(got, ref) else f"{path}: {got!r} != {ref!r}"
    if type(got) is not type(ref):
        return f"{path}: type {type(got).__name__} != {type(ref).__name__}"
    if isinstance(ref, dict):
        missing = [key for key in ref if key not in got]
        if missing:
            return f"{path}: missing keys {missing}"
        for key in ref:
            found = json_mismatch(got[key], ref[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if len(got) != len(ref):
            return f"{path}: {len(got)} items != {len(ref)}"
        for i, (g, r) in enumerate(zip(got, ref)):
            found = json_mismatch(g, r, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if got == ref else f"{path}: {got!r} != {ref!r}"


def mesh_mismatch(got: str, ref: str) -> str | None:
    """Vertices within the tolerance, face records and headers identical."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return f"{len(got_lines)} lines != {len(ref_lines)}"
    for n, (g, r) in enumerate(zip(got_lines, ref_lines), 1):
        if g == r:
            continue
        g_fields, r_fields = re.split("[ ,]", g), re.split("[ ,]", r)
        if r.startswith("f ") or len(g_fields) != len(r_fields):
            return f"line {n}: {g!r} != {r!r}"
        for x, y in zip(g_fields, r_fields):
            try:
                close = _float_close(float(x), float(y))
            except ValueError:
                close = x == y
            if not close:
                return f"line {n}: {g!r} != {r!r}"
    return None


def output_points(workload: str, output: str, reference: dict) -> int:
    """Surface points checked or emitted, counted from the command's output."""
    if workload == "mesh":
        lines = output.splitlines()
        if lines and lines[0] == "u,v,x,y,z":
            return len(lines) - 1
        return sum(1 for line in lines if line.startswith("v "))
    payload = json.loads(output)
    points = sum(r["n_samples"] for r in payload["records"])
    if workload == "report":
        points += sum(r["n_samples"] for r in payload["equivalence"])
        step = payload["config"]["step"]
        for r in payload["ode"]:
            t0, t1 = reference["ode_spans"][f"{r['ode_case']}/{r['family_id']}/{r['profile']}"]
            points += round((t1 - t0) / step) + 1
    return points


def check_command(workload: str, result: dict, reference: dict) -> str | None:
    """Why the command's result fails its checks, or None when it passes."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()}"
    ref = reference["outputs"].get(command_key(result["argv"]))
    if ref is None:
        return "no reference output stored for this command"
    if workload == "mesh":
        return mesh_mismatch(result["output"], ref)
    try:
        payload = json.loads(result["output"])
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if payload.get("summary", {}).get("all_pass") is not True:
        return "summary.all_pass is not true"
    return json_mismatch(payload, json.loads(ref))


# -- reps ---------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    # Reps import cached bytecode, as an installed CLI does; warm_up writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_worker(commands: list[list[str]], trace: bool, spans_path: str | None,
               timeout: float) -> dict:
    spec = json.dumps({"commands": commands, "trace": trace, "spans_path": spans_path})
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), spec],
                          cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def warm_up() -> None:
    """Import the program once untimed, so bytecode compilation is not timed."""
    if not (ROOT / "src" / "ssmin" / "cli.py").is_file():
        raise RuntimeError(f"no ssmin sources under {ROOT / 'src'}")
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import ssmin.cli"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import ssmin.cli from {ROOT / 'src'}: "
                           f"{proc.stderr.strip()[-2000:]}")


class Run:
    """Reps of one workload, with their operation counts and check results."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.commands = workload_commands(workload, seed)
        self.reference = reference
        self.reps: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, set[str]] = {}

    def rep(self, trace: bool, spans_path: str | None, deadline: float) -> None:
        timeout = max(5.0, deadline - time.monotonic())
        try:
            result = run_worker(self.commands, trace, spans_path, timeout)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
                IndexError) as exc:
            print(f"rep failed: {exc}", file=sys.stderr)
            self.attempted += len(self.commands)
            self.failed += len(self.commands)
            return
        result["trace"] = trace
        result["points"] = 0
        for cmd in result["commands"]:
            self.attempted += 1
            problem = check_command(self.workload, cmd, self.reference)
            if problem is None:
                result["points"] += output_points(self.workload, cmd["output"],
                                                  self.reference)
            else:
                self.failed += 1
                print(f"check failed [{command_key(cmd['argv'])}]: {problem}",
                      file=sys.stderr)
            digest = hashlib.sha256(cmd["output"].encode("utf-8")).hexdigest()
            self.digests.setdefault(command_key(cmd["argv"]), set()).add(digest)
            cmd["bytes_out"] = len(cmd["output"].encode("utf-8"))
            del cmd["output"]
        # Timings as measured ("raw_") and at nominal speed (see worker.py).
        result["raw_wall_s"] = sum(cmd["wall_s"] for cmd in result["commands"])
        result["wall_s"] = sum(cmd["wall_s"] * cmd["scale"] for cmd in result["commands"])
        result["scale"] = result["wall_s"] / result["raw_wall_s"]
        result["raw_setup_s"] = result["setup_s"]
        result["setup_s"] *= result["setup_scale"]
        self.reps.append(result)

    def deterministic(self) -> bool:
        """Every rep of a command gave byte-identical output."""
        return all(len(d) == 1 for d in self.digests.values())

    def _reps(self, trace: bool) -> list[dict]:
        return [r for r in self.reps if r["trace"] == trace]

    def end_to_end(self) -> dict[str, float]:
        reps = self._reps(False)
        return {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "points_per_s": statistics.median(r["points"] / r["wall_s"] for r in reps),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        }

    def per_layer(self, units: dict[str, str]) -> tuple[dict[str, float], bool]:
        """Median per-layer metrics of the traced reps, times at nominal speed,
        and whether their counts repeated exactly."""
        traced = self._reps(True)
        for r in traced:
            r["layers"]["cli.bytes_out"] = sum(c["bytes_out"] for c in r["commands"])
        metrics = {
            name: statistics.median(
                value * r["scale"] if units.get(name) in TIME_UNITS else value
                for r in traced for value in (r["layers"][name],))
            for name in traced[0]["layers"]
        }
        repeat = all(r["layers"][name] == traced[0]["layers"][name]
                     for r in traced for name in COUNT_METRICS | {"cli.bytes_out"})
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in self._reps(False)))
        return metrics, repeat

    def metrics(self, trace: bool, units: dict[str, str]) -> tuple[dict[str, float], bool]:
        """The metric values, and whether the reps were there to give them."""
        if not self._reps(False) or (trace and not self._reps(True)):
            return {}, False
        return self.per_layer(units) if trace else (self.end_to_end(), True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    run = Run(workload, seed, load_reference(workload))
    spans_path = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = str(OUT_DIR / f"{workload}-seed{seed}.spans.csv.gz")
    pair = 0
    while True:
        # Alternate which side of a pair goes first, so drift hits both alike.
        order = (False,) if not trace else ((False, True) if pair % 2 == 0 else (True, False))
        for traced in order:
            run.rep(traced, spans_path if traced else None, deadline)
            if traced:
                spans_path = None
        pair += 1
        if time.monotonic() - started >= seconds:
            return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_benchmark_spec()
        warm_up()
    except (OSError, RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 1
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    values, complete = run.metrics(bool(args.trace),
                                   {m["name"]: m["unit"] for m in metric_specs})
    correct = complete and run.failed == 0 and run.deterministic()
    for r in run.reps:
        print(f"rep trace={int(r['trace'])} wall_s={r['wall_s']:.4f} "
              f"raw_wall_s={r['raw_wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"raw_setup_s={r['raw_setup_s']:.4f} peak_rss_mib={r['peak_rss_mib']:.2f} "
              f"points={r['points']}")
    if not run.deterministic():
        print("outputs differ between reps of the same command", file=sys.stderr)
    expected = [m["name"] for m in metric_specs]
    if values and sorted(values) != sorted(expected):
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(expected)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
