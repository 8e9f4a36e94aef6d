"""Regenerate the stored reference outputs the benchmark checks against.

Usage: python3 perfbench/make_reference.py [workload ...]

Runs every command of each workload, for every program seed in the pool,
once through the worker and stores the outputs in
``perfbench/reference/<workload>.json.gz``.  The report reference also keeps
the ODE spans that ``ode-compare`` prints, from which the benchmark counts RK4
nodes.  Run it only on a commit whose outputs are known good: the references
are what later commits are held to.
"""

from __future__ import annotations

import gzip
import json
import sys

from run import (REFERENCE_DIR, SEED_POOL, WORKLOADS, command_key, run_worker,
                 workload_commands)


def outputs(commands: list[list[str]]) -> dict[str, str]:
    result = run_worker(commands, trace=False, spans_path=None, timeout=600)
    out = {}
    for cmd in result["commands"]:
        if cmd["rc"] != 0:
            raise SystemExit(f"{command_key(cmd['argv'])} exited {cmd['rc']}: {cmd['stderr']}")
        out[command_key(cmd["argv"])] = cmd["output"]
    return out


def ode_spans() -> dict[str, list[float]]:
    payload = json.loads(next(iter(outputs([["ode-compare"]]).values())))
    return {f"{r['ode_case']}/{r['family_id']}/{r['profile']}": r["t_span"]
            for r in payload["records"]}


def main(workloads: list[str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads:
        reference: dict = {"outputs": {}}
        for seed in range(SEED_POOL):
            for argv in workload_commands(workload, seed):
                if command_key(argv) not in reference["outputs"]:
                    reference["outputs"].update(outputs([argv]))
        if workload == "report":
            reference["ode_spans"] = ode_spans()
        path = REFERENCE_DIR / f"{workload}.json.gz"
        # mtime=0 keeps the file byte-identical when the outputs are.
        with gzip.GzipFile(path, "wb", compresslevel=9, mtime=0) as fh:
            fh.write(json.dumps(reference, sort_keys=True).encode("utf-8"))
        print(f"{path}: {len(reference['outputs'])} outputs")


if __name__ == "__main__":
    main(sys.argv[1:] or list(WORKLOADS))
