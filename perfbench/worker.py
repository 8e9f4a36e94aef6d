"""One timed run of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec holds ``commands`` (a list of ssmin argv lists), ``trace`` (bool) and
``spans_path`` (where a traced run writes its spans, or null).  The worker
times ``import ssmin.cli`` first, before anything else is imported, then runs
each command through ``ssmin.cli.main`` with stdout and stderr captured in
memory, and prints one JSON object with the raw timings, the speed scale of
each timing, the outputs and, for a traced run, the per-layer aggregates.

Speed scale: the processor this benchmark was built on switches between
speed states that differ by up to 1.6x, for seconds to tens of seconds at a
time, which swamps any change worth measuring.  So `ScaledTimer` probes the
speed with fixed pure-Python work that shares no code with ssmin (half float
recursion, half small-object churn, as ssmin's own mix is): three
times before and after each timed section, and from a SIGALRM handler every
``PROBE_PERIOD_S`` during it.  The time spent in the handler is taken out of
the section's time.  A section's scale is the mean of
``NOMINAL_PROBE_S / probe time`` over its probes; multiplied by it, the
section's time reads as at nominal speed.
"""

import os
import signal
import sys
import time

PROBE_PERIOD_S = 0.05
# The probe's median time on the 2-core machine the baseline was recorded on.
NOMINAL_PROBE_S = 0.0016


def _f(x):
    return x * (1.0 - x * x / 6.0) + 1.0 / (1.0 + x * x)


def _simpson(a, fa, b, fb, m, fm, whole, eps, depth):
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = _f(lm), _f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth == 0 or abs(left + right - whole) <= 15.0 * eps:
        return left + right
    return (_simpson(a, fa, m, fm, lm, flm, left, 0.5 * eps, depth - 1)
            + _simpson(m, fm, b, fb, rm, frm, right, 0.5 * eps, depth - 1))


class _Vec:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z

    def __add__(self, other):
        return _Vec(self.x + other.x, self.y + other.y, self.z + other.z)

    def scaled(self, s):
        return _Vec(self.x * s, self.y * s, self.z * s)


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now."""
    t0 = time.perf_counter()
    for k in range(4):
        a, b = 0.0, 2.0 + 0.01 * k
        m = 0.5 * (a + b)
        fa, fm, fb = _f(a), _f(m), _f(b)
        _simpson(a, fa, b, fb, m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb), 1e-10, 40)
    acc, table = _Vec(0.0, 0.0, 0.0), {}
    for i in range(300):
        acc = acc + _Vec(0.5 * i, 0.25 * i, -0.125 * i).scaled(1.0 / (1 + i))
        table[i * 7919 % 1021] = f"{acc.x:.6g}"
    return time.perf_counter() - t0


class ScaledTimer:
    """Times a section and the processor speed during it."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._in_handler = 0.0
        self.elapsed = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self._in_handler += time.perf_counter() - t0

    def __enter__(self) -> "ScaledTimer":
        self.probes += [probe() for _ in range(3)]
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed = time.perf_counter() - self._t0 - self._in_handler
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probes += [probe() for _ in range(3)]

    @property
    def scale(self) -> float:
        return sum(NOMINAL_PROBE_S / p for p in self.probes) / len(self.probes)


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
with ScaledTimer() as _SETUP:
    import ssmin.cli  # noqa: E402  (timed: this is the set-up every CLI user pays)
if not ssmin.cli.__file__.startswith(os.path.join(_ROOT, "src", "")):
    sys.exit(f"imported {ssmin.cli.__file__}, not the checkout's src/")

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402  (this script's own directory)


def run(spec: dict) -> dict:
    tracer = Tracer() if spec["trace"] else contextlib.nullcontext()
    payload = {"setup_s": _SETUP.elapsed, "setup_scale": _SETUP.scale, "commands": []}
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer, ScaledTimer() as timer:
                rc = ssmin.cli.main(argv)
        payload["commands"].append({"argv": argv, "rc": rc, "wall_s": timer.elapsed,
                                    "scale": timer.scale, "output": out.getvalue(),
                                    "stderr": err.getvalue()})
    payload["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["trace"]:
        payload["layers"] = layer_metrics(tracer.aggregate())
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    return payload


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
