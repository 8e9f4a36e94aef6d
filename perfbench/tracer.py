"""Span tracer for ssmin, installed from outside the package.

`Tracer.install()` replaces every public function of every ``ssmin`` module
with a recording wrapper, in every ``ssmin`` module namespace that holds it
(so ``frame_from_jets`` is traced whether it is called from ``surface``,
``curvature`` or ``pde``), and wraps the methods ``Profile.at`` and
``SplitMix64.uniform``.  ``uninstall()`` puts the originals back.  Nothing under
``src/`` is edited.

Each wrapped call records one span: name, parent span, start and end.  Spans
live in flat in-memory arrays and are written out only by `write_spans`.  A
direct recursive call of a function into itself is folded into its caller's
span, so ``adaptive_simpson`` flipping a reversed interval counts once.
Quadrature integrand calls are counted by wrapping the ``fn`` argument that
``adaptive_simpson`` receives.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import sys
import time
import types
from array import array
from collections import Counter, defaultdict

# Leaf primitives whose body costs less than recording a span; a span around
# them would mostly time the tracer.  Their time stays in the caller's span.
UNTRACED = frozenset({
    "ambient.metric_inner",
    "jets.jet_cos", "jets.jet_elementary", "jets.jet_exp", "jets.jet_log",
    "jets.jet_log_abs", "jets.jet_log_abs_cos", "jets.jet_sin", "jets.jet_sqrt",
    "jets.jet_tan",
})

METHODS = (("jets", "Profile", "at"), ("sampling", "SplitMix64", "uniform"))


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans around ssmin's public functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = [-1]
        self._integrand_calls = itertools.count()
        self._last_error: BaseException | None = None
        self.errors: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ssmin" or name.startswith("ssmin."))]
        if not modules:
            raise RuntimeError("import ssmin before installing the tracer")
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{_short(mod.__name__)}.{attr}"
                    if name not in UNTRACED:
                        wrappers[id(obj)] = self._wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"ssmin.{short}"], cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        stack = self._stack
        clock = time.perf_counter
        pre = self._count_integrand if name == "jets.adaptive_simpson" else None
        post = _POST_HOOKS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent >= 0 and span_name[parent] == nid:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(parent)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span_end[idx] = clock()
                stack.pop()
                self._note_error(exc)
                raise
            span_end[idx] = clock()
            stack.pop()
            if post is not None:
                post(counters, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _count_integrand(self, args, kwargs):
        tick = self._integrand_calls.__next__

        def counting(fn):
            def counted(x):
                tick()
                return fn(x)
            return counted

        if args:
            return (counting(args[0]),) + args[1:], kwargs
        return args, {**kwargs, "fn": counting(kwargs["fn"])}

    def _note_error(self, exc: BaseException) -> None:
        # An exception unwinding through nested spans is counted once.
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[type(exc).__name__] += 1

    # -- results ----------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self._span_name)

    def integrand_calls(self) -> int:
        # Reading the counter advances it; fold the read back out.
        n = next(self._integrand_calls)
        self._integrand_calls = itertools.count(n)
        return n

    def aggregate(self) -> "SpanStats":
        """Calls, inclusive time and self time per span name."""
        n = self.n_spans
        names, parents = self._span_name, self._span_parent
        durations = [self._span_end[i] - self._span_start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                children[parent] += durations[i]
        stats = SpanStats()
        for i in range(n):
            name = self.names[names[i]]
            stats.calls[name] += 1
            stats.total[name] += durations[i]
            stats.self_time[name] += durations[i] - children[i]
        at_id = self._ids.get("jets.Profile.at")
        simpson_id = self._ids.get("jets.adaptive_simpson")
        verify_id = self._ids.get("catalog.verify_auto")
        quad_at = {parents[i] for i in range(n)
                   if names[i] == simpson_id and parents[i] >= 0
                   and names[parents[i]] == at_id}
        for i in quad_at:
            stats.calls["jets.Profile.at[quad]"] += 1
            stats.total["jets.Profile.at[quad]"] += durations[i]
        stats.verify_ms = [durations[i] * 1e3 for i in range(n) if names[i] == verify_id]
        stats.errors = Counter(self.errors)
        stats.counters = Counter(self.counters)
        stats.counters["jets.quad_integrand"] = self.integrand_calls()
        return stats

    def write_spans(self, path: str) -> None:
        """Write every span as CSV: id, request (root span id), parent, name, start/end in us."""
        names, parents = self._span_name, self._span_parent
        request = array("q", [0]) * self.n_spans
        t0 = self._span_start[0] if self.n_spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,request,parent,name,start_us,end_us\n")
            for i in range(self.n_spans):
                parent = parents[i]
                request[i] = i if parent < 0 else request[parent]
                fh.write(f"{i},{request[i]},{parent},{self.names[names[i]]},"
                         f"{(self._span_start[i] - t0) * 1e6:.3f},"
                         f"{(self._span_end[i] - t0) * 1e6:.3f}\n")


def _count_equivalence(counters: Counter, record) -> None:
    counters["pde.equivalence.attempts"] += record.attempts
    counters["pde.equivalence.accepted"] += record.n_samples


def _count_rk4_nodes(counters: Counter, trajectory) -> None:
    counters["ode.rk4_nodes"] += len(trajectory.nodes)


_POST_HOOKS = {
    "pde.equivalence_sweep": _count_equivalence,
    "ode.integrate_scalar": _count_rk4_nodes,
}


class SpanStats:
    """Per-name aggregates of one traced run."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.verify_ms: list[float] = []
        self.errors: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()

    def us_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.total[name] / calls * 1e6 if calls else 0.0

    def module_self_time(self, module: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == module)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(s: SpanStats) -> dict[str, float]:
    """The per-layer metrics of one traced run, except `cli.bytes_out` and
    `trace.overhead_s`, which run.py measures outside the tracer."""
    quad = "jets.Profile.at[quad]"
    closed_calls = s.calls["jets.Profile.at"] - s.calls[quad]
    closed_total = s.total["jets.Profile.at"] - s.total[quad]
    simpson_calls = s.calls["jets.adaptive_simpson"]
    return {
        "jets.profile_at.calls": s.calls["jets.Profile.at"],
        "jets.profile_at_quad.calls": s.calls[quad],
        "jets.profile_at_quad.us_per_call": s.us_per_call(quad),
        "jets.profile_at_closed.us_per_call": _ratio(closed_total, closed_calls) * 1e6,
        "jets.adaptive_simpson.calls": simpson_calls,
        "jets.adaptive_simpson.self_s": s.self_time["jets.adaptive_simpson"],
        "jets.quad_integrand.calls": s.counters["jets.quad_integrand"],
        "jets.quad_integrand.per_simpson": _ratio(s.counters["jets.quad_integrand"],
                                                  simpson_calls),
        "jets.domain_error.count": s.errors["DomainError"],
        "surface.frame_from_jets.calls": s.calls["surface.frame_from_jets"],
        "surface.frame_from_jets.self_s": s.self_time["surface.frame_from_jets"],
        "surface.frame_from_jets.us_per_call": s.us_per_call("surface.frame_from_jets"),
        "surface.immersion.calls": s.calls["surface.immersion"],
        "surface.immersion.self_s": s.self_time["surface.immersion"],
        "surface.degenerate.count": s.errors["DegenerateSurface"],
        "curvature.mean_curvature_from_jets.calls":
            s.calls["curvature.mean_curvature_from_jets"],
        "curvature.mean_curvature_from_jets.self_s":
            s.self_time["curvature.mean_curvature_from_jets"],
        "curvature.mean_curvature_from_jets.us_per_call":
            s.us_per_call("curvature.mean_curvature_from_jets"),
        "ambient.covariant_derivative.calls": s.calls["ambient.covariant_derivative"],
        "ambient.covariant_derivative.self_s": s.self_time["ambient.covariant_derivative"],
        "pde.residual.calls": s.calls["pde.residual"],
        "pde.residual.self_s": s.self_time["pde.residual"],
        "pde.equivalence_sweep.self_s": s.self_time["pde.equivalence_sweep"],
        "pde.equivalence.attempts": s.counters["pde.equivalence.attempts"],
        "pde.equivalence.accept_ratio": _ratio(s.counters["pde.equivalence.accepted"],
                                               s.counters["pde.equivalence.attempts"]),
        "ode.integrate.calls": s.calls["ode.integrate"],
        # integrate only dispatches; the RK4 loop itself runs in integrate_scalar.
        "ode.integrate.self_s": s.self_time["ode.integrate"]
                                + s.self_time["ode.integrate_scalar"],
        "ode.rk4_nodes": s.counters["ode.rk4_nodes"],
        "ode.compare_profile.self_s": s.self_time["ode.compare_profile"],
        "sampling.uniform.calls": s.calls["sampling.SplitMix64.uniform"],
        "sampling.uniform.self_s": s.self_time["sampling.SplitMix64.uniform"],
        "catalog.verify_auto.calls": s.calls["catalog.verify_auto"],
        "catalog.verify_auto.p50_ms": statistics.median(s.verify_ms) if s.verify_ms else 0.0,
        "catalog.verify_auto.p90_ms": _p90(s.verify_ms),
        "cli.self_s": s.module_self_time("cli"),
    }


# Metrics that must repeat exactly between traced runs of the same inputs.
COUNT_METRICS = frozenset(name for name in layer_metrics(SpanStats())
                          if name.endswith((".calls", ".count", ".attempts", ".accept_ratio",
                                            ".rk4_nodes", ".per_simpson")))
