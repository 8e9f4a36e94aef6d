"""Command-line verification driver.

Exit codes: 0 all checks passed, 1 usage or configuration error, 2 a
verification check failed.  Reports are deterministic for a fixed seed: all
sampling runs on splitmix64 streams and no timing data is serialized.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field, replace
from enum import Enum

from . import __version__
from .catalog import (
    BRANCHED_FAMILIES,
    FamilyId,
    SHORTEST_ODE_SPAN,
    THEOREM_SUITES,
    _DEFAULTS,
    all_default_settings,
    build,
    convergence_orders,
    default_settings,
    make_family,
    ode_reference_runs,
    verify_auto,
)
from .errors import DomainError, EmptyDomain, VerifierError
from .jets import Interval, Jet2, Profile
from .pde import CaseId, EquivalenceRecord, equivalence_sweep, residual
from .sampling import child_seed
from .surface import immersion


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


_PARAM_FLAGS = sorted({name for defaults in _DEFAULTS.values() for name in defaults})


@dataclass
class RunConfig:
    command: str
    family: str | None = None
    params: dict[str, float] = field(default_factory=dict)
    branch: str | None = None
    case: str | None = None
    fjet: list[float] | None = None
    gjet: list[float] | None = None
    all: bool = False
    samples: int = 200
    seed: int = 0
    tolerance: float | None = None
    perturb: float = 0.0
    nu: int = 64
    nv: int = 64
    u_range: list[float] | None = None
    v_range: list[float] | None = None
    step: float = 1e-3
    format: str | None = None  # None: the command's first format
    output: str | None = None

    def __post_init__(self) -> None:
        """Every way in (flags, config file, library call) is checked here, once."""
        hints = typing.get_type_hints(RunConfig)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, hints[f.name]):
                raise UsageError(f"{f.name} must be {f.type} (finite numbers only), "
                                 f"got {value!r}")
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}; known: {', '.join(_COMMANDS)}")
        formats = _COMMANDS[self.command][1]
        if self.format is None:
            self.format = formats[0]
        if self.format not in formats:
            raise UsageError(f"format of {self.command} must be one of {', '.join(formats)}; "
                             f"got {self.format!r}")
        if self.samples < 1:
            raise UsageError(f"samples must be >= 1, got {self.samples}")
        for name in ("nu", "nv"):
            if getattr(self, name) < 2:
                raise UsageError(f"{name} must be >= 2 grid points, got {getattr(self, name)}")
        for name in ("fjet", "gjet"):
            jet = getattr(self, name)
            if jet is not None and len(jet) != 3:
                raise UsageError(f"{name} must be v,d1,d2, got {jet!r}")
        for name in ("u_range", "v_range"):
            span = getattr(self, name)
            if span is not None and not (len(span) == 2 and span[0] < span[1]):
                raise UsageError(f"{name} must be an increasing lo:hi, got {span!r}")
        if not 0.0 < self.step < SHORTEST_ODE_SPAN:
            raise UsageError(f"step must lie in (0, {SHORTEST_ODE_SPAN:g}), the shortest "
                             f"reference ODE span; got {self.step!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def echo_dict(self) -> dict:
        """Config as serialized into reports: the output path itself is not
        part of the verification semantics, so identical runs stay
        byte-identical wherever they are written."""
        data = self.to_dict()
        data.pop("output")
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)


_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def _conforms(value, hint) -> bool:
    """Whether value has the declared type `hint`; floats must also be finite."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(item, args[0]) for item in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items())
    if hint in (int, float) and isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, hint)


def _float_list(sep: str):
    """argparse type for numbers joined by sep; RunConfig checks length and order."""
    def parse(text: str) -> list[float]:
        try:
            return [float(part) for part in text.split(sep)]
        except ValueError:
            raise UsageError(f"expected numbers separated by {sep!r}, got {text!r}") from None
    return parse


def _build_parser() -> _Parser:
    """Flags left unset stay None, so RunConfig's own defaults apply to them."""
    parser = _Parser(prog="ssmin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ssmin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file; overrides flags")
        p.add_argument("--format", choices=_COMMANDS[name][1])
        p.add_argument("--output")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        return p

    def family_flags(p):
        p.add_argument("--family")
        p.add_argument("--branch", choices=("plus", "minus"))
        for name in _PARAM_FLAGS:
            p.add_argument(f"--{name.replace('_', '-')}", dest=f"param_{name}", type=float)

    p_res = command("residual", "evaluate one closed-form minimality residual")
    p_res.add_argument("--case")
    p_res.add_argument("--fjet", type=_float_list(","), help="f jet as v,d1,d2")
    p_res.add_argument("--gjet", type=_float_list(","), help="g jet as v,d1,d2")

    p_ver = command("verify", "verify classified solution families")
    family_flags(p_ver)
    p_ver.add_argument("--all", action="store_true")
    p_ver.add_argument("--tolerance", type=float)
    p_ver.add_argument("--perturb", type=float)

    p_eq = command("equivalence", "check residual vs mean-curvature numerator")
    p_eq.add_argument("--case")
    p_eq.add_argument("--all", action="store_true")
    p_eq.add_argument("--tolerance", type=float)
    p_eq.set_defaults(samples=1000)

    p_ode = command("ode-compare", "RK4 trajectories against closed forms")
    p_ode.add_argument("--step", type=float)
    p_ode.add_argument("--tolerance", type=float)

    p_mesh = command("mesh", "export a surface mesh")
    family_flags(p_mesh)
    p_mesh.add_argument("--nu", type=int)
    p_mesh.add_argument("--nv", type=int)
    p_mesh.add_argument("--u-range", type=_float_list(":"), help="lo:hi")
    p_mesh.add_argument("--v-range", type=_float_list(":"), help="lo:hi")

    p_rep = command("report", "full verification report")
    p_rep.add_argument("--all", action="store_true")
    p_rep.add_argument("--step", type=float)
    p_rep.add_argument("--perturb", type=float)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    values = {key: value for key, value in given.items()
              if key in _CONFIG_FIELDS and value is not None}
    values["params"] = {name: given[f"param_{name}"] for name in _PARAM_FLAGS
                        if given.get(f"param_{name}") is not None}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                override = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from None
        if not isinstance(override, dict):
            raise UsageError(f"config {args.config!r} must hold a JSON object")
        values.update(override)
    return RunConfig.from_dict(values)


def _member(enum, name: str | None, flag: str):
    if name is None:
        raise UsageError(f"--{flag} is required (or use --all)")
    try:
        return enum(name)
    except ValueError:
        raise UsageError(
            f"unknown {flag} {name!r}; known: {', '.join(m.value for m in enum)}"
        ) from None


def _family_from_config(cfg: RunConfig):
    fid = _member(FamilyId, cfg.family, "family")
    if cfg.branch is not None and fid not in BRANCHED_FAMILIES:
        raise UsageError(f"{fid.value} has no +- branch")
    return make_family(fid, branch=cfg.branch or "plus", **cfg.params)


def _record(rec) -> dict:
    """An engine record as serialized: its fields in order, enums by value and
    the verdict as pass/fail."""
    out = {}
    for f in dataclasses.fields(rec):
        value = getattr(rec, f.name)
        if f.name == "verdict":
            value = "pass" if value else "fail"
        elif isinstance(value, Enum):
            value = value.value
        out[f.name] = value
    return out


def _sweeps(cases, n_samples: int, seed: int, tolerance: float | None = None,
            first_tag: int = 0) -> list[EquivalenceRecord]:
    """One equivalence sweep per case, each on child stream first_tag + its index."""
    return [equivalence_sweep(case, n_samples, child_seed(seed, tag), tolerance)
            for tag, case in enumerate(cases, first_tag)]


def _pick(records: list[dict], columns) -> list[dict]:
    """The compact records of a table: only the keys its columns show."""
    return [{key: record[key] for _, key, _ in columns} for record in records]


def _family_summary(records: list[dict]) -> dict:
    n_pass = sum(1 for r in records if r["verdict"] == "pass")
    return {"n_records": len(records), "n_pass": n_pass,
            "n_fail": len(records) - n_pass, "all_pass": n_pass == len(records)}


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_payload(payload: dict, cfg: RunConfig, markdown_renderer=None) -> None:
    if cfg.format == "markdown":
        _emit(markdown_renderer(payload), cfg)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", cfg)


def _emit_records(cfg: RunConfig, engine_records, markdown_renderer,
                  ok: bool = True, **extra) -> int:
    """Emit a single-table command's payload; exit 0 only if every record passes."""
    records = [_record(r) for r in engine_records]
    summary = _family_summary(records)
    payload = {"version": __version__, "command": cfg.command, "config": cfg.echo_dict(),
               "records": records, **extra, "summary": summary}
    _emit_payload(payload, cfg, markdown_renderer)
    return 0 if ok and summary["all_pass"] else 2


def cmd_residual(cfg: RunConfig) -> int:
    case = _member(CaseId, cfg.case, "case")
    if cfg.fjet is None or cfg.gjet is None:
        raise UsageError("residual needs --fjet and --gjet as v,d1,d2")
    value = residual(case, Jet2(*cfg.fjet), Jet2(*cfg.gjet))
    if not math.isfinite(value):
        raise DomainError(f"{case.value} residual is {value!r} at fjet={cfg.fjet}, "
                          f"gjet={cfg.gjet}: the jets overflow")
    payload = {
        "version": __version__,
        "command": "residual",
        "case": case.value,
        "fjet": cfg.fjet,
        "gjet": cfg.gjet,
        "residual": value,
    }
    _emit_payload(payload, cfg)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.all:
        if cfg.params:
            raise UsageError("--all does not take family parameters")
        families = all_default_settings()
    else:
        families = [_family_from_config(cfg)]
    records = [verify_auto(fam, cfg.samples, child_seed(cfg.seed, index),
                           cfg.tolerance, cfg.perturb)
               for index, fam in enumerate(families)]
    return _emit_records(cfg, records, _render_verify_markdown)


def cmd_equivalence(cfg: RunConfig) -> int:
    cases = list(CaseId) if cfg.all else [_member(CaseId, cfg.case, "case")]
    return _emit_records(cfg, _sweeps(cases, cfg.samples, cfg.seed, cfg.tolerance),
                         _render_equivalence_markdown)


def cmd_ode_compare(cfg: RunConfig) -> int:
    records = ode_reference_runs(cfg.step, cfg.tolerance)
    orders = convergence_orders()
    return _emit_records(cfg, records, _render_ode_markdown, all(o.verdict for o in orders),
                         convergence=[_record(o) for o in orders])


def _grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _mesh_box(axis: str, allowed: Interval, box: Interval,
              chosen: list[float] | None) -> Interval:
    if chosen is None:
        return box
    lo, hi = chosen
    if not (allowed.contains(lo) and allowed.contains(hi)):
        raise EmptyDomain(
            f"{axis} range [{lo:g}, {hi:g}] leaves the admissible domain; "
            f"suggested clipped range [{box.lo:.6g}, {box.hi:.6g}]"
        )
    return Interval(lo, hi)


def _tabulated(profile: Profile, xs: list[float]) -> Profile:
    """The profile evaluated once at each grid line xs, served from that table."""
    table = {x: profile.at(x) for x in xs}
    return replace(profile, fn=table.__getitem__)


def cmd_mesh(cfg: RunConfig) -> int:
    built = build(_family_from_config(cfg))  # EmptyDomain propagates as a usage-level failure
    box_u, box_v = built.domain.sampling_box()
    box_u = _mesh_box("u", built.domain.u, box_u, cfg.u_range)
    box_v = _mesh_box("v", built.domain.v, box_v, cfg.v_range)
    us = _grid(box_u.lo, box_u.hi, cfg.nu)
    vs = _grid(box_v.lo, box_v.hi, cfg.nv)
    surface = replace(built.surface, f=_tabulated(built.surface.f, us),
                      g=_tabulated(built.surface.g, vs))
    points = ((u, v, immersion(surface, u, v)) for u in us for v in vs)
    if cfg.format == "csv":
        lines = ["u,v,x,y,z"] + [f"{u:.17g},{v:.17g},{pt.c1:.17g},{pt.c2:.17g},{pt.c3:.17g}"
                                 for u, v, pt in points]
    else:
        lines = [f"v {pt.c1:.17g} {pt.c2:.17g} {pt.c3:.17g}" for _, _, pt in points]
        for i in range(cfg.nu - 1):
            for j in range(cfg.nv - 1):
                base = i * cfg.nv + j + 1
                lines.append(f"f {base} {base + 1} {base + cfg.nv + 1} {base + cfg.nv}")
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def cmd_report(cfg: RunConfig) -> int:
    suites = [(theorem, fam) for theorem, fids in THEOREM_SUITES.items()
              for fid in fids for fam in default_settings(fid)]
    family_records = [
        {"theorem": theorem, **_record(verify_auto(fam, cfg.samples, child_seed(cfg.seed, index),
                                                   cfg.tolerance, cfg.perturb))}
        for index, (theorem, fam) in enumerate(suites)
    ]
    sweeps = _sweeps(list(CaseId), max(cfg.samples, 500), cfg.seed, first_tag=1000)
    eq_records = _pick([_record(r) for r in sweeps], _EQUIVALENCE_COLUMNS)
    ode_records = _pick([_record(r) for r in ode_reference_runs(cfg.step)], _ODE_COLUMNS)
    summary = {"families": _family_summary(family_records),
               "equivalence": _family_summary(eq_records),
               "ode": _family_summary(ode_records)}
    all_pass = all(part["all_pass"] for part in summary.values())
    payload = {
        "version": __version__,
        "command": "report",
        "config": cfg.echo_dict(),
        "records": family_records,
        "equivalence": eq_records,
        "ode": ode_records,
        "summary": {**summary, "all_pass": all_pass},
    }
    _emit_payload(payload, cfg, _render_report_markdown)
    return 0 if all_pass else 2


def _fmt_params(params: dict[str, float]) -> str:
    return ", ".join(f"{k}={v:.6g}" for k, v in sorted(params.items()))


def _fmt_float(x: float | None) -> str:
    return "-" if x is None else f"{x:.3e}"


# One markdown table per record kind: (header, record key, cell format) per column.
_FAMILY_COLUMNS = (
    ("family", "family_id", str), ("branch", "branch", str), ("params", "params", _fmt_params),
    ("mode", "mode", str), ("max abs numerator", "max_abs_numerator", _fmt_float),
    ("max abs residual", "max_abs_residual", _fmt_float), ("verdict", "verdict", str),
)
_EQUIVALENCE_COLUMNS = (
    ("case", "case", str), ("samples", "n_samples", str),
    ("acceptance", "acceptance_rate", "{:.3f}".format),
    ("max rel deviation", "max_rel_deviation", _fmt_float), ("verdict", "verdict", str),
)
_ODE_COLUMNS = (
    ("ode case", "ode_case", str), ("family", "family_id", str), ("profile", "profile", str),
    ("max abs error", "max_abs_error", _fmt_float), ("verdict", "verdict", str),
)
_CONVERGENCE_COLUMNS = (
    ("ode case", "ode_case", str), ("coarse error", "coarse_error", _fmt_float),
    ("fine error", "fine_error", _fmt_float),
    ("observed order", "observed_order", "{:.2f}".format),
)


def _table(records: list[dict], columns) -> list[str]:
    def row(cells):
        return "| " + " | ".join(cells) + " |"
    return [row(header for header, _, _ in columns), "|" + "---|" * len(columns),
            *(row(fmt(r[key]) for _, key, fmt in columns) for r in records)]


def _markdown(payload: dict, *tables) -> str:
    """A command's title followed by its (records, columns) tables."""
    lines = [f"# ssmin {payload['command']} (v{payload['version']})"]
    for records, columns in tables:
        lines += ["", *_table(records, columns)]
    return "\n".join(lines + [""])


def _render_verify_markdown(payload: dict) -> str:
    summary = payload["summary"]
    return (_markdown(payload, (payload["records"], _FAMILY_COLUMNS))
            + f"\n**{summary['n_pass']}/{summary['n_records']} records pass.**\n")


def _render_equivalence_markdown(payload: dict) -> str:
    return _markdown(payload, (payload["records"], _EQUIVALENCE_COLUMNS))


def _render_ode_markdown(payload: dict) -> str:
    return _markdown(payload, (payload["records"], _ODE_COLUMNS),
                     (payload["convergence"], _CONVERGENCE_COLUMNS))


def _render_report_markdown(payload: dict) -> str:
    config = payload["config"]
    lines = [f"# ssmin verification report (v{payload['version']})", "",
             f"- seed: {config['seed']}", f"- samples per family: {config['samples']}", ""]
    for theorem in THEOREM_SUITES:
        rows = [r for r in payload["records"] if r["theorem"] == theorem]
        lines += [f"## Theorem {theorem}", "", *_table(rows, _FAMILY_COLUMNS), ""]
    lines += ["## Minimality equivalence sweeps", "",
              *_table(payload["equivalence"], _EQUIVALENCE_COLUMNS),
              "", "## Reduced-ODE cross-checks", "", *_table(payload["ode"], _ODE_COLUMNS),
              "", "## Summary", ""]
    summary = payload["summary"]
    for part in ("families", "equivalence", "ode"):
        lines.append(f"- {part}: {summary[part]['n_pass']}/{summary[part]['n_records']} pass")
    lines.append(f"- overall: {'PASS' if summary['all_pass'] else 'FAIL'}")
    return "\n".join(lines + [""])


# Every command with its output formats, the first being the default.
_COMMANDS = {
    "residual": (cmd_residual, ("json",)),
    "verify": (cmd_verify, ("json", "markdown")),
    "equivalence": (cmd_equivalence, ("json", "markdown")),
    "ode-compare": (cmd_ode_compare, ("json", "markdown")),
    "mesh": (cmd_mesh, ("obj", "csv")),
    "report": (cmd_report, ("json", "markdown")),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command][0](cfg)
    except UsageError as exc:
        print(f"ssmin: error: {exc}", file=sys.stderr)
        return 1
    except VerifierError as exc:
        print(f"ssmin: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ssmin: io error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
