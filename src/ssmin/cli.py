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

from . import __version__
from .catalog import (
    BRANCHED_FAMILIES,
    FamilyId,
    FamilyReport,
    SHORTEST_ODE_SPAN,
    THEOREM_SUITES,
    _DEFAULTS,
    _assemble,
    all_default_settings,
    build,
    default_settings,
    make_family,
    ode_reference_runs,
    verify_auto,
)
from .errors import EmptyDomain, VerifierError
from .jets import Interval, Jet2, Profile
from .ode import OdeCase, OdeId, compare_profile, integrate
from .pde import CaseId, equivalence_sweep, residual
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
    format: str = "json"
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
        if self.samples < 1:
            raise UsageError(f"samples must be >= 1, got {self.samples}")
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

    def command(name, help, fmt=("json", "markdown")):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file; overrides flags")
        p.add_argument("--format", choices=fmt, default=fmt[0])
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

    p_mesh = command("mesh", "export a surface mesh", fmt=("obj", "csv"))
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


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _report_record(rep: FamilyReport, theorem: str | None = None) -> dict:
    record = {
        "family_id": rep.family_id,
        "branch": rep.branch,
        "params": rep.params,
        "n_samples": rep.n_samples,
        "mode": rep.mode,
        "max_abs_numerator": rep.max_abs_numerator,
        "max_abs_residual": rep.max_abs_residual,
        "tolerance": rep.tolerance,
        "verdict": _verdict(rep.verdict),
        "empty_reason": rep.empty_reason,
    }
    if theorem is not None:
        record = {"theorem": theorem, **record}
    return record


def _equivalence_records(cases, n_samples: int, seed: int, tol: float,
                         first_tag: int = 0) -> list[dict]:
    records = []
    for tag, case in enumerate(cases, first_tag):
        rec = equivalence_sweep(case, n_samples, child_seed(seed, tag))
        records.append({
            "case": case.value,
            "n_samples": rec.n_samples,
            "attempts": rec.attempts,
            "acceptance_rate": rec.acceptance_rate,
            "max_rel_deviation": rec.max_rel_deviation,
            "tolerance": tol,
            "verdict": _verdict(rec.max_rel_deviation <= tol),
        })
    return records


def _ode_records(step: float, tol: float) -> list[dict]:
    return [{
        "ode_case": rec.ode_case,
        "family_id": rec.family_id,
        "profile": rec.which,
        "t_span": list(rec.t_span),
        "step": rec.step,
        "max_abs_error": rec.max_abs_error,
        "tolerance": tol,
        "verdict": _verdict(rec.max_abs_error <= tol),
    } for rec in ode_reference_runs(step)]


def _pick(records: list[dict], *keys: str) -> list[dict]:
    return [{key: record[key] for key in keys} for record in records]


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
    if cfg.format == "markdown" and markdown_renderer is not None:
        _emit(markdown_renderer(payload), cfg)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", cfg)


def _emit_records(cfg: RunConfig, records: list[dict], markdown_renderer,
                  ok: bool = True, **extra) -> int:
    """Emit a single-table command's payload; exit 0 only if every record passes."""
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
    records = [_report_record(verify_auto(fam, cfg.samples, child_seed(cfg.seed, index),
                                          cfg.tolerance, cfg.perturb))
               for index, fam in enumerate(families)]
    return _emit_records(cfg, records, _render_verify_markdown)


def cmd_equivalence(cfg: RunConfig) -> int:
    cases = list(CaseId) if cfg.all else [_member(CaseId, cfg.case, "case")]
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-10
    records = _equivalence_records(cases, cfg.samples, cfg.seed, tol)
    return _emit_records(cfg, records, _render_equivalence_markdown)


_ORDER_PROBES = (
    (OdeCase.of(OdeId.O2_21, c3=0.0), FamilyId.F2_23, "f", (0.0, 0.6)),
    (OdeCase.of(OdeId.O3_37F, c0=1.0), FamilyId.F3_38, "f", (0.0, 1.0)),
)


def _convergence_orders(coarse: float = 0.02) -> list[dict]:
    out = []
    for case, fid, which, span in _ORDER_PROBES:
        asm = _assemble(make_family(fid))
        profile = asm.f if which == "f" else asm.g
        h0 = profile.at(span[0]).d1
        errs = []
        for step in (coarse, coarse / 2.0):
            traj = integrate(case, h0, span, step)
            errs.append(compare_profile(traj, profile))
        order = math.log2(errs[0] / errs[1]) if errs[1] > 0.0 else float("inf")
        out.append({"ode_case": case.kind.value, "coarse_step": coarse,
                    "coarse_error": errs[0], "fine_error": errs[1],
                    "observed_order": order})
    return out


def cmd_ode_compare(cfg: RunConfig) -> int:
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-6
    records = _ode_records(cfg.step, tol)
    orders = _convergence_orders()
    return _emit_records(cfg, records, _render_ode_markdown,
                         all(o["observed_order"] >= 3.8 for o in orders), convergence=orders)


def _grid(lo: float, hi: float, n: int) -> list[float]:
    if n < 2:
        raise UsageError("grid needs at least 2 points per axis")
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
        _report_record(verify_auto(fam, cfg.samples, child_seed(cfg.seed, index),
                                   cfg.tolerance, cfg.perturb), theorem)
        for index, (theorem, fam) in enumerate(suites)
    ]
    eq_records = _pick(
        _equivalence_records(list(CaseId), max(cfg.samples, 500), cfg.seed, 1e-10, 1000),
        "case", "n_samples", "acceptance_rate", "max_rel_deviation", "verdict")
    ode_records = _pick(_ode_records(cfg.step, 1e-6),
                        "ode_case", "family_id", "profile", "max_abs_error", "verdict")
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


def _family_table(records: list[dict]) -> list[str]:
    lines = [
        "| family | branch | params | mode | max abs numerator | max abs residual | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in records:
        lines.append(
            f"| {r['family_id']} | {r['branch']} | {_fmt_params(r['params'])} "
            f"| {r['mode']} | {_fmt_float(r['max_abs_numerator'])} "
            f"| {_fmt_float(r['max_abs_residual'])} | {r['verdict']} |"
        )
    return lines


def _equivalence_table(records: list[dict]) -> list[str]:
    lines = [
        "| case | samples | acceptance | max rel deviation | verdict |",
        "|---|---|---|---|---|",
    ]
    for r in records:
        lines.append(
            f"| {r['case']} | {r['n_samples']} | {r['acceptance_rate']:.3f} "
            f"| {_fmt_float(r['max_rel_deviation'])} | {r['verdict']} |"
        )
    return lines


def _ode_table(records: list[dict]) -> list[str]:
    lines = [
        "| ode case | family | profile | max abs error | verdict |",
        "|---|---|---|---|---|",
    ]
    for r in records:
        lines.append(
            f"| {r['ode_case']} | {r['family_id']} | {r['profile']} "
            f"| {_fmt_float(r['max_abs_error'])} | {r['verdict']} |"
        )
    return lines


def _render_verify_markdown(payload: dict) -> str:
    lines = [f"# ssmin verify (v{payload['version']})", ""]
    lines += _family_table(payload["records"])
    summary = payload["summary"]
    lines += ["", f"**{summary['n_pass']}/{summary['n_records']} records pass.**", ""]
    return "\n".join(lines)


def _render_equivalence_markdown(payload: dict) -> str:
    lines = [f"# ssmin equivalence (v{payload['version']})", ""]
    return "\n".join(lines + _equivalence_table(payload["records"]) + [""])


def _render_ode_markdown(payload: dict) -> str:
    lines = [f"# ssmin ode-compare (v{payload['version']})", ""]
    lines += _ode_table(payload["records"])
    lines += ["", "| ode case | coarse error | fine error | observed order |", "|---|---|---|---|"]
    for o in payload["convergence"]:
        lines.append(
            f"| {o['ode_case']} | {_fmt_float(o['coarse_error'])} "
            f"| {_fmt_float(o['fine_error'])} | {o['observed_order']:.2f} |"
        )
    return "\n".join(lines + [""])


def _render_report_markdown(payload: dict) -> str:
    config = payload["config"]
    lines = [f"# ssmin verification report (v{payload['version']})", "",
             f"- seed: {config['seed']}", f"- samples per family: {config['samples']}", ""]
    for theorem in THEOREM_SUITES:
        rows = [r for r in payload["records"] if r["theorem"] == theorem]
        lines += [f"## Theorem {theorem}", "", *_family_table(rows), ""]
    lines += ["## Minimality equivalence sweeps", "", *_equivalence_table(payload["equivalence"]),
              "", "## Reduced-ODE cross-checks", "", *_ode_table(payload["ode"]),
              "", "## Summary", ""]
    summary = payload["summary"]
    for part in ("families", "equivalence", "ode"):
        lines.append(f"- {part}: {summary[part]['n_pass']}/{summary[part]['n_records']} pass")
    lines.append(f"- overall: {'PASS' if summary['all_pass'] else 'FAIL'}")
    return "\n".join(lines + [""])


_COMMANDS = {
    "residual": cmd_residual,
    "verify": cmd_verify,
    "equivalence": cmd_equivalence,
    "ode-compare": cmd_ode_compare,
    "mesh": cmd_mesh,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
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
