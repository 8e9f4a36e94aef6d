"""Command-line verification driver.

Exit codes: 0 all checks passed, 1 usage or configuration error, 2 a
verification check failed.  Reports are deterministic for a fixed seed: all
sampling runs on splitmix64 streams and no timing data is serialized.
"""

import marshal
import math
import os
import sys
import types
import typing
from enum import Enum
from functools import partial
from itertools import repeat
from operator import itemgetter

from . import __version__
from .catalog import (
    BRANCHED_FAMILIES,
    Branch,
    FamilyId,
    FamilyReport,
    SHORTEST_ODE_SPAN,
    SHORTEST_ODE_STEP,
    _DEFAULTS,
    all_default_settings,
    build,
    convergence_orders,
    make_family,
    ode_reference_tasks,
    verify_auto,
)
from .errors import DomainError, EmptyDomain, UsageError, VerifierError
from .jets import Interval, Jet2
from .ode import MAX_RK4_STEPS
from .pde import CaseId, EquivalenceRecord, equivalence_sweep, residual
from .sampling import child_seed
from .surface import immersion


_PARAM_FLAGS = sorted({name for defaults in _DEFAULTS.values() for name in defaults})

# Most vertices a mesh may have.  The export writes one grid line at a time, so
# its memory does not grow with the mesh; the cap bounds its time and output
# instead.  At up to 1.0 us and 101 bytes per vertex (1024 x 1024 F2_51: obj
# 0.98 us and 92 bytes, csv 0.76 us and 101 bytes; 2-vCPU x86-64 VM, Python
# 3.11), a mesh at the cap takes about 4 s and writes about 420 MB.
MAX_MESH_VERTICES = 2 ** 22

# Most samples a check may draw: a time bound.  report --all draws them for each
# of its 38 family checks and 7 equivalence sweeps, at about 0.046 ms per sample
# on the machine above (0.37 s at --samples 8000, median of five); a report at the
# cap took 48 s, where --samples 1000000000 would run for about 13 hours.
MAX_SAMPLES = 2 ** 20

# Fewest samples per equivalence sweep in `report`.  Its --samples counts the
# samples of each family check, one family setting each, while a sweep covers a
# whole case's jet box, so a small --samples (a quick `--samples 3` run) does
# not thin the sweeps.  At 500 the seven sweeps took 8.8 ms in one process on
# the machine above, against 19.6 ms for the 38 family checks at the default
# 200 (best of seven and of five runs).
REPORT_SWEEP_SAMPLES = 500


class _RunFields(typing.NamedTuple):
    command: str
    family: str | None = None
    params: dict[str, float] = {}  # RunConfig copies it: no two configs share one
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


# Each field's type, for the check, and as written, for its message: a class by
# its name ("int"), a generic or union by its repr ("list[float] | None").
_HINTS = _RunFields.__annotations__
_TYPE_TEXT = {name: hint.__name__ if typing.get_origin(hint) is None else repr(hint)
              for name, hint in _HINTS.items()}


class RunConfig(_RunFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        """Every way in (flags, config file, library call) is checked here, once,
        and takes its defaults here."""
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not _conforms(value, _HINTS[name]):
                raise UsageError(f"{name} must be {_TYPE_TEXT[name]} (finite numbers only), "
                                 f"got {value!r}")
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}; known: {', '.join(_COMMANDS)}")
        if (self.command == "equivalence" and "samples" not in kwargs
                and len(args) <= self._fields.index("samples")):
            # not given: 1000, not 200, as a sweep covers a case's whole jet box
            return cls(*args, **kwargs, samples=1000)
        _, formats, reads, _ = _COMMANDS[self.command]
        for name, default in _SETTINGS.items():
            if name not in reads and getattr(self, name) != default:
                raise UsageError(f"{self.command} does not read {name}; "
                                 f"got {getattr(self, name)!r}")
        fmt = formats[0] if self.format is None else self.format
        if fmt not in formats:
            raise UsageError(f"format of {self.command} must be one of {', '.join(formats)}; "
                             f"got {fmt!r}")
        if self.output == "":
            raise UsageError("output must name a file, or - for stdout; got ''")
        if self.command == "report" and not self.all:
            raise UsageError("report covers every family; pass --all")
        if self.samples < 1:
            raise UsageError(f"samples must be >= 1, got {self.samples}")
        if self.samples > MAX_SAMPLES:
            raise UsageError(f"samples must be at most {MAX_SAMPLES:,}, got {self.samples:,}")
        if self.tolerance is not None and self.tolerance < 0:
            raise UsageError(f"tolerance must be >= 0, got {self.tolerance!r}")
        if self.branch is not None and self.branch not in _BRANCHES:
            raise UsageError(f"branch must be one of {', '.join(_BRANCHES)}; "
                             f"got {self.branch!r}")
        for name in ("nu", "nv"):
            if getattr(self, name) < 2:
                raise UsageError(f"{name} must be >= 2 grid points, got {getattr(self, name)}")
        if self.nu * self.nv > MAX_MESH_VERTICES:
            raise UsageError(f"nu * nv must be at most {MAX_MESH_VERTICES:,} vertices, "
                             f"got {self.nu} * {self.nv} = {self.nu * self.nv:,}")
        for name in ("fjet", "gjet"):
            jet = getattr(self, name)
            if jet is not None and len(jet) != 3:
                raise UsageError(f"{name} must be v,d1,d2, got {jet!r}")
        for name in ("u_range", "v_range"):
            span = getattr(self, name)
            if span is not None and not (len(span) == 2 and span[0] < span[1]):
                raise UsageError(f"{name} must be an increasing lo:hi, got {span!r}")
            if span is not None and not math.isfinite(span[1] - span[0]):
                raise UsageError(f"{name} must have a finite width hi - lo, got {span!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise UsageError(f"seed must lie in [0, 2^64), got {self.seed}")
        if not SHORTEST_ODE_STEP <= self.step < SHORTEST_ODE_SPAN:
            raise UsageError(f"step must lie in [{SHORTEST_ODE_STEP:g}, {SHORTEST_ODE_SPAN:g}), "
                             f"so that every reference ODE run takes from 1 to "
                             f"{MAX_RK4_STEPS:,} RK4 steps; got {self.step!r}")
        if self.all:
            if self.params:
                raise UsageError("--all does not take family parameters")
            for name in ("family", "branch", "case"):
                if getattr(self, name) is not None:
                    raise UsageError(f"--all does not take a {name}, "
                                     f"got {getattr(self, name)!r}")
        return super().__new__(cls, **{**self._asdict(), "params": dict(self.params),
                                       "format": fmt})

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    def echo_dict(self) -> dict:
        """Config as serialized into reports: the output path itself is not
        part of the verification semantics, so identical runs stay
        byte-identical wherever they are written."""
        data = self._asdict()
        data.pop("output")
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)


_CONFIG_FIELDS = frozenset(RunConfig._fields)
# Each setting with its default, in field order: every field but command, format
# and output, which all commands read.  _COMMANDS says which commands read each.
_SETTINGS = {name: default for name, default in RunConfig._field_defaults.items()
             if name not in ("format", "output")}
_BRANCHES = tuple(b.value for b in Branch)


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
    """Flag type for numbers joined by sep; RunConfig checks length and order."""
    def parse(text: str) -> list[float]:
        try:
            return [float(part) for part in text.split(sep)]
        except ValueError:
            raise UsageError(f"expected numbers separated by {sep!r}, got {text!r}") from None
    return parse


# The keywords of each setting's flag, by argparse's names: the tests check the
# argvs that `_parse` accepts against argparse.  "params" has none of its own: one
# float flag per family parameter.
_FLAGS = {
    "family": {}, "branch": {"choices": _BRANCHES}, "case": {},
    "all": {"action": "store_true", "default": False},
    "fjet": {"type": _float_list(","), "help": "f jet as v,d1,d2"},
    "gjet": {"type": _float_list(","), "help": "g jet as v,d1,d2"},
    "samples": {"type": int}, "seed": {"type": int}, "nu": {"type": int}, "nv": {"type": int},
    "tolerance": {"type": float}, "perturb": {"type": float}, "step": {"type": float},
    "u_range": {"type": _float_list(":"), "help": "lo:hi"},
    "v_range": {"type": _float_list(":"), "help": "lo:hi"},
}


def _flag_table(command: str) -> dict[str, dict]:
    """The argparse keywords of each flag of a command, dest and default
    included, in the order its help lists them: --config, --format and
    --output, then the flags of the settings it reads."""
    _, formats, reads, _ = _COMMANDS[command]
    table = {"--config": {"dest": "config", "help": "JSON config file; overrides flags"},
             "--format": {"dest": "format", "choices": formats},
             "--output": {"dest": "output"}}
    for name in _SETTINGS:
        if name == "params" and name in reads:
            for param in _PARAM_FLAGS:
                table[f"--{param.replace('_', '-')}"] = {"dest": f"param_{param}", "type": float}
        elif name in reads:
            table[f"--{name.replace('_', '-')}"] = {"dest": name, **_FLAGS[name]}
    return table


# The options of `ssmin` itself.  A command takes "-h", "--help" and its flags.
_HELP = {"action": "help", "help": "show this help and exit"}
_TOP = {"-h": _HELP, "--help": _HELP,
        "--version": {"action": "version", "version": f"ssmin {__version__}\n"}}


def _config_from_args(given: dict) -> RunConfig:
    values = {key: value for key, value in given.items()
              if key in _CONFIG_FIELDS and value is not None}
    values["params"] = {name: given[f"param_{name}"] for name in _PARAM_FLAGS
                        if given.get(f"param_{name}") is not None}
    path, command = given["config"], given["command"]
    if path is not None:
        import json  # only a config file or a JSON report needs it
        try:
            with open(path, "r", encoding="utf-8") as fh:
                override = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and bytes that are not UTF-8;
            # JSON nested past the interpreter's recursion limit raises RecursionError
            raise UsageError(f"cannot read config {path!r}: {exc}") from None
        if not isinstance(override, dict):
            raise UsageError(f"config {path!r} must hold a JSON object")
        if (other := override.get("command", command)) != command:
            raise UsageError(f"config {path!r} is for command {other!r}, not {command}")
        values.update(override)
    return RunConfig.from_dict(values)


def _member(enum, cfg: RunConfig, flag: str):
    name = getattr(cfg, flag)
    if name is None:
        alternative = " (or use --all)" if "all" in _COMMANDS[cfg.command][2] else ""
        raise UsageError(f"--{flag} is required{alternative}")
    try:
        return enum(name)
    except ValueError:
        raise UsageError(
            f"unknown {flag} {name!r}; known: {', '.join(m.value for m in enum)}"
        ) from None


def _family_from_config(cfg: RunConfig):
    fid = _member(FamilyId, cfg, "family")
    if cfg.branch is not None and fid not in BRANCHED_FAMILIES:
        raise UsageError(f"{fid.value} has no +- branch")
    return make_family(fid, branch=cfg.branch or "plus", **cfg.params)


def _record(rec) -> dict:
    """An engine record as serialized: its fields in order, enums by value and
    the verdict as pass/fail."""
    out = {}
    for name, value in zip(rec._fields, rec):
        if name == "verdict":
            value = "pass" if value else "fail"
        elif isinstance(value, Enum):
            value = value.value
        out[name] = value
    return out


def _recorded(tasks: list) -> list:
    """Each task made to return its engine record as serialized (`_record`)."""
    return [lambda task=task: _record(task()) for task in tasks]


def _start_on(cpu: int, cpus: set[int]) -> None:
    """Move this process onto `cpu`, then let it run on all of `cpus` again.

    A forked child starts on its parent's CPU, and the scheduler may leave it
    there for tens of milliseconds, so that the two share one CPU; once moved
    apart, the scheduler leaves them apart.  A refused call (OSError) leaves
    the process where it is."""
    for mask in ({cpu}, cpus):
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pass


def _on_two_cpus(tasks: list) -> list:
    """The results of the zero-argument `tasks`, in task order.

    Where this process may run on two CPUs, can fork and runs no other thread, a
    child made with `os.fork` runs the odd-indexed tasks while this process runs
    the even-indexed ones.  Right after the fork this process moves to the
    lowest of its CPUs and the child to the highest (`_start_on`).  The child
    sends back its results through a pipe with `marshal`, so each result must be
    a value `marshal` writes, as the dicts of `_record` are.  Whatever keeps the
    split from delivering every result (a refused fork, a task that raises in
    either process, a child that ends without sending them), every task runs in
    this process, one after another, which is also what happens where there is
    no split.  The tasks are seeded and pure, so the output, the first error in
    task order and the exit code are those of one process.  A `BaseException`
    that is not an `Exception` in this process's share, as a Ctrl-C, propagates
    once the child is reaped, and nothing runs again.  The child writes nothing
    to stdout or stderr, always ends in `os._exit`, and is always reaped.  (A
    forked child has only the forking thread, and a lock another thread held
    stays locked in it, hence no fork beside other threads.)"""
    threading = sys.modules.get("threading")
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if (len(tasks) < 2 or not hasattr(os, "fork") or len(cpus) < 2
            or threading is not None and threading.active_count() > 1):
        return [task() for task in tasks]
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # refused, as at a process limit (EAGAIN): all tasks here
        os.close(read_end)
        os.close(write_end)
        return [task() for task in tasks]
    if pid == 0:  # the child: its share, then out, past the parent's cleanup
        code = 1
        try:
            _start_on(max(cpus), cpus)
            os.close(read_end)
            blob = marshal.dumps([task() for task in tasks[1::2]])
            with open(write_end, "wb") as pipe:
                pipe.write(blob)
            code = 0
        finally:
            os._exit(code)
    try:
        _start_on(min(cpus), cpus)
        os.close(write_end)
        mine = [task() for task in tasks[::2]]
        with open(read_end, "rb", closefd=False) as pipe:
            blob = pipe.read()
    except Exception:  # the split failed: every task runs here, below
        blob = b""
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    if status != 0 or not blob:  # a task that ends the child with code 0 sends nothing
        return [task() for task in tasks]
    results = [None] * len(tasks)
    results[::2], results[1::2] = mine, marshal.loads(blob)
    return results


def _checks(families, cfg: RunConfig) -> list[typing.Callable[[], FamilyReport]]:
    """One family check task per family, the i-th on child stream i."""
    return [partial(verify_auto, fam, cfg.samples, child_seed(cfg.seed, index), cfg.tolerance,
                    cfg.perturb)
            for index, fam in enumerate(families)]


def _sweeps(cases, n_samples: int, seed: int, tolerance: float | None = None,
            first_tag: int = 0) -> list[typing.Callable[[], EquivalenceRecord]]:
    """One equivalence sweep task per case, each on child stream first_tag + its index."""
    return [partial(equivalence_sweep, case, n_samples, child_seed(seed, tag), tolerance)
            for tag, case in enumerate(cases, first_tag)]


def _family_summary(records: list[dict]) -> dict:
    n_pass = sum(1 for r in records if r["verdict"] == "pass")
    return {"n_records": len(records), "n_pass": n_pass,
            "n_fail": len(records) - n_pass, "all_pass": n_pass == len(records)}


def _write(chunks, cfg: RunConfig) -> None:
    """Write each chunk of text as it comes, to the --output file, or to stdout
    where --output is unset or "-".

    A reader that closes stdout early (`| head`) ends the output, not the
    command, which still exits with its own code.  The rest of stdout goes to
    devnull, so that the interpreter's final flush cannot fail again."""
    if cfg.output not in (None, "-"):
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def _emit_payload(payload: dict, cfg: RunConfig, markdown_renderer=None) -> None:
    """Every renderer's text, like the JSON's, ends in a newline."""
    if cfg.format == "markdown":
        _write([markdown_renderer(payload)], cfg)
    else:
        import json
        _write([json.dumps(payload, indent=2) + "\n"], cfg)


def _sections(**lists) -> dict:
    """The summary of a command with several record lists: one `_family_summary`
    per list, by its name, then whether every list passes."""
    summary = {name: _family_summary(records) for name, records in lists.items()}
    return {**summary, "all_pass": all(part["all_pass"] for part in summary.values())}


def _emit_records(cfg: RunConfig, markdown_renderer, summary: dict, **lists) -> int:
    """Emit a command's payload: its serialized record lists (`_record`) in order,
    then their `summary`; exit 0 exactly when the summary says all pass."""
    payload = {"version": __version__, "command": cfg.command, "config": cfg.echo_dict(),
               **lists, "summary": summary}
    _emit_payload(payload, cfg, markdown_renderer)
    return 0 if summary["all_pass"] else 2


def cmd_residual(cfg: RunConfig) -> int:
    case = _member(CaseId, cfg, "case")
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
    families = all_default_settings() if cfg.all else [_family_from_config(cfg)]
    records = [_record(check()) for check in _checks(families, cfg)]
    return _emit_records(cfg, _render_verify_markdown, _family_summary(records), records=records)


def cmd_equivalence(cfg: RunConfig) -> int:
    cases = list(CaseId) if cfg.all else [_member(CaseId, cfg, "case")]
    records = _on_two_cpus(_recorded(_sweeps(cases, cfg.samples, cfg.seed, cfg.tolerance)))
    return _emit_records(cfg, _render_equivalence_markdown, _family_summary(records),
                         records=records)


def cmd_ode_compare(cfg: RunConfig) -> int:
    records = [_record(run()) for run in ode_reference_tasks(cfg.step, cfg.tolerance)]
    convergence = [_record(o) for o in convergence_orders()]
    return _emit_records(cfg, _render_ode_markdown,
                         _sections(records=records, convergence=convergence),
                         records=records, convergence=convergence)


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


def _grid(axis: str, box: Interval, n: int) -> list[float]:
    """n evenly spaced grid lines from box.lo to box.hi.  The last is box.hi itself:
    lo + (hi - lo) * (n - 1) / (n - 1) can round one ulp past it."""
    lo, hi = box.lo, box.hi
    if not math.isfinite((hi - lo) * (n - 1)):
        raise DomainError(f"{axis} range [{lo!r}, {hi!r}] is too wide for {n} grid lines: "
                          f"(hi - lo) * {n - 1} overflows; narrow it with --{axis}-range")
    return [*(lo + (hi - lo) * i / (n - 1) for i in range(n - 1)), hi]


def _require_finite_heights(us: list[float], fs: list[float],
                            vs: list[float], gs: list[float]) -> None:
    """Raise at the first (u, v) whose height f(u) + g(v) overflows.  Every f(u)
    and g(v) is finite, so a finite max|f| + max|g| bounds every sum."""
    if math.isfinite(max(map(abs, fs)) + max(map(abs, gs))):
        return
    for u, fu in zip(us, fs):
        for v, gv in zip(vs, gs):
            if not math.isfinite(fu + gv):
                raise DomainError(f"height f(u) + g(v) = {fu + gv!r} at u={u!r}, v={v!r}: "
                                  f"f(u)={fu!r} and g(v)={gv!r} overflow when summed")


def cmd_mesh(cfg: RunConfig) -> int:
    """Each profile is evaluated and each grid coordinate formatted once per grid
    line.  The text is written as it is made, one u line (then one row of OBJ
    faces) at a time, so memory stays at one grid line; heights that overflow
    fail before anything is written, so no --output file is made."""
    built = build(_family_from_config(cfg))  # EmptyDomain propagates as a usage-level failure
    box_u, box_v = built.domain.sampling_box()
    box_u = _mesh_box("u", built.domain.u, box_u, cfg.u_range)
    box_v = _mesh_box("v", built.domain.v, box_v, cfg.v_range)
    us = _grid("u", box_u, cfg.nu)
    vs = _grid("v", box_v, cfg.nv)
    fs = [built.surface.f.at(u).v for u in us]
    gs = [built.surface.g.at(v).v for v in vs]
    _require_finite_heights(us, fs, vs, gs)
    _write(_mesh_chunks(cfg, built.surface.ttype, us, fs, vs, gs), cfg)
    return 0


def _mesh_chunks(cfg: RunConfig, ttype, us: list[float], fs: list[float],
                 vs: list[float], gs: list[float]):
    """The mesh text, one u line (then one row of OBJ faces) at a time.

    One line template per mesh holds the v texts, a "\\0" for the u text and a
    %.17g for each height, in the slot order of `immersion`; it is split at the
    "\\0"s once, and a u line is its pieces joined by the u text, with its nv
    heights f(u) + g(v) formatted in one `%`.  A row of OBJ faces is one join
    of the vertex numbers of the two u lines it lies between."""
    v_text = [f"{v:.17g}" for v in vs]  # "%.17g" % x is f"{x:.17g}" for every float
    xyz = immersion(ttype, repeat("\0"), v_text, repeat("%.17g"))
    if cfg.format == "csv":
        yield "u,v,x,y,z\n"
        template = "".join(",".join(fields) + "\n"
                           for fields in zip(repeat("\0"), v_text, *xyz))
    else:
        template = "".join(" ".join(fields) + "\n" for fields in zip(repeat("v"), *xyz))
    pieces = template.split("\0")
    for u, fu in zip(us, fs):
        yield f"{u:.17g}".join(pieces) % tuple(map(fu.__add__, gs))
    if cfg.format == "obj":
        nv = cfg.nv
        # the face at 1-based vertex b of a u line has corners b, b + 1, b + nv + 1
        # and b + nv.  A row of faces picks "f", its corners and "\n" from
        # ["f", "\n", *below, *above], where k = 2 + the face's index on the line;
        # each line's vertex numbers are formatted once, for both rows of faces it
        # borders, with the space that precedes them
        row = itemgetter(*[slot for k in range(2, nv + 1)
                           for slot in (0, k, k + 1, k + nv + 1, k + nv, 1)])
        below = [f" {b}" for b in range(1, nv + 1)]
        for first in range(1 + nv, cfg.nu * nv, nv):  # the first vertex of the next u line
            above = [f" {b}" for b in range(first, first + nv)]
            yield "".join(row(["f", "\n", *below, *above]))
            below = above


def cmd_report(cfg: RunConfig) -> int:
    """The family checks of `verify --all`, equivalence sweeps and ODE runs are
    one task list, in that order, run by one `_on_two_cpus` call that returns
    their serialized records."""
    checks = _checks(all_default_settings(), cfg)
    sweeps = _sweeps(list(CaseId), max(cfg.samples, REPORT_SWEEP_SAMPLES), cfg.seed,
                     first_tag=1000)
    results = _on_two_cpus(_recorded([*checks, *sweeps, *ode_reference_tasks(cfg.step)]))
    first_ode = len(checks) + len(sweeps)
    family_records, eq_records = results[:len(checks)], results[len(checks):first_ode]
    ode_records = results[first_ode:]
    return _emit_records(cfg, _render_report_markdown,
                         _sections(families=family_records, equivalence=eq_records,
                                   ode=ode_records),
                         records=family_records, equivalence=eq_records, ode=ode_records)


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
    for theorem in dict.fromkeys(r["theorem"] for r in payload["records"]):
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


# Every command: its handler, its output formats (the first is the default), the
# settings it reads, which are its flags and the only settings it accepts other
# than their defaults, and its help.
_COMMANDS = {
    "residual": (cmd_residual, ("json",), frozenset("case fjet gjet".split()),
                 "evaluate one closed-form minimality residual"),
    "verify": (cmd_verify, ("json", "markdown"),
               frozenset("family params branch all samples seed tolerance perturb".split()),
               "verify classified solution families"),
    "equivalence": (cmd_equivalence, ("json", "markdown"),
                    frozenset("case all samples seed tolerance".split()),
                    "check residual vs mean-curvature numerator"),
    "ode-compare": (cmd_ode_compare, ("json", "markdown"), frozenset("step tolerance".split()),
                    "RK4 trajectories against closed forms"),
    "mesh": (cmd_mesh, ("obj", "csv"),
             frozenset("family params branch nu nv u_range v_range".split()),
             "export a surface mesh"),
    "report": (cmd_report, ("json", "markdown"),
               frozenset("all samples seed step perturb".split()), "full verification report"),
}


def _parse(argv: list[str]) -> dict | str:
    """argv read word by word: each flag's dest with its value or default, or the
    help or version text asked for.  `ssmin` takes -h/--help, --version or a
    command first; a command takes -h/--help and its own flags.  A flag is written
    in full or cut to a unique prefix, and its value is the text after "=", or
    else the next word unless that word opens with "--".  The first word that
    breaks this is refused."""
    command, table, values = None, _TOP, {"command": None}
    words = iter(argv)
    for word in words:
        flag, eq, text = word.partition("=")
        # a long flag may be cut to a unique prefix; "--" alone is no prefix
        matches = [flag] if flag in table else [
            name for name in table if flag[2:] and flag[:2] == "--" and name.startswith(flag)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {word} could match {', '.join(matches)}")
        if not matches:
            if command is not None or word[:1] == "-":
                raise UsageError(f"unrecognized arguments: {word}")
            if word not in _COMMANDS:
                raise UsageError(f"argument command: invalid choice: {word!r} "
                                 f"(choose from {', '.join(map(repr, _COMMANDS))})")
            command, table = word, {"-h": _HELP, "--help": _HELP, **_flag_table(word)}
            values.update({keywords["dest"]: keywords.get("default")
                           for keywords in table.values() if "dest" in keywords}, command=word)
            continue
        flag, keywords = matches[0], table[matches[0]]
        if "action" in keywords:  # help, version or store_true: no value
            if eq:
                flag = "-h/--help" if keywords is _HELP else flag
                raise UsageError(f"argument {flag}: ignored explicit argument {text!r}")
            if keywords["action"] != "store_true":  # help or version
                return _help(command) if keywords is _HELP else keywords["version"]
            values[keywords["dest"]] = True
            continue
        if not eq:
            text = next(words, "--")  # argv's end, like a flag, leaves no value
            if text[:2] == "--":
                raise UsageError(f"argument {flag}: expected one argument")
        kind, choices = keywords.get("type", str), keywords.get("choices")
        try:
            value = kind(text)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None
        if choices is not None and value not in choices:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        values[keywords["dest"]] = value
    if command is None:
        raise UsageError("the following arguments are required: command")
    return values


def _help(command: str | None) -> str:
    """A usage line and the help of `ssmin` (command None) or of a command, then a
    line per command or flag, with its value name or {choices} and help, unwrapped."""
    if command is None:
        text = f"usage: ssmin [-h] [--version] COMMAND [FLAG ...]\n\n{__doc__}\ncommands:\n"
        rows = [(name, help) for name, (*_, help) in _COMMANDS.items()]
    else:
        text = f"usage: ssmin {command} [FLAG ...]\n\n{_COMMANDS[command][3]}\n\nflags:\n"
        rows = [("-h, --help", _HELP["help"])]
        for flag, keywords in _flag_table(command).items():
            value = ("{%s}" % ",".join(keywords["choices"]) if "choices" in keywords
                     else "" if "action" in keywords else flag[2:].upper().replace("-", "_"))
            rows.append((f"{flag} {value}".rstrip(), keywords.get("help", "")))
    width = max(len(left) for left, _ in rows) + 2
    return text + "".join(f"  {left:{width}}{right}".rstrip() + "\n" for left, right in rows)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if isinstance(args, str):  # help or version
            sys.stdout.write(args)
            return 0
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
