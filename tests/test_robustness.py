"""Every input ends in exit 0, 1 or 2; the library raises only VerifierError.

The argv and config fuzz is built from the CLI's own tables (`_COMMANDS`,
`_FLAGS`, `_PARAM_FLAGS`, the `RunConfig` fields), so a new command, setting
or family parameter is fuzzed with no edit here.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile
import types

from hypothesis import example, given, settings, strategies as st

import _parser
from ssmin import catalog, cli
from ssmin.catalog import Branch, FamilyId
from ssmin.errors import VerifierError
from ssmin.jets import Jet2
from ssmin.ode import OdeCase, OdeId, Trajectory, integrate
from ssmin.pde import CaseId, residual

EXTREME_FLOATS = (0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
                  math.inf, -math.inf, math.nan)
# Sizes stay small so that a command which runs ends in milliseconds; the huge
# ones must be refused before anything runs.
INTS = (-1, 0, 1, 2, 3, 5, 2 ** 64, -10 ** 30)
NAMES = tuple(m.value for ids in (FamilyId, CaseId, Branch) for m in ids) + ("nope", "")
OUTPUTS = ("out.txt", "missing/out.txt")  # relative to a fresh directory

floats = st.sampled_from((-1.0, 0.5, 1.0, 3.0)) | st.sampled_from(EXTREME_FLOATS)
ints = st.sampled_from(INTS)
names = st.sampled_from(NAMES)


def _words(values):
    """A flag's value as one argv word."""
    return values.map(lambda value: [str(value)])


def _flag_values(keywords: dict):
    """The argv words after a flag declared with these argparse keywords."""
    if keywords.get("action") == "store_true":
        return st.just([])
    if "choices" in keywords:
        return _words(st.sampled_from(keywords["choices"]))
    kind = keywords.get("type")
    if kind is int:
        return _words(st.sampled_from((*INTS, 1.5, math.nan)))
    if kind is float:
        return _words(floats)
    if kind is not None:  # numbers joined by the separator that the flag parses
        sep = next(sep for sep in ",:" if _parses(kind, f"0{sep}0"))
        lists = st.lists(floats, min_size=2, max_size=3) | st.lists(floats, max_size=4)
        return lists.map(lambda xs: [sep.join(map(repr, xs))])
    return _words(names)


def _parses(parse, text: str) -> bool:
    try:
        parse(text)
    except cli.UsageError:
        return False
    return True


def _options(command: str, params: list[str]) -> list:
    """(flag, value words) strategies: one pair per setting the command reads,
    with the family parameters `params` as one, plus --format and --output."""
    _, formats, reads, _ = cli._COMMANDS[command]
    options = [(st.just("--format"), _words(st.sampled_from(formats))),
               (st.just("--output"), _words(st.sampled_from(OUTPUTS)))]
    for name in cli._SETTINGS:
        if name == "params" and name in reads:
            options.append((st.sampled_from([f"--{param.replace('_', '-')}"
                                             for param in params]), _words(floats)))
        elif name in reads:
            options.append((st.just(f"--{name.replace('_', '-')}"),
                            _flag_values(cli._FLAGS[name])))
    return options


# A config holds settings of the right type or the wrong one, nested or not,
# and may hold an unknown key: a family parameter outside "params", or "bogus".
_json_values = st.recursive(
    st.none() | st.booleans() | ints | floats | names | st.sampled_from(OUTPUTS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(cli._PARAM_FLAGS), inner, max_size=3),
    max_leaves=6)
configs = st.builds(
    lambda known, unknown: {**known, **unknown},
    st.dictionaries(st.sampled_from(sorted(cli._CONFIG_FIELDS)), _json_values, max_size=3),
    st.just({}) | st.dictionaries(st.sampled_from(["bogus", *cli._PARAM_FLAGS]),
                                  _json_values, max_size=1)) | _json_values


@st.composite
def invocations(draw):
    """An argv, with the config file it names (or None)."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    reads = cli._COMMANDS[command][2]
    argv, params = [command], cli._PARAM_FLAGS
    # half the draws name a real family (then its own parameters) or case, or
    # take --all, so that the command runs on the drawn values
    if "family" in reads and draw(st.booleans()):
        family = draw(st.sampled_from(list(catalog._DEFAULTS)))
        argv += ["--family", family]
        params = sorted(catalog._DEFAULTS[family])
    if "case" in reads and draw(st.booleans()):
        argv += ["--case", draw(st.sampled_from([case.value for case in CaseId]))]
    if "all" in reads and draw(st.booleans()):
        argv.append("--all")
    for flags, values in draw(st.lists(st.sampled_from(_options(command, params)),
                                       max_size=5)):
        argv += [draw(flags), *draw(values)]
    config = draw(configs) if draw(st.integers(0, 2)) == 0 else None
    if config is not None:
        argv += ["--config", "config.json"]
    return argv, config


# Values that start with "-": numbers, which are values, and words that argparse
# takes for a flag ("-h" is left out: it would print help)
DASHED = ("-1", "-.5", "-1e-3", "-1,0,0", "-0.5:0.5", "-inf", "-x", "-", "--", "-1 2")
MUTATIONS = ("abbreviate", "store_true value", "dangle", "dashed value", "dashed value after =")


@st.composite
def parser_inputs(draw):
    """An invocation (argv, config) as drawn (mutation None) or with one mutation
    of its argv: a flag cut short, a value on --all, a flag with no value, or a
    flag whose value starts with "-"."""
    argv, config = draw(invocations())
    argv = list(argv)
    mutation = draw(st.none() | st.sampled_from(MUTATIONS))
    flags = list(cli._flag_table(argv[0]))
    if mutation == "abbreviate":
        at = [i for i, word in enumerate(argv) if word.startswith("--")]
        if not at:
            return argv, config, None
        i = draw(st.sampled_from(at))
        argv[i] = argv[i][:draw(st.integers(3, max(3, len(argv[i]) - 1)))]
    elif mutation == "store_true value":
        argv.append("--all=" + draw(st.sampled_from(["", "1", "x"])))
    elif mutation == "dangle":
        argv.append(draw(st.sampled_from(flags)))
    elif mutation is not None:
        flag, value = draw(st.sampled_from(flags)), draw(st.sampled_from(DASHED))
        argv += [f"{flag}={value}"] if mutation.endswith("=") else [flag, value]
    return argv, config, mutation


@settings(max_examples=250, deadline=None)
@given(parser_inputs())
# argparse drops a "--" after "=", which left the config path an empty list
@example((["residual", "--config=--"], None, "dashed value after ="))
def test_every_argv_and_config_exits_0_1_or_2(invocation):
    argv, config, _ = invocation
    out, err = io.StringIO(), io.StringIO()
    # relative --output and --config paths land in a directory of their own
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config is not None:
                with open("config.json", "w", encoding="utf-8") as fh:
                    json.dump(config, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, config, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("ssmin:"), (argv, config, err.getvalue())
        assert "Traceback" not in err.getvalue()


# Magnitudes between the fuzz's 3.0 and 1e300: a cube of 1e105 overflows while its
# square stays finite, a square of 1e155 overflows, and 1e-300 squared underflows.
MAGNITUDES = (1e105, -1e105, 1e155, 1e-300)


def test_each_parameter_at_each_magnitude_exits_0_1_or_2():
    """Every family parameter in turn at each magnitude, the others at their
    defaults, under verify and mesh on every branch."""
    for family, defaults in catalog._DEFAULTS.items():
        branches = [[]]
        if FamilyId(family) in catalog.BRANCHED_FAMILIES:
            branches.append(["--branch", "minus"])
        for name, value, branch, command in itertools.product(
                defaults, MAGNITUDES, branches,
                (["verify", "--samples", "20"], ["mesh", "--nu", "3", "--nv", "3"])):
            argv = [*command, "--family", family, f"--{name.replace('_', '-')}", repr(value),
                    *branch]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert err.getvalue().startswith("ssmin: "), (argv, err.getvalue())


class _KeepsDashDash(_parser._Parser):
    """argparse, but with the value "--" after "=" kept, as `cli._parse` keeps it;
    argparse drops it and stores an empty list (only "=" can carry a "--" that
    is a flag's value: a "--" word of its own ends the flags)."""

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.option_strings:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _parsed(parse):
    """The repr of each parsed value (so that nan is nan and -0.0 is not 0.0),
    or None where the argv is refused."""
    try:
        return {name: repr(value) for name, value in parse().items()}
    except cli.UsageError:
        return None


def test_the_flag_table_parses_as_the_commands_parser_does(monkeypatch):
    # argparse is the oracle of the argvs it accepts; an argv it refuses is
    # refused too, unless a value opens with a single "-", which argparse takes
    # for an unknown flag unless it reads as a negative number
    monkeypatch.setattr(_parser, "_Parser", _KeepsDashDash)
    handled = []  # (mutation, accepted, whether argv holds a "--" after "=")

    @settings(max_examples=250, deadline=None)
    @given(parser_inputs())
    @example((["verify", "--seed=--"], None, "dashed value after ="))
    @example((["verify", "--config=--", "--all"], None, "dashed value after ="))
    @example((["residual", "--config", "config.json", "--config", "-inf"], None, "dashed value"))
    def check(inputs):
        argv, _, mutation = inputs
        expected = _parsed(lambda: vars(_parser._build_parser().parse_args(
            argv, types.SimpleNamespace())))
        parsed = _parsed(lambda: cli._parse(argv))
        if expected is not None:
            assert parsed == expected, argv
        # every flag drawn opens with "--", so a word with a single "-" is a value
        elif not any(word[:1] == "-" and word[:2] != "--" for word in argv):
            assert parsed is None, argv
        handled.append((mutation, expected is not None, any(
            word.endswith("=--") for word in argv)))

    check()
    # at least 200 argvs, a quarter of them well-formed (unmutated, and argparse
    # accepts them), and "--" after "=" among them
    assert len(handled) >= 200
    assert sum(accepted and mutation is None for mutation, accepted, _ in handled) \
        >= len(handled) // 4
    assert any(literal for _, _, literal in handled)


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0])
jets = st.builds(Jet2, finite, finite, finite)


@given(st.sampled_from(list(CaseId)), jets, jets)
@example(CaseId.E_M_II_III, Jet2(0.0, 0.0, 0.0), Jet2(0.0, -1e300, 0.0))
def test_residual_returns_a_float_or_raises_a_verifier_error(case, fj, gj):
    try:
        value = residual(case, fj, gj)
    except VerifierError:
        return
    assert isinstance(value, float)


@given(st.sampled_from(list(OdeId)), finite, finite, finite, finite,
       st.integers(1, 10_000) | st.sampled_from([0, -1]))
@example(OdeId.O3_28, 1.0, 1e5, 0.0, 1.0, 100)
@example(OdeId.O2_21, 1e200, 0.0, 0.0, 1.0, 1)
@example(OdeId.O3_8, 1.0, 0.0, 0.0, 1.0, 1)
def test_integrate_returns_a_trajectory_or_raises_a_verifier_error(kind, c, y0, t0, t1, n):
    # the step splits the span into n pieces, so at most 10^4 RK4 steps; n <= 0
    # gives a step that is not positive
    step = (t1 - t0) / n if n > 0 else float(n)
    try:
        trajectory = integrate(OdeCase(kind, c), y0, (t0, t1), step)
    except VerifierError:
        return
    assert isinstance(trajectory, Trajectory)
    assert all(math.isfinite(y) for _, y in trajectory.nodes)

