"""The argparse parser of the `ssmin` command, built from the CLI's own tables.

It is the oracle of `cli._parse` for the argvs it accepts: `cli._parse` reads
every argv from the same flag tables without argparse, and the tests check that
an argv argparse accepts gets the same values from both, and that one it
refuses is refused too, unless a value opens with a single "-".
"""

import argparse
import re

from ssmin import __version__, cli
from ssmin.errors import UsageError

# "-0.5:0.5", "-1,0,0" and "-1e-3" are flag values, not unknown options
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, command: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER
        # a command's flags are added when its parser first parses, which argparse
        # does only for the invoked command, `<command> --help` included
        self._unflagged = command

    def parse_known_args(self, args=None, namespace=None):
        if self._unflagged is not None:
            _add_flags(self, self._unflagged)
            self._unflagged = None
        return super().parse_known_args(args, namespace)

    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    """Each command takes the flags of the settings it reads, added by `_add_flags`
    once its parser parses.  Flags left unset stay None, so RunConfig's own
    defaults apply to them."""
    parser = _Parser(prog="ssmin", description=cli.__doc__)
    parser.add_argument("--version", action="version", version=f"ssmin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, _, help) in cli._COMMANDS.items():
        sub.add_parser(command, help=help, command=command)
    return parser


def _add_flags(p: _Parser, command: str) -> None:
    for flag, keywords in cli._flag_table(command).items():
        p.add_argument(flag, **keywords)
