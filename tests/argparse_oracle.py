"""The argparse parser of froblab.cli as it was before the command line was
read by froblab's own loop, kept as the reference the new reader is
compared with on generated command lines: the same two subcommands and
flags, declared through argparse.ArgumentParser."""

import argparse

from froblab.cli import (
    DEFAULT_EMAX,
    DEFAULT_ENUM_CAP,
    __version__,
    _positive_int,
    cmd_analyze_complex,
    cmd_analyze_hypersurface,
)
from froblab.errors import ParseError


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ParseError and so exit 1 like other bad input;
    argparse's own exit 2 would read as a disagreement between routes."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="froblab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"froblab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("analyze-complex", help="face-ring pipeline on a facet file")
    pc.add_argument("path")
    pc.add_argument("--prime", type=int, required=True)
    # accepted for older command lines; it selects nothing
    pc.add_argument("--trunc", type=_positive_int, help="ignored")
    pc.add_argument("--enumerate-cap", type=_positive_int, default=DEFAULT_ENUM_CAP,
                    help="bound on the branches and memo states of each submodule count")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(func=cmd_analyze_complex)

    ph = sub.add_parser("analyze-hypersurface", help="hypersurface diagnostics")
    ph.add_argument("--poly", required=True)
    ph.add_argument("--prime", type=int, required=True)
    ph.add_argument("--params", nargs="*", default=None)
    ph.add_argument("--c", default=None)
    ph.add_argument("--emax", type=_positive_int, default=DEFAULT_EMAX)
    ph.add_argument("--format", choices=("text", "json"), default="text")
    ph.set_defaults(func=cmd_analyze_hypersurface)
    return parser

