"""froblab.cli reads its command line with its own loop; the argparse parser
it replaced is the reference (tests/argparse_oracle.py).  On generated
command lines the two agree on the outcome (the text --help or --version
prints, a refusal with its message, or the command with every parsed
value), and --help prints the synopsis of the README's CLI section."""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argparse_oracle import build_parser
from froblab import __version__
from froblab.cli import COMMANDS, REQUIRED, SYNOPSIS, main, parse_args
from froblab.errors import ParseError

README = Path(__file__).resolve().parent.parent / "README.md"


def reference_outcome(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            namespace = build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 0
        return "version" if out.getvalue() == f"froblab {__version__}\n" else "help"
    except ParseError as exc:
        return "refused", str(exc)
    values = vars(namespace)
    del values["command"]
    return values.pop("func"), values


def outcome(argv):
    try:
        parsed = parse_args(argv)
    except ParseError as exc:
        return "refused", str(exc)
    if isinstance(parsed, str):
        assert parsed in (SYNOPSIS, f"froblab {__version__}")
        return "help" if parsed == SYNOPSIS else "version"
    func, args = parsed
    return func, vars(args)


# values of each flag, good ones first: then ones its conversion refuses,
# and ones that start with "-" (a negative number and text with a space
# read as values, "-x0" as a flag)
VALUES = {
    "--prime": ["2", "3", "7", "-3", "x", ""],
    "--trunc": ["1", "2", "0", "x"],
    "--enumerate-cap": ["8", "64", "0", "-1"],
    "--emax": ["1", "5", "0", "2.5"],
    "--format": ["text", "json", "xml"],
    "--poly": ["x0^3 + x1^3 + x2^3", "x0^2", "-x0^2 + x1^2", "-x0"],
    "--c": ["x0", "x0 + x1", "-x0 + 1", "-x0"],
    "--params": ["x1", "x2", "x1 + x2", "-x1 + x2", "-3", "-x1"],
}
# tokens that may stand anywhere after the command
SPECIAL = ["-h", "--help", "--he", "-hh", "-h=x", "--help=x", "--version", "--vers", "--", "--bogus", "-x0", "-3"]


def mostly(first, rest):
    """A strategy that draws first about three times in four, else one of rest."""
    return st.one_of(st.just(first), st.just(first), st.just(first), st.sampled_from(rest))


@st.composite
def flag_tokens(draw, flag):
    """The flag by its whole name or a prefix, with one value (for --params
    zero to three), with =value, or with no value."""
    spelling = draw(mostly(flag, [flag[:n] for n in range(3, len(flag) + 1)]))
    good = VALUES[flag][:2]
    value = st.one_of(*[st.sampled_from(good)] * 3, st.sampled_from(VALUES[flag]))
    form = draw(st.sampled_from(["separate"] * 6 + ["inline"] * 2 + ["missing"]))
    if form == "inline":
        return [f"{spelling}={draw(value)}"]
    if form == "missing":
        return [spelling]
    if flag == "--params":
        return [spelling, *draw(st.lists(value, max_size=3))]
    return [spelling, draw(value)]


@st.composite
def command_lines(draw):
    """Mostly a command with its required arguments; then, in any order with
    them, more flags of the command, stray values and special tokens.  Now
    and then a flag before the command, a command that does not exist, or
    none."""
    argv = draw(st.sampled_from([[]] * 28 + [["-h"], ["--version"], ["--ver"], ["--bogus"]]))
    command = draw(st.sampled_from([*COMMANDS] * 5 + ["analyze", None]))
    if command is None:
        return argv
    _, positional, flags = COMMANDS.get(command, COMMANDS["analyze-complex"])
    pieces = [draw(flag_tokens(flag)) for flag in flags if flags[flag][1] is REQUIRED]
    pieces += [[positional]] if positional else []
    pieces = [piece for piece in pieces if draw(st.sampled_from([True] * 7 + [False]))]
    extra = st.one_of(
        *[st.sampled_from(list(flags)).flatmap(flag_tokens)] * 6,
        st.sampled_from(["stray", "x0 + 1"]).map(lambda token: [token]),
        st.sampled_from(SPECIAL).map(lambda token: [token]),
    )
    pieces += draw(st.lists(extra, max_size=4))
    return [*argv, command, *[token for piece in draw(st.permutations(pieces)) for token in piece]]


COMPLEX = ["analyze-complex", "complex.facets", "--prime", "2"]
HYPERSURFACE = ["analyze-hypersurface", "--poly", "x0^2", "--prime", "3"]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(command_lines())
@example(["analyze-complex", "complex.facets", "--pri", "2", "--form", "json", "--enum", "5"])
@example(["analyze-hypersurface", "--p", "2", "--poly", "x0^2"])
@example([*HYPERSURFACE, "--prime", "-3"])
@example([*HYPERSURFACE, "--c", "-x0"])
@example([*HYPERSURFACE, "--c=-x0"])
@example([*HYPERSURFACE, "--params"])
@example([*HYPERSURFACE, "--params", "x1", "-x2 + x1", "--params", "x2"])
@example(["analyze-complex", "--prime", "2", "--", "-complex.facets"])
@example(["analyze-complex", "complex.facets", "--", "--prime", "2"])
@example([*COMPLEX, "--"])
@example(["analyze-complex", "--prime", "2", "complex.facets", "--"])
@example([*COMPLEX, "-h=x"])
@example([*COMPLEX, "-hh"])
@example(["--"])
@example(["--bogus", *COMPLEX, "stray"])
@example(["--bogus", "analyze", "--version"])
@example(["--version=x"])
@example([*COMPLEX, "--version=x"])
@example(["--=x", *COMPLEX])
@example([*COMPLEX, "--=x"])
@example(["-", *COMPLEX])
@example([*COMPLEX, "-"])
@example([*HYPERSURFACE, "--params", "-"])
@example([*COMPLEX, "--prime=-3"])
@example([*COMPLEX, "--prime="])
@example([*COMPLEX, "--format="])
@example([*HYPERSURFACE, "--emax", "-2.5"])
@example([*HYPERSURFACE, "--c", "-.5"])
@example([*HYPERSURFACE, "--params=x1 x2"])
@example([*HYPERSURFACE, "--c", "x0", "--c"])
@example(["--help=", "analyze-complex"])
def test_reader_agrees_with_the_argparse_reference(argv):
    assert outcome(argv) == reference_outcome(argv)


@pytest.mark.parametrize("argv", [["-hx"], [*COMPLEX, "-hhx"]])
def test_help_with_a_trailing_letter_is_refused(argv):
    # argparse up to 3.12 refuses these as well; 3.13 reads them as -h and prints help
    assert outcome(argv) == ("refused", "argument -h/--help: ignored explicit argument 'x'")


def test_help_prints_the_readme_synopsis(capsys):
    block = re.search(r"## CLI\n\n```sh\n(.*?)\n```", README.read_text(encoding="utf-8"), re.S)
    assert block.group(1) == SYNOPSIS
    for argv in (["--help"], ["analyze-hypersurface", "-h"], [*COMPLEX, "--he"]):
        assert main(argv) == 0
        assert capsys.readouterr() == (SYNOPSIS + "\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        [*HYPERSURFACE, "--p", "x1"],
        [*HYPERSURFACE, "--c", "-x0"],
        [*COMPLEX, "--prime"],
        [*COMPLEX, "--help=x"],
        ["analyze"],
        [],
    ],
)
def test_each_refusal_is_one_error_line(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
