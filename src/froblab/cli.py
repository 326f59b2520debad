"""Command-line front end.

Two subcommands: analyze-complex runs the face-ring pipeline on a facet
file, analyze-hypersurface runs the hypersurface diagnostics.  Output is
deterministic text or JSON.  Exit codes: 0 success, 1 bad input (usage
errors included) or a capacity limit (running out of memory included),
2 an internal cross-check (oracle) disagreed, 3 any other internal error;
2 and 3 indicate a bug.  The commands choose no exit code: a
disagreement raises OracleMismatchError and bad input or a capacity
limit another FroblabError where it arises, and main alone maps each
outcome to its code and its one stderr line, and returns it: --help and
--version return 0 too.  One loop, parse_args, reads the whole command
line, the top level by the TOP table and the rest by the COMMANDS entry
of the command it names, by argparse's rules for the flags froblab has,
so a run loads neither argparse nor its gettext and locale.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .errors import CapacityError, FroblabError, OracleMismatchError, ParseError
from .gfp_linalg import DEFAULT_ENUM_CAP, check_prime

DEFAULT_EMAX = 2
NO_WITNESS = "no-proper-nonzero-F-stable-found-at-this-resolution"
TIGHT_CLOSURE_NOTE = "one-sided bounded check: consistency is evidence, not a proof, of tight-closure membership"


def _threads() -> int:
    raw = os.environ.get("FROBLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ParseError(f"FROBLAB_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ParseError("FROBLAB_THREADS must be positive")
    return n


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ParseError(f"expected a positive integer, got {text!r}")
    return n


def _format(text: str) -> str:
    if text not in ("text", "json"):
        raise ParseError(f"argument --format: invalid choice: {text!r} (choose from 'text', 'json')")
    return text


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _emit_text(report)


def _emit_text(report: dict, prefix: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{prefix}{key}:")
            _emit_text(value, prefix + "  ")
        elif isinstance(value, list):
            print(f"{prefix}{key}:")
            for item in value:
                if isinstance(item, dict):
                    line = ", ".join(f"{k}={item[k]}" for k in sorted(item))
                    print(f"{prefix}  - {line}")
                else:
                    print(f"{prefix}  - {item}")
        else:
            print(f"{prefix}{key}: {value}")


def cmd_analyze_complex(args, threads: int) -> None:
    # Each command imports its own layers here, not at the top: every run
    # is a fresh process, which would pay at start-up for loading the
    # other command's modules.  The names are read from their modules at
    # call time, so a patched module attribute is the one called.
    from .fmodule import check_maps, face_count
    from .local_cohomology import BOX, decomposition, depth_and_cm, oracle_box_check
    from .simplicial import mask_vertices, parse_facets_text
    from .stanley_reisner import ideal_text, nonface_ideal

    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc)) from None
    complex_ = parse_facets_text(text)
    p = check_prime(args.prime)
    # first, so that a complex past the oracle's cap is refused before any elimination
    agree, disagree = oracle_box_check(complex_, p)
    maps_checked = check_maps(complex_, p)
    table = decomposition(complex_, p)
    depth, dim, is_cm = depth_and_cm(complex_, p)
    ideal = nonface_ideal(complex_)

    counts, models = [], []
    for i in sorted({i for i, _ in table}):
        try:
            count = face_count(complex_, p, i, args.enumerate_cap)
        except CapacityError:
            count = None
        ran = count is not None
        # with multiplicity 1 everywhere the count reads only which maps are nonzero
        validated = ran and all(m == 1 for (ei, _), m in table.items() if ei == i)
        note = (
            "count (every map checked against the exact sequence of its pair)" if validated
            else "count (map ranks checked; images into blocks of multiplicity > 1 not checked)" if ran
            else "none (count skipped: cap)"
        )
        counts.append({"i": i, "count": count, "validated": validated, "note": note})
        # F is the identity on each block, so injective on every quotient of two counted submodules
        models.append({"i": i, "anti_nilpotent": True if ran else None, "skipped": None if ran else "cap"})
    complex_doc = {"n_vertices": complex_.n_vertices, "facets": [list(f) for f in complex_.facets]}
    # the report lists the rows by (i, nu) with nu a vertex list, not in the table's mask order
    rows = sorted((i, list(mask_vertices(nu)), m) for (i, nu), m in table.items())

    report = {
        "tool": "froblab",
        "version": __version__,
        "input": {"path": args.path, **complex_doc},
        "prime": p,
        "caps": {
            "box": list(BOX),
            "enumerate_cap": args.enumerate_cap,
            "threads": threads,
        },
        "analysis": {
            "complex": complex_doc, "p": p, "dim": dim, "depth": depth, "is_cm": is_cm,
            "table": [{"i": i, "nu": nu, "mult": m} for i, nu, m in rows],
            "fh_counts": counts,
        },
        # face rings are F-pure (Hochster-Roberts)
        "f_pure": True,
        "nonface_ideal": ideal_text(ideal),
        "models": models,
        "oracle_check": {
            "box": list(BOX),
            "agreements": agree,
            "mismatches": disagree,
            "maps_checked": maps_checked,
        },
        "notes": [
            "fh counts list the families of subspaces of the face blocks closed under"
            " the maps between them; the rank of every map is checked against the exact"
            " sequence of its pair, and a count is validated when it reads only those ranks",
            "submodule enumeration searches graded profiles only",
        ],
    }
    # the report is written even then, so the disagreeing box can be read
    _emit(report, args.format)
    if disagree:
        raise OracleMismatchError("graded oracle disagreement")


def cmd_analyze_hypersurface(args, threads: int) -> None:
    from .hypersurface import (
        f_injective_top,
        fedder_fpure_principal,
        make_hypersurface,
        rf_simplicity_probe,
        socle_class,
        tight_closure_zero_bounded,
    )
    from .polyfp import PolynomialFp, parse_polynomial

    # each text parsed once, --poly first; all are then read in the largest
    # number of variables, and appending zeros keeps the lex order of terms
    parsed = [parse_polynomial(s, args.prime) for s in [args.poly, *(args.params or ())]]
    n = max(g.n_vars for g in parsed)
    f, *params = (PolynomialFp(g.p, n, tuple((m + (0,) * (n - g.n_vars), c) for m, c in g.terms)) for g in parsed)
    h = make_hypersurface(f, None if args.params is None else params)

    f_pure = fedder_fpure_principal(h)
    f_inj = {f"t={t}": f_injective_top(h, t) for t in (1, 2)}
    # a hypersurface is Gorenstein, so F-pure exactly when F-injective (Fedder)
    if f_pure and not all(f_inj.values()):
        raise OracleMismatchError("F-pure but not F-injective")
    if f_inj["t=1"] != f_inj["t=2"]:
        raise OracleMismatchError("level instability in F-injectivity")
    if f_inj["t=1"] and not f_pure:
        raise OracleMismatchError("F-injective but not F-pure")

    report = {
        "tool": "froblab",
        "version": __version__,
        "input": {
            "f": h.f.to_text(),
            "params": [l.to_text() for l in h.params],
            "n_vars": h.n_vars,
        },
        "prime": h.p,
        "caps": {"e_max": args.emax, "degree_cap": h.degree_cap(), "threads": threads},
        "f_pure": f_pure,
        "f_injective": f_inj,
    }
    # both checks test the level-1 socle class
    socle = socle_class(h, 1).to_text()
    reason = rf_simplicity_probe(h, 1, args.emax)
    report["simplicity_probe"] = {
        "found": reason is not None,
        "reason": reason or NO_WITNESS,
        "witness": socle if reason else None,
    }
    if args.c is not None:
        c = parse_polynomial(args.c, h.p, h.n_vars)
        fails_at = tight_closure_zero_bounded(h, 1, c, args.emax)
        verdict = {
            "class": socle,
            "consistent_up_to": args.emax if fails_at is None else None,
            "fails_at": fails_at,
            "note": TIGHT_CLOSURE_NOTE,
        }
        report["tight_closure"] = {"c": c.to_text(), "socle_classes": [verdict]}
    _emit(report, args.format)


# command: (its function, its positional argument or None, {flag: (conversion,
# default)}).  A flag converted by list takes every value up to the next flag,
# one converted by None takes none and prints its default, any other flag
# exactly one; REQUIRED marks a flag that must be given.
REQUIRED = object()
COMMANDS = {
    "analyze-complex": (cmd_analyze_complex, "path", {
        "--prime": (int, REQUIRED),
        # accepted for older command lines; it selects nothing
        "--trunc": (_positive_int, None),
        "--enumerate-cap": (_positive_int, DEFAULT_ENUM_CAP),
        "--format": (_format, "text"),
    }),
    "analyze-hypersurface": (cmd_analyze_hypersurface, None, {
        "--poly": (str, REQUIRED),
        "--prime": (int, REQUIRED),
        "--params": (list, None),
        "--c": (str, None),
        "--emax": (_positive_int, DEFAULT_EMAX),
        "--format": (_format, "text"),
    }),
}
# the top level, read like a command with no function, whose positional is
# the command's name
TOP = (None, "command", {"--version": (None, f"froblab {__version__}")})
HELP = ("-h", "--help")
SYNOPSIS = """\
froblab analyze-complex FACETS_FILE --prime P
        [--enumerate-cap N] [--format text|json] [--trunc T]

froblab analyze-hypersurface --poly "x0^3 + x1^3 + x2^3" --prime 7
        [--params x1 x2] [--c x0] [--emax 2] [--format text|json]"""


def _flag(token: str, names) -> tuple:
    """(flag, its "=value" or None) for a token that names a flag, a long
    flag by any prefix that names it alone; ("", None) for a token that
    looks like a flag but names none; (None, None) for a value."""
    if not token.startswith("-") or token == "-":
        return None, None
    if token in names:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token.startswith("--"):
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise ParseError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        # -h takes no value, so -hh is -h twice
        return "-h", token[2:].lstrip("h") or None
    # a token that names no flag is still a value when it reads as a
    # negative number or holds a space
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None, None
    return "", None


def parse_args(argv: list, table=TOP, extras=()) -> str | tuple:
    """The function and arguments of the command argv names, or the text
    that --help or --version prints.  Tokens are read and refused as
    argparse read them, in order, so that the first refusal is argparse's;
    a missing required argument and then an unrecognized one are refused
    after the last token.  The top level reads the tokens after the
    command's name by calling itself with that command's table and the
    unknown flags before the name."""
    func, positional, flags = table
    extras = list(extras)
    # (flag, its "=value" or None) of each token by _flag, except that the
    # first "--" reads as ("--", None) and every token after it as a value
    cut = argv.index("--") if "--" in argv else len(argv)
    names = (*HELP, *flags)
    kinds = [_flag(token, names) if k < cut else ("--" if k == cut else None, None) for k, token in enumerate(argv)]
    values = {flag: default for flag, (_, default) in flags.items()}
    k = 0
    while k < len(argv):
        flag, value = kinds[k]
        k += 1
        if flag in HELP or (flag in flags and flags[flag][0] is None):
            if value is not None:
                name = "-h/--help" if flag in HELP else flag
                raise ParseError(f"argument {name}: ignored explicit argument {value!r}")
            return SYNOPSIS if flag in HELP else flags[flag][1]
        if flag in flags:
            convert = flags[flag][0]
            if value is None:
                end = k
                while end < len(argv) and kinds[end][0] is None and (convert is list or end == k):
                    end += 1
                texts, k = argv[k:end], end
                if not texts and convert is not list:
                    raise ParseError(f"argument {flag}: expected one argument")
            else:
                texts = [value]
            try:
                values[flag] = texts if convert is list else convert(texts[0])
            except ValueError:
                raise ParseError(f"argument {flag}: invalid {convert.__name__} value: {texts[0]!r}") from None
        elif positional and positional not in values and (flag is None or (flag == "--" and k < len(argv))):
            if func is None:
                # the command's name; a "--" here is read as the name, as argparse read it
                if argv[k - 1] not in COMMANDS:
                    raise ParseError(
                        f"argument command: invalid choice: {argv[k - 1]!r}"
                        " (choose from 'analyze-complex', 'analyze-hypersurface')"
                    )
                return parse_args(argv[k:], COMMANDS[argv[k - 1]], extras)
            # the positional takes one value and the "--" just before or after it
            if flag == "--":
                k += 1
            values[positional] = argv[k - 1]
            if k < len(argv) and kinds[k][0] == "--":
                k += 1
        else:
            extras.append(argv[k - 1])
    missing = [arg for arg in (positional, *flags) if arg and values.get(arg, REQUIRED) is REQUIRED]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    return func, SimpleNamespace(**{arg.lstrip("-").replace("-", "_"): v for arg, v in values.items()})


def main(argv=None) -> int:
    """Run one command and map its outcome to the exit code: the one place
    that writes an error line to stderr."""
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(parsed, str):
            # --help and --version print their text and do no work
            print(parsed)
            return 0
        func, args = parsed
        # a bad FROBLAB_THREADS fails before any work, not after it
        func(args, _threads())
    except OracleMismatchError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 2
    except FroblabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: capacity exceeded: out of memory{detail}", file=sys.stderr)
        return 1
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
