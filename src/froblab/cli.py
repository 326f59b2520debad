"""Command-line front end.

Two subcommands: analyze-complex runs the face-ring pipeline on a facet
file, analyze-hypersurface runs the hypersurface diagnostics.  Output is
deterministic text or JSON.  Exit codes: 0 success, 1 bad input (usage
errors included) or a capacity limit (running out of memory included),
2 an internal cross-check (oracle) disagreed, 3 any other internal error;
2 and 3 indicate a bug.  The commands choose no exit code: a
disagreement raises OracleMismatchError and bad input or a capacity
limit another FroblabError where it arises, and main alone maps each
outcome to its code and its one stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


def main(argv=None) -> int:
    """Run one command and map its outcome to the exit code: the one place
    that writes an error line to stderr."""
    try:
        args = build_parser().parse_args(argv)
        # a bad FROBLAB_THREADS fails before any work, not after it
        args.func(args, _threads())
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
