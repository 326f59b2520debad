"""Independent verdict checker for froblab JSON reports.

It imports nothing from froblab.  Complex reports are checked against
depth, dimension and Cohen-Macaulayness stored per rung from known
topology, against F-purity (every face ring is F-pure) and against the
exact agreement count of the graded oracle.  Hypersurface reports are
checked against a sympy f^(p-1) monomial test, and F-injectivity at both
levels must equal F-purity, since hypersurfaces are Gorenstein.

Each check returns a list of problems; an empty list accepts the report.
"""

from __future__ import annotations

import re


def fedder_fpure(poly: str, p: int) -> bool:
    """Fedder's criterion for a hypersurface: f^(p-1) has a monomial with
    every exponent below p."""
    import sympy

    names = sorted(set(re.findall(r"x\d+", poly)), key=lambda s: int(s[1:]))
    gens = sympy.symbols(names)
    expr = sympy.sympify(poly.replace("^", "**"), locals=dict(zip(names, gens)))
    power = sympy.Poly(expr, *gens, modulus=p) ** (p - 1)
    return any(all(e < p for e in monom) for monom in power.monoms())


def check_complex(report: dict, expect: dict) -> list[str]:
    problems = []
    analysis = report.get("analysis", {})
    for key in ("depth", "dim", "is_cm"):
        if analysis.get(key) != expect[key]:
            problems.append(f"{key} is {analysis.get(key)!r}, expected {expect[key]!r}")
    if report.get("f_pure") is not True:
        problems.append("f_pure is not true, but every face ring is F-pure")
    lo, hi = expect["box"]
    agreements = (hi - lo + 1) ** expect["n_vertices"] * (expect["dim"] + 1)
    oracle = report.get("oracle_check", {})
    if oracle.get("agreements") != agreements:
        problems.append(f"oracle agreements {oracle.get('agreements')!r}, expected {agreements}")
    if oracle.get("mismatches") != 0:
        problems.append(f"oracle mismatches {oracle.get('mismatches')!r}")
    if expect["enumerate_all"]:
        models = report.get("models") or []
        if not models:
            problems.append("no models reported")
        for model in models:
            if model.get("skipped") is not None or model.get("anti_nilpotent") is not True:
                problems.append(f"model i={model.get('i')} not validated: {model}")
    return problems


def check_hypersurface(report: dict, expect: dict) -> list[str]:
    problems = []
    if report.get("f_pure") != expect["f_pure"]:
        problems.append(f"f_pure is {report.get('f_pure')!r}, expected {expect['f_pure']!r}")
    levels = report.get("f_injective") or {}
    for level in ("t=1", "t=2"):
        if levels.get(level) != expect["f_pure"]:
            problems.append(f"f_injective {level} is {levels.get(level)!r}, expected {expect['f_pure']!r}")
    return problems


def check(report: dict, expect: dict) -> list[str]:
    if expect["kind"] == "complex":
        return check_complex(report, expect)
    return check_hypersurface(report, expect)
