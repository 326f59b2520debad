"""Golden JSON reports of the CLI, compared byte for byte.

The first four reports were written by the CLI before the F_p elimination
kernel was consolidated, conic-p11 and quadric4-p5 before the hypersurface
levels were decided by the lex normal form, torus-p3 before the graded
oracle ran over sign patterns and Fedder's test lost the colon ideal,
s2-s1-p2 before the nonface ideal was read off the table of face masks;
the face-ring reports were rewritten, and triangle-p2 added, when the
submodule counts moved to the maps between face blocks;
coordinate-triangle-p3 was added when the hypersurface checks came to
return plain values; the face-ring reports were rewritten again, and
three-points-p3 added, when the window search gave way to checking each
map's rank against the exact sequence of its pair (three-points-p3 is the
one whose count is not validated: its empty-face block has multiplicity
2); rp2-p2 and torus-p3 were rewritten when the count moved to the
order of the nonzero maps and their top modules came under the cap;
fermat-cubic4-p7-emax5 was written before the probe's Frobenius-kill
witness came to read F-injectivity alone, when the probe still reduced
the socle class's powers up to e_max.
The input file path is replaced by a placeholder.  To
rewrite them after an intended report change, run

    PYTHONPATH=src python tests/test_golden.py

and to compare every report with its golden file without pytest, as on
the oldest supported Python, add --check: it names each report that
differs and exits 1 if any does.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from froblab.cli import main

GOLDEN = Path(__file__).parent / "golden"
PLACEHOLDER = '"<input>"'

RP2_FACETS = [
    (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5),
]
TWO_EDGES_FACETS = [(0, 1), (2, 3)]
TRIANGLE_FACETS = [(0, 1), (1, 2), (0, 2)]
# the 2-sphere and the circle, disjoint: its nonface ideal has generators
# of 2, 3 and 4 vertices
SPHERE_AND_CIRCLE_FACETS = [
    (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5), (4, 6), (5, 6),
]
# the 7-vertex torus: the largest oracle box of the goldens, 5^7 points
TORUS_FACETS = [
    tuple(sorted(((i + a) % 7, (i + b) % 7, (i + 3) % 7)))
    for a, b in ((0, 1), (0, 2))
    for i in range(7)
]

# name -> (facets or None, CLI arguments after the input path)
CASES = {
    "rp2-p2": (RP2_FACETS, ["--prime", "2"]),
    "torus-p3": (TORUS_FACETS, ["--prime", "3"]),
    "s2-s1-p2": (SPHERE_AND_CIRCLE_FACETS, ["--prime", "2"]),
    # validated at 19 = D(3) - 1, where the direct-sum formula gave 128
    "triangle-p2": (
        TRIANGLE_FACETS,
        ["--prime", "2", "--trunc", "1", "--enumerate-cap", "2097152"],
    ),
    # p + 13 = 16 submodules; the empty face has a block of multiplicity 2
    "three-points-p3": ([(0,), (1,), (2,)], ["--prime", "3", "--enumerate-cap", "2097152"]),
    "two-edges-p3": (
        TWO_EDGES_FACETS,
        ["--prime", "3", "--trunc", "1", "--enumerate-cap", "2097152"],
    ),
    "fermat-cubic-p7": (
        None,
        ["--poly", "x0^3 + x1^3 + x2^3", "--prime", "7", "--c", "x0"],
    ),
    "fermat-quartic-p13": (
        None,
        ["--poly", "x0^4 + x1^4 + x2^4", "--prime", "13"],
    ),
    # the largest per-degree echelon of the old level route
    "conic-p11": (
        None,
        ["--poly", "x0^2 + 10*x1^2 + 8*x2^2", "--prime", "11"],
    ),
    "quadric4-p5": (
        None,
        ["--poly", "x0^2 + x1^2 + x2^2 + x3^2", "--prime", "5", "--c", "x0"],
    ),
    # F is injective and x0 * u^p is already nonzero, so at any --emax
    # the report reads only the first Frobenius power of the socle class u
    "fermat-cubic4-p7-emax5": (
        None,
        ["--poly", "x0^3 + x1^3 + x2^3 + x3^3", "--prime", "7", "--c", "x0", "--emax", "5"],
    ),
    # supplied parameters; every variable divides f, so the probe finds
    # nothing, and a non-monomial multiplier keeps the socle class consistent
    "coordinate-triangle-p3": (
        None,
        ["--poly", "x0*x1*x2", "--prime", "3", "--params", "x0 - x1", "x1 - x2", "--c", "x0 + x1"],
    ),
}


def report_text(name: str, workdir: Path) -> str:
    facets, args = CASES[name]
    if facets is None:
        argv = ["analyze-hypersurface", *args]
        path = None
    else:
        path = workdir / f"{name}.facets"
        path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
        argv = ["analyze-complex", str(path), *args]
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main([*argv, "--format", "json"])
    assert code == 0
    out = buf.getvalue()
    if path is not None:
        out = out.replace(json.dumps(str(path)), PLACEHOLDER)
    return out


def pytest_generate_tests(metafunc):
    # parametrized by this hook, so the module runs as a script without pytest
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def test_golden_report(name, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert report_text(name, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    check = sys.argv[1:] == ["--check"]
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            text = report_text(case, Path(tmp))
            golden = GOLDEN / f"{case}.json"
            if not check:
                golden.write_text(text, encoding="utf-8")
                print(f"wrote {case}.json")
            elif text != golden.read_text(encoding="utf-8"):
                differ.append(case)
                print(f"differs: {case}.json")
    if check:
        print(f"{len(CASES) - len(differ)} of {len(CASES)} reports match their golden files")
    sys.exit(1 if differ else 0)
