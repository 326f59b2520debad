"""Workloads of the froblab benchmark and their seeded input generator.

A workload is a ladder of rungs; each rung is one `froblab analyze-*`
run.  The seed only changes how an input is written, never what it is:
complexes get their vertices relabelled and their facets shuffled, and
diagonal hypersurfaces get random unit coefficients (monic in x0) and a
shuffled term order.  The expected verdicts are therefore the same for
every seed; they are stored per rung from known topology and algebra.

The generator writes the inputs to files and returns a manifest of CLI
argument lists and expectations, so the program sees only those files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import checker

BOX = (-3, 1)
ENUMERATE_CAP = 2097152


def _boundary_of_simplex(k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(k + 1), k))


RP2_6 = [
    (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5),
]
TORUS_7 = [tuple(sorted(((i + a) % 7, (i + b) % 7, (i + 3) % 7))) for a, b in ((0, 1), (0, 2)) for i in range(7)]
# the 2-sphere and the circle, disjoint: seven vertices, so a 5^7 oracle box
SPHERE_AND_CIRCLE = _boundary_of_simplex(3) + [tuple(v + 4 for v in f) for f in _boundary_of_simplex(2)]


@dataclass(frozen=True)
class ComplexRung:
    """analyze-complex on one complex; depth, dim and is_cm as known."""

    name: str
    facets: tuple
    prime: int
    depth: int
    dim: int
    is_cm: bool
    trunc: int | None = None
    enumerate_all: bool = False


@dataclass(frozen=True)
class HypersurfaceRung:
    """analyze-hypersurface on a diagonal form sum a_i x_i^degree."""

    name: str
    degree: int
    n_vars: int
    prime: int
    f_pure: bool
    c: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    timeout_s: float
    rungs: tuple


def _enum(name, facets, prime, trunc, depth, dim, is_cm):
    return ComplexRung(name, tuple(facets), prime, depth, dim, is_cm, trunc, True)


# No rung of a listed workload takes much over 3 s, so that every rung runs
# several times in one run and its median holds from run to run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "complex-oracle",
            "analyze-complex at default caps on RP2, the torus, S3 and S2 + S1: the 5^n oracle box and the Fedder colon dominate",
            25.0,
            (
                ComplexRung("rp2-p2", tuple(RP2_6), 2, 2, 3, False),
                ComplexRung("rp2-p3", tuple(RP2_6), 3, 3, 3, True),
                ComplexRung("torus-p2", tuple(TORUS_7), 2, 2, 3, False),
                ComplexRung("torus-p3", tuple(TORUS_7), 3, 2, 3, False),
                ComplexRung("s3-p2", tuple(_boundary_of_simplex(4)), 2, 4, 4, True),
                ComplexRung("s2-s1-p2", tuple(SPHERE_AND_CIRCLE), 2, 1, 3, False),
            ),
        ),
        Workload(
            "complex-enumerate",
            "analyze-complex validating every model by brute force on tiny complexes: enumeration and anti-nilpotence dominate",
            25.0,
            (
                _enum("triangle-p2", _boundary_of_simplex(2), 2, 1, 2, 2, True),
                _enum("three-points-p2", [(v,) for v in range(3)], 2, 3, 1, 1, True),
                _enum("three-points-p3", [(v,) for v in range(3)], 3, 2, 1, 1, True),
                _enum("star3-p2", [(0, 1), (0, 2), (0, 3)], 2, 1, 2, 2, True),
                _enum("two-edges-p3", [(0, 1), (2, 3)], 3, 1, 1, 2, False),
            ),
        ),
        Workload(
            "hypersurface-levels",
            "analyze-hypersurface on inputs that succeed today: dense per-degree elimination and import time dominate",
            20.0,
            (
                HypersurfaceRung("cubic-p7", 3, 3, 7, True, "x0"),
                HypersurfaceRung("cubic-p11", 3, 3, 11, False),
                HypersurfaceRung("conic-p11", 2, 3, 11, True),
                HypersurfaceRung("quadric4-p5", 2, 4, 5, True, "x0"),
                HypersurfaceRung("quadric5-p3", 2, 5, 3, True),
                HypersurfaceRung("quartic-p13", 4, 3, 13, False),
            ),
        ),
        Workload(
            "hypersurface-walls",
            "analyze-hypersurface on inputs that exhaust the memory limit today: capacity failures kept apart from the timings",
            30.0,
            (
                HypersurfaceRung("cubic-p13", 3, 3, 13, True),
                HypersurfaceRung("cubic-p31", 3, 3, 31, True),
                HypersurfaceRung("cubic4-p7", 3, 4, 7, True),
                HypersurfaceRung("quadric4-p7", 2, 4, 7, True),
                HypersurfaceRung("conic-p13", 2, 3, 13, True),
            ),
        ),
    )
}


def _complex_entry(rung: ComplexRung, rng: random.Random, outdir: Path) -> dict:
    n = 1 + max(v for f in rung.facets for v in f)
    perm = list(range(n))
    rng.shuffle(perm)
    lines = []
    for facet in rung.facets:
        verts = [perm[v] for v in facet]
        rng.shuffle(verts)
        lines.append(" ".join(map(str, verts)))
    rng.shuffle(lines)
    path = outdir / f"{rung.name}.facets"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["analyze-complex", str(path), "--prime", str(rung.prime), "--format", "json"]
    if rung.trunc is not None:
        argv += ["--trunc", str(rung.trunc)]
    if rung.enumerate_all:
        argv += ["--enumerate-cap", str(ENUMERATE_CAP)]
    expect = {
        "kind": "complex",
        "n_vertices": n,
        "depth": rung.depth,
        "dim": rung.dim,
        "is_cm": rung.is_cm,
        "box": list(BOX),
        "enumerate_all": rung.enumerate_all,
    }
    return {"rung": rung.name, "argv": argv, "expect": expect}


def _hypersurface_entry(rung: HypersurfaceRung, rng: random.Random, outdir: Path) -> dict:
    coeffs = [1] + [rng.randrange(1, rung.prime) for _ in range(1, rung.n_vars)]
    terms = [
        (f"x{i}^{rung.degree}" if a == 1 else f"{a}*x{i}^{rung.degree}")
        for i, a in enumerate(coeffs)
    ]
    rng.shuffle(terms)
    poly = " + ".join(terms)
    path = outdir / f"{rung.name}.poly"
    path.write_text(poly + "\n", encoding="utf-8")
    f_pure = checker.fedder_fpure(poly, rung.prime)
    if f_pure != rung.f_pure:
        raise AssertionError(f"{rung.name}: stored F-purity {rung.f_pure} disagrees with f^(p-1) test")
    argv = ["analyze-hypersurface", "--poly", poly, "--prime", str(rung.prime), "--format", "json"]
    if rung.c is not None:
        argv += ["--c", rung.c]
    return {"rung": rung.name, "argv": argv, "expect": {"kind": "hypersurface", "f_pure": f_pure}}


def generate(workload: str, seed: int, outdir: Path) -> list[dict]:
    """Write the inputs of one workload for one seed into outdir, plus
    manifest.json; return the manifest entries."""
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for rung in WORKLOADS[workload].rungs:
        rng = random.Random(f"{seed}:{rung.name}")
        if isinstance(rung, ComplexRung):
            entries.append(_complex_entry(rung, rng, outdir))
        else:
            entries.append(_hypersurface_entry(rung, rng, outdir))
    (outdir / "manifest.json").write_text(json.dumps(entries, indent=1), encoding="utf-8")
    return entries
