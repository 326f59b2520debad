"""Graded dimensions of local cohomology for face rings over F_p.

For a complex Delta with face ring R = K[Delta] and homogeneous maximal
ideal m, the multidegree-theta piece of H^i_m(R) is nonzero only when
theta has no positive entry and its negative support is a face nu; its
dimension is then m(i, nu) = dim H~^{i-1-|nu|}(link(nu); F_p).  This
module computes that table, which gives the graded dimensions exactly,
and checks it against an independent oracle that evaluates a
multidegree piece directly from the monomial-localization complex.
Both depend on a multidegree only through its sign pattern, and both
vanish unless that pattern splits a face, so the oracle box is checked
once per such pattern, not once per box point.  The oracle holds faces
and the two halves of a pattern as vertex bitmasks, with one table of
face masks per complex.

The table is not a module decomposition: x_j maps the block of nu into
the block of nu minus {j}, often by a nonzero map, so H^i_m(R) is not a
direct sum of its face blocks.  fh_count treats it as one, and its
counts are known to be wrong (two points: 8 where the true count is 5;
ROADMAP.md, open item 1).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import OracleMismatchError
from .gfp_linalg import check_prime, num_subspaces, row_echelon
from .record import record
from .simplicial import (
    Face,
    SimplicialComplex,
    all_faces,
    link,
    reduced_cohomology,
)

MultiDegree = tuple[int, ...]


@record
class LocalCohomologyTable:
    """Multiplicities m(i, nu) of the face blocks of H^i_m(K[Delta]): the
    dimension of each of its pieces with negative support nu.

    Entries are stored only when nonzero; i ranges in [0, dim Delta + 1].
    """

    p: int
    n_vertices: int
    complex_dim: int
    entries: tuple[tuple[int, Face, int], ...]

    def multiplicity(self, i: int, nu) -> int:
        return _entry_map(self).get((i, tuple(sorted(nu))), 0)

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted({i for i, _, _ in self.entries}))

    def to_report(self) -> list[dict]:
        return [
            {"i": i, "nu": list(nu), "mult": m}
            for i, nu, m in self.entries
        ]


@lru_cache(maxsize=None)
def _entry_map(table: "LocalCohomologyTable") -> dict[tuple[int, Face], int]:
    return {(i, nu): m for i, nu, m in table.entries}


@lru_cache(maxsize=None)
def decomposition(c: SimplicialComplex, p: int) -> LocalCohomologyTable:
    """Sum over faces nu (including the empty face) of the reduced
    cohomology of link(nu), placed at cohomological index |nu| + 1 + j."""
    check_prime(p)
    entries = []
    for nu in all_faces(c):
        prof = reduced_cohomology(link(c, nu), p)
        for j, m in prof.dims:
            i = j + 1 + len(nu)
            entries.append((i, nu, m))
    entries.sort(key=lambda e: (e[0], e[1]))
    return LocalCohomologyTable(p, c.n_vertices, c.dim, tuple(entries))


@lru_cache(maxsize=None)
def _face_masks(c: SimplicialComplex) -> tuple[dict[int, tuple[int, ...]], frozenset[int]]:
    """The faces of c as vertex bitmasks, grouped by size, and their set."""
    by_size: dict[int, list[int]] = {}
    for sigma in all_faces(c):
        by_size.setdefault(len(sigma), []).append(sum(1 << v for v in sigma))
    masks = frozenset(m for ms in by_size.values() for m in ms)
    return {k: tuple(ms) for k, ms in by_size.items()}, masks


@lru_cache(maxsize=None)
def _cech_dims_by_signs(c: SimplicialComplex, p: int, nu: Face, pi: Face) -> tuple[tuple[int, int], ...]:
    """Cohomology of the single-multidegree piece of the localization
    complex.  The term in cohomological degree i has one F_p summand for
    each face sigma with |sigma| = i, nu contained in sigma, and
    sigma union pi a face; differentials carry the usual alternating
    signs.  Depends on theta only through the sign pattern (nu, pi).

    Faces are vertex bitmasks: the coboundary sends sigma to the faces
    tau = sigma + {v}, with the sign (-1)^k of coboundary_matrix, k the
    number of vertices of tau below v."""
    by_size, masks = _face_masks(c)
    nu_mask = sum(1 << v for v in nu)
    pi_mask = sum(1 << v for v in pi)
    cochains = {}
    for size, ms in by_size.items():
        kept = [m for m in ms if m & nu_mask == nu_mask and m | pi_mask in masks]
        if kept:
            cochains[size] = kept
    ranks = {}
    for size, src in cochains.items():
        column = {m: k for k, m in enumerate(src)}
        rows = []
        for tau in cochains.get(size + 1, ()):
            row = [0] * len(src)
            sign = 1
            rest = tau
            while rest:
                bit = rest & -rest
                k = column.get(tau ^ bit)
                if k is not None:
                    row[k] = sign
                sign = -sign
                rest ^= bit
            rows.append(row)
        ranks[size] = len(row_echelon(rows, p)[1]) if rows else 0
    dims = ((d, len(fs) - ranks[d] - ranks.get(d - 1, 0)) for d, fs in sorted(cochains.items()))
    return tuple((d, h) for d, h in dims if h)


def oracle_box_check(
    c: SimplicialComplex, p: int, lo: int = -3, hi: int = 1
) -> tuple[int, list[tuple[MultiDegree, int, int, int]]]:
    """Compare the table against the localization-complex oracle at every
    multidegree theta in the box [lo, hi]^n and every cohomological index.
    Returns the number of agreeing (theta, i) pairs and a list of
    mismatches (expected empty).

    Both sides depend on theta only through its sign pattern: nu where
    theta < 0 and pi where theta > 0.  The table side is m(i, nu) when pi
    is empty and 0 otherwise; the oracle's piece has no cochains unless
    nu union pi is a face.  So both vanish unless the pattern splits a
    face sigma into nu and pi, and only those patterns are evaluated,
    each weighted by its box points.  A disagreeing pattern is expanded
    back into its box points, listed in the order of the box."""
    neg = range(lo, min(hi, -1) + 1)
    zero = range(max(lo, 0), min(hi, 0) + 1)
    pos = range(max(lo, 1), hi + 1)
    top = c.dim + 1
    table = decomposition(c, p)
    disagree = 0
    mismatches = []
    for sigma in all_faces(c):
        for k in range(len(sigma) + 1):
            for nu in itertools.combinations(sigma, k):
                pi = tuple(v for v in sigma if v not in nu)
                ranges = [
                    neg if v in nu else pos if v in pi else zero for v in range(c.n_vertices)
                ]
                weight = math.prod(map(len, ranges))
                if not weight:
                    continue
                oracle = dict(_cech_dims_by_signs(c, p, nu, pi))
                for i in range(0, top + 1):
                    lhs = 0 if pi else table.multiplicity(i, nu)
                    rhs = oracle.get(i, 0)
                    if lhs != rhs:
                        disagree += weight
                        mismatches += [(t, i, lhs, rhs) for t in itertools.product(*ranges)]
    mismatches.sort()
    return max(hi - lo + 1, 0) ** c.n_vertices * (top + 1) - disagree, mismatches


def reisner_cm_condition(c: SimplicialComplex, p: int) -> bool:
    """Every link has reduced cohomology only in its own top dimension."""
    for nu in all_faces(c):
        lk = link(c, nu)
        prof = reduced_cohomology(lk, p)
        for j, m in prof.dims:
            if m and j < lk.dim:
                return False
    return True


def depth_and_cm(c: SimplicialComplex, p: int) -> tuple[int, int, bool]:
    """(depth, dim, is_cm) with depth = least index carrying a summand.

    The Cohen-Macaulay verdict is computed twice, from the table and
    from the link condition, and the two routes must agree.
    """
    table = decomposition(c, p)
    dim = c.dim + 1
    indices = table.indices()
    if not indices:
        raise OracleMismatchError("decomposition table unexpectedly empty")
    depth = indices[0]
    is_cm = depth == dim
    if (max(indices) > dim) or (is_cm != (indices == (dim,))):
        raise OracleMismatchError("table shape contradicts the depth computation")
    if is_cm != reisner_cm_condition(c, p):
        raise OracleMismatchError("link condition disagrees with the table route")
    return depth, dim, is_cm


def analysis_report(c: SimplicialComplex, p: int) -> dict:
    """Serializable summary of the decomposition: {complex, p, dim, depth,
    is_cm, table, fh_counts}.  Every submodule count starts with
    validated False; the caller sets it once brute-force enumeration
    confirms the count."""
    table = decomposition(c, p)
    depth, dim, is_cm = depth_and_cm(c, p)
    return {
        "complex": {
            "n_vertices": c.n_vertices,
            "facets": [list(f) for f in c.facets],
        },
        "p": p,
        "dim": dim,
        "depth": depth,
        "is_cm": is_cm,
        "table": table.to_report(),
        "fh_counts": [
            {
                "i": i,
                "count": fh_count(c, p, i),
                "validated": False,
            }
            for i in table.indices()
        ],
    }


def fh_count(c: SimplicialComplex, p: int, i: int) -> int:
    """Number of F-stable submodules of H^i_m(K[Delta]) if it were the
    direct sum of its face blocks with scalar endomorphisms F_p: one
    subspace per multiplicity space, chosen independently.

    Known to be wrong: x_j maps the block of nu into the block of nu
    minus {j}, so the choices are not independent (two points: 8 here,
    5 in truth; ROADMAP.md, open item 1).  The brute-force enumeration
    that validates it models the same independent blocks.
    """
    check_prime(p)
    table = decomposition(c, p)
    count = 1
    for _, _, m in (e for e in table.entries if e[0] == i):
        count *= num_subspaces(p, m)
    return count
