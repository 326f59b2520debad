"""Graded decomposition of local cohomology for face rings over F_p.

For a complex Delta with face ring R = K[Delta] and homogeneous maximal
ideal m, each H^i_m(R) splits as a finite direct sum of simple modules
with injective Frobenius action, one isotypic block per face nu with
multiplicity dim H~^{i-1-|nu|}(link(nu); F_p).  This module computes
that table, the graded Hilbert function it predicts, and an independent
brute-force oracle that evaluates any single multidegree piece directly
from the monomial-localization complex.  Both depend on a multidegree
only through its sign pattern, so the oracle box is checked once per
pattern, not once per box point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import OracleMismatchError
from .gfp_linalg import check_prime, num_subspaces, row_echelon
from .simplicial import (
    Face,
    SimplicialComplex,
    all_faces,
    coboundary_matrix,
    link,
    reduced_cohomology,
)

MultiDegree = tuple[int, ...]


@dataclass(frozen=True)
class LocalCohomologyTable:
    """Multiplicities m(i, nu) of the simple summands of H^i_m(K[Delta]).

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


def neg_support(theta: MultiDegree) -> Face:
    return tuple(i for i, t in enumerate(theta) if t < 0)


def pos_support(theta: MultiDegree) -> Face:
    return tuple(i for i, t in enumerate(theta) if t > 0)


def graded_dim(c: SimplicialComplex, p: int, i: int, theta) -> int:
    """dim of the theta-graded piece of H^i_m(K[Delta]), read off the table.

    Nonzero only when theta has no positive entry and the negatively
    supported variables form a face nu; then it equals m(i, nu).
    """
    theta = tuple(int(t) for t in theta)
    if any(t > 0 for t in theta):
        return 0
    nu = neg_support(theta)
    if not c.is_face(nu):
        return 0
    return decomposition(c, p).multiplicity(i, nu)


@lru_cache(maxsize=None)
def _cech_dims_by_signs(c: SimplicialComplex, p: int, nu: Face, pi: Face) -> tuple[tuple[int, int], ...]:
    """Cohomology of the single-multidegree piece of the localization
    complex.  The term in cohomological degree i has one F_p summand for
    each face sigma with |sigma| = i, nu contained in sigma, and
    sigma union pi a face; differentials carry the usual alternating
    signs.  Depends on theta only through the sign pattern (nu, pi)."""
    if c.is_void:
        return ()
    active: dict[int, list[Face]] = {}
    nu_set = set(nu)
    pi_set = set(pi)
    for sigma in all_faces(c):
        if nu_set <= set(sigma) and c.is_face(set(sigma) | pi_set):
            active.setdefault(len(sigma), []).append(sigma)
    if not active:
        return ()
    top = max(active)
    ranks: dict[int, int] = {}
    for i in range(0, top + 1):
        m = coboundary_matrix(active.get(i, []), active.get(i + 1, []), p)
        ranks[i] = len(row_echelon(m, p)[1])
    out = []
    for i in range(0, top + 1):
        h = (len(active.get(i, [])) - ranks.get(i, 0)) - ranks.get(i - 1, 0)
        if h:
            out.append((i, h))
    return tuple(out)


def cech_graded_oracle(c: SimplicialComplex, p: int, theta) -> dict[int, int]:
    """Brute-force dims of every H^i_m(K[Delta]) in one multidegree,
    built directly from the localization complex with no reference to
    links or to the decomposition table."""
    check_prime(p)
    theta = tuple(int(t) for t in theta)
    dims = _cech_dims_by_signs(c, p, neg_support(theta), pos_support(theta))
    return dict(dims)


def oracle_box_check(
    c: SimplicialComplex, p: int, lo: int = -3, hi: int = 1
) -> tuple[int, list[tuple[MultiDegree, int, int, int]]]:
    """Compare graded_dim against the oracle for every multidegree in the
    box [lo, hi]^n and every cohomological index.  Returns the number of
    agreeing (theta, i) pairs and a list of mismatches (expected empty).

    Both sides depend on theta only through its sign pattern, so each of
    the at most 3^n patterns is evaluated once, at one of its box points,
    and counted for all of them; a disagreeing pattern is expanded back
    into its box points, listed in the order of the box."""
    top = c.dim + 1
    by_sign = (
        range(lo, min(hi, -1) + 1),
        range(max(lo, 0), min(hi, 0) + 1),
        range(max(lo, 1), hi + 1),
    )
    values = [r for r in by_sign if r]
    agree = 0
    mismatches = []
    for pattern in itertools.product(values, repeat=c.n_vertices):
        theta = tuple(r[0] for r in pattern)
        weight = math.prod(len(r) for r in pattern)
        oracle = cech_graded_oracle(c, p, theta)
        for i in range(0, top + 1):
            lhs = graded_dim(c, p, i, theta)
            rhs = oracle.get(i, 0)
            if lhs == rhs:
                agree += weight
            else:
                mismatches += [(t, i, lhs, rhs) for t in itertools.product(*pattern)]
    mismatches.sort()
    return agree, mismatches


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
    """Number of F-stable submodules of H^i_m(K[Delta]) predicted by the
    isotypic structure: distinct faces give non-isomorphic simples with
    scalar endomorphisms F_p, so submodules choose one subspace per
    multiplicity space independently.  Validated against brute-force
    enumeration at desk scale; reports must carry that label.
    """
    check_prime(p)
    table = decomposition(c, p)
    count = 1
    for _, _, m in (e for e in table.entries if e[0] == i):
        count *= num_subspaces(p, m)
    return count
