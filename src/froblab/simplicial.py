"""Finite abstract simplicial complexes and reduced cohomology over F_p.

Faces are sorted tuples of vertex labels.  The empty face () belongs to
every nonvoid complex and is the unique face of dimension -1.  Two
degenerate objects are kept distinct: the empty complex {()} (whose
degree -1 reduced cohomology is K) and the void complex with no faces
at all, which only ever arises as a sentinel and has zero cohomology.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import lru_cache

from .errors import NotAFaceError, ParseError
from .gfp_linalg import check_prime, row_echelon
from .record import record

Face = tuple[int, ...]


def _normalize_facets(facets) -> tuple[Face, ...]:
    cleaned = []
    for f in facets:
        t = tuple(sorted(set(int(v) for v in f)))
        cleaned.append(t)
    cleaned = sorted(set(cleaned), key=lambda t: (len(t), t))
    # drop facets contained in another (antichain reduction)
    kept = [
        f
        for f in cleaned
        if not any(set(f) < set(g) for g in cleaned)
    ]
    return tuple(kept)


@record
class SimplicialComplex:
    """Vertices 0..n_vertices-1 with a canonical antichain of facets.

    facets == () encodes the void complex; facets == ((),) encodes the
    empty complex {()}.  Vertices not covered by any facet are permitted
    on internally built complexes (links keep ambient labels) but are
    rejected by from_facets.
    """

    n_vertices: int
    facets: tuple[Face, ...]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("negative vertex count")
        if self.facets != _normalize_facets(self.facets):
            raise ValueError("facets are not in canonical antichain form")
        for f in self.facets:
            for v in f:
                if v < 0 or v >= self.n_vertices:
                    raise ValueError(f"vertex label {v} out of range")

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Max facet dimension; -1 for {()} and -2 for the void complex."""
        if self.is_void:
            return -2
        return max(len(f) for f in self.facets) - 1

    def is_face(self, sigma) -> bool:
        return tuple(sorted(set(sigma))) in _face_set(self)


def make_complex(n_vertices: int, facets) -> SimplicialComplex:
    """Normalize and build; uncovered vertices allowed (internal use)."""
    return SimplicialComplex(n_vertices, _normalize_facets(facets))


def from_facets(n_vertices: int, facets) -> SimplicialComplex:
    """Parse-time constructor: validates labels and rejects isolated ones."""
    norm = _normalize_facets(facets)
    covered = set()
    for f in norm:
        for v in f:
            if v < 0 or v >= n_vertices:
                raise ParseError(f"vertex label {v} out of range [0, {n_vertices})")
            covered.add(v)
    missing = sorted(set(range(n_vertices)) - covered)
    if missing:
        raise ParseError(f"vertices {missing} belong to no facet")
    return SimplicialComplex(n_vertices, norm)


def parse_facets_text(text: str) -> SimplicialComplex:
    """Facet-list format: one facet per line, whitespace-separated labels,
    lines starting with '#' ignored."""
    facets = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            facets.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not facets:
        raise ParseError("no facets found")
    n = 1 + max(v for f in facets for v in f)
    return from_facets(n, facets)


@lru_cache(maxsize=None)
def faces(c: SimplicialComplex) -> dict[int, tuple[Face, ...]]:
    """All faces grouped by dimension, including () at dimension -1."""
    if c.is_void:
        return {}
    seen: set[Face] = set()
    for f in c.facets:
        for k in range(len(f) + 1):
            seen.update(itertools.combinations(f, k))
    out: dict[int, list[Face]] = {}
    for s in seen:
        out.setdefault(len(s) - 1, []).append(s)
    return {d: tuple(sorted(fs)) for d, fs in sorted(out.items())}


def all_faces(c: SimplicialComplex) -> tuple[Face, ...]:
    return tuple(f for d in sorted(faces(c)) for f in faces(c)[d])


@lru_cache(maxsize=None)
def _face_set(c: SimplicialComplex) -> frozenset[Face]:
    return frozenset(all_faces(c))


def link(c: SimplicialComplex, sigma) -> SimplicialComplex:
    """link(sigma): faces disjoint from sigma whose union with it is a face.

    link(()) is the complex itself; the link of a facet is {()}.
    """
    s = tuple(sorted(set(sigma)))
    if not c.is_face(s):
        raise NotAFaceError(f"{s} is not a face")
    if not s:
        return c
    lk_facets = []
    for f in c.facets:
        if set(s) <= set(f):
            lk_facets.append(tuple(v for v in f if v not in s))
    return make_complex(c.n_vertices, lk_facets)


@record
class CohomologyProfile:
    """Reduced cohomology dimensions over F_p; only nonzero degrees stored."""

    p: int
    dims: tuple[tuple[int, int], ...]


def coboundary_matrix(src: Sequence[Face], tgt: Sequence[Face], p: int) -> list[list[int]]:
    """Matrix of the coboundary between the cochains on the face lists
    src and tgt; rows indexed by tgt, columns by src, sign (-1)^k for
    inserting the new vertex at position k of the sorted target face."""
    idx = {f: i for i, f in enumerate(src)}
    m = [[0] * len(src) for _ in tgt]
    for row, tau in zip(m, tgt):
        for k in range(len(tau)):
            sigma = tau[:k] + tau[k + 1 :]
            ci = idx.get(sigma)
            if ci is not None:
                row[ci] = (row[ci] + (-1) ** k) % p
    return m


def cochain_cohomology(cochains: dict[int, Sequence[Face]], p: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (degree, dim) of the cohomology over F_p of the cochain
    complex with one summand per face of cochains[d] in degree d and
    coboundary_matrix as differential; dim = faces - rank out - rank in."""
    ranks = {
        d: len(row_echelon(coboundary_matrix(fs, cochains.get(d + 1, ()), p), p)[1])
        for d, fs in cochains.items()
    }
    dims = ((d, len(cochains[d]) - ranks[d] - ranks.get(d - 1, 0)) for d in sorted(cochains))
    return tuple((d, h) for d, h in dims if h)


@lru_cache(maxsize=None)
def reduced_cohomology(c: SimplicialComplex, p: int) -> CohomologyProfile:
    """Reduced simplicial cohomology dimensions over F_p.

    Computed by cochain_cohomology on the augmented cochain complex (the
    empty face sits in degree -1).  The void complex has all dims zero;
    {()} has exactly dims[-1] = 1.
    """
    check_prime(p)
    return CohomologyProfile(p, cochain_cohomology(faces(c), p))
