"""Finite abstract simplicial complexes and reduced cohomology over F_p.

Faces are sorted tuples of vertex labels.  The empty face () belongs to
every nonvoid complex and is the unique face of dimension -1.  Two
degenerate objects are kept distinct: the empty complex {()} (whose
degree -1 reduced cohomology is K) and the void complex with no faces
at all, which only ever arises as a sentinel and has zero cohomology.

Each complex has one cached table of its faces, face_masks: vertex
bitmasks (bit v for vertex v), the submasks of its facet masks, grouped
by size.  The nonface ideal, the face walks of froblab.local_cohomology
and the graded oracle read it.  link_cohomology builds the same kind of
table for the link of a face straight from the facets that contain it,
so no complex is built per link.  coboundary_rows holds the one
coboundary sign rule on such masks.  cochain_dims computes the
cohomology of a cochain complex on them: the reduced cohomology of a
link here, and in froblab.local_cohomology the graded oracle and the
quotient of each pair of map_ranks, each a filter of the table; the
face blocks of froblab.fmodule take cocycle bases from the same rows.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache

from .errors import ParseError
from .gfp_linalg import check_prime, row_echelon
from .record import record

Face = tuple[int, ...]


class _Canonical(tuple):
    """Facets as _normalize_facets returns them: canonical, not checked again."""
    __slots__ = ()


def _normalize_facets(facets) -> tuple[Face, ...]:
    """The canonical antichain: sorted facets by size, then labels, less any
    in a larger facet, which must pass through its least shared vertex."""
    cleaned = sorted({tuple(sorted(set(int(v) for v in f))) for f in facets}, key=lambda t: (len(t), t))
    through: dict[int, list[frozenset[int]]] = {}
    for f in cleaned:
        for v in f:
            through.setdefault(v, []).append(frozenset(f))

    def held(f: Face) -> bool:  # the empty facet lies in every other
        others = through[min(f, key=lambda v: len(through[v]))] if f else cleaned[1:]
        return any(len(g) > len(f) and all(v in g for v in f) for g in others)

    return _Canonical(f for f in cleaned if not held(f))


@record
class SimplicialComplex:
    """Vertices 0..n_vertices-1 with a canonical antichain of facets.

    facets == () encodes the void complex; facets == ((),) encodes the
    empty complex {()}.  Vertices not covered by any facet are permitted
    here but rejected by from_facets, the parse-time constructor.
    """

    n_vertices: int
    facets: tuple[Face, ...]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("negative vertex count")
        if type(self.facets) is not _Canonical and self.facets != _normalize_facets(self.facets):
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


def from_facets(n_vertices: int, facets) -> SimplicialComplex:
    """Parse-time constructor: validates labels and rejects isolated ones,
    naming the first ten."""
    norm = _normalize_facets(facets)
    covered = set()
    for f in norm:
        for v in f:
            if v < 0 or v >= n_vertices:
                raise ParseError(f"vertex label {v} out of range [0, {n_vertices})")
            covered.add(v)
    uncovered = n_vertices - len(covered)
    if uncovered:
        # the first ten uncovered labels lie below len(covered) + 10
        missing = [v for v in range(min(n_vertices, len(covered) + 10)) if v not in covered]
        named = missing if uncovered <= 10 else f"{missing[:10]} and {uncovered - 10} more"
        raise ParseError(f"vertices {named} belong to no facet")
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


def vertex_mask(sigma) -> int:
    """The vertex set sigma as a bitmask: bit v for vertex v."""
    return sum(1 << v for v in set(sigma))


def mask_vertices(mask: int) -> Face:
    """The vertices of a bitmask as a sorted tuple; undoes vertex_mask."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, in decreasing order: mask itself first, 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _submask_table(tops) -> tuple[dict[int, tuple[int, ...]], frozenset[int]]:
    """Every submask of the masks tops, grouped by size, sizes and masks
    each in increasing order, and their set."""
    masks = frozenset(m for top in tops for m in submasks(top))
    by_size: dict[int, list[int]] = {}
    for m in sorted(masks):
        by_size.setdefault(m.bit_count(), []).append(m)
    return {k: tuple(ms) for k, ms in by_size.items()}, masks


@lru_cache(maxsize=None)
def face_masks(c: SimplicialComplex) -> tuple[dict[int, tuple[int, ...]], frozenset[int]]:
    """The faces of c as vertex bitmasks, grouped by size, sizes and masks
    each in increasing order, and their set: the submasks of the facets."""
    return _submask_table(vertex_mask(f) for f in c.facets)


def coboundary_rows(src: Sequence[int], tgt: Sequence[int]) -> list[dict[int, int]]:
    """The coboundary from the cochains on the face masks src to those on
    tgt, one row per tau of tgt keyed by the masks of src: it sends sigma
    to each tau = sigma + {v} with the sign (-1)^k, k the number of
    vertices of tau below v."""
    src = set(src)
    rows = []
    for tau in tgt:
        row = {}
        sign = 1
        rest = tau
        while rest:
            bit = rest & -rest
            if tau ^ bit in src:
                row[tau ^ bit] = sign
            sign = -sign
            rest ^= bit
        rows.append(row)
    return rows


def cochain_dims(cochains_by_size: dict[int, Sequence[int]], p: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (size, dim) of the cohomology over F_p of the cochain
    complex with one summand per face mask of cochains_by_size[k] in
    degree k and the coboundary of coboundary_rows; dim = faces - rank
    out - rank in, the ranks by row_echelon."""
    ranks = {
        size: len(row_echelon(coboundary_rows(src, cochains_by_size.get(size + 1, ())), p)[1])
        for size, src in cochains_by_size.items()
    }
    dims = ((k, len(fs) - ranks[k] - ranks.get(k - 1, 0)) for k, fs in sorted(cochains_by_size.items()))
    return tuple((k, h) for k, h in dims if h)


@lru_cache(maxsize=None)
def link_cohomology(c: SimplicialComplex, p: int, nu: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (degree, dim) of the reduced cohomology over F_p of the link
    of the face with vertex bitmask nu: the faces disjoint from nu whose
    union with it is a face, that is the submasks of F - nu over the
    facets F containing nu.

    Computed by cochain_dims on the augmented cochain complex, a face of
    size k in degree k - 1 (the empty face in degree -1).  nu = 0 gives
    the complex itself.  The void complex has none, and so has a nu that
    is not a face; the link of a facet, {()}, has exactly ((-1, 1),).
    """
    check_prime(p)
    tops = (f ^ nu for f in map(vertex_mask, c.facets) if f & nu == nu)
    return tuple((k - 1, h) for k, h in cochain_dims(_submask_table(tops)[0], p))
