"""Shared test corpus: named complexes plus every complex on at most
four vertices (one representative per relabeling class), and
make_complex, which builds the complexes that the parser would reject."""

import itertools

from froblab.simplicial import SimplicialComplex, _normalize_facets, from_facets


def make_complex(n_vertices, facets):
    """Normalize and build; unlike from_facets, vertices that no facet
    covers are allowed, and so are the empty and the void complex."""
    return SimplicialComplex(n_vertices, _normalize_facets(facets))


TWO_POINTS = from_facets(2, [[0], [1]])
TRIANGLE = from_facets(3, [[0, 1], [1, 2], [0, 2]])
TWO_EDGES = from_facets(4, [[0, 1], [2, 3]])
EMPTY = make_complex(0, [[]])
POINT = from_facets(1, [[0]])
SEGMENT = from_facets(2, [[0, 1]])
FULL3 = from_facets(3, [[0, 1, 2]])

RP2 = from_facets(6, [
    (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5),
])


def boundary_facets(k, first=0):
    """Facets of the boundary of the k-simplex on first, ..., first + k."""
    return list(itertools.combinations(range(first, first + k + 1), k))


TORUS = from_facets(7, [
    tuple(sorted(((i + a) % 7, (i + b) % 7, (i + 3) % 7))) for a, b in ((0, 1), (0, 2)) for i in range(7)
])
# two triangle boundaries joined at vertex 0: blocks of multiplicity 2
# (at the empty face) and 3 (at the shared vertex)
WEDGE = make_complex(5, boundary_facets(2) + [(0, 3), (0, 4), (3, 4)])
BOUNDARY_4 = from_facets(5, boundary_facets(4))
# search spaces of tens of thousands of bits at p = 3
BOUNDARY_5 = from_facets(6, boundary_facets(5))
CROSS_POLYTOPE_8 = from_facets(8, list(itertools.product(*((2 * i, 2 * i + 1) for i in range(4)))))
TWO_BOUNDARY_4 = from_facets(10, boundary_facets(4) + boundary_facets(4, 5))


def _canonical(n, facets):
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(
            sorted(tuple(sorted(perm[v] for v in f)) for f in facets)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def small_complexes(max_vertices=4, include_empty=True):
    """Every complex with all of its <= max_vertices vertices covered,
    one representative per isomorphism class, empty complex optional."""
    out = []
    if include_empty:
        out.append(EMPTY)
    for n in range(1, max_vertices + 1):
        subsets = [
            tuple(s)
            for size in range(1, n + 1)
            for s in itertools.combinations(range(n), size)
        ]
        seen = set()
        for mask in range(1, 2 ** len(subsets)):
            fam = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
            if any(
                set(a) < set(b) for a in fam for b in fam if a != b
            ):
                continue
            if set().union(*map(set, fam)) != set(range(n)):
                continue
            key = _canonical(n, fam)
            if key in seen:
                continue
            seen.add(key)
            out.append(from_facets(n, fam))
    return out


def acceptance_corpus():
    return small_complexes() + [TRIANGLE, TWO_EDGES, RP2]
