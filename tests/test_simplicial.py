import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import acceptance_corpus, make_complex
from helpers import (
    boundary_homology_dims,
    cone,
    dim_at,
    euler_characteristic_faces,
    faces,
    is_cone_complex,
    relabel,
)
from froblab import simplicial
from froblab.errors import NotAFaceError, ParseError
from froblab.simplicial import (
    SimplicialComplex,
    all_faces,
    from_facets,
    link,
    links,
    parse_facets_text,
    reduced_cohomology,
)

TRIANGLE = from_facets(3, [[0, 1], [1, 2], [0, 2]])
TWO_POINTS = from_facets(2, [[0], [1]])
TWO_EDGES = from_facets(4, [[0, 1], [2, 3]])
EMPTY = make_complex(0, [[]])
VOID = make_complex(0, [])

# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5),
]
RP2 = from_facets(6, RP2_FACETS)


def test_from_facets_triangle():
    assert TRIANGLE.dim == 1
    assert TRIANGLE.facets == ((0, 1), (0, 2), (1, 2))


def test_from_facets_antichain_reduction():
    c = from_facets(2, [[0, 1], [0]])
    assert c.facets == ((0, 1),)


def test_from_facets_errors():
    with pytest.raises(ParseError):
        from_facets(2, [[0, 3]])
    with pytest.raises(ParseError):
        from_facets(3, [[0, 1]])  # vertex 2 uncovered


def normalize_facets_pairwise(facets):
    """The canonical antichain by comparing every pair of facets: the
    reference for the vertex-indexed reduction of the parser."""
    cleaned = {tuple(sorted(set(int(v) for v in f))) for f in facets}
    kept = [f for f in cleaned if not any(set(f) < set(g) for g in cleaned)]
    return tuple(sorted(kept, key=lambda t: (len(t), t)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.lists(st.integers(0, 6), max_size=5), max_size=9))
def test_normalization_matches_pairwise_reduction(facets):
    norm = simplicial._normalize_facets(facets)
    assert norm == normalize_facets_pairwise(facets)
    assert SimplicialComplex(7, norm) == SimplicialComplex(7, tuple(norm))


def test_one_parse_normalizes_once(monkeypatch):
    calls = []
    normalize = simplicial._normalize_facets

    def counted(facets):
        calls.append(facets)
        return normalize(facets)

    monkeypatch.setattr(simplicial, "_normalize_facets", counted)
    c = parse_facets_text("0 1\n1 2\n0 2\n0\n")
    assert c == TRIANGLE and len(calls) == 1
    # a complex built from plain tuples is still checked
    with pytest.raises(ValueError):
        SimplicialComplex(3, ((0,), (0, 1)))
    assert len(calls) == 2


def test_uncovered_vertices_named_up_to_ten():
    with pytest.raises(ParseError, match=r"^vertices \[1, 2, 3, 4, 5, 6, 7, 8, 9, 10\] belong"):
        from_facets(11, [[0]])
    # the vertex count may exceed the largest label by any amount here
    with pytest.raises(ParseError, match=r"^vertices \[1, 2, 3, 4, 5, 6, 7, 8, 9, 10\] and 89 more belong"):
        from_facets(100, [[0]])
    with pytest.raises(ParseError, match=r"^vertices \[0, 1, 2, 3, 4, 5, 6, 7, 8, 9\] and 1 more belong"):
        from_facets(13, [[11, 12]])


def test_parse_facets_text():
    c = parse_facets_text("# comment\n0 1\n1 2\n0 2\n")
    assert c == TRIANGLE
    with pytest.raises(ParseError):
        parse_facets_text("# nothing\n")
    with pytest.raises(ParseError):
        parse_facets_text("0 x\n")


def test_faces_triangle():
    fs = faces(TRIANGLE)
    assert len(fs[-1]) == 1 and len(fs[0]) == 3 and len(fs[1]) == 3


def test_faces_small():
    assert faces(from_facets(1, [[0]])) == {-1: ((),), 0: (((0,)),)}
    assert faces(TWO_POINTS)[0] == ((0,), (1,))
    assert faces(VOID) == {}


def test_link_empty_face_is_whole_complex():
    for c in (TRIANGLE, TWO_POINTS, RP2):
        assert link(c, ()) == c


def test_link_vertex_of_triangle():
    lk = link(TRIANGLE, (0,))
    assert lk.facets == ((1,), (2,))


def test_link_of_facet_is_empty_complex():
    lk = link(TRIANGLE, (0, 1))
    assert lk.facets == ((),)
    assert lk.dim == -1


def test_links_are_built_canonical_from_facets():
    # link hands its facets to the validating constructor without
    # normalizing them first; they must already be the canonical antichain
    for c in acceptance_corpus() + [cone(RP2)]:
        assert tuple(links(c)) == all_faces(c)
        for sigma, lk in links(c).items():
            rest = [set(f) - set(sigma) for f in c.facets if set(sigma) <= set(f)]
            assert lk == link(c, sigma) == make_complex(c.n_vertices, rest), (c, sigma)


def test_link_not_a_face():
    with pytest.raises(NotAFaceError):
        link(TRIANGLE, (0, 1, 2))


def test_cohomology_full_simplex_vanishes():
    simplex = from_facets(3, [[0, 1, 2]])
    for p in (2, 3, 5):
        assert reduced_cohomology(simplex, p) == ()


def test_cohomology_empty_complex():
    assert reduced_cohomology(EMPTY, 2) == ((-1, 1),)
    assert reduced_cohomology(VOID, 2) == ()


def test_cohomology_two_points():
    assert reduced_cohomology(TWO_POINTS, 2) == ((0, 1),)


def test_cohomology_circle():
    assert reduced_cohomology(TRIANGLE, 2) == ((1, 1),)
    assert reduced_cohomology(TRIANGLE, 3) == ((1, 1),)


def test_cohomology_projective_plane():
    assert dim_at(reduced_cohomology(RP2, 2), 1) == 1
    assert dim_at(reduced_cohomology(RP2, 2), 2) == 1
    assert reduced_cohomology(RP2, 3) == ()
    assert reduced_cohomology(RP2, 5) == ()


def test_cohomology_matches_homology_ranks():
    for c in (TRIANGLE, TWO_POINTS, TWO_EDGES, RP2, EMPTY):
        for p in (2, 3):
            dims = reduced_cohomology(c, p)
            assert dict(dims) == boundary_homology_dims(c, p)


def test_euler_characteristic():
    for c in (TRIANGLE, TWO_POINTS, TWO_EDGES, RP2, EMPTY, from_facets(3, [[0, 1, 2]])):
        for p in (2, 3):
            dims = reduced_cohomology(c, p)
            chi_cohom = sum((-1) ** j * d for j, d in dims)
            assert chi_cohom == euler_characteristic_faces(c)
            for sigma in all_faces(c):
                lk = link(c, sigma)
                dims_lk = reduced_cohomology(lk, p)
                chi_lk = sum((-1) ** j * d for j, d in dims_lk)
                assert chi_lk == euler_characteristic_faces(lk)


def test_relabeling_invariance():
    rng = random.Random(3)
    for c in (TRIANGLE, TWO_EDGES, RP2):
        base = {p: reduced_cohomology(c, p) for p in (2, 3)}
        for _ in range(4):
            perm = list(range(c.n_vertices))
            rng.shuffle(perm)
            rc = relabel(c, perm)
            for p in (2, 3):
                assert reduced_cohomology(rc, p) == base[p]


def test_cones_are_acyclic():
    for c in (TRIANGLE, TWO_POINTS, TWO_EDGES, RP2):
        k = cone(c)
        assert is_cone_complex(k)
        for p in (2, 3):
            assert reduced_cohomology(k, p) == ()
