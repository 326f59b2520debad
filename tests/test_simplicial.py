import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_oracle import face_tuples
from corpus import acceptance_corpus, make_complex
from helpers import (
    boundary_homology_dims,
    cone,
    dim_at,
    euler_characteristic_faces,
    faces,
    is_cone_complex,
    link,
    relabel,
)
from froblab import simplicial
from froblab.cli import main
from froblab.errors import ParseError
from froblab.simplicial import (
    SimplicialComplex,
    from_facets,
    link_cohomology,
    parse_facets_text,
    vertex_mask,
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
# the 7-vertex torus: 14 triangles, 43 faces with the empty one
TORUS_FACETS = [sorted(((i + a) % 7, (i + b) % 7, (i + 3) % 7)) for a, b in ((0, 1), (0, 2)) for i in range(7)]


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


def test_one_torus_run_builds_one_complex(tmp_path, monkeypatch, capsys):
    # the links are read off the facets, not built as complexes: the run
    # builds and normalizes only the parsed complex, once (not once per face)
    built, normalized = [], []
    init, normalize = SimplicialComplex.__init__, simplicial._normalize_facets
    monkeypatch.setattr(SimplicialComplex, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(simplicial, "_normalize_facets", lambda facets: normalized.append(facets) or normalize(facets))
    path = tmp_path / "torus.facets"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in TORUS_FACETS))
    assert main(["analyze-complex", str(path), "--prime", "3"]) == 0
    assert "mismatches: 0" in capsys.readouterr().out
    assert (len(built), len(normalized)) == (1, 1)


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
    expected = {TRIANGLE: ((1, 1),), TWO_POINTS: ((0, 1),), RP2: ((1, 1), (2, 1))}
    for c, dims in expected.items():
        assert link(c, ()) == c
        assert link_cohomology(c, 2, vertex_mask(())) == dims


def test_link_vertex_of_triangle():
    assert link(TRIANGLE, (0,)).facets == ((1,), (2,))
    # two points
    assert link_cohomology(TRIANGLE, 2, vertex_mask((0,))) == ((0, 1),)


def test_link_of_facet_is_empty_complex():
    lk = link(TRIANGLE, (0, 1))
    assert lk.facets == ((),)
    assert lk.dim == -1
    assert link_cohomology(TRIANGLE, 2, vertex_mask((0, 1))) == ((-1, 1),)
    # a vertex set that is not a face has the void link, with no cohomology
    assert link(TRIANGLE, (0, 1, 2)).is_void
    assert link_cohomology(TRIANGLE, 2, vertex_mask((0, 1, 2))) == ()


def test_link_cohomology_matches_links_built_from_facets():
    # each link as a complex of its own, built from {F - sigma : F ⊇ sigma}
    # and normalized, its cohomology also by the homology route
    for c in acceptance_corpus() + [cone(RP2)]:
        for sigma in face_tuples(c):
            lk = link(c, sigma)
            for p in (2, 3):
                dims = link_cohomology(c, p, vertex_mask(sigma))
                assert dims == link_cohomology(lk, p, 0), (c, sigma, p)
                assert dict(dims) == boundary_homology_dims(lk, p), (c, sigma, p)


def test_cohomology_full_simplex_vanishes():
    simplex = from_facets(3, [[0, 1, 2]])
    for p in (2, 3, 5):
        assert link_cohomology(simplex, p, 0) == ()


def test_cohomology_empty_complex():
    assert link_cohomology(EMPTY, 2, 0) == ((-1, 1),)
    assert link_cohomology(VOID, 2, 0) == ()


def test_cohomology_two_points():
    assert link_cohomology(TWO_POINTS, 2, 0) == ((0, 1),)


def test_cohomology_circle():
    assert link_cohomology(TRIANGLE, 2, 0) == ((1, 1),)
    assert link_cohomology(TRIANGLE, 3, 0) == ((1, 1),)


def test_cohomology_projective_plane():
    assert dim_at(link_cohomology(RP2, 2, 0), 1) == 1
    assert dim_at(link_cohomology(RP2, 2, 0), 2) == 1
    assert link_cohomology(RP2, 3, 0) == ()
    assert link_cohomology(RP2, 5, 0) == ()


def test_cohomology_matches_homology_ranks():
    for c in (TRIANGLE, TWO_POINTS, TWO_EDGES, RP2, EMPTY):
        for p in (2, 3):
            dims = link_cohomology(c, p, 0)
            assert dict(dims) == boundary_homology_dims(c, p)


def test_euler_characteristic():
    for c in (TRIANGLE, TWO_POINTS, TWO_EDGES, RP2, EMPTY, from_facets(3, [[0, 1, 2]])):
        for p in (2, 3):
            dims = link_cohomology(c, p, 0)
            chi_cohom = sum((-1) ** j * d for j, d in dims)
            assert chi_cohom == euler_characteristic_faces(c)
            for sigma in face_tuples(c):
                dims_lk = link_cohomology(c, p, vertex_mask(sigma))
                chi_lk = sum((-1) ** j * d for j, d in dims_lk)
                assert chi_lk == euler_characteristic_faces(link(c, sigma))


def test_relabeling_invariance():
    rng = random.Random(3)
    for c in (TRIANGLE, TWO_EDGES, RP2):
        base = {p: link_cohomology(c, p, 0) for p in (2, 3)}
        for _ in range(4):
            perm = list(range(c.n_vertices))
            rng.shuffle(perm)
            rc = relabel(c, perm)
            for p in (2, 3):
                assert link_cohomology(rc, p, 0) == base[p]


def test_cones_are_acyclic():
    for c in (TRIANGLE, TWO_POINTS, TWO_EDGES, RP2):
        k = cone(c)
        assert is_cone_complex(k)
        for p in (2, 3):
            assert link_cohomology(k, p, 0) == ()
