import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_oracle import (
    cech_dims_by_face_tuples,
    cech_graded_oracle,
    graded_dim,
    is_face,
    oracle_box_check_by_signs,
    oracle_box_check_per_theta,
)
from corpus import (
    BOUNDARY_5,
    EMPTY,
    FULL3,
    POINT,
    RP2,
    SEGMENT,
    TRIANGLE,
    TWO_EDGES,
    TWO_POINTS,
    acceptance_corpus,
    boundary_facets,
    make_complex,
    small_complexes,
)
from helpers import by_index, cone, reisner_by_links, relabel, table_entries
from katzman_oracle import antichains, katzman_count
from froblab import local_cohomology as lc
from froblab.errors import CapacityError, OracleMismatchError, UnsupportedInputError
from froblab.local_cohomology import (
    BOX,
    decomposition,
    depth_and_cm,
    map_ranks,
    oracle_box_check,
    reisner_cm_condition,
)
from froblab.fmodule import face_count
from froblab.simplicial import from_facets, vertex_mask


def test_decomposition_two_points():
    t = decomposition(TWO_POINTS, 2)
    assert by_index(t, 1) == {(): 1, (0,): 1, (1,): 1}
    assert by_index(t, 0) == {}
    assert {i for i, _ in t} == {1}


def test_decomposition_triangle():
    t = decomposition(TRIANGLE, 3)
    by2 = by_index(t, 2)
    assert by2[()] == 1
    assert all(by2[(v,)] == 1 for v in range(3))
    assert all(by2[e] == 1 for e in [(0, 1), (0, 2), (1, 2)])
    assert len(by2) == 7
    assert by_index(t, 1) == {}


def test_decomposition_full_simplex():
    for p in (2, 5):
        t = decomposition(FULL3, p)
        assert table_entries(t) == ((3, (0, 1, 2), 1),)


def test_decomposition_is_read_only_in_key_order():
    t = decomposition(RP2, 2)
    assert list(t) == sorted(t)
    with pytest.raises(TypeError):
        t[0, 0] = 1


def test_map_ranks_are_read_only():
    # cached and shared with fmodule.check_maps and face_count
    ranks = map_ranks(TRIANGLE, 2)
    with pytest.raises(TypeError):
        ranks[2, 1, 0] = 0


def test_graded_dim_positive_entry_vanishes():
    for theta in [(1, 0), (0, 2), (1, -1)]:
        assert graded_dim(TWO_POINTS, 2, 1, theta) == 0


def test_graded_dim_two_points_examples():
    assert graded_dim(TWO_POINTS, 2, 1, (0, 0)) == 1
    assert graded_dim(TWO_POINTS, 2, 1, (-1, -1)) == 0
    assert graded_dim(TWO_POINTS, 2, 1, (-3, 0)) == 1


def test_oracle_full_simplex_two_vertices():
    assert cech_graded_oracle(SEGMENT, 2, (-1, -1)) == {2: 1}


def test_oracle_two_points_origin():
    assert cech_graded_oracle(TWO_POINTS, 2, (0, 0)) == {1: 1}


def test_oracle_agrees_on_named_complexes():
    for c in (TWO_POINTS, TRIANGLE, TWO_EDGES, FULL3, POINT, SEGMENT, EMPTY):
        for p in (2, 3):
            agree, disagree = oracle_box_check(c, p)
            assert disagree == 0
            assert agree > 0


def test_oracle_agrees_on_projective_plane():
    for p in (2, 3):
        _, disagree = oracle_box_check(RP2, p)
        assert disagree == 0


# the reference loops take any box; the library checks BOX alone
BOXES = [(-3, 1), (0, 0), (1, 3), (-2, -1)]


def test_sign_patterns_match_per_theta_loop_on_corpus():
    for c in acceptance_corpus():
        for p in (2, 3):
            for lo, hi in BOXES:
                agree, points = oracle_box_check_per_theta(c, p, lo, hi)
                assert oracle_box_check_by_signs(c, p, lo, hi) == (agree, points)
                if (lo, hi) == BOX:
                    assert oracle_box_check(c, p) == (agree, len(points))


@st.composite
def complexes(draw, max_vertices=5):
    """Random complexes on at most max_vertices vertices; a vertex may
    belong to no facet, and the complex may be {empty face}."""
    n = draw(st.integers(1, max_vertices))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=5))
    return make_complex(n, [sorted(f) for f in facets])


@settings(derandomize=True, deadline=None)
@given(complexes(), st.sampled_from([2, 3]), st.sampled_from(BOXES))
def test_sign_patterns_match_per_theta_loop_on_random_complexes(c, p, box):
    agree, points = oracle_box_check_per_theta(c, p, *BOX)
    assert oracle_box_check(c, p) == (agree, len(points))
    assert oracle_box_check_by_signs(c, p, *box) == oracle_box_check_per_theta(c, p, *box)


def assert_pieces_match_face_tuples(c, p):
    """Every sign pattern (nu, pi) of the vertices, those that split no
    face included: there both routes must give no cohomology."""
    for signs in itertools.product((-1, 0, 1), repeat=c.n_vertices):
        nu = tuple(v for v, s in enumerate(signs) if s < 0)
        pi = tuple(v for v, s in enumerate(signs) if s > 0)
        expected = cech_dims_by_face_tuples(c, p, nu, pi)
        assert lc._cech_dims_by_signs(c, p, vertex_mask(nu), vertex_mask(pi)) == expected, (c, p, nu, pi)
        if not is_face(c, nu + pi):
            assert expected == ()


def test_bitmask_pieces_match_face_tuples_on_corpus():
    for c in acceptance_corpus():
        for p in (2, 3):
            assert_pieces_match_face_tuples(c, p)


@settings(derandomize=True, deadline=None)
@given(complexes(), st.sampled_from([2, 3]))
def test_bitmask_pieces_match_face_tuples_on_random_complexes(c, p):
    assert_pieces_match_face_tuples(c, p)


def test_face_walk_matches_sign_pattern_loop():
    for c in (RP2, BOUNDARY_5):
        agree, points = oracle_box_check_by_signs(c, 3, *BOX)
        assert oracle_box_check(c, 3) == (agree, len(points))


def test_forced_mismatch_is_reported_alike(monkeypatch):
    true_table = lc.decomposition

    def with_phantom(c, p):
        # one face, (0,), at one index gains a phantom summand
        t = dict(true_table(c, p))
        t[2, 0b1] = t.get((2, 0b1), 0) + 1
        return dict(sorted(t.items()))

    monkeypatch.setattr(lc, "decomposition", with_phantom)
    for c in (TRIANGLE, TWO_EDGES, RP2):
        for lo, hi in BOXES:
            # the phantom shows exactly in the boxes with a negative and a zero entry, BOX among them
            agree, points = oracle_box_check_per_theta(c, 2, lo, hi)
            assert oracle_box_check_by_signs(c, 2, lo, hi) == (agree, points)
            assert bool(points) == (lo < 0 <= hi)
            if (lo, hi) == BOX:
                assert oracle_box_check(c, 2) == (agree, len(points))


def test_table_equivariant_under_relabeling():
    rng = random.Random(31)
    for c in (TRIANGLE, TWO_EDGES, RP2):
        for _ in range(3):
            perm = list(range(c.n_vertices))
            rng.shuffle(perm)
            rc = relabel(c, perm)
            t = decomposition(c, 2)
            rt = decomposition(rc, 2)
            expected = sorted(
                (i, tuple(sorted(perm[v] for v in nu)), m) for i, nu, m in table_entries(t)
            )
            assert list(table_entries(rt)) == expected


def test_depth_and_cm_examples():
    for p in (2, 3):
        assert depth_and_cm(TRIANGLE, p) == (2, 2, True)
    assert depth_and_cm(TWO_EDGES, 2) == (1, 2, False)
    assert depth_and_cm(RP2, 3) == (3, 3, True)
    d2 = depth_and_cm(RP2, 2)
    assert d2 == (2, 3, False)
    assert depth_and_cm(EMPTY, 2) == (0, 0, True)


def test_index_above_the_dimension_is_a_table_shape_mismatch(monkeypatch):
    true_table = lc.decomposition

    def with_high_index(c, p):
        # a phantom summand at index dim + 2, dim = c.dim + 1 the Krull dimension
        return {**true_table(c, p), (c.dim + 3, 0): 1}

    monkeypatch.setattr(lc, "decomposition", with_high_index)
    with pytest.raises(OracleMismatchError, match="^table shape contradicts the depth computation$"):
        depth_and_cm(TRIANGLE, 2)


def test_reisner_condition_matches_depth_on_corpus():
    for c in small_complexes():
        for p in (2, 3):
            depth, dim, is_cm = depth_and_cm(c, p)
            assert is_cm == reisner_cm_condition(c, p)
            assert 0 <= depth <= dim


def test_reisner_condition_on_the_table_is_the_per_link_loop_on_corpus():
    for c in acceptance_corpus():
        for p in (2, 3):
            assert reisner_cm_condition(c, p) == reisner_by_links(c, p)


@st.composite
def complexes_of_large_facets(draw, max_vertices=6):
    """Random complexes on 3 to max_vertices vertices with facets of 2 to 4
    vertices, a vertex possibly in none: about one in five fails Reisner's
    condition, where small complexes nearly always pass it."""
    n = draw(st.integers(3, max_vertices))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=4), min_size=2, max_size=6))
    return make_complex(n, [sorted(f) for f in facets])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(complexes_of_large_facets(), st.sampled_from([2, 3]))
def test_reisner_condition_on_the_table_is_the_per_link_loop_on_random_complexes(c, p):
    assert reisner_cm_condition(c, p) == reisner_by_links(c, p)


def test_fh_count_examples():
    # the count of the report's fh_counts, from the maps between face blocks
    assert face_count(TWO_POINTS, 2, 1) == 5
    assert face_count(FULL3, 2, 3) == 2
    assert face_count(FULL3, 5, 3) == 2
    assert face_count(TRIANGLE, 2, 2) == 19
    assert face_count(TRIANGLE, 2, 1) == 1  # zero module


@pytest.mark.parametrize("p", [2, 3])
def test_katzman_count_is_dedekind_minus_one(p):
    assert [katzman_count(n, p) for n in (2, 3)] == [5, 19]
    # square-free J only: the 168 antichains of subsets of four
    # variables, D(4) = 168
    assert sum(1 for _ in antichains(list(itertools.product(range(2), repeat=4)))) == 168
    assert [katzman_count(n, p, top=1) for n in (2, 3, 4)] == [5, 19, 167]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3])
def test_fh_count_matches_katzman_on_simplex_boundary(n, p):
    # K[boundary of the (n-1)-simplex] = F_p[x0..x_{n-1}]/(x0...x_{n-1})
    c = from_facets(n, boundary_facets(n - 1))
    assert face_count(c, p, n - 1) == katzman_count(n, p, top=1)


@pytest.mark.parametrize("p", [2, 3])
def test_fh_count_of_the_boundary_of_the_4_simplex_is_dedekind_minus_one(p):
    # D(5) - 1, past the reach of katzman_count; the search space of one
    # subspace per block has 2^31 points
    c = from_facets(5, boundary_facets(4))
    assert face_count(c, p, 4, cap=2**31) == 7580


def test_oracle_refuses_work_past_its_cap_before_any_elimination(monkeypatch):
    # one 8-vertex facet: 2^8 faces times the 3^8 sign patterns that split
    # one, a bound that the facet alone gives, before the face table is built
    def unreachable(*args):
        raise AssertionError("an elimination ran or the face table was built")

    monkeypatch.setattr(lc, "cochain_dims", unreachable)
    monkeypatch.setattr(lc, "link_cohomology", unreachable)
    monkeypatch.setattr(lc, "face_masks", unreachable)
    with pytest.raises(CapacityError, match="graded oracle size at least 1679616 exceeds cap 1048576"):
        oracle_box_check(from_facets(8, [list(range(8))]), 2)


def test_fh_count_rejects_nonprime():
    with pytest.raises(UnsupportedInputError):
        face_count(TWO_POINTS, 4, 1)


def test_cone_table_shift():
    # cone: every summand of H^i reappears in H^{i+1} with the apex added
    for c in (TWO_POINTS, TRIANGLE, TWO_EDGES):
        k = cone(c)
        apex = c.n_vertices
        for p in (2, 3):
            t = decomposition(c, p)
            tk = decomposition(k, p)
            expected = sorted(
                (i + 1, tuple(sorted(nu + (apex,))), m) for i, nu, m in table_entries(t)
            )
            assert list(table_entries(tk)) == expected


def test_cone_hilbert_function_law():
    # dim[H^{i+1}(cone)]_{(theta, -k)} = dim[H^i]_theta for k >= 1, 0 for k = 0
    for c in (TWO_POINTS, TRIANGLE):
        k = cone(c)
        for p in (2, 3):
            for theta in itertools.product(range(-2, 1), repeat=c.n_vertices):
                for i in range(0, c.dim + 2):
                    base = graded_dim(c, p, i, theta)
                    for last in range(-3, 1):
                        lifted = graded_dim(k, p, i + 1, theta + (last,))
                        assert lifted == (base if last < 0 else 0)
