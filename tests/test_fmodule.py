import math
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cech_map_oracle
from cech_map_oracle import PointModel, closed_families, window_count
from cech_map_oracle import phi as oracle_phi
from colon_oracle import monomial_ideal_intersection
from corpus import (
    BOUNDARY_4,
    BOUNDARY_5,
    CROSS_POLYTOPE_8,
    POINT,
    RP2,
    SEGMENT,
    TORUS,
    TRIANGLE,
    TWO_BOUNDARY_4,
    TWO_EDGES,
    TWO_POINTS,
    WEDGE,
    acceptance_corpus,
    boundary_facets,
    make_complex,
    small_complexes,
)
from dense_oracle import row_echelon
from element_model import (
    BasisElement,
    adjoin_inverse_variable,
    annihilator_up_to_cap,
    apply_F,
    apply_monomial,
    apply_x,
    basis,
    build_truncation,
    degree_of,
    f_stable_span,
    is_block_constant,
    on_points,
    search_space_size,
    window_points,
)
from helpers import is_squarefree, prime_to_ideal, squarefree_minimal_primes
from perp_oracle import zero_subspace
from test_acceptance import CORPUS_MODELS
from test_gfp_linalg import gaussian_binomial
from froblab import fmodule
from froblab.errors import CapacityError, UnsupportedInputError
from froblab.fmodule import check_maps, face_count
from froblab.gfp_linalg import DEFAULT_ENUM_CAP
from froblab.local_cohomology import decomposition, map_ranks
from froblab.simplicial import from_facets, vertex_mask


def two_points_model(T=2, p=2, **kw):
    return build_truncation(TWO_POINTS, p, 1, T, **kw)


def line_model(T=3, p=2, **kw):
    # H^1 of a one-variable polynomial ring
    return build_truncation(POINT, p, 1, T, **kw)


def spans_are_closed_families(t):
    """The span of each basis element is constant on each block and, read
    on the blocks, one of the oracle's closed families."""
    families = [on_points(t, fam) for fam in closed_families(t.c, t.p, t.index)]
    for b in basis(t):
        span = f_stable_span(t, [{b: 1}])
        assert is_block_constant(span) and span in families, b


def test_build_truncation_sizes():
    assert len(basis(two_points_model(T=2))) == 5
    assert len(basis(line_model(T=3))) == 3
    assert len(basis(build_truncation(TRIANGLE, 2, 2, 1))) == 7


def test_build_truncation_summands():
    t = two_points_model()
    assert t.summands == (((), 1), ((0,), 1), ((1,), 1))
    with pytest.raises(ValueError):
        build_truncation(TWO_POINTS, 2, 5, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_blocks_are_the_table(p):
    # the cocycle classes of each block are as many as the table says,
    # and phi has one row per class and one column per target class
    for c in small_complexes() + [TRIANGLE, TWO_EDGES]:
        for i, nu, m in decomposition(c, p):
            mask = vertex_mask(nu)
            assert len(fmodule.block(c, p, i, mask)[2]) == m
            for j in nu:
                target = len(fmodule.block(c, p, i, mask & ~(1 << j))[2])
                assert [len(row) for row in fmodule.phi(c, p, i, mask, j)] == [target] * m


def test_apply_x_rules():
    t = line_model(T=3)
    gamma1 = {BasisElement((0,), 0, (1,)): 1}
    gamma2 = {BasisElement((0,), 0, (2,)): 1}
    assert apply_x(t, 0, gamma1) == {}  # the block of the empty face is zero
    assert apply_x(t, 0, gamma2) == gamma1  # otherwise shift by one
    t2 = two_points_model()
    v = {BasisElement((0,), 0, (2, 0)): 1}
    assert apply_x(t2, 1, v) == {}  # variable outside the support kills
    # x0 [(1/x0, 0)] = [(1, 0)], the nonzero socle class of H^1
    (socle,) = apply_x(t2, 0, {BasisElement((0,), 0, (1, 0)): 1})
    assert (socle.nu, socle.w) == ((), (0, 0))


def test_socle_component_killed_by_every_variable():
    t = two_points_model()
    socle = {BasisElement((), 0, (0, 0)): 1}
    assert apply_x(t, 0, socle) == {} and apply_x(t, 1, socle) == {}
    assert apply_F(t, socle) == socle


def test_apply_F_rules():
    t = line_model(T=3, p=2)
    v = {BasisElement((0,), 0, (1,)): 1}
    assert apply_F(t, v) == {BasisElement((0,), 0, (2,)): 1}
    assert apply_F(t, {}) == {}
    u = {BasisElement((0,), 0, (1,)): 1, BasisElement((0,), 0, (3,)): 1}
    fu = apply_F(t, u)
    assert fu == {BasisElement((0,), 0, (2,)): 1, BasisElement((0,), 0, (6,)): 1}


def test_degree_laws():
    t = build_truncation(TWO_EDGES, 3, 2, 2)
    b = BasisElement((0, 1), 0, (2, 1, 0, 0))
    v = {b: 2}
    fv = apply_F(t, v)
    (fb,) = fv
    assert degree_of(fb) == tuple(3 * d for d in degree_of(b))
    xv = apply_x(t, 0, v)
    (xb,) = xv
    assert degree_of(xb) == tuple(d + (1 if i == 0 else 0) for i, d in enumerate(degree_of(b)))


def test_frobenius_injective_on_window_basis():
    for t in (two_points_model(), line_model(), build_truncation(TRIANGLE, 2, 2, 1)):
        images = {}
        for b in basis(t):
            fb = apply_F(t, {b: 1})
            assert len(fb) == 1
            images[b] = next(iter(fb))
        assert len(set(images.values())) == len(images)


def test_return_identity():
    # multiplying F(v) by x^((p-1) a) recovers v exactly
    for p in (2, 3):
        t = line_model(T=3, p=p)
        for a in (1, 2, 3):
            v = {BasisElement((0,), 0, (a,)): 1}
            fv = apply_F(t, v)
            back = apply_monomial(t, ((p - 1) * a,), fv)
            assert back == v


def test_f_stable_span_socle():
    t = two_points_model()
    socle = {BasisElement((), 0, (0, 0)): 1}
    span = f_stable_span(t, [socle])
    assert [theta for theta, s in span.items() if s.dim] == [(0, 0)]
    assert is_block_constant(span)


def test_f_stable_span_fills_line_model():
    t = line_model(T=2, p=2)
    gen = {BasisElement((0,), 0, (1,)): 1}
    span = f_stable_span(t, [gen])
    assert {theta: s.dim for theta, s in span.items()} == window_points(t)  # the whole module


def test_f_stable_span_empty():
    t = two_points_model()
    assert not any(s.dim for s in f_stable_span(t, []).values())


def test_enumeration_counts():
    assert window_count(TWO_POINTS, 2, 1, 2) == face_count(TWO_POINTS, 2, 1) == 5
    assert window_count(POINT, 2, 1, 3) == 2
    # the zero module has one submodule
    assert not build_truncation(TWO_POINTS, 2, 0, 2).summands
    assert window_count(TWO_POINTS, 2, 0, 2) == face_count(TWO_POINTS, 2, 0) == 1


def test_enumeration_profiles_are_stabilized():
    for p in (2, 3):
        spans_are_closed_families(two_points_model(T=1, p=p))
    spans_are_closed_families(build_truncation(TRIANGLE, 2, 2, 1))


def test_enumeration_matches_face_count():
    for c, i in ((TWO_POINTS, 1), (POINT, 1), (TRIANGLE, 2)):
        assert window_count(c, 2, i, 1, cap=2**21) == face_count(c, 2, i) == len(closed_families(c, 2, i))
    assert face_count(TRIANGLE, 2, 2) == 19


def test_enumeration_with_multiplicity_two_block():
    # three disjoint points: the block of the empty face is 2-dimensional,
    # and each vertex block maps onto a line of it
    three = from_facets(3, [[0], [1], [2]])
    t = build_truncation(three, 2, 1, 1)
    assert dict(t.summands)[()] == 2
    assert window_count(three, 2, 1, 1) == face_count(three, 2, 1) == 15 == len(closed_families(three, 2, 1))
    assert face_count(three, 3, 1) == 16
    spans_are_closed_families(t)


def test_enumeration_cap():
    big = build_truncation(TRIANGLE, 2, 2, 1)
    assert search_space_size(big) > 2**16
    with pytest.raises(CapacityError):
        window_count(TRIANGLE, 2, 2, 1)


@pytest.mark.parametrize(
    "c,i,count",
    [(BOUNDARY_5, 5, 7828353), (CROSS_POLYTOPE_8, 4, None), (TWO_BOUNDARY_4, 4, 57456402)],
    ids=["boundary-5-simplex", "cross-polytope-8", "two-boundary-4-simplices"],
)
def test_capacity_message_of_a_huge_search_space(c, i, count):
    size = search_space_size(build_truncation(c, 3, i, 2))
    assert size > 10**4300  # past the digits that str() of an int allows
    with pytest.raises(CapacityError) as info:
        window_count(c, 3, i, 2)
    assert str(info.value) == f"profile search space of {size.bit_length()} bits exceeds cap {DEFAULT_ENUM_CAP}"
    # the face count walks the order of the nonzero maps, not the space:
    # only the cross-polytope needs more memo states than the default cap
    if count is None:
        with pytest.raises(CapacityError, match=f"count past {DEFAULT_ENUM_CAP} branches and memo states"):
            face_count(c, 3, i)
    else:
        assert face_count(c, 3, i) == count


def test_cap_is_checked_before_any_point_is_listed(monkeypatch):
    size = search_space_size(build_truncation(TRIANGLE, 2, 2, 1))

    def no_search(*args):
        raise AssertionError("search built for a capped model")

    with monkeypatch.context() as patch:
        patch.setattr(cech_map_oracle, "_phi_images", no_search)
        patch.setattr(cech_map_oracle, "_count_families", no_search)
        with pytest.raises(CapacityError) as info:
            window_count(TRIANGLE, 2, 2, 1, size - 1)
        # the empty face of three disjoint triangles has multiplicity 3:
        # G(257, 3) = 132,616 subspaces, past the default cap of 65,536
        patch.setattr(fmodule, "subspace_lattice", no_search)
        with pytest.raises(CapacityError):
            face_count(disjoint_triangles(3), 257, 2)
    assert str(info.value) == f"profile search space of {size.bit_length()} bits exceeds cap {size - 1}"
    assert window_count(TRIANGLE, 2, 2, 1, size) == face_count(TRIANGLE, 2, 2, 2**7) == 19


@pytest.mark.parametrize("p", [4099, 32749])
def test_cap_refuses_a_search_space_too_large_to_multiply_out(p):
    # the exact size has 134 million bits at p = 4099 and 8.6 billion at
    # p = 32749; multiplied out it took 1.1 s and 80 s with about 1 GB
    start = time.monotonic()
    with pytest.raises(CapacityError) as info:
        window_count(TWO_EDGES, p, 2, 2)
    elapsed = time.monotonic() - start
    assert str(info.value).startswith("profile search space of at least ")
    assert elapsed < 0.5, f"refused after {elapsed:.2f}s, budget 0.5s"


def test_bits_bound_of_the_cap_check_is_a_lower_bound():
    # 2^(2^17) has exactly the bound's 2^17 + 1 bits
    for p, sizes in ((2, {1: 2**17}), (3, {2: 60000, 1: 20000}), (5, {3: 30000})):
        exact = math.prod(fmodule.num_subspaces(p, m) ** k for m, k in sizes.items()).bit_length()
        with pytest.raises(CapacityError) as info:
            cech_map_oracle._check_cap(p, Counter(sizes), 1)
        low = int(re.fullmatch(r"profile search space of at least (\d+) bits exceeds cap 1", str(info.value))[1])
        assert low <= exact and (p != 2 or low == exact)


def disjoint_triangles(k):
    """k disjoint boundaries of a triangle, on vertices 3t, 3t + 1, 3t + 2."""
    return from_facets(3 * k, [f for t in range(k) for f in boundary_facets(2, 3 * t)])


def galois(p, n):
    """Number of subspaces of F_p^n, summed from the Gaussian binomials."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


@pytest.mark.parametrize("p", [2, 3])
def test_face_count_of_simplex_boundaries_is_dedekind_minus_one(p):
    # D(3), ..., D(6) = 20, 168, 7,581, 7,828,354: the empty family of
    # blocks is the zero submodule, and the empty face is below every face
    for k, count in ((2, 19), (3, 167), (4, 7580), (5, 7828353)):
        assert face_count(from_facets(k + 1, boundary_facets(k)), p, k) == count


@pytest.mark.parametrize("p", [2, 3])
def test_face_count_of_two_disjoint_boundaries_of_the_4_simplex(p):
    # the empty face has multiplicity 2, one line per sphere: zero, the
    # p - 1 other lines, either sphere's line with the 7,579 down-sets of
    # its other faces, or the plane with both
    assert face_count(TWO_BOUNDARY_4, p, 4) == 1 + (p - 1) + 2 * 7579 + 7579**2
    assert face_count(TWO_BOUNDARY_4, p, 4) == {2: 57456401, 3: 57456402}[p]


@pytest.mark.parametrize("p, most", [(2, 3), (3, 3), (5, 3), (257, 2)])
def test_face_count_of_disjoint_triangles(p, most):
    # each triangle has 17 nonempty down-sets of its other faces, and each
    # needs that triangle's line in the block of the empty face, of
    # multiplicity k: G(p, k - t) subspaces hold t such lines
    for k in range(1, most + 1):
        expected = sum(math.comb(k, t) * 17**t * galois(p, k - t) for t in range(k + 1))
        assert face_count(disjoint_triangles(k), p, 2) == expected
    if most == 3:
        assert face_count(disjoint_triangles(3), p, 2) == {2: 6918, 3: 6981, 5: 7119}[p]


def test_face_count_of_named_complexes():
    # three points: the plane, zero, p + 1 lines of which three hold one
    # point each (p + 13 in all)
    three = from_facets(3, [[0], [1], [2]])
    assert [face_count(three, p, 1) for p in (257, 263)] == [270, 276]
    # RP^2 has no block at the empty face at p = 3, where H^2 vanishes
    assert [face_count(RP2, p, 3) for p in (2, 3)] == [147246, 147245]
    assert [face_count(TORUS, p, 3) for p in (2, 3)] == [15761633, 15761633]


# the edge 01 of a fin on the tetrahedron boundary lies in three
# triangles: its block of H^3 has multiplicity 2 and maps onto the blocks
# of the vertices 0 and 1, which map onto the block of the empty face
FIN = from_facets(5, boundary_facets(3) + [(0, 1, 4)])
# the block of the vertex 0 in H^2 maps to zero in that of the empty face
ZERO_MAP = from_facets(5, [(0, 1), (2, 3), (0, 2, 4), (0, 3, 4)])


@pytest.mark.parametrize(
    "c, i, edge, rank, counts",
    [
        (FIN, 3, (3, 0b11, 1), 1, {2: 546, 3: 596}),
        (ZERO_MAP, 2, (2, 0b1, 0), 0, {2: 18, 3: 18}),
        # the shared vertex, of multiplicity 3, maps into the empty face, of multiplicity 2
        (WEDGE, 2, (2, 0b1, 0), 2, {2: 925, 3: 1302}),
    ],
    ids=["large-to-small", "zero-map", "large-to-large"],
)
@pytest.mark.parametrize("p", [2, 3])
def test_counts_through_large_blocks_and_zero_maps_match_the_listing(c, i, edge, rank, counts, p):
    assert map_ranks(c, p)[edge] == rank
    assert face_count(c, p, i) == len(closed_families(c, p, i)) == counts[p]


def test_antinilpotent_on_models():
    for c, p, i in ((TWO_POINTS, 2, 1), (POINT, 2, 1), (SEGMENT, 2, 2), (TWO_EDGES, 2, 1), (TRIANGLE, 2, 2)):
        model = PointModel(c, p, i)
        assert model.antinilpotent(model.families()) is True


def test_antinilpotent_fails_for_zero_frobenius_fixture():
    model = PointModel(POINT, 2, 1, zero_frobenius=True)
    assert model.antinilpotent(model.families()) is False
    # without Frobenius the span of the class at exponent -1 stays there
    t = line_model(T=2, zero_frobenius=True)
    span = f_stable_span(t, [{BasisElement((0,), 0, (1,)): 1}])
    assert [theta for theta, s in span.items() if s.dim] == [(-1,)]


@pytest.mark.parametrize("c, p", [(POINT, 2), (TWO_POINTS, 3)], ids=["line", "two-points"])
def test_antinilpotence_sends_p_theta_into_theta(c, p):
    # bad is the whole module but for the zero subspace at a theta of
    # magnitude one: N(p*theta) is the full space and not in N(theta),
    # though N(theta) is in N(p*theta)
    model = PointModel(c, p, 1)
    families = model.families()
    whole = max(families, key=lambda fam: sum(s.dim for s in fam.values()))
    theta = next(th for th in model.points if min(th) == -1 and tuple(p * v for v in th) in whole)
    bad = dict(whole)
    bad[theta] = zero_subspace(p, model.dims[theta])
    assert model.antinilpotent([whole, bad]) is False
    assert model.antinilpotent([whole]) is True


def test_adjoin_line_model_gives_plane_model():
    t = line_model(T=2, p=2)
    adj = adjoin_inverse_variable(t)
    assert adj.summands == (((0, 1), 1),)
    assert adj.index == 2 and adj.n_vars == 2
    # matches the model built from the segment complex directly
    direct = build_truncation(SEGMENT, 2, 2, 2)
    assert adj.summands == direct.summands
    assert window_count(adj.c, 2, 2, 2) == face_count(adj.c, 2, 2) == 2
    model = PointModel(adj.c, 2, 2)
    assert model.antinilpotent(model.families())


def test_adjoin_zero_module():
    zero = build_truncation(TWO_POINTS, 2, 0, 2)
    adj = adjoin_inverse_variable(zero)
    assert not adj.summands


def test_adjoin_two_points_keeps_count():
    t = two_points_model(T=2, p=2)
    adj = adjoin_inverse_variable(t)
    assert window_count(adj.c, 2, 2, 2, cap=2**40) == face_count(adj.c, 2, 2) == face_count(TWO_POINTS, 2, 1) == 5
    spans_are_closed_families(adjoin_inverse_variable(two_points_model(T=1)))


def test_annihilators_two_points():
    t = two_points_model()
    anns = {annihilator_up_to_cap(t, on_points(t, fam), cap=3) for fam in closed_families(TWO_POINTS, 2, 1)}
    texts = {a.to_text() for a in anns}
    assert texts == {"(1)", "(x0, x1)", "(x0)", "(x1)", "(x0*x1)"}
    for a in anns:
        assert is_squarefree(a)
    # closed under intersection
    for a in anns:
        for b in anns:
            assert monomial_ideal_intersection(a, b) in anns
    # closed under minimal primes
    for a in anns:
        for prime in squarefree_minimal_primes(a):
            pid = prime_to_ideal(2, prime)
            assert pid in anns or pid.is_zero


def test_annihilator_requires_stabilized():
    # without Frobenius, U(-1) may be the whole line while U(-2) is zero
    t = line_model(T=2, zero_frobenius=True)
    bad = f_stable_span(t, [{BasisElement((0,), 0, (1,)): 1}])
    assert not is_block_constant(bad)
    with pytest.raises(UnsupportedInputError):
        annihilator_up_to_cap(t, bad, cap=3)


def test_semilinearity_over_prime_field():
    rng = random.Random(41)
    for p in (2, 3):
        t = build_truncation(TWO_POINTS, p, 1, 2)
        elements = basis(t)
        for _ in range(10):
            v = {b: rng.randrange(1, p) for b in rng.sample(elements, 2)}
            c = rng.randrange(1, p)
            lhs = apply_F(t, {b: (c * x) % p for b, x in v.items()})
            rhs = {b: (pow(c, p, p) * x) % p for b, x in apply_F(t, v).items()}
            assert lhs == rhs


def agrees_with_oracle(c, p, i, depth, cap=DEFAULT_ENUM_CAP):
    """The window search, the face count and the oracle's listing give one
    count; returns it."""
    count = face_count(c, p, i, cap)
    assert window_count(c, p, i, depth, cap) == count == len(closed_families(c, p, i))
    return count


THREE_POINTS = from_facets(3, [[0], [1], [2]])
STAR3 = from_facets(4, [[0, 1], [0, 2], [0, 3]])

# the complex-enumerate rungs of the benchmark: complex, prime, depth,
# and the counts of their modules
RUNGS = {
    "triangle-p2": (TRIANGLE, 2, 1, [19]),
    "three-points-p2": (THREE_POINTS, 2, 3, [15]),
    "three-points-p3": (THREE_POINTS, 3, 2, [16]),
    "star3-p2": (STAR3, 2, 1, [15]),
    "two-edges-p3": (TWO_EDGES, 3, 1, [2, 4]),
}


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_rung_models_agree_with_oracle(rung):
    c, p, depth, counts = RUNGS[rung]
    indices = sorted({e[0] for e in decomposition(c, p)})
    assert [agrees_with_oracle(c, p, i, depth, cap=2**21) for i in indices] == counts


def test_corpus_and_adjoined_models_agree_with_oracle():
    models = [(c, p, i, depth) for _, c, p, i, depth in CORPUS_MODELS]
    models += [(adjoin_inverse_variable(build_truncation(c, p, i, 1)).c, p, i + 1, 1) for c, p, i, _ in models]
    assert [agrees_with_oracle(*m, cap=2**40) for m in models] == [5, 2, 2, 2, 5, 19] * 2


@st.composite
def small_modules(draw):
    n = draw(st.integers(1, 4))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=4))
    c = make_complex(n, [sorted(f) for f in facets])
    p = draw(st.sampled_from([2, 3]))
    indices = sorted({e[0] for e in decomposition(c, p)})
    assume(indices)
    return c, p, draw(st.sampled_from(indices))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(small_modules())
def test_random_models_agree_with_oracle(module):
    c, p, i = module
    count = face_count(c, p, i, cap=2**40)
    assert count == len(closed_families(c, p, i))
    for depth in (1, 2):
        if search_space_size(build_truncation(c, p, i, depth)) <= DEFAULT_ENUM_CAP:
            assert window_count(c, p, i, depth) == count
    if c.n_vertices <= 3 and p == 2:
        assert len(PointModel(c, p, i).families()) == count


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_modules(), st.integers(1, 2))
def test_random_enumerations_contain_the_whole_module(module, depth):
    t = build_truncation(*module, depth)
    assume(search_space_size(t) <= DEFAULT_ENUM_CAP)
    # the span of the basis is the whole window, and the span of each
    # basis element one of the oracle's families
    whole = f_stable_span(t, [{b: 1} for b in basis(t)])
    assert {theta: s.dim for theta, s in whole.items()} == window_points(t)
    spans_are_closed_families(t)


def edges(c, p):
    """(i, nu, j) for every map phi_{nu,j} between two nonzero blocks of
    H^i, read off the decomposition table."""
    table = {(i, vertex_mask(nu)) for i, nu, _ in decomposition(c, p)}
    return {(i, nu, j) for i, nu in table for j in range(nu.bit_length()) if nu >> j & 1 and (i, nu ^ 1 << j) in table}


def rank(matrix, p):
    return len(row_echelon(matrix, p)[1])


@pytest.mark.parametrize("p", [2, 3])
def test_map_ranks_are_the_ranks_of_phi(p):
    # the acceptance corpus holds RP^2
    large = [BOUNDARY_5, CROSS_POLYTOPE_8, TWO_BOUNDARY_4]
    for c in acceptance_corpus() + [TORUS, WEDGE, BOUNDARY_4] + large:
        ranks = map_ranks(c, p)
        assert set(ranks) == edges(c, p), c
        assert ranks == {e: rank(fmodule.phi(c, p, *e), p) for e in ranks}, c
        assert check_maps(c, p) == len(ranks)
    assert sum(len(map_ranks(c, p)) for c in large) == 552


def test_phi_is_built_once_per_map():
    # check_maps builds every phi between two nonzero blocks; the counts
    # then read each one from the cache, including the large-block leaves
    fmodule.phi.cache_clear()
    check_maps(WEDGE, 5)
    misses = fmodule.phi.cache_info().misses
    assert misses == len(map_ranks(WEDGE, 5)) == 17
    for i in sorted({i for i, _, _ in decomposition(WEDGE, 5)}):
        face_count(WEDGE, 5, i)
    assert fmodule.phi.cache_info().misses == misses


@st.composite
def small_complexes_up_to_5(draw):
    n = draw(st.integers(1, 5))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=5))
    return make_complex(n, [sorted(f) for f in facets])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_complexes_up_to_5(), st.sampled_from([2, 3]))
def test_random_map_ranks_are_the_ranks_of_the_oracle_maps(c, p):
    ranks = map_ranks(c, p)
    assert set(ranks) == edges(c, p)
    assert ranks == {e: rank(oracle_phi(c, p, *e), p) for e in ranks}
