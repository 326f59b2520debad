import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antinil_oracle import antinilpotent_by_pairs, decode, enumerate_by_subspaces, profile_contains
from colon_oracle import monomial_ideal_intersection
from corpus import (
    BOUNDARY_5,
    CROSS_POLYTOPE_8,
    POINT,
    SEGMENT,
    TRIANGLE,
    TWO_BOUNDARY_4,
    TWO_EDGES,
    TWO_POINTS,
    make_complex,
)
from element_model import (
    BasisElement,
    adjoin_inverse_variable,
    annihilator_up_to_cap,
    apply_F,
    apply_x,
    basis,
    degree_of,
    f_stable_span,
    face_submodel,
    search_space_size,
)
from helpers import apply_monomial, is_squarefree, prime_to_ideal, squarefree_minimal_primes
from test_acceptance import CORPUS_MODELS
from froblab import fmodule
from froblab.errors import CapacityError, UnsupportedInputError
from froblab.fmodule import (
    build_truncation,
    check_antinilpotent,
    enumerate_f_stable_submodules,
    lattice_points,
)
from froblab.gfp_linalg import DEFAULT_ENUM_CAP, subspace_lattice
from froblab.local_cohomology import decomposition, fh_count
from froblab.simplicial import from_facets


def two_points_model(T=2, p=2, **kw):
    return build_truncation(TWO_POINTS, p, 1, T, **kw)


def line_model(T=3, p=2, **kw):
    # H^1 of a one-variable polynomial ring
    return build_truncation(POINT, p, 1, T, **kw)


def test_build_truncation_sizes():
    assert len(basis(two_points_model(T=2))) == 5
    assert len(basis(line_model(T=3))) == 3
    assert len(basis(build_truncation(TRIANGLE, 2, 2, 1))) == 7


def test_build_truncation_summands():
    t = two_points_model()
    assert t.summands == (((), 1), ((0,), 1), ((1,), 1))
    with pytest.raises(ValueError):
        build_truncation(TWO_POINTS, 2, 5, 2)


def test_apply_x_rules():
    t = line_model(T=3)
    gamma1 = {BasisElement((0,), 0, (1,)): 1}
    gamma2 = {BasisElement((0,), 0, (2,)): 1}
    assert apply_x(t, 0, gamma1) == {}  # exponent -1 is killed
    assert apply_x(t, 0, gamma2) == gamma1  # otherwise shift by one
    t2 = two_points_model()
    v = {BasisElement((0,), 0, (2, 0)): 1}
    assert apply_x(t2, 1, v) == {}  # variable outside the support kills


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
    prof = decode(t, f_stable_span(t, [socle]))
    assert [theta for theta, _ in prof.assignments] == [(0, 0)]
    assert prof.stabilized


def test_f_stable_span_fills_line_model():
    t = line_model(T=2, p=2)
    gen = {BasisElement((0,), 0, (1,)): 1}
    prof = decode(t, f_stable_span(t, [gen]))
    assert len(prof.assignments) == len(lattice_points(t))  # the whole module


def test_f_stable_span_empty():
    t = two_points_model()
    assert decode(t, f_stable_span(t, [])).is_zero


def test_enumeration_counts():
    count, codes = enumerate_f_stable_submodules(two_points_model())
    assert count == 8 == len(set(codes))
    count2, _ = enumerate_f_stable_submodules(line_model())
    assert count2 == 2
    zero = build_truncation(TWO_POINTS, 2, 0, 2)
    assert not zero.summands
    assert enumerate_f_stable_submodules(zero) == (1, [()])


def test_enumeration_profiles_are_stabilized():
    t = two_points_model()
    _, codes = enumerate_f_stable_submodules(t)
    assert all(decode(t, code).stabilized for code in codes)


def test_enumeration_matches_formula_count():
    assert enumerate_f_stable_submodules(two_points_model())[0] == fh_count(TWO_POINTS, 2, 1)
    assert enumerate_f_stable_submodules(line_model())[0] == fh_count(POINT, 2, 1)
    # triangle sub-model spanned by three of the seven blocks
    sub = face_submodel(build_truncation(TRIANGLE, 2, 2, 2), [(), (0,), (1,)])
    count, _ = enumerate_f_stable_submodules(sub)
    assert count == 8


def test_enumeration_with_multiplicity_two_block():
    # three disjoint points: the origin block is 2-dimensional, so the
    # count picks up the 5 subspaces of F_2^2 as an independent factor
    from froblab.simplicial import from_facets

    three = from_facets(3, [[0], [1], [2]])
    t = build_truncation(three, 2, 1, 1)
    assert dict(t.summands)[()] == 2
    count, codes = enumerate_f_stable_submodules(t)
    assert count == 5 * 2 * 2 * 2 == fh_count(three, 2, 1)
    assert all(decode(t, code).stabilized for code in codes)
    assert check_antinilpotent(t, enumerate_f_stable_submodules(t)[1])


def test_enumeration_cap():
    big = build_truncation(TRIANGLE, 2, 2, 1)
    assert search_space_size(big) > 2**16
    with pytest.raises(CapacityError):
        enumerate_f_stable_submodules(big)


@pytest.mark.parametrize(
    "c,i",
    [(BOUNDARY_5, 5), (CROSS_POLYTOPE_8, 4), (TWO_BOUNDARY_4, 4)],
    ids=["boundary-5-simplex", "cross-polytope-8", "two-boundary-4-simplices"],
)
def test_capacity_message_of_a_huge_search_space(c, i):
    t = build_truncation(c, 3, i, 2)
    size = search_space_size(t)
    assert size > 10**4300  # past the digits that str() of an int allows
    with pytest.raises(CapacityError) as info:
        enumerate_f_stable_submodules(t)
    assert str(info.value) == f"profile search space of {size.bit_length()} bits exceeds cap {DEFAULT_ENUM_CAP}"


def test_cap_is_checked_before_any_point_is_listed(monkeypatch):
    t = build_truncation(TRIANGLE, 2, 2, 1)
    size = search_space_size(t)

    def no_points(t):
        raise AssertionError("points listed for a capped model")

    with monkeypatch.context() as patch:
        patch.setattr(fmodule, "lattice_points", no_points)
        with pytest.raises(CapacityError) as info:
            enumerate_f_stable_submodules(t, size - 1)
    assert str(info.value) == f"profile search space of {size.bit_length()} bits exceeds cap {size - 1}"
    count, codes = enumerate_f_stable_submodules(t, size)
    assert count == len(codes) == fh_count(TRIANGLE, 2, 2)


def test_antinilpotent_on_models():
    for t in (
        two_points_model(),
        line_model(),
        build_truncation(SEGMENT, 2, 2, 2),
        build_truncation(TWO_EDGES, 2, 1, 2),
        face_submodel(build_truncation(TRIANGLE, 2, 2, 2), [(), (0,), (1,)]),
    ):
        assert check_antinilpotent(t, enumerate_f_stable_submodules(t)[1]) is True


def test_antinilpotent_fails_for_zero_frobenius_fixture():
    t = line_model(T=2, zero_frobenius=True)
    codes = enumerate_f_stable_submodules(t)[1]
    assert check_antinilpotent(t, codes) is False
    ok, witness = antinilpotent_by_pairs(t, [decode(t, code) for code in codes])
    assert not ok
    assert profile_contains(witness.larger, witness.smaller, lattice_points(t), t.p)


@pytest.mark.parametrize(
    "make", [lambda: line_model(T=2), lambda: two_points_model(T=2, p=3)], ids=["line", "two-points"]
)
def test_antinilpotence_sends_p_theta_into_theta(make):
    # bad is the whole module but for the zero subspace at an interior
    # theta of magnitude one, which no other point maps to: N(p*theta) is
    # the full space and not in N(theta), though N(theta) is in N(p*theta)
    t = make()
    points = lattice_points(t)
    whole = tuple(len(subspace_lattice(t.p, m)) - 1 for m in points.values())
    theta = next(th for th in points if min(th) == -1)
    assert tuple(t.p * v for v in theta) in points
    bad = tuple(0 if point == theta else s for point, s in zip(points, whole))
    assert check_antinilpotent(t, [whole, bad]) is False
    ok, witness = antinilpotent_by_pairs(t, [decode(t, whole), decode(t, bad)])
    assert not ok and witness.theta == theta


def is_whole_module(t, code):
    """Every point of the box at its full multiplicity space."""
    return {theta: s.dim for theta, s in decode(t, code).assignments} == lattice_points(t)


def test_antinilpotence_check_needs_the_whole_module():
    t = two_points_model()
    _, codes = enumerate_f_stable_submodules(t)
    assert sum(is_whole_module(t, code) for code in codes) == 1
    with pytest.raises(ValueError):
        check_antinilpotent(t, [code for code in codes if not is_whole_module(t, code)])
    assert check_antinilpotent(t, []) is True


def test_witness_names_the_first_failing_theta():
    # in an enumerated list the first failing pair differs at one interior
    # point; the zero profile and the whole module differ at all of them
    for t in (line_model(T=2, zero_frobenius=True), two_points_model(T=1, p=3, zero_frobenius=True)):
        _, codes = enumerate_f_stable_submodules(t)
        zero = next(code for code in codes if decode(t, code).is_zero)
        whole = next(code for code in codes if is_whole_module(t, code))
        assert check_antinilpotent(t, [zero, whole]) is False
        ok, witness = antinilpotent_by_pairs(t, [decode(t, zero), decode(t, whole)])
        assert not ok and (witness.smaller, witness.larger) == (decode(t, zero), decode(t, whole))
        assert witness.theta == next(iter(lattice_points(t)))


def test_adjoin_line_model_gives_plane_model():
    t = line_model(T=2, p=2)
    adj = adjoin_inverse_variable(t)
    assert adj.summands == (((0, 1), 1),)
    assert adj.index == 2 and adj.n_vars == 2
    # matches the model built from the segment complex directly
    direct = build_truncation(SEGMENT, 2, 2, 2)
    assert adj.summands == direct.summands
    count, _ = enumerate_f_stable_submodules(adj)
    assert count == 2
    assert check_antinilpotent(adj, enumerate_f_stable_submodules(adj)[1])


def test_adjoin_zero_module():
    zero = build_truncation(TWO_POINTS, 2, 0, 2)
    adj = adjoin_inverse_variable(zero)
    assert not adj.summands


def test_adjoin_two_points_keeps_count():
    t = two_points_model(T=2, p=2)
    adj = adjoin_inverse_variable(t)
    count, codes = enumerate_f_stable_submodules(adj, cap=2**40)
    assert count == 8
    assert all(decode(adj, code).stabilized for code in codes)
    assert check_antinilpotent(adj, enumerate_f_stable_submodules(adj, 2**40)[1])


def test_annihilators_two_points():
    t = two_points_model()
    _, codes = enumerate_f_stable_submodules(t)
    anns = {annihilator_up_to_cap(t, code, cap=4) for code in codes}
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
    _, codes = enumerate_f_stable_submodules(t)
    bad = (1, 0, 0, 0)
    assert bad in codes and not decode(t, bad).stabilized
    with pytest.raises(UnsupportedInputError):
        annihilator_up_to_cap(t, bad, cap=4)


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


def agrees_with_oracle(t, cap=DEFAULT_ENUM_CAP):
    """The index search lists the codes of the oracle's profiles in the
    oracle's order, and the check against the whole module gives the pair
    loop's verdict; returns the verdict."""
    count, codes = enumerate_f_stable_submodules(t, cap)
    profiles = [decode(t, code) for code in codes]
    assert (count, profiles) == enumerate_by_subspaces(t, cap)
    verdict = check_antinilpotent(t, codes)
    assert verdict is antinilpotent_by_pairs(t, profiles)[0]
    return verdict


THREE_POINTS = from_facets(3, [[0], [1], [2]])
STAR3 = from_facets(4, [[0, 1], [0, 2], [0, 3]])

# the complex-enumerate rungs of the benchmark: complex, prime, depth
RUNGS = {
    "triangle-p2": (TRIANGLE, 2, 1),
    "three-points-p2": (THREE_POINTS, 2, 3),
    "three-points-p3": (THREE_POINTS, 3, 2),
    "star3-p2": (STAR3, 2, 1),
    "two-edges-p3": (TWO_EDGES, 3, 1),
}


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_rung_models_agree_with_oracle(rung):
    c, p, depth = RUNGS[rung]
    verdicts = set()
    for i in sorted({e[0] for e in decomposition(c, p)}):
        for zero in (False, True):
            t = build_truncation(c, p, i, depth, zero_frobenius=zero)
            verdicts.add(agrees_with_oracle(t, cap=2**21))
    assert verdicts == {True, False}


def test_corpus_and_adjoined_models_agree_with_oracle():
    models = [make() for _, make in CORPUS_MODELS]
    models += [adjoin_inverse_variable(t) for t in (line_model(T=2), two_points_model(T=1))]
    models += [line_model(T=2, zero_frobenius=True), adjoin_inverse_variable(line_model(T=1, zero_frobenius=True))]
    assert [agrees_with_oracle(t, cap=2**40) for t in models] == [True] * 8 + [False] * 2


@st.composite
def small_models(draw):
    n = draw(st.integers(1, 4))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=4))
    c = make_complex(n, [sorted(f) for f in facets])
    p = draw(st.sampled_from([2, 3]))
    indices = sorted({e[0] for e in decomposition(c, p)})
    assume(indices)
    i = draw(st.sampled_from(indices))
    t = build_truncation(c, p, i, draw(st.integers(1, 2)), zero_frobenius=draw(st.booleans()))
    assume(search_space_size(t) <= DEFAULT_ENUM_CAP)
    return t


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_models())
def test_random_models_agree_with_oracle(t):
    agrees_with_oracle(t)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_models())
def test_random_enumerations_contain_the_whole_module(t):
    _, codes = enumerate_f_stable_submodules(t)
    assert any(is_whole_module(t, code) for code in codes)
    if not t.zero_frobenius:
        # with Frobenius every submodule is constant on each face block
        for code in codes:
            assert decode(t, code).stabilized
            annihilator_up_to_cap(t, code, cap=t.n_vars)
