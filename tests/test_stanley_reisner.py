import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_oracle import face_tuples
from colon_oracle import (
    colon_radical_contains_nonfaces,
    fedder_fpure_by_colon,
    ideal_from_generators,
    nonface_ideal_by_scan,
    nonface_monomial_ideal,
)
from corpus import acceptance_corpus, make_complex
from helpers import (
    faces,
    irrelevant_ideal,
    krull_dim,
    prime_to_ideal,
    splitting_containment_check,
    squarefree_minimal_primes,
)
from froblab.errors import UnsupportedInputError
from froblab.gfp_linalg import check_prime
from froblab.simplicial import from_facets
from froblab.stanley_reisner import ideal_text, nonface_ideal

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
    assert nonface_ideal(TWO_POINTS) == ((1, 1),)


def test_nonface_ideal_triangle():
    assert nonface_ideal(TRIANGLE) == ((1, 1, 1),)


def test_nonface_ideal_full_simplex():
    assert nonface_ideal(FULL) == ()
    assert ideal_text(nonface_ideal(FULL)) == "(0)"


def test_nonface_ideal_two_edges():
    gens = nonface_ideal(TWO_EDGES)
    # minimal nonfaces: the four cross pairs, sorted
    assert gens == ((0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0))
    assert ideal_text(gens) == "(x0*x2, x0*x3, x1*x2, x1*x3)"


def test_nonface_ideal_matches_search_over_every_size_on_corpus():
    for c in acceptance_corpus():
        scan = nonface_ideal_by_scan(c)
        assert nonface_ideal(c) == scan.generators, c
        assert ideal_text(nonface_ideal(c)) == scan.to_text(), c


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=6)
        )
    )
)
def test_nonface_ideal_matches_search_over_every_size(case):
    # vertices that no facet covers are allowed, and so is {()}; the
    # mask table behind face_tuples is checked against the tuple table too
    n, facets = case
    c = make_complex(n, [sorted(f) for f in facets])
    assert nonface_monomial_ideal(c) == nonface_ideal_by_scan(c)
    table = faces(c)
    for size in range(n + 1):
        assert tuple(f for f in face_tuples(c) if len(f) == size) == table.get(size - 1, ())


def minimal_primes(c):
    return squarefree_minimal_primes(nonface_monomial_ideal(c))


def test_minimal_primes():
    assert minimal_primes(TWO_POINTS) == ((0,), (1,))
    assert minimal_primes(TRIANGLE) == ((0,), (1,), (2,))
    assert minimal_primes(FULL) == ((),)
    # one prime per facet, generated by the variables outside it
    for c in acceptance_corpus():
        complements = {tuple(v for v in range(c.n_vertices) if v not in f) for f in c.facets}
        assert minimal_primes(c) == tuple(sorted(complements)), c


def test_krull_dim():
    assert krull_dim(TWO_POINTS) == 1
    assert krull_dim(TRIANGLE) == 2
    assert krull_dim(TWO_EDGES) == 2
    assert krull_dim(make_complex(0, [[]])) == 0
    for c in CORPUS:
        assert krull_dim(c) == 1 + max(len(f) - 1 for f in c.facets)


def test_fedder_two_points_p2():
    assert fedder_fpure_by_colon(nonface_monomial_ideal(TWO_POINTS), 2)
    # the face-ring report refuses a modulus that is not prime
    with pytest.raises(UnsupportedInputError):
        check_prime(4)


def test_fedder_full_simplex():
    # the nonface ideal is (0), so the colon is the whole ring
    assert nonface_monomial_ideal(FULL).generators == ()
    for p in (2, 3, 5):
        assert fedder_fpure_by_colon(nonface_monomial_ideal(FULL), p)


def test_fedder_true_on_corpus():
    # face rings are F-pure (Hochster-Roberts), so the report writes f_pure
    # as true; Fedder's criterion by the colon ideal agrees
    for c in [*acceptance_corpus(), *CORPUS]:
        for p in (2, 3, 5):
            assert fedder_fpure_by_colon(nonface_monomial_ideal(c), p), (c, p)


def test_fedder_rejects_a_non_square_free_ideal():
    assert not fedder_fpure_by_colon(ideal_from_generators(2, [(2, 0)]), 2)


def test_colon_radical_contains_nonfaces():
    for c in CORPUS:
        for p in (2, 3):
            assert colon_radical_contains_nonfaces(nonface_monomial_ideal(c), p)


def test_splitting_containment_irrelevant_ideal():
    for c in CORPUS:
        assert splitting_containment_check(nonface_monomial_ideal(c), 2, irrelevant_ideal(c.n_vertices))


def test_splitting_containment_nonface_ideal():
    i = nonface_monomial_ideal(TWO_POINTS)
    assert splitting_containment_check(i, 2, i)


def test_splitting_containment_minimal_primes():
    for c in (TRIANGLE, TWO_POINTS, TWO_EDGES):
        for prime in minimal_primes(c):
            j = prime_to_ideal(c.n_vertices, prime)
            assert splitting_containment_check(nonface_monomial_ideal(c), 2, j)


def test_splitting_containment_requires_containment():
    small = ideal_from_generators(2, [(2, 2)])
    with pytest.raises(ValueError):
        splitting_containment_check(nonface_monomial_ideal(TWO_POINTS), 2, small)
