import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perp_oracle import (
    DimensionMismatchError,
    contains_vector,
    intersection_by_perps,
    kernel_basis,
    lattice,
    lattice_contains,
    subspace_from_vectors,
    subspace_sum,
    subspace_vectors,
    zero_subspace,
)
from froblab.errors import UnsupportedInputError
from froblab.fmodule import num_subspaces, subspace_lattice
from froblab.gfp_linalg import row_echelon


def rank(a, p):
    return len(row_echelon(a, p)[1])


def rref(a, p):
    return row_echelon(a, p, reduced=True)


def transpose(a):
    return [list(col) for col in zip(*a)]


def random_matrix(rng, p, rows, cols):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def combine(coeffs, a, cols, p):
    return tuple(sum(c * row[j] for c, row in zip(coeffs, a)) % p for j in range(cols))


def test_matrix_validation():
    with pytest.raises(UnsupportedInputError):
        kernel_basis([[1]], 4)  # 4 not prime
    # entries are reduced on the way in: 5 is zero over F_5
    assert kernel_basis([[5]], 5).dim == 1


def test_rref_identity_over_f5():
    m = [[1, 0], [0, 1]]
    r, pivots = rref(m, 5)
    assert r == m
    assert pivots == (0, 1)


def test_rref_zero_matrix():
    r, pivots = rref([[0] * 4 for _ in range(3)], 3)
    assert pivots == ()
    assert r == []


def test_rref_rank_one_over_f2():
    assert rank([[1, 1], [1, 1]], 2) == 1


def test_rref_idempotent_and_rank_transpose():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(20):
            m = random_matrix(rng, p, rng.randrange(0, 5), rng.randrange(1, 5))
            r1, pivots = rref(m, p)
            r2, pivots2 = rref(r1, p)
            assert r1 == r2 and pivots == pivots2
            assert len(pivots) == rank(transpose(m), p)


def test_kernel_of_identity_is_zero():
    assert kernel_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7).dim == 0


def test_kernel_of_zero_matrix_is_full():
    assert kernel_basis([[0, 0, 0], [0, 0, 0]], 2).dim == 3


def test_kernel_explicit():
    k = kernel_basis([[1, 1, 0], [0, 1, 1]], 2)
    assert k.dim == 1
    assert k.basis == ((1, 1, 1),)


def test_kernel_dimension_formula():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        cols = rng.randrange(1, 5)
        a = random_matrix(rng, p, rng.randrange(0, 4), cols)
        k = kernel_basis(a, p, cols)
        assert k.dim == cols - rank(a, p)
        for v in k.basis:
            assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in a)


# Brute-force oracle for the elimination kernel: small random matrices
# whose row spans can be listed outright.

PRIMES = st.sampled_from([2, 3, 5])


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    p = draw(PRIMES)
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    a = draw(st.lists(row, min_size=rows, max_size=rows))
    return p, a, cols


def row_span(a, cols, p):
    return {combine(coeffs, a, cols, p) for coeffs in itertools.product(range(p), repeat=len(a))}


@settings(derandomize=True, deadline=None)
@given(matrices())
def test_rank_counts_the_row_span(case):
    p, a, cols = case
    span = row_span(a, cols, p)
    assert len(span) == p ** rank(a, p)


@settings(derandomize=True, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_reduced_form_is_canonical(case, rng):
    p, a, cols = case
    r, pivots = rref(a, p)
    shuffled = rng.sample(a, len(a))
    combo = combine([rng.randrange(p) for _ in a], a, cols, p)
    for b in (shuffled, a + [combo]):
        r2, pivots2 = rref(b, p)
        assert pivots2 == pivots and r2 == r


@settings(derandomize=True, deadline=None)
@given(matrices())
def test_rank_of_transpose(case):
    p, a, _ = case
    assert rank(a, p) == rank(transpose(a), p)


def test_subspace_ops_equal_operands():
    s = subspace_from_vectors(3, 2, [[1, 2]])
    assert subspace_sum(s, s) == s
    assert intersection_by_perps(s, s) == s


def test_subspace_ops_complementary_lines():
    a = subspace_from_vectors(2, 2, [[1, 0]])
    b = subspace_from_vectors(2, 2, [[0, 1]])
    assert subspace_sum(a, b) == subspace_from_vectors(2, 2, [[1, 0], [0, 1]])
    assert intersection_by_perps(a, b) == zero_subspace(2, 2)


def test_subspace_dim_identity_f3():
    a = subspace_from_vectors(3, 2, [[1, 0]])
    b = subspace_from_vectors(3, 2, [[1, 1]])
    s = subspace_sum(a, b)
    i = intersection_by_perps(a, b)
    assert s.dim + i.dim == a.dim + b.dim == 2
    # cross-check by enumerating vectors
    va = set(subspace_vectors(a))
    vb = set(subspace_vectors(b))
    assert set(subspace_vectors(i)) == va & vb


def test_subspace_mismatch_raises():
    a = zero_subspace(2, 2)
    b = zero_subspace(2, 3)
    with pytest.raises(DimensionMismatchError):
        subspace_sum(a, b)


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n, the product formula:
    the reference for the recurrence of num_subspaces."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


def test_enumerate_counts():
    assert len(subspace_lattice(2, 1)) == 2
    assert len(subspace_lattice(2, 2)) == 5
    assert len(subspace_lattice(3, 2)) == 6


def test_enumerate_matches_gaussian_binomials():
    for p in (2, 3):
        for n in range(5):
            subs = subspace_lattice(p, n)
            assert len(subs) == len(set(subs)) == num_subspaces(p, n)
            assert subs[0] == ()
            for k in range(n + 1):
                assert sum(1 for s in subs if len(s) == k) == gaussian_binomial(n, k, p)
            # every entry is the reduced echelon basis of its own span
            assert all(rref(s, p)[0] == [list(row) for row in s] for s in subs)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
def test_subspace_count_recurrence(p):
    # the Goldman-Rota recurrence against the sum of Gaussian binomials,
    # and against the listed lattice where it is small
    for n in range(10):
        expected = sum(gaussian_binomial(n, k, p) for k in range(n + 1))
        assert num_subspaces(p, n) == expected
        if expected <= 5000:
            assert len(subspace_lattice(p, n)) == expected


def test_modular_law():
    # a ∩ (b + (a ∩ c)) == (a ∩ b) + (a ∩ c) for all subspace triples of F_2^3
    subs = lattice(2, 3)
    for a in subs:
        for b in subs:
            for c in subs:
                lhs = intersection_by_perps(a, subspace_sum(b, intersection_by_perps(a, c)))
                rhs = subspace_sum(intersection_by_perps(a, b), intersection_by_perps(a, c))
                assert lhs == rhs


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_intersection_matches_perp_route(p, n):
    # the common vectors of two subspaces span what the perp route gives
    subs = lattice(p, n)
    vectors = [set(subspace_vectors(s)) for s in subs]
    for k, a in enumerate(subs):
        for b, vb in zip(subs[k:], vectors[k:]):
            expected = intersection_by_perps(a, b)
            assert set(subspace_vectors(expected)) == vectors[k] & vb
            assert intersection_by_perps(b, a) == expected


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_lattice_contains(p, n):
    subs = lattice(p, n)
    assert subs[0].dim == 0 and subs[-1].dim == n
    vectors = [set(subspace_vectors(s)) for s in subs]
    for a, b in itertools.product(range(len(subs)), repeat=2):
        assert lattice_contains(p, n, a, b) == (vectors[b] <= vectors[a])


def test_membership():
    s = subspace_from_vectors(5, 3, [[1, 0, 2], [0, 1, 3]])
    assert contains_vector(s, [1, 1, 0])
    assert not contains_vector(s, [0, 0, 1])
    assert contains_vector(s, [0, 0, 0])
