"""Subspace operations that froblab itself never needs, kept as test
oracles.

froblab holds a subspace as a bare reduced row-echelon basis, an entry
of froblab.fmodule.subspace_lattice.  lattice_contains decides, on
lattice indices, whether one contains another, by whether stacking
their bases adds a pivot; the window search of cech_map_oracle reads it.
Here a Subspace record also carries its prime and ambient dimension,
and lattice wraps the entries of the lattice in it.  Here also live the error for operands of
different ambient spaces, the kernel of a matrix, the zero subspace,
the span of a list of vectors, the sum U + V, membership of a vector,
containment of subspaces, the list of all vectors of a subspace, and
the intersection through orthogonal complements: (U + V)^perp =
U^perp ∩ V^perp, and perp is an involution for the standard pairing,
so A ∩ B = (A^perp + B^perp)^perp.
"""

import functools
import itertools

from dense_oracle import row_echelon
from froblab.fmodule import subspace_lattice
from froblab.gfp_linalg import check_prime
from froblab.record import record


@record
class Subspace:
    """Subspace of F_p^ambient_dim, stored as a canonical rref basis (no zero rows)."""

    p: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        if len(self.basis) > self.ambient_dim:
            raise ValueError("more basis rows than ambient dimension")
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise ValueError("basis row length mismatch")

    @property
    def dim(self) -> int:
        return len(self.basis)


@functools.lru_cache(maxsize=None)
def lattice(p: int, dim: int) -> tuple[Subspace, ...]:
    """Every subspace of F_p^dim, the entries of subspace_lattice(p, dim)
    in its order, each as a Subspace."""
    return tuple(Subspace(p, dim, basis) for basis in subspace_lattice(p, dim))


@functools.lru_cache(maxsize=None)
def lattice_contains(p: int, dim: int, a: int, b: int) -> bool:
    """Whether L[a] ⊇ L[b] for L = subspace_lattice(p, dim): the basis of
    L[b] adds no pivot to that of L[a]."""
    entries = subspace_lattice(p, dim)
    big, small = entries[a], entries[b]
    return len(row_echelon(big + small, p)[1]) == len(big)


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces."""


def check_compatible(a: Subspace, b: Subspace) -> None:
    if a.p != b.p:
        raise DimensionMismatchError("subspaces over different primes")
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def zero_subspace(p: int, ambient_dim: int) -> Subspace:
    return Subspace(p, ambient_dim, ())


def subspace_from_vectors(p: int, ambient_dim: int, vectors) -> Subspace:
    """The span of vectors, held by its canonical reduced echelon basis."""
    echelon, _ = row_echelon(vectors, p, reduced=True)
    return Subspace(p, ambient_dim, tuple(map(tuple, echelon)))


def kernel_basis(a, p: int, cols: int | None = None) -> Subspace:
    """Basis of {v : a v = 0} over F_p for the matrix with rows a; its
    dimension is cols - rank(a).  cols defaults to the length of the
    first row and is needed when a has no rows."""
    cols = len(a[0]) if cols is None else cols
    echelon, pivots = row_echelon(a, p, reduced=True)
    vecs = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = 1
        for c, row in zip(pivots, echelon):
            v[c] = -row[f] % p
        vecs.append(v)
    return subspace_from_vectors(p, cols, vecs)


def contains_vector(s: Subspace, v) -> bool:
    v = [int(x) % s.p for x in v]
    if len(v) != s.ambient_dim:
        raise DimensionMismatchError("vector length differs from ambient dimension")
    for row in s.basis:  # echelon rows, each monic at its pivot
        f = v[next(j for j, x in enumerate(row) if x)]
        if f:
            v = [(a - f * b) % s.p for a, b in zip(v, row)]
    return not any(v)


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    check_compatible(a, b)
    return all(contains_vector(a, row) for row in b.basis)


def subspace_vectors(s: Subspace):
    """Iterate over all vectors of the subspace (desk scale only)."""
    # zip of no rows gives no columns, but the zero vector has ambient_dim
    columns = list(zip(*s.basis)) if s.basis else [()] * s.ambient_dim
    for coeffs in itertools.product(range(s.p), repeat=s.dim):
        yield tuple(sum(c * x for c, x in zip(coeffs, col)) % s.p for col in columns)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    check_compatible(a, b)
    return subspace_from_vectors(a.p, a.ambient_dim, a.basis + b.basis)


@functools.lru_cache(maxsize=None)
def subspace_perp(a: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product."""
    return kernel_basis(a.basis, a.p, a.ambient_dim)


def intersection_by_perps(a: Subspace, b: Subspace) -> Subspace:
    return subspace_perp(subspace_sum(subspace_perp(a), subspace_perp(b)))
