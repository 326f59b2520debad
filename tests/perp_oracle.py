"""Subspace intersection through orthogonal complements, kept as a test
oracle.

froblab.gfp_linalg.subspace_intersection reads A ∩ B off one kernel of
the stacked bases.  This is the route it replaced: (U + V)^perp =
U^perp ∩ V^perp, and perp is an involution for the standard pairing, so
A ∩ B = (A^perp + B^perp)^perp.  The sum U + V, membership of a vector,
containment of subspaces and the list of all vectors of a subspace,
which froblab itself never needs, live here too.
"""

import functools
import itertools

from froblab.errors import DimensionMismatchError
from froblab.gfp_linalg import Subspace, _check_compatible, _combine, kernel_basis


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
    _check_compatible(a, b)
    return all(contains_vector(a, row) for row in b.basis)


def subspace_vectors(s: Subspace):
    """Iterate over all vectors of the subspace (desk scale only)."""
    # zip of no rows gives no columns, but the zero vector has ambient_dim
    columns = list(zip(*s.basis)) if s.basis else [()] * s.ambient_dim
    for coeffs in itertools.product(range(s.p), repeat=s.dim):
        yield _combine(coeffs, columns, s.p)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return Subspace.from_vectors(a.p, a.ambient_dim, a.basis + b.basis)


@functools.lru_cache(maxsize=None)
def subspace_perp(a: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product."""
    return kernel_basis(a.basis, a.p, a.ambient_dim)


def intersection_by_perps(a: Subspace, b: Subspace) -> Subspace:
    return subspace_perp(subspace_sum(subspace_perp(a), subspace_perp(b)))
