"""Subspace intersection through orthogonal complements, kept as a test
oracle.

froblab.gfp_linalg.subspace_intersection reads A ∩ B off one kernel of
the stacked bases.  This is the route it replaced: (U + V)^perp =
U^perp ∩ V^perp, and perp is an involution for the standard pairing, so
A ∩ B = (A^perp + B^perp)^perp.  The sum U + V, which froblab itself
never forms, lives here too.
"""

import functools

from froblab.gfp_linalg import Subspace, _check_compatible, kernel_basis


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return Subspace.from_vectors(a.p, a.ambient_dim, a.basis + b.basis)


@functools.lru_cache(maxsize=None)
def subspace_perp(a: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product."""
    return kernel_basis(a.basis, a.p, a.ambient_dim)


def intersection_by_perps(a: Subspace, b: Subspace) -> Subspace:
    return subspace_perp(subspace_sum(subspace_perp(a), subspace_perp(b)))
