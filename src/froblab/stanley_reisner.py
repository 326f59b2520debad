"""Face rings K[Delta] = S/I_Delta over F_p.

The nonface ideal and Fedder's F-purity test read off the minimal
nonfaces.
"""

from __future__ import annotations

import itertools

from .errors import UnsupportedInputError
from .gfp_linalg import check_prime
from .polyfp import MonomialIdeal, frobenius_power
from .record import record
from .simplicial import SimplicialComplex


def nonface_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Square-free generators: the minimal vertex sets that are not faces.

    Dropping a vertex from a minimal nonface leaves a face, so none has
    more than dim + 2 vertices."""
    if c.is_void:
        raise UnsupportedInputError("the void complex has no face ring")
    n = c.n_vertices
    minimal = []
    for size in range(1, min(n, c.dim + 2) + 1):
        for sub in itertools.combinations(range(n), size):
            if c.is_face(sub):
                continue
            if all(c.is_face(sub[:k] + sub[k + 1 :]) for k in range(size)):
                minimal.append(tuple(1 if i in sub else 0 for i in range(n)))
    return MonomialIdeal.from_generators(n, minimal)


@record
class FaceRing:
    """K[Delta] with its prime and nonface ideal (derived, so not compared)."""

    complex: SimplicialComplex
    p: int

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "nonface_ideal", nonface_ideal(self.complex))


def fedder_fpure_monomial(ring: FaceRing) -> bool:
    """F-purity by Fedder's criterion: (I^[p] : I) not contained in
    (x_0^p, ..., x_{n-1}^p).

    The colon is a monomial ideal, so this holds exactly when it contains
    x^((p-1)*1), that is when g * x^((p-1)*1) lies in I^[p] for every
    minimal nonface g; the colon itself is never formed.
    """
    p = ring.p
    i = ring.nonface_ideal
    frob = frobenius_power(i, p, p)
    return all(frob.contains_monomial(tuple(e + p - 1 for e in g)) for g in i.generators)
