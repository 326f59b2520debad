"""Face rings K[Delta] = S/I_Delta over F_p.

The nonface ideal, minimal primes, Fedder's F-purity test read off the
minimal nonfaces, and the finite containment check that a monomial
splitting restricts to an annihilator ideal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import UnsupportedInputError
from .gfp_linalg import check_prime
from .polyfp import (
    MonomialIdeal,
    frobenius_power,
    monomial_ideal_sum,
    split_monomial,
)
from .simplicial import SimplicialComplex


def nonface_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Square-free generators: the minimal vertex sets that are not faces."""
    if c.is_void:
        raise UnsupportedInputError("the void complex has no face ring")
    n = c.n_vertices
    minimal = []
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            if c.is_face(sub):
                continue
            if all(c.is_face(sub[:k] + sub[k + 1 :]) for k in range(size)):
                minimal.append(tuple(1 if i in sub else 0 for i in range(n)))
    return MonomialIdeal.from_generators(n, minimal)


def minimal_primes(c: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """One prime per facet, generated by the variables outside the facet."""
    if c.is_void:
        raise UnsupportedInputError("the void complex has no face ring")
    primes = {
        tuple(v for v in range(c.n_vertices) if v not in f) for f in c.facets
    }
    return tuple(sorted(primes))


def prime_to_ideal(n_vars: int, variables: tuple[int, ...]) -> MonomialIdeal:
    gens = [tuple(1 if i == v else 0 for i in range(n_vars)) for v in variables]
    return MonomialIdeal.from_generators(n_vars, gens) if gens else MonomialIdeal.zero(n_vars)


@dataclass(frozen=True)
class FaceRing:
    """K[Delta] with its prime and nonface ideal."""

    complex: SimplicialComplex
    p: int
    nonface_ideal: MonomialIdeal = field(init=False)

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


def splitting_containment_check(ring: FaceRing, j: MonomialIdeal) -> bool:
    """Finite generating check that the standard splitting T maps the
    p-th-root image of j back into j, modulo the nonface ideal.

    Verifies T(g * x^a) in j + I_Delta for every generator g of j and
    every exponent vector a with all entries below p; by the
    T(s^p r) = s T(r) law this covers the whole module.
    Requires I_Delta to be contained in j.
    """
    i = ring.nonface_ideal
    if not j.contains_ideal(i):
        raise ValueError("j must contain the nonface ideal")
    p = ring.p
    target = monomial_ideal_sum(j, i)
    n = i.n_vars
    for g in j.generators:
        for a in itertools.product(range(p), repeat=n):
            m = tuple(e + x for e, x in zip(g, a))
            t = split_monomial(m, p)
            if t is not None and not target.contains_monomial(t):
                return False
    return True
