"""Face rings K[Delta] = S/I_Delta over F_p, and monomial ideals.

Monomials are exponent tuples of fixed length, and a monomial ideal is
held by its minimal generators; membership is read off them.  The
nonface ideal takes its minimal nonfaces from the complex's table of
face masks, and Fedder's F-purity test reads off them.
Nothing here needs the polynomial layer (froblab.polyfp), which
analyze-complex therefore never loads.
"""

from __future__ import annotations

from .errors import UnsupportedInputError
from .gfp_linalg import check_p_power, check_prime
from .record import record
from .simplicial import SimplicialComplex, face_masks

Monomial = tuple[int, ...]


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_text(m: Monomial) -> str:
    # froblab.polyfp.mono_to_text, repeated so that analyze-complex
    # never loads the polynomial layer
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


@record
class MonomialIdeal:
    """Monomial ideal given by its unique antichain of minimal generators."""

    n_vars: int
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.n_vars or any(e < 0 for e in g):
                raise ValueError("bad generator")
        if self.generators != _antichain(self.n_vars, self.generators):
            raise ValueError("generators not a canonical antichain")

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def contains_monomial(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.generators)

    def to_text(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(_mono_text(g) for g in sorted(self.generators, reverse=True)) + ")"


def _antichain(n_vars: int, gens: list[Monomial]) -> tuple[Monomial, ...]:
    gens = sorted(set(gens))
    kept = [
        g
        for g in gens
        if not any(h != g and mono_divides(h, g) for h in gens)
    ]
    return tuple(sorted(kept))


def frobenius_power(ideal: MonomialIdeal, q: int, p: int) -> MonomialIdeal:
    """Generator-wise q-th power for q = p^e (e >= 0)."""
    check_p_power(q, p)
    # scaling every exponent by q keeps the antichain and its order
    return MonomialIdeal(ideal.n_vars, tuple(tuple(e * q for e in g) for g in ideal.generators))


def nonface_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Square-free generators: the minimal vertex sets that are not faces.

    Dropping its largest vertex v from a minimal nonface leaves a face
    sigma, so they are the masks sigma + {v}, sigma in the face-mask table
    and v above sigma, outside the table with every one-vertex drop in it;
    they already form the antichain of minimal generators."""
    if c.is_void:
        raise UnsupportedInputError("the void complex has no face ring")
    n = c.n_vertices
    masks = face_masks(c)[1]
    minimal = []
    for sigma in masks:
        for v in range(sigma.bit_length(), n):
            tau = sigma | 1 << v
            if tau not in masks and all(tau ^ 1 << u in masks for u in range(v) if sigma >> u & 1):
                minimal.append(tuple(tau >> u & 1 for u in range(n)))
    return MonomialIdeal(n, tuple(sorted(minimal)))


def fedder_fpure_monomial(i: MonomialIdeal, p: int) -> bool:
    """F-purity of S/I over F_p for a monomial ideal I (the face ring
    when I is the nonface ideal) by Fedder's criterion: (I^[p] : I) not
    contained in (x_0^p, ..., x_{n-1}^p).

    The colon is a monomial ideal, so this holds exactly when it contains
    x^((p-1)*1), that is when g * x^((p-1)*1) lies in I^[p] for every
    minimal generator g; the colon itself is never formed.
    """
    check_prime(p)
    frob = frobenius_power(i, p, p)
    return all(frob.contains_monomial(tuple(e + p - 1 for e in g)) for g in i.generators)
