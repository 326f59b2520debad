"""Face rings K[Delta] = S/I_Delta over F_p: the nonface ideal and
Fedder's F-purity test.

Monomials are exponent tuples of fixed length, and a monomial ideal is
given by a tuple of its generators.  The nonface ideal takes its minimal
nonfaces from the complex's table of face masks, and Fedder's F-purity
test reads off them.  Nothing here needs the polynomial layer
(froblab.polyfp), which analyze-complex therefore never loads.
"""

from __future__ import annotations

from .errors import UnsupportedInputError
from .gfp_linalg import check_prime
from .simplicial import SimplicialComplex, face_masks

Monomial = tuple[int, ...]


def nonface_ideal(c: SimplicialComplex) -> tuple[Monomial, ...]:
    """The minimal generators of the nonface ideal, sorted: the square-free
    monomials of the minimal vertex sets that are not faces.

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
    return tuple(sorted(minimal))


def ideal_text(generators: tuple[Monomial, ...]) -> str:
    """Report text of the ideal of square-free generators, the largest
    first: "(x0*x1, x2)", and "(0)" for none."""
    if not generators:
        return "(0)"
    words = ("*".join(f"x{i}" for i, e in enumerate(g) if e) for g in sorted(generators, reverse=True))
    return "(" + ", ".join(words) + ")"


def fedder_fpure_monomial(generators: tuple[Monomial, ...], p: int) -> bool:
    """F-purity of S/I over F_p for the monomial ideal I of the generators
    (the face ring when they are the minimal nonfaces) by Fedder's
    criterion: (I^[p] : I) not contained in (x_0^p, ..., x_{n-1}^p).

    The colon is a monomial ideal, so this holds exactly when it contains
    x^((p-1)*1), that is when g * x^((p-1)*1) lies in I^[p] for every
    generator g: when some generator h has p*h <= g + (p-1)*1 entrywise,
    that is when h divides x^ceil(g/p).  That bound is g itself for a
    square-free g, so it is looked up among the generators before the
    generators are scanned.  The colon itself is never formed.

    The minimal nonfaces are square-free, so on a face ring the lookup
    finds every witness and the answer is always True, as it must be:
    face rings are F-pure (Hochster-Roberts).  The scan past the lookup
    runs only on ideals that are not square-free, which only the tests
    pass.
    """
    check_prime(p)
    present = set(generators)

    def witnessed(g: Monomial) -> bool:
        bound = tuple(-(-b // p) for b in g)
        return bound in present or any(all(a <= b for a, b in zip(h, bound)) for h in generators)

    return all(map(witnessed, generators))
