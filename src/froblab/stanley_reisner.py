"""Face rings K[Delta] = S/I_Delta: the nonface ideal and its report
text.

Monomials are exponent tuples of fixed length, and a monomial ideal is
given by a tuple of its generators.  The nonface ideal takes its minimal
nonfaces from the complex's table of face masks.  No F-purity test runs
here: every face ring is F-pure (Hochster-Roberts), so analyze-complex
reports f_pure as true, and Fedder's criterion by the colon ideal is the
tests' route (tests/colon_oracle.py).  Nothing here needs the polynomial
layer (froblab.polyfp), which analyze-complex therefore never loads.
"""

from __future__ import annotations

from .errors import UnsupportedInputError
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
