"""Small helpers that only the tests use: repeated variable action on a
truncation model, and the minimal primes of a square-free monomial
ideal."""

import itertools

from froblab.errors import UnsupportedInputError
from froblab.fmodule import apply_x


def apply_monomial(t, exponents, v):
    """Multiplication by x^exponents, one variable step at a time."""
    out = v
    for j, e in enumerate(exponents):
        for _ in range(e):
            out = apply_x(t, j, out)
    return out


def squarefree_minimal_primes(ideal):
    """Minimal primes of a square-free monomial ideal, each as a sorted
    tuple of variable indices (minimal hitting sets of the generator
    supports).  The unit ideal has none."""
    if not ideal.is_squarefree():
        raise UnsupportedInputError("ideal is not square-free")
    if ideal.is_unit:
        return ()
    if ideal.is_zero:
        return ((),)
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in ideal.generators]
    hits = []
    for size in range(0, ideal.n_vars + 1):
        for cand in itertools.combinations(range(ideal.n_vars), size):
            cs = set(cand)
            if all(cs & s for s in supports) and not any(set(h) <= cs for h in hits):
                hits.append(cand)
    return tuple(sorted(hits))
