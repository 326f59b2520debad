"""Monomial ideals and the colon-ideal route to Fedder's criterion, kept
as test oracles.

froblab holds a monomial ideal as a bare tuple of generators and decides
F-purity of a face ring from the minimal nonfaces alone.  Here a
MonomialIdeal record holds the unique antichain of minimal generators
and answers membership and its report text, frobenius_power raises it
generator-wise to a power of p, and the helpers form the whole colon
ideal (I^[p] : I), by the generator-wise exponent rule intersected over
the generators of I, and read the verdict off its generators.  The ideal
of an arbitrary list of generators, the sum and intersection of monomial
ideals and the containment of one in another, which froblab itself never
needs, live here too, and so does a scan of every vertex subset for the
minimal nonfaces, the reference for froblab's reading of them off its
table of face masks.
"""

import itertools

from box_oracle import is_face
from froblab.polyfp import mono_to_text
from froblab.record import record
from froblab.stanley_reisner import nonface_ideal


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _antichain(gens) -> tuple:
    """The minimal ones of the monomials gens, sorted."""
    gens = sorted(set(gens))
    return tuple(g for g in gens if not any(h != g and mono_divides(h, g) for h in gens))


@record
class MonomialIdeal:
    """Monomial ideal given by its unique antichain of minimal generators."""

    n_vars: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.n_vars or any(e < 0 for e in g):
                raise ValueError("bad generator")
        if self.generators != _antichain(self.generators):
            raise ValueError("generators not a canonical antichain")

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def contains_monomial(self, m) -> bool:
        return any(mono_divides(g, m) for g in self.generators)

    def to_text(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(mono_to_text(g) for g in sorted(self.generators, reverse=True)) + ")"


def check_p_power(q: int, p: int) -> None:
    """Raise ValueError unless q = p^e for some e >= 0."""
    r = q
    while r > 0 and r % p == 0:
        r //= p
    if r != 1:
        raise ValueError(f"{q} is not a power of {p}")


def frobenius_power(ideal: MonomialIdeal, q: int, p: int) -> MonomialIdeal:
    """Generator-wise q-th power for q = p^e (e >= 0)."""
    check_p_power(q, p)
    # scaling every exponent by q keeps the antichain and its order
    return MonomialIdeal(ideal.n_vars, tuple(tuple(e * q for e in g) for g in ideal.generators))


def ideal_from_generators(n_vars: int, gens) -> MonomialIdeal:
    """The monomial ideal generated by gens, reduced to its minimal ones."""
    return MonomialIdeal(n_vars, _antichain(tuple(g) for g in gens))


def nonface_monomial_ideal(c) -> MonomialIdeal:
    """froblab's nonface ideal, its generators checked to be the minimal ones."""
    return MonomialIdeal(c.n_vertices, nonface_ideal(c))


def nonface_ideal_by_scan(c) -> MonomialIdeal:
    """The nonface ideal of a nonvoid complex from a scan of its vertex
    subsets of every size."""
    n = c.n_vertices
    minimal = [
        tuple(1 if i in sub else 0 for i in range(n))
        for size in range(1, n + 1)
        for sub in itertools.combinations(range(n), size)
        if not is_face(c, sub) and all(is_face(c, sub[:k] + sub[k + 1 :]) for k in range(size))
    ]
    return ideal_from_generators(n, minimal)


def contains_ideal(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    return all(a.contains_monomial(g) for g in b.generators)


def monomial_ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return ideal_from_generators(a.n_vars, a.generators + b.generators)


def monomial_ideal_intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    gens = [tuple(max(x, y) for x, y in zip(g, h)) for g in a.generators for h in b.generators]
    return ideal_from_generators(a.n_vars, gens)


def monomial_colon(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """(a : b); (a : (0)) is the unit ideal."""
    if b.is_zero:
        return ideal_from_generators(a.n_vars, [(0,) * a.n_vars])
    parts = [
        ideal_from_generators(
            a.n_vars, [tuple(max(x - y, 0) for x, y in zip(g, h)) for g in a.generators]
        )
        for h in b.generators
    ]
    out = parts[0]
    for q in parts[1:]:
        out = monomial_ideal_intersection(out, q)
    return out


def fedder_colon(i: MonomialIdeal, p: int) -> MonomialIdeal:
    """(I^[p] : I), I the nonface ideal of a face ring over F_p."""
    return monomial_colon(frobenius_power(i, p, p), i)


def fedder_fpure_by_colon(i: MonomialIdeal, p: int) -> bool:
    """True exactly when some colon generator has all exponents below p."""
    return any(all(e < p for e in g) for g in fedder_colon(i, p).generators)


def colon_radical_contains_nonfaces(i: MonomialIdeal, p: int) -> bool:
    """Square-free supports of the Fedder colon generators span an ideal
    containing the nonface ideal (radical sanity check)."""
    radical = ideal_from_generators(
        i.n_vars, [tuple(1 if e else 0 for e in g) for g in fedder_colon(i, p).generators]
    )
    return contains_ideal(radical, i)
