"""The colon-ideal route to Fedder's criterion, kept as a test oracle.

froblab decides F-purity of a face ring from the minimal nonfaces alone.
These helpers form the whole colon ideal (I^[p] : I) instead, by the
generator-wise exponent rule intersected over the generators of I, and
read the verdict off its generators.  The sum and intersection of
monomial ideals and the containment of one in another, which froblab
itself never needs, live here too.
"""

from froblab.stanley_reisner import MonomialIdeal, frobenius_power


def contains_ideal(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    return all(a.contains_monomial(g) for g in b.generators)


def monomial_ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal.from_generators(a.n_vars, a.generators + b.generators)


def monomial_ideal_intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    gens = [tuple(max(x, y) for x, y in zip(g, h)) for g in a.generators for h in b.generators]
    return MonomialIdeal.from_generators(a.n_vars, gens)


def monomial_colon(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """(a : b); (a : (0)) is the unit ideal."""
    if b.is_zero:
        return MonomialIdeal.from_generators(a.n_vars, [(0,) * a.n_vars])
    parts = [
        MonomialIdeal.from_generators(
            a.n_vars, [tuple(max(x - y, 0) for x, y in zip(g, h)) for g in a.generators]
        )
        for h in b.generators
    ]
    out = parts[0]
    for q in parts[1:]:
        out = monomial_ideal_intersection(out, q)
    return out


def fedder_colon(ring) -> MonomialIdeal:
    """(I^[p] : I) for the nonface ideal I of a face ring."""
    i = ring.nonface_ideal
    return monomial_colon(frobenius_power(i, ring.p, ring.p), i)


def fedder_fpure_by_colon(ring) -> bool:
    """True exactly when some colon generator has all exponents below p."""
    return any(all(e < ring.p for e in g) for g in fedder_colon(ring).generators)


def colon_radical_contains_nonfaces(ring) -> bool:
    """Square-free supports of the Fedder colon generators span an ideal
    containing the nonface ideal (radical sanity check)."""
    i = ring.nonface_ideal
    radical = MonomialIdeal.from_generators(
        i.n_vars, [tuple(1 if e else 0 for e in g) for g in fedder_colon(ring).generators]
    )
    return contains_ideal(radical, i)
