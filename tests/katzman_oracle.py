"""Katzman's count of F-stable submodules for f = x0...x_{n-1}, kept as a
test oracle that touches no Čech or decomposition code.

For S = F_p[x0, ..., x_{n-1}] and R = S/(f), the F-stable submodules of
the top local cohomology of R correspond to the ideals J of S with f in J
and f^(p-1) J contained in J^[p] (Katzman).  katzman_count lists the
monomial ideals J containing f whose generators have every exponent at
most top (2 by default), and keeps those with f^(p-1) g in J^[p] for
every generator g.  R is the face ring of the boundary of the
(n-1)-simplex, and the count is the Dedekind number D(n) minus one: only
square-free J survive, and every nonzero square-free monomial ideal
contains f.  So top = 1, which lists the square-free ideals directly (the
D(n) antichains of subsets of the n variables), gives the same count,
and reaches n = 4, where exponents up to 2 give far too many antichains.
"""

import itertools

from colon_oracle import frobenius_power, ideal_from_generators, mono_divides


def antichains(points):
    """Every antichain of the exponent vectors points under divisibility."""

    def extend(start, chosen):
        yield chosen
        for k in range(start, len(points)):
            m = points[k]
            if not any(mono_divides(m, g) or mono_divides(g, m) for g in chosen):
                yield from extend(k + 1, chosen + [m])

    return extend(0, [])


def katzman_count(n, p, top=2):
    f = (1,) * n
    count = 0
    for gens in antichains(list(itertools.product(range(top + 1), repeat=n))):
        j = ideal_from_generators(n, gens)
        if not j.contains_monomial(f):
            continue
        frob = frobenius_power(j, p, p)
        count += all(frob.contains_monomial(tuple(p - 1 + e for e in g)) for g in j.generators)
    return count
