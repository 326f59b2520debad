"""Test oracles for the hypersurface levels A_t = S/(f, l_1^t, ..., l_d^t)
of froblab.hypersurface.

The per-degree route backs the normal-form route: each graded piece of
the level ideal is spanned explicitly by the multiples m * g of its
generators and decided by rank with the dense reference kernel of
dense_oracle.  The direct Frobenius route backs the Frobenius-step
helper: it reduces the whole power g^(p^e) in one normal form, and on it
the bounded tight-closure test of any class.  The chain route backs the
probe's shared chain: a copy of the probe that validates each variable
as a --c multiplier and reduces its own chain of Frobenius powers for
it.  The class helpers build classes of the direct-limit model from x
coordinates and compare them across levels."""

import itertools
from functools import lru_cache
from typing import NamedTuple

from dense_oracle import row_echelon
from froblab.errors import CapacityError, UnsupportedInputError
from froblab.hypersurface import (
    _linear_divides,
    _normal_form,
    _socle,
    _substitute,
    _variable_factors,
    level_top_degree,
)
from froblab.polyfp import PolynomialFp
from perp_oracle import kernel_basis


def level_form(h, t, g):
    """Normal form at level t of g given in x, in y coordinates; A_t is
    zero above its top degree, so those components are dropped before
    the change of coordinates."""
    top = level_top_degree(h, t)
    kept = PolynomialFp(g.p, g.n_vars, tuple((m, c) for m, c in g.terms if sum(m) <= top))
    return _normal_form(h, t, _substitute(kept, h._to_y))


def level_contains(h, t, g):
    """Membership of g in (params^t) + (f): its level-t normal form is zero."""
    if g.is_zero:
        return True
    if g.degree() > t * h.degree_cap():
        raise CapacityError(f"degree {g.degree()} exceeds the cap {t * h.degree_cap()} at level {t}")
    return level_form(h, t, g).is_zero


class LevelClass(NamedTuple):
    """<r; l_1^t, ..., l_d^t>: a class in the direct-limit model, with r
    the level-t normal form written back in x."""

    r: PolynomialFp
    t: int

    @property
    def is_zero(self):
        return self.r.is_zero


def make_class(h, r, t):
    """The class <r; t>, its level-t normal form written back in x."""
    if t < 1:
        raise ValueError("level must be positive")
    return LevelClass(_substitute(level_form(h, t, r), h._to_x), t)


@lru_cache(maxsize=None)
def frobenius_powers_direct(h, t, g, e_max):
    """Level-(p^e * t) normal forms of g^(p^e), e = 1..e_max, for g in y
    coordinates, each from one normal form of the whole power; cached, as
    several multipliers are tested against one class."""
    powers = []
    for e in range(1, e_max + 1):
        g = g.frobenius()
        powers.append(_normal_form(h, h.p**e * t, g))
    return tuple(powers)


def tight_closure_direct(h, u, c, e_max):
    """The first e in 1..e_max with c * u^(p^e) nonzero at level
    p^e * u.t, or None, for any class u and a multiplier c in x."""
    c_y = _substitute(c, h._to_y)
    powers = frobenius_powers_direct(h, u.t, _substitute(u.r, h._to_y), e_max)
    for e, power in enumerate(powers, start=1):
        if not _normal_form(h, h.p**e * u.t, c_y * power).is_zero:
            return e
    return None


def frobenius_powers_by_steps(h, t, g, e_max):
    """Level-(p^e * t) normal forms of g^(p^e), e = 1..e_max, for g in y
    coordinates, each reduced from the previous one; uncached."""
    powers = []
    for e in range(1, e_max + 1):
        g = _normal_form(h, h.p**e * t, g.frobenius())
        powers.append(g)
    return powers


def in_principal(h, c):
    """Membership of c in (f), by the rank of each degree's span of f's multiples."""
    return span_contains((h.f,), c, h.p, h.n_vars)


def tight_closure_by_chain(h, t, c, e_max):
    """The bounded tight-closure test of the level-t socle class with
    every check on the multiplier c, on its own chain of powers."""
    if c.is_zero or in_principal(h, c):
        raise UnsupportedInputError("the multiplier must be nonzero modulo f")
    if len(c.terms) == 1:
        if any(c.terms[0][0][j] for j in _variable_factors(h)):
            raise UnsupportedInputError("the multiplier is a zero divisor")
    elif c.degree() == 1 and _linear_divides(c, h.f):
        raise UnsupportedInputError("the multiplier is a zero divisor")
    c_y = _substitute(c, h._to_y)
    for e, power in enumerate(frobenius_powers_by_steps(h, t, _socle(h, t), e_max), start=1):
        if not _normal_form(h, h.p**e * t, c_y * power).is_zero:
            return e
    return None


def simplicity_probe_by_chain(h, t, e_max):
    """The simplicity probe with a chain of powers per check: variables
    in (f) or dividing f are skipped, and every other one is tested by
    tight_closure_by_chain."""
    if level_top_degree(h, t) == 0:
        return None
    for e, power in enumerate(frobenius_powers_by_steps(h, t, _socle(h, t), e_max), start=1):
        if power.is_zero:
            return f"frobenius-kills-socle-at-e={e}"
    for j in range(h.n_vars):
        c = PolynomialFp.variable(h.p, h.n_vars, j)
        if j in _variable_factors(h) or in_principal(h, c):
            continue
        if tight_closure_by_chain(h, t, c, e_max) is None:
            return f"bounded-tight-closure-consistent-with-c=x{j}"
    return None


def lift_class(h, u, t):
    """Rewrite at a deeper level via multiplication by (l_1 ... l_d)^(t - u.t)."""
    if t < u.t:
        raise ValueError("can only lift to a deeper level")
    shift = PolynomialFp.constant(h.p, h.n_vars, 1)
    for l in h.params:
        shift = shift * l
    r = u.r
    for _ in range(t - u.t):
        r = r * shift
    return make_class(h, r, t)


def classes_equal(h, u, v):
    t = max(u.t, v.t)
    return lift_class(h, u, t).r == lift_class(h, v, t).r


def unit_class(h, t):
    return make_class(h, PolynomialFp.constant(h.p, h.n_vars, 1), t)


def reduce_vector(echelon, pivots, v, p):
    """Reduce v against the rows of a row_echelon result; the residual has
    zeros in pivot columns."""
    v = [x % p for x in v]
    for row, c in zip(echelon, pivots):
        f = v[c]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return v


def monomials_of_degree(n_vars, d):
    """All degree-d monomials in n_vars variables, lexicographically descending."""
    return [m for m in itertools.product(range(d, -1, -1), repeat=n_vars) if sum(m) == d]


def level_generators(h, t):
    return (h.f,) + tuple(l.pow(t) for l in h.params)


def span(gens, d, p, n):
    """The spanning set {m * g : deg(m g) = d} of the degree-d piece."""
    return [
        PolynomialFp.monomial(p, mult) * g
        for g in gens
        if not g.is_zero and g.degree() <= d
        for mult in monomials_of_degree(n, d - g.degree())
    ]


def vector(g, monos):
    index = {m: i for i, m in enumerate(monos)}
    v = [0] * len(monos)
    for m, c in g.terms:
        v[index[m]] = c
    return v


def rank(polys, monos, p):
    return len(row_echelon([vector(g, monos) for g in polys], p)[1])


def span_contains(gens, g, p, n):
    """Membership of g, one homogeneous component at a time, by comparing
    the rank of each piece's span with and without the component."""
    buckets = {}
    for m, c in g.terms:
        buckets.setdefault(sum(m), {})[m] = c
    for d, coeffs in buckets.items():
        monos = monomials_of_degree(n, d)
        piece = span(gens, d, p, n)
        comp = PolynomialFp.make(p, n, coeffs)
        if rank(piece + [comp], monos, p) != rank(piece, monos, p):
            return False
    return True


def _echelon(gens, d, p, n):
    monos = monomials_of_degree(n, d)
    piece = span(gens, d, p, n)
    return monos, row_echelon([vector(g, monos) for g in piece], p)


def quotient_monomials(h, t, d):
    """Monomials without a pivot in the lex-descending echelon of the
    degree-d piece of the level-t ideal: a basis of the piece of A_t."""
    monos, (_, pivots) = _echelon(level_generators(h, t), d, h.p, h.n_vars)
    return [m for i, m in enumerate(monos) if i not in pivots]


def hilbert_function(h, t):
    return [len(quotient_monomials(h, t, d)) for d in range(level_top_degree(h, t) + 1)]


def socle_by_kernel_search(h, t):
    """Socle of A_t degree by degree: a combination of quotient monomials
    is in the socle when every variable multiple reduces to zero one
    degree up."""
    p, n = h.p, h.n_vars
    gens = level_generators(h, t)
    out = []
    for d in range(level_top_degree(h, t) + 1):
        q_d = quotient_monomials(h, t, d)
        if not q_d:
            continue
        monos, (echelon, pivots) = _echelon(gens, d + 1, p, n)
        rows = []
        for mono in q_d:
            row = []
            for j in range(n):
                bumped = tuple(e + (k == j) for k, e in enumerate(mono))
                row += reduce_vector(echelon, pivots, vector(PolynomialFp.monomial(p, bumped), monos), p)
            rows.append(row)
        # the kernel of the transpose: combinations of the rows that vanish
        for coeffs in kernel_basis(list(zip(*rows)), p, len(q_d)).basis:
            out.append(PolynomialFp.make(p, n, dict(zip(q_d, coeffs))))
    return out
