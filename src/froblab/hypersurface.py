"""Frobenius diagnostics for graded hypersurfaces R = F_p[x_1..x_n]/(f).

Top local cohomology is modeled as the direct limit of the quotients
A_t = S/((l_1^t, ..., l_d^t) + (f)) along multiplication by l_1...l_d,
with Frobenius sending the class <r; t> to <r^p; pt>.  The parameters
l_i are linear forms making the quotient Artinian, so the limit maps are
injective.  In coordinates y with y_i = l_i and y_0 a variable the l_i
leave free, f has the lex leading term y_0^e and A_t is a complete
intersection with Gröbner basis {f, y_1^t, ..., y_d^t}: classes are
decided by a lex normal form, and the socle of A_t is one monomial.

Frobenius commutes with the F_p-linear change to y, and
(f, y_1^s, ..., y_d^s)^[p] lies in (f, y_1^(ps), ..., y_d^(ps)), so
NF_ps(g^p) = NF_ps(NF_s(g)^p).  Every Frobenius power u^(p^e) at level
p^e * t is therefore taken in e steps, each one reduction of the p-th
power of the previous normal form, never as one reduction of u^(p^e),
which touches about p^(2e) terms.  F-injectivity reads only the e = 1
power of the socle class; the powers are cached (`_frobenius_power`), so
the multiplier checks of the probe and the tight-closure test share one
chain of them, each reduced once per run.

The bounded tight-closure test of the socle class u of A_t returns the
first e with c * u^(p^e) nonzero, or None: one-sided by design, as None
means only that every tested power vanished, which is evidence, not a
proof, of membership in the tight closure of zero.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import CapacityError, InvalidParametersError, UnsupportedInputError
from .gfp_linalg import check_prime, row_echelon
from .polyfp import Monomial, PolynomialFp, mono_deg, mono_mul
from .record import record

DEGREE_CAP_FACTOR = 3
MAX_SUBSTITUTED_TERMS = 10**6
# the products c * m, m a monomial of degree deg f - 1, that the zero-divisor
# test of a multiplier c may reduce and eliminate: about 1 s with a dense f
# and c on a 2-CPU container
MAX_DIVISOR_PRODUCTS = 1000


@record
class GradedHypersurface:
    """A homogeneous hypersurface with a homogeneous linear system of
    parameters; checked Artinian at construction."""

    p: int
    n_vars: int
    f: PolynomialFp
    params: tuple[PolynomialFp, ...]
    # derived by _set_coordinates: x_j = _to_y[j](y) and y_i = _to_x[i](x),
    # and _tail holds the terms of f / (its y_0^e coefficient) in y below
    # y_0^e, as (y_0 exponent, rest, coefficient): the reducer of _normal_form

    def __post_init__(self):
        check_prime(self.p)
        if self.f.is_zero or not self.f.is_homogeneous() or self.f.degree() < 1:
            raise UnsupportedInputError("f must be homogeneous of positive degree")
        if self.f.p != self.p or self.f.n_vars != self.n_vars:
            raise ValueError("f lives in the wrong ring")
        if len(self.params) != self.n_vars - 1:
            raise InvalidParametersError(
                f"expected {self.n_vars - 1} parameters, got {len(self.params)}"
            )
        for l in self.params:
            if l.is_zero or l.degree() != 1 or not l.is_homogeneous():
                raise InvalidParametersError("parameters must be nonzero linear forms")
            if l.p != self.p or l.n_vars != self.n_vars:
                raise ValueError("parameter lives in the wrong ring")
        _set_coordinates(self)

    def degree_cap(self) -> int:
        return DEGREE_CAP_FACTOR * self.p**2 * self.f.degree()


def make_hypersurface(f: PolynomialFp, params=None) -> GradedHypersurface:
    """Build from f, defaulting the parameters to the trailing variables,
    which need f monic in the first one."""
    if params is not None:
        return GradedHypersurface(f.p, f.n_vars, f, tuple(params))
    trailing = tuple(PolynomialFp.variable(f.p, f.n_vars, j) for j in range(1, f.n_vars))
    try:
        return GradedHypersurface(f.p, f.n_vars, f, trailing)
    except InvalidParametersError:
        # they leave x0 free, so A_t is Artinian exactly when f is monic in x0
        raise InvalidParametersError("f is not monic in x0; parameters must be supplied") from None


def _set_coordinates(h: GradedHypersurface) -> None:
    """Choose y_0 = x_j for the column j where the parameters' echelon form
    has no pivot, and y_i = l_i; A_t is Artinian exactly when the y_0^e
    coefficient of f is nonzero."""
    p, n = h.p, h.n_vars
    lin = [{m.index(1): c for m, c in l.terms} for l in h.params]
    pivots = row_echelon(lin, p)[1]
    if len(pivots) != n - 1:
        raise InvalidParametersError("parameters are linearly dependent")
    lin.insert(0, {next(j for j in range(n) if j not in pivots): 1})
    # y = lin x, so the reduced echelon form of [lin | 1] is [1 | lin^-1]
    echelon = row_echelon([row | {n + i: 1} for i, row in enumerate(lin)], p, reduced=True)[0]
    to_y = tuple(_linear_form(p, n, {j - n: a for j, a in row.items() if j >= n}) for row in echelon)
    # f in y is homogeneous of degree e, so y_0^e, when present, leads it in lex
    (lead, a), *tail = _substitute(h.f, to_y).terms
    if lead[0] != h.f.degree():
        raise InvalidParametersError(
            "quotient by (parameters) + (f) is not finite dimensional"
        )
    inv = pow(a, -1, p)
    object.__setattr__(h, "_to_y", to_y)
    object.__setattr__(h, "_to_x", tuple(_linear_form(p, n, row) for row in lin))
    object.__setattr__(h, "_tail", tuple((m[0], m[1:], c * inv % p) for m, c in tail))


def _linear_form(p: int, n: int, row: dict[int, int]) -> PolynomialFp:
    return PolynomialFp.make(p, n, {tuple(int(i == j) for i in range(n)): c for j, c in row.items()})


def _substitute(g: PolynomialFp, forms: tuple[PolynomialFp, ...]) -> PolynomialFp:
    """g with every x_j replaced by the linear form forms[j]."""
    # x^m expands to at most prod_j C(m_j + s_j - 1, m_j) terms, s_j = |forms[j]|
    size = sum(
        math.prod(math.comb(e + len(form.terms) - 1, e) for form, e in zip(forms, m))
        for m, _ in g.terms
    )
    if size > MAX_SUBSTITUTED_TERMS:
        raise CapacityError(f"the change of coordinates would expand to {size} terms")
    out: dict[Monomial, int] = {}
    for m, c in g.terms:
        term = PolynomialFp.constant(g.p, g.n_vars, c)
        for form, e in zip(forms, m):
            if e:
                term = term * form.pow(e)
        for mm, cc in term.terms:
            out[mm] = (out.get(mm, 0) + cc) % g.p
    return PolynomialFp.make(g.p, g.n_vars, out)


def _normal_form(h: GradedHypersurface, t: int, g: PolynomialFp) -> PolynomialFp:
    """Remainder of g, in y coordinates, on division by f in y_0, dropping
    every term with some y_i^(>= t), i >= 1, or of degree above the top of
    A_t.

    In lex order with y_0 first, f leads with y_0^e, which is coprime to
    y_1^t, ..., y_d^t; by Buchberger's first criterion these form a
    Gröbner basis, so the remainder is the lex normal form modulo
    (f, y_1^t, ..., y_d^t).  Division by the homogeneous f keeps degrees,
    so the degree test is made once.
    """
    p, e, top = h.p, h.f.degree(), level_top_degree(h, t)
    # terms bucketed by their y_0 exponent
    by_a: dict[int, dict[Monomial, int]] = {}
    for m, c in g.terms:
        if mono_deg(m) <= top and all(b < t for b in m[1:]):
            by_a.setdefault(m[0], {})[m[1:]] = c
    while by_a and max(by_a) >= e:
        a = max(by_a)
        for rest, c in by_a.pop(a).items():
            for k, f_rest, fc in h._tail:
                m = tuple(x + y for x, y in zip(rest, f_rest))
                if all(b < t for b in m):
                    bucket = by_a.setdefault(a - e + k, {})
                    bucket[m] = (bucket.get(m, 0) - c * fc) % p
    return PolynomialFp.make(
        p, h.n_vars, {(a,) + rest: c for a, bucket in by_a.items() for rest, c in bucket.items()}
    )


@lru_cache(maxsize=None)
def _frobenius_power(h: GradedHypersurface, t: int, g: PolynomialFp, e: int) -> PolynomialFp:
    """The level-(p^e * t) normal form of g^(p^e), g in y coordinates, one
    step from the cached e - 1 form: NF_ps(g^p) = NF_ps(NF_s(g)^p)."""
    prev = g if e == 1 else _frobenius_power(h, t, g, e - 1)
    return _normal_form(h, h.p**e * t, prev.frobenius())


def _socle(h: GradedHypersurface, t: int) -> PolynomialFp:
    """y_0^(e-1) (y_1...y_d)^(t-1), spanning the socle of the Gorenstein A_t."""
    return PolynomialFp.monomial(h.p, (h.f.degree() - 1,) + (t - 1,) * len(h.params))


def level_top_degree(h: GradedHypersurface, t: int) -> int:
    """Largest degree where A_t is nonzero: the generators form a regular
    sequence of degrees (deg f, t, ..., t), so the Hilbert series is a
    polynomial of this degree."""
    return (h.f.degree() - 1) + (h.n_vars - 1) * (t - 1)


def fedder_fpure_principal(h: GradedHypersurface) -> bool:
    """F-purity of a principal quotient: f^(p-1) must have a monomial
    with every exponent below p, that is, lie outside (x_0^p, ..., x_(n-1)^p).

    Exponents only grow in a product, so the power is built modulo that
    ideal, one factor f at a time, dropping every monomial with an
    exponent of p or more as it appears."""
    p = h.p
    power = {(0,) * h.n_vars: 1}
    for _ in range(p - 1):
        out: dict[Monomial, int] = {}
        for m1, c1 in power.items():
            for m2, c2 in h.f.terms:
                m = mono_mul(m1, m2)
                if max(m) < p:
                    out[m] = (out.get(m, 0) + c1 * c2) % p
        power = {m: c for m, c in out.items() if c}
    return bool(power)


def f_injective_top(h: GradedHypersurface, t: int) -> bool:
    """Frobenius injectivity on top local cohomology, decided at level t.

    The kernel of F is a submodule and so meets the socle when nonzero;
    the socles of the A_t are nested and exhaust the socle of the limit.
    Hence F is injective exactly when the p-th power of the socle
    generator is nonzero modulo the level-pt ideal.
    """
    return not _frobenius_power(h, t, _socle(h, t), 1).is_zero


def socle_class(h: GradedHypersurface, t: int) -> PolynomialFp:
    """The standard monomial spanning the socle of A_t, written in x for
    the report: A_t is a graded Artinian complete intersection, hence
    Gorenstein, so the socle is its top-degree piece."""
    return _substitute(_socle(h, t), h._to_x)


def tight_closure_zero_bounded(h: GradedHypersurface, t: int, c: PolynomialFp, e_max: int) -> int | None:
    """The first e in 1..e_max with c * u^(p^e) nonzero at level p^e * t,
    u the socle class of A_t, or None when every tested power vanishes.
    A multiplier that is a zero divisor modulo f is refused: the verdict
    would hold for it whatever u is."""
    _check_e_max(e_max)
    if c.degree() > h.degree_cap():
        raise CapacityError(f"degree {c.degree()} exceeds cap {h.degree_cap()}")
    # monomials and linear forms have exact tests of their own, cheap at any degree of f
    if len(c.terms) > 1 and c.degree() > 1:
        products = math.comb(h.n_vars + h.f.degree() - 2, h.f.degree() - 1)
        if products > MAX_DIVISOR_PRODUCTS:
            raise CapacityError(
                f"the zero-divisor test of the multiplier needs {products} products,"
                f" which exceeds the cap {MAX_DIVISOR_PRODUCTS}"
            )
    c_y = _substitute(c, h._to_y)
    # every y_i^t has degree above deg c, so this level form vanishes exactly when c lies in (f)
    if _normal_form(h, c.degree() + 1, c_y).is_zero:
        raise UnsupportedInputError("the multiplier must be nonzero modulo f")
    if len(c.terms) == 1:
        shared = [j for j in _variable_factors(h) if c.terms[0][0][j]]
        if shared:
            raise UnsupportedInputError(f"the multiplier is a zero divisor: x{shared[0]} divides f")
    elif c.degree() == 1:
        if _linear_divides(c, h.f):
            raise UnsupportedInputError(f"the multiplier is a zero divisor: {c.to_text()} divides f")
    elif _is_zero_divisor(h, c_y):
        raise UnsupportedInputError("the multiplier is a zero divisor: it shares a factor with f")
    u = _socle(h, t)
    for e in range(1, e_max + 1):
        if not _normal_form(h, h.p**e * t, c_y * _frobenius_power(h, t, u, e)).is_zero:
            return e
    return None


def _check_e_max(e_max: int) -> None:
    # with no Frobenius power tested, "consistent" would rest on no check
    if e_max < 1:
        raise ValueError(f"e_max must be at least 1, got {e_max}")


def _variable_factors(h: GradedHypersurface) -> list[int]:
    """The j with x_j dividing f.  Such an x_j lies in the minimal prime
    (x_j) of R, so it is a zero divisor and no tight-closure multiplier."""
    return [j for j in range(h.n_vars) if all(m[j] for m, _ in h.f.terms)]


def _linear_divides(l: PolynomialFp, g: PolynomialFp) -> bool:
    """Whether the degree-1 l divides g.  Its lex-first term is a*x_j, and
    with l = a*x_j + r the remainder of g modulo l is g at x_j = -r/a.
    A linear l is irreducible, so it is a zero divisor modulo g exactly
    when it divides g."""
    (m, a), n = l.terms[0], l.n_vars
    forms = [PolynomialFp.variable(l.p, n, k) for k in range(n)]
    inv = pow(a, -1, l.p)
    forms[m.index(1)] = PolynomialFp.make(l.p, n, {mm: -c * inv for mm, c in l.terms[1:]})
    return _substitute(g, tuple(forms)).is_zero


def _is_zero_divisor(h: GradedHypersurface, c_y: PolynomialFp) -> bool:
    """Whether c, given in y coordinates, is a zero divisor modulo f, that
    is, whether c * g lies in (f) for a nonzero form g of degree deg f - 1.

    A factor k that c shares with f gives g = (f / k) * y_0^(deg k - 1),
    and f divides no such c * g when c and f are coprime.  At level
    t = deg f + deg c every y_i^t has degree above deg(c * g), so c * g
    lies in (f) exactly when its level form vanishes: such a g exists
    exactly when the level forms of c * m, over the monomials m of degree
    deg f - 1, are linearly dependent."""
    n, e = h.n_vars, h.f.degree()
    forms = []
    for combo in itertools.combinations_with_replacement(range(n), e - 1):
        m = PolynomialFp.monomial(h.p, tuple(combo.count(j) for j in range(n)))
        forms.append(_normal_form(h, e + c_y.degree(), c_y * m).as_dict())
    rank = len(row_echelon(forms, h.p)[1])
    return rank < len(forms)


def rf_simplicity_probe(h: GradedHypersurface, t: int, e_max: int) -> str | None:
    """The reason the level-t socle class u spans a proper nonzero stable
    submodule, or None: Frobenius kills u, or some variable multiplier not
    dividing f keeps its tested powers of u, up to e_max, at zero (the
    bounded tight-closure signal).  Finding none does not certify simplicity.

    Frobenius can kill u only at e = 1: the socle of the Gorenstein H^d_m
    is the line of u and Ker F is a submodule, so F^e(u) = 0, e least,
    gives F(F^(e-1)(u)) = 0 and puts u in Ker F.
    """
    _check_e_max(e_max)
    if level_top_degree(h, t) == 0:
        return None  # the socle class is the unit, which spans everything
    if not f_injective_top(h, t):
        return "frobenius-kills-socle-at-e=1"
    # x_j in (f) forces f = a*x_j, so skipping the x_j that divide f
    # skips every variable the multiplier check would refuse
    zero_divisors = _variable_factors(h)
    for j in range(h.n_vars):
        c = PolynomialFp.variable(h.p, h.n_vars, j)
        if j not in zero_divisors and tight_closure_zero_bounded(h, t, c, e_max) is None:
            return f"bounded-tight-closure-consistent-with-c=x{j}"
    return None
