"""Frobenius diagnostics for graded hypersurfaces R = F_p[x_1..x_n]/(f).

Top local cohomology is modeled as the direct limit of the quotients
A_t = S/((l_1^t, ..., l_d^t) + (f)) along multiplication by l_1...l_d,
with Frobenius sending the class <r; t> to <r^p; pt>.  The parameters
l_i are linear forms making the quotient Artinian, so the limit maps are
injective and questions about classes reduce to exact linear algebra in
single graded pieces.

The bounded tight-closure test is one-sided by design: "consistent up to
e_max" means every tested Frobenius power vanished against the supplied
multiplier, which is evidence, not a proof, of membership in the tight
closure of zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, InvalidParametersError, UnsupportedInputError
from .gfp_linalg import check_prime, kernel_basis, row_echelon
from .polyfp import (
    DegreeSpans,
    GradedIdealBasis,
    PolynomialFp,
    ideal_membership_bounded,
)

DEFAULT_E_MAX = 2
DEGREE_CAP_FACTOR = 3


@dataclass(frozen=True)
class GradedHypersurface:
    """A homogeneous hypersurface with a homogeneous linear system of
    parameters; checked Artinian at construction."""

    p: int
    n_vars: int
    f: PolynomialFp
    params: tuple[PolynomialFp, ...]

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
        _check_artinian(self)

    @property
    def dim(self) -> int:
        return self.n_vars - 1

    def degree_cap(self, t: int) -> int:
        return DEGREE_CAP_FACTOR * self.p**2 * t * self.f.degree()


def make_hypersurface(f: PolynomialFp, params=None) -> GradedHypersurface:
    """Build from f, defaulting the parameters to the trailing variables
    when f is monic in the first one."""
    n = f.n_vars
    if params is None:
        lead = tuple([f.degree()] + [0] * (n - 1))
        if lead not in f.as_dict():
            raise InvalidParametersError(
                "f is not monic in x0; parameters must be supplied"
            )
        params = tuple(PolynomialFp.variable(f.p, n, j) for j in range(1, n))
    return GradedHypersurface(f.p, n, f, tuple(params))


def _check_artinian(h: GradedHypersurface) -> None:
    p, n = h.p, h.n_vars
    lin = np.zeros((len(h.params), n), dtype=np.int64)
    for r, l in enumerate(h.params):
        for m, c in l.terms:
            lin[r, m.index(1)] = c
    if len(row_echelon(lin % p, p)[1]) != n - 1:
        raise InvalidParametersError("parameters are linearly dependent")
    e = h.f.degree()
    spans = DegreeSpans(GradedIdealBasis((h.f,) + h.params, e))
    if len(spans.quotient_monomials(e)) != 0:
        raise InvalidParametersError(
            "quotient by (parameters) + (f) is not finite dimensional"
        )


@lru_cache(maxsize=None)
def _level(h: GradedHypersurface, t: int) -> DegreeSpans:
    gens = (h.f,) + tuple(l.pow(t) for l in h.params)
    return DegreeSpans(GradedIdealBasis(gens, h.degree_cap(t)))


def level_top_degree(h: GradedHypersurface, t: int) -> int:
    """Largest degree where A_t is nonzero: the generators form a regular
    sequence of degrees (deg f, t, ..., t), so the Hilbert series is a
    polynomial of this degree."""
    return (h.f.degree() - 1) + (h.n_vars - 1) * (t - 1)


def level_contains(h: GradedHypersurface, t: int, g: PolynomialFp) -> bool:
    """Membership of g in (params^t) + (f), one graded piece at a time.

    Pieces above the quotient's top degree are full, so only the finitely
    many low degrees need a rank computation.
    """
    if g.is_zero:
        return True
    if g.degree() > h.degree_cap(t):
        raise CapacityError(
            f"degree {g.degree()} exceeds the cap {h.degree_cap(t)} at level {t}"
        )
    top = level_top_degree(h, t)
    spans = _level(h, t)
    for d, comp in g.homogeneous_components().items():
        if d > top:
            continue
        if not spans.contains(comp):
            return False
    return True


def quotient_dims(h: GradedHypersurface, t: int) -> list[int]:
    """Hilbert function of A_t, degree by degree up to its top."""
    spans = _level(h, t)
    return [len(spans.quotient_monomials(d)) for d in range(level_top_degree(h, t) + 1)]


def socle_polynomials(h: GradedHypersurface, t: int) -> list[PolynomialFp]:
    """Basis of the socle of A_t, as reduced polynomial representatives.

    Degree by degree, a quotient basis element is in the socle when every
    variable multiple falls into the ideal piece one degree up.
    """
    p, n = h.p, h.n_vars
    spans = _level(h, t)
    top = level_top_degree(h, t)
    out: list[PolynomialFp] = []
    for d in range(top + 1):
        q_d = spans.quotient_monomials(d)
        if not q_d:
            continue
        rows = []
        for mono in q_d:
            per_var = []
            for j in range(n):
                bumped = tuple(e + (1 if k == j else 0) for k, e in enumerate(mono))
                res = spans.reduce(PolynomialFp.monomial(p, bumped))
                per_var.append(res)
            rows.append(np.concatenate(per_var))
        kb = kernel_basis(np.array(rows, dtype=np.int64).T, p)
        for coeffs in kb.basis:
            out.append(
                PolynomialFp.make(p, n, {mono: c for mono, c in zip(q_d, coeffs)})
            )
    return out


def fedder_fpure_principal(h: GradedHypersurface) -> bool:
    """F-purity of a principal quotient: f^(p-1) must have a monomial
    with every exponent below p."""
    fp = h.f.pow(h.p - 1)
    return any(all(e < h.p for e in m) for m, _ in fp.terms)


def f_injective_top(h: GradedHypersurface, t: int) -> bool:
    """Frobenius injectivity on top local cohomology, decided at level t.

    The kernel of F is a submodule and so meets the socle when nonzero;
    the socles of the A_t are nested and exhaust the socle of the limit.
    Hence F is injective exactly when the p-th powers of a socle basis
    stay independent modulo the level-pt ideal.
    """
    socle = socle_polynomials(h, t)
    spans_pt = _level(h, t * h.p)
    by_degree: dict[int, list[np.ndarray]] = {}
    for s in socle:
        image = s.frobenius(h.p)
        if image.degree() > level_top_degree(h, t * h.p):
            return False  # image piece is entirely inside the ideal
        res = spans_pt.reduce(image)
        if not np.any(res):
            return False
        by_degree.setdefault(image.degree(), []).append(res)
    for residuals in by_degree.values():
        a = np.array(residuals, dtype=np.int64) % h.p
        if len(row_echelon(a, h.p)[1]) != len(residuals):
            return False
    return True


@dataclass(frozen=True)
class LocalCohomClass:
    """<r; l_1^t, ..., l_d^t>: a class in the direct-limit model, with r
    kept reduced against the level-t ideal piece of its degree."""

    r: PolynomialFp
    t: int

    @property
    def is_zero(self) -> bool:
        return self.r.is_zero


def _normal_form_level(h: GradedHypersurface, t: int, r: PolynomialFp) -> PolynomialFp:
    # components above the quotient's top degree die without linear algebra
    top = level_top_degree(h, t)
    kept = PolynomialFp.zero(h.p, h.n_vars)
    for d, comp in r.homogeneous_components().items():
        if d <= top:
            kept = kept + comp
    return _level(h, t).normal_form(kept)


def make_class(h: GradedHypersurface, r: PolynomialFp, t: int) -> LocalCohomClass:
    if t < 1:
        raise ValueError("level must be positive")
    return LocalCohomClass(_normal_form_level(h, t, r), t)


def lift_class(h: GradedHypersurface, u: LocalCohomClass, t: int) -> LocalCohomClass:
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


def classes_equal(h: GradedHypersurface, u: LocalCohomClass, v: LocalCohomClass) -> bool:
    t = max(u.t, v.t)
    return lift_class(h, u, t).r == lift_class(h, v, t).r


def unit_class(h: GradedHypersurface, t: int) -> LocalCohomClass:
    return make_class(h, PolynomialFp.constant(h.p, h.n_vars, 1), t)


@dataclass(frozen=True)
class TightClosureVerdict:
    consistent: bool
    e_checked: int
    fails_at: int | None
    note: str = (
        "one-sided bounded check: consistency is evidence, not a proof,"
        " of tight-closure membership"
    )


def tight_closure_zero_bounded(
    h: GradedHypersurface,
    u: LocalCohomClass,
    c: PolynomialFp,
    e_max: int = DEFAULT_E_MAX,
) -> TightClosureVerdict:
    """Test c * u^(p^e) = 0 at levels p^e * t for e = 1..e_max."""
    _check_e_max(e_max)
    if c.is_zero or _in_principal(h, c):
        raise ValueError("the multiplier must be nonzero modulo f")
    for e in range(1, e_max + 1):
        q = h.p**e
        g = c * u.r.frobenius(q)
        if not level_contains(h, q * u.t, g):
            return TightClosureVerdict(False, e, e)
    return TightClosureVerdict(True, e_max, None)


def _check_e_max(e_max: int) -> None:
    # with no Frobenius power tested, "consistent" would rest on no check
    if e_max < 1:
        raise ValueError(f"e_max must be at least 1, got {e_max}")


def _in_principal(h: GradedHypersurface, c: PolynomialFp) -> bool:
    gens = GradedIdealBasis((h.f,), h.degree_cap(1))
    return ideal_membership_bounded(c, gens)


@dataclass(frozen=True)
class SimplicityProbeVerdict:
    witness: LocalCohomClass | None
    reason: str

    @property
    def found(self) -> bool:
        return self.witness is not None


def rf_simplicity_probe(
    h: GradedHypersurface, t: int, e_max: int = DEFAULT_E_MAX
) -> SimplicityProbeVerdict:
    """Search level-t socle classes for a proper nonzero stable span.

    A witness is reported when Frobenius kills a socle class within
    e_max steps, or when some variable multiplier keeps all its tested
    Frobenius powers at zero (the bounded tight-closure signal).  Finding
    none does not certify simplicity; the verdict says so.
    """
    _check_e_max(e_max)
    top = level_top_degree(h, t)
    for s in socle_polynomials(h, t):
        u = make_class(h, s, t)
        if u.is_zero:
            continue
        if u.r.degree() == 0 and top == 0:
            continue  # the unit class spans everything
        for e in range(1, e_max + 1):
            q = h.p**e
            if level_contains(h, q * t, u.r.frobenius(q)):
                return SimplicityProbeVerdict(u, f"frobenius-kills-socle-at-e={e}")
        for j in range(h.n_vars):
            c = PolynomialFp.variable(h.p, h.n_vars, j)
            if _in_principal(h, c):
                continue
            verdict = tight_closure_zero_bounded(h, u, c, e_max)
            if verdict.consistent:
                return SimplicityProbeVerdict(
                    u, f"bounded-tight-closure-consistent-with-c=x{j}"
                )
    return SimplicityProbeVerdict(None, "no-proper-nonzero-F-stable-found-at-this-resolution")
