import collections
import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import poly_sum
from level_oracle import (
    classes_equal,
    frobenius_powers_by_steps,
    frobenius_powers_direct,
    hilbert_function,
    level_contains,
    level_generators,
    lift_class,
    make_class,
    monomials_of_degree,
    simplicity_probe_by_chain,
    socle_by_kernel_search,
    span_contains,
    tight_closure_direct,
    unit_class,
)

from froblab import hypersurface
from froblab.cli import main
from froblab.errors import CapacityError, InvalidParametersError, UnsupportedInputError
from froblab.hypersurface import (
    GradedHypersurface,
    _frobenius_power,
    _linear_divides,
    _socle,
    f_injective_top,
    fedder_fpure_principal,
    level_top_degree,
    make_hypersurface,
    rf_simplicity_probe,
    socle_class,
    tight_closure_zero_bounded,
)
from froblab.polyfp import PolynomialFp, parse_polynomial


def fermat(p):
    return make_hypersurface(parse_polynomial("x0^3 + x1^3 + x2^3", p))


def poly(text, p, n=None):
    return parse_polynomial(text, p, n)


def test_default_params_require_monic():
    with pytest.raises(InvalidParametersError):
        make_hypersurface(poly("x0*x1", 2))


def test_param_validation():
    f = poly("x0^3 + x1^3 + x2^3", 7)
    y, z = poly("x1", 7, 3), poly("x2", 7, 3)
    with pytest.raises(InvalidParametersError):
        GradedHypersurface(7, 3, f, (y,))
    with pytest.raises(InvalidParametersError):
        GradedHypersurface(7, 3, f, (y, y))  # dependent
    bad = poly("x0^3 - x1^3", 7, 3)  # vanishes on the diagonal direction
    with pytest.raises(InvalidParametersError):
        GradedHypersurface(7, 3, bad, (poly("x0 - x1", 7, 3), poly("x2", 7, 3)))
    with pytest.raises(InvalidParametersError):  # no x0^3 term: not Artinian
        GradedHypersurface(7, 3, poly("x1^3 + x2^3", 7, 3), (y, z))


def test_quotient_dims_fermat():
    h = fermat(7)
    assert hilbert_function(h, 1) == [1, 1, 1]
    assert hilbert_function(h, 2) == [1, 3, 4, 3, 1]
    assert level_top_degree(h, 1) == 2
    assert level_top_degree(h, 2) == 4


def test_socle_fermat_level_one():
    h = fermat(7)
    assert socle_class(h, 1) == poly("x0^2", 7, 3)


def test_fedder_fermat():
    assert fedder_fpure_principal(fermat(7))
    assert not fedder_fpure_principal(fermat(5))
    assert fedder_fpure_principal(
        make_hypersurface(poly("x0*x1", 2), params=(poly("x0 + x1", 2),))
    )


@pytest.mark.parametrize("p,expected", [(2, False), (5, False), (7, True), (11, False), (13, True)])
def test_f_injective_fermat(p, expected):
    assert f_injective_top(fermat(p), 1) == expected


def test_f_injective_nilpotent_hypersurface():
    for p in (2, 3, 5):
        h = make_hypersurface(poly("x0^2", p, 2))
        assert not f_injective_top(h, 1)
        assert not fedder_fpure_principal(h)


def test_f_injective_with_nonvariable_param():
    h = make_hypersurface(poly("x0*x1", 2), params=(poly("x0 + x1", 2),))
    assert f_injective_top(h, 1)


def test_t_stability():
    cases = [fermat(2), fermat(5), fermat(7),
             make_hypersurface(poly("x0^2", 3, 2)),
             make_hypersurface(poly("x0*x1", 2), params=(poly("x0 + x1", 2),))]
    for h in cases:
        assert f_injective_top(h, 1) == f_injective_top(h, 2)


def test_fpure_implies_finjective():
    cases = [fermat(p) for p in (2, 5, 7, 11, 13)] + [
        make_hypersurface(poly("x0^2", 3, 2)),
        make_hypersurface(poly("x0*x1", 2), params=(poly("x0 + x1", 2),)),
        make_hypersurface(poly("x0", 3, 2)),
    ]
    for h in cases:
        if fedder_fpure_principal(h):
            for t in (1, 2):
                assert f_injective_top(h, t)


def test_class_normalization():
    h = fermat(7)
    u = make_class(h, poly("x0^3", 7, 3), 1)
    # x0^3 = f - x1^3 - x2^3 is congruent to 0 at level 1
    assert u.is_zero
    # x1 lies in the level-1 parameter ideal, so only x0^2 survives
    v = make_class(h, poly("x0^2 + x1", 7, 3), 1)
    assert v.r == poly("x0^2", 7, 3)


def test_class_lift_compatibility():
    h = fermat(7)
    for text in ("x0^2", "x0", "1"):
        u = make_class(h, poly(text, 7, 3), 1)
        lifted = lift_class(h, u, 2)
        assert classes_equal(h, u, lifted)
    # <r; t> = <(l1 l2) r; t+1> by construction of the limit
    r = poly("x0^2", 7, 3)
    u1 = make_class(h, r, 1)
    u2 = make_class(h, r * poly("x1*x2", 7, 3), 2)
    assert classes_equal(h, u1, u2)


def test_socle_class_nonzero_at_deeper_level():
    h = fermat(7)
    u = make_class(h, poly("x0^2", 7, 3), 1)
    assert not u.is_zero
    assert not lift_class(h, u, 2).is_zero


def test_tight_closure_zero_class():
    h = fermat(7)
    zero = make_class(h, PolynomialFp(7, 3, ()), 1)
    assert tight_closure_direct(h, zero, poly("x0", 7, 3), 2) is None


def test_tight_closure_socle_consistent():
    h = fermat(7)
    assert tight_closure_zero_bounded(h, 1, poly("x0", 7, 3), 2) is None
    socle = make_class(h, poly("x0^2", 7, 3), 1)
    assert tight_closure_direct(h, socle, poly("x0", 7, 3), 2) is None


def test_tight_closure_unit_fails():
    h = fermat(7)
    assert tight_closure_direct(h, unit_class(h, 1), poly("x0", 7, 3), 2) == 1
    # the level-1 socle of a regular ring is the unit class
    regular = make_hypersurface(poly("x0", 7, 3))
    assert socle_class(regular, 1) == poly("1", 7, 3)
    assert tight_closure_zero_bounded(regular, 1, poly("x1", 7, 3), 2) == 1


def test_tight_closure_rejects_zero_multiplier():
    h = fermat(7)
    with pytest.raises(UnsupportedInputError):
        tight_closure_zero_bounded(h, 1, poly("x0^3 + x1^3 + x2^3", 7), 2)


def test_bounded_checks_reject_e_max_below_one():
    h = fermat(7)
    with pytest.raises(ValueError):
        tight_closure_zero_bounded(h, 1, poly("x0", 7, 3), 0)
    with pytest.raises(ValueError):
        rf_simplicity_probe(h, 1, 0)


# a quadric cone with non-coordinate parameters, where the socle class
# fails at e = 1 against x0 and at e = 2 against x1^2
QUADRIC_CONE = make_hypersurface(poly("x0*x1 + x2^2", 3), (poly("x0 + x1", 3, 3), poly("x2", 3, 3)))


@pytest.mark.parametrize(
    "h",
    [fermat(5), fermat(7), fermat(11), fermat(13), QUADRIC_CONE],
    ids=["fermat-p5", "fermat-p7", "fermat-p11", "fermat-p13", "quadric-cone-p3"],
)
def test_socle_verdict_matches_direct_powers(h):
    u = make_class(h, socle_class(h, 1), 1)
    for text in ("x0", "x0 + x1", "x1^2"):
        c = poly(text, h.p, 3)
        first = tight_closure_direct(h, u, c, 3)
        for e_max in (1, 2, 3):
            expected = first if first is not None and first <= e_max else None
            assert tight_closure_zero_bounded(h, 1, c, e_max) == expected


@pytest.mark.parametrize("h", [fermat(7), QUADRIC_CONE], ids=["fermat-p7", "quadric-cone-p3"])
def test_tight_closure_verdict_is_the_same_on_lifted_classes(h):
    # <r; t> = <(l1 l2)^s r; t + s>, and the maps of the limit are injective;
    # the socle of the limit is a line, so the level-t socle class is the
    # lifted level-1 one, up to a unit
    socle = make_class(h, socle_class(h, 1), 1)
    for u in (socle, unit_class(h, 1)):
        for text in ("x0", "x1^2"):
            c = poly(text, h.p, 3)
            first = tight_closure_direct(h, u, c, 3)
            for t in (2, 3):
                assert tight_closure_direct(h, lift_class(h, u, t), c, 3) == first
                if u is socle:
                    assert tight_closure_zero_bounded(h, t, c, 3) == first


def test_probe_fermat_p5_frobenius_kills():
    assert rf_simplicity_probe(fermat(5), 1, 2) == "frobenius-kills-socle-at-e=1"


def test_probe_fermat_p7_tight_closure_witness():
    assert rf_simplicity_probe(fermat(7), 1, 2) == "bounded-tight-closure-consistent-with-c=x0"
    code, report = run_json(["--poly", "x0^3 + x1^3 + x2^3", "--prime", "7"])
    assert code == 0
    assert report["simplicity_probe"] == {
        "found": True,
        "reason": "bounded-tight-closure-consistent-with-c=x0",
        "witness": "x0^2",
    }


def test_probe_regular_ring_finds_nothing():
    h = make_hypersurface(poly("x0", 3, 3))
    assert rf_simplicity_probe(h, 1, 2) is None


def test_probe_skips_variables_dividing_f():
    # every x_j divides f = x0*x1*x2, so no variable lies in R°
    h = make_hypersurface(poly("x0*x1*x2", 3), (poly("x0 - x1", 3, 3), poly("x1 - x2", 3, 3)))
    assert rf_simplicity_probe(h, 1, 2) is None
    for c in ("x0", "x1^2", "x0*x2"):
        with pytest.raises(UnsupportedInputError, match="zero divisor"):
            tight_closure_zero_bounded(h, 1, poly(c, 3, 3), 2)
    c = poly("x0 + x1", 3, 3)
    socle = make_class(h, socle_class(h, 1), 1)
    assert tight_closure_zero_bounded(h, 1, c, 2) is None
    assert tight_closure_direct(h, socle, c, 2) is None


@pytest.mark.parametrize(
    "h",
    [
        fermat(5),
        fermat(7),
        fermat(11),
        fermat(13),
        QUADRIC_CONE,
        make_hypersurface(poly("x0*x1*x2", 3), (poly("x0 - x1", 3, 3), poly("x1 - x2", 3, 3))),
        # at t = 2 the variable x0 lies in (f), the one such case
        make_hypersurface(poly("x0", 5, 2), (poly("x1", 5, 2),)),
    ],
    ids=["fermat-p5", "fermat-p7", "fermat-p11", "fermat-p13", "quadric-cone-p3", "coordinate-triangle-p3", "linear-p5"],
)
def test_probe_matches_a_chain_per_check(h):
    for t in (1, 2):
        for e_max in (1, 2, 3):
            assert rf_simplicity_probe(h, t, e_max) == simplicity_probe_by_chain(h, t, e_max)


def test_one_chain_of_socle_powers_serves_every_check(monkeypatch):
    # F-injectivity and the probe read only the power of the level-1
    # socle class at level 7; each multiplier walks one chain of powers
    # from it and stops at its first nonzero power, here at level 7, so
    # nothing is reduced at levels 49 and 343
    calls = collections.Counter()
    normal_form = hypersurface._normal_form

    def counted(h, t, g):
        calls[t] += 1
        return normal_form(h, t, g)

    monkeypatch.setattr(hypersurface, "_normal_form", counted)
    hypersurface._frobenius_power.cache_clear()
    code, _ = run_json(["--poly", "x0^3 + x1^3 + x2^3 + x3^3", "--prime", "7", "--emax", "3", "--c", "x0"])
    assert code == 0
    assert calls[49] == calls[343] == 0
    assert sum(calls.values()) <= 12
    assert calls[7] <= 6


def test_level_membership_cap():
    h = fermat(2)
    big = poly("x0", 2, 3).pow(200)
    with pytest.raises(CapacityError):
        level_contains(h, 1, big)


def run_json(args):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(["analyze-hypersurface", *args, "--format", "json"])
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize(
    "text,p",
    [
        ("x0^3 + x1^3 + x2^3", 13),
        ("x0^3 + x1^3 + x2^3", 31),
        ("x0^3 + x1^3 + x2^3 + x3^3", 7),
    ],
)
def test_former_walls_finish(text, p):
    # these ran out of memory or time with dense per-degree elimination
    code, report = run_json(["--poly", text, "--prime", str(p)])
    assert code == 0
    assert report["f_injective"] == {"t=1": report["f_pure"], "t=2": report["f_pure"]}


@pytest.mark.parametrize(
    "args",
    [
        ["--poly", "x0^2 + x1^2", "--prime", "3", "--emax", "40", "--c", "x0"],
        ["--poly", "x0^3 + x1^3 + x2^3 + x3^3", "--prime", "7", "--emax", "3"],
        ["--poly", "x0^3 + x1^3 + x2^3 + x3^3", "--prime", "7", "--emax", "20", "--c", "x0"],
    ],
    ids=["conic-p3-emax40", "cubic4-p7-emax3", "cubic4-p7-emax20"],
)
def test_deep_frobenius_powers_finish(args):
    # a single normal form of u^(p^e) would touch about p^(2e) terms; on
    # the cubic surface the chain of socle powers also grows about 15-fold
    # per step, so it is walked only as far as a multiplier needs
    code, report = run_json(args)
    assert code == 0
    assert report["f_injective"] == {"t=1": report["f_pure"], "t=2": report["f_pure"]}


def test_noncoordinate_params_of_huge_degree_are_a_capacity_error():
    big = "x0^99999999999 + x1^99999999999 + x2^99999999999"
    with pytest.raises(CapacityError):
        make_hypersurface(poly(big, 7), params=(poly("x0 + x1", 7, 3), poly("x2", 7, 3)))


def test_noncoordinate_params_keep_their_verdicts():
    code, report = run_json(["--poly", "x0*x1 + x2^2", "--prime", "3", "--params", "x0 + x1", "x2"])
    assert code == 0
    assert report["f_pure"] is True
    assert report["f_injective"] == {"t=1": True, "t=2": True}
    assert report["simplicity_probe"]["found"] is False


@pytest.mark.parametrize(
    "h,t",
    [(fermat(2), 1), (fermat(2), 2), (fermat(3), 2), (fermat(5), 1),
     (make_hypersurface(poly("x0^2 + x1*x2", 3)), 2),
     (make_hypersurface(poly("x0^2", 3, 2)), 3),
     (make_hypersurface(poly("x0^2 + x0*x1 + x1^2 + x2^2 + x3^2", 2)), 2)],
)
def test_socle_formula_matches_kernel_search(h, t):
    assert socle_by_kernel_search(h, t) == [socle_class(h, t)]


PRIMES = st.sampled_from([2, 3, 5, 7])


@st.composite
def monic_levels(draw):
    """A hypersurface in 3 variables monic in x0, with the default
    parameters, and a level t."""
    p, e = draw(PRIMES), draw(st.integers(1, 3))
    others = [m for m in monomials_of_degree(3, e) if m[0] < e]
    support = draw(st.lists(st.sampled_from(others), max_size=4, unique=True))
    coeffs = {m: draw(st.integers(1, p - 1)) for m in support}
    coeffs[(e, 0, 0)] = 1
    return make_hypersurface(PolynomialFp.make(p, 3, coeffs)), draw(st.integers(1, 3))


@st.composite
def polynomials(draw, p):
    monos = [m for d in range(7) for m in monomials_of_degree(3, d)]
    support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5, unique=True))
    return PolynomialFp.make(p, 3, {m: draw(st.integers(1, p - 1)) for m in support})


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_normal_form_matches_sympy_groebner(data):
    sympy = pytest.importorskip("sympy")
    h, t = data.draw(monic_levels())
    g = data.draw(polynomials(h.p))
    xs = sympy.symbols("x0:3")

    def to_sympy(r):
        return sum(c * sympy.prod(x**k for x, k in zip(xs, m)) for m, c in r.terms)

    basis = sympy.groebner(
        [to_sympy(q) for q in level_generators(h, t)], *xs, modulus=h.p, order="lex"
    )
    _, remainder = basis.reduce(to_sympy(g))
    terms = sympy.Poly(remainder, *xs, modulus=h.p).terms()
    expected = PolynomialFp.make(h.p, 3, {m: int(c) for m, c in terms})
    assert make_class(h, g, t).r == expected


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_linear_divides_matches_sympy_membership(data):
    sympy = pytest.importorskip("sympy")
    p = data.draw(PRIMES)
    coeffs = [data.draw(st.integers(0, p - 1)) for _ in range(4)]
    assume(sum(map(bool, coeffs[:3])) >= 2)  # degree 1 and not a monomial
    monos = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    l = PolynomialFp.make(p, 3, dict(zip(monos, coeffs)))
    g = data.draw(polynomials(p))
    if data.draw(st.booleans()):
        g = g * l
    xs = sympy.symbols("x0:3")

    def to_sympy(r):
        return sum(c * sympy.prod(x**k for x, k in zip(xs, m)) for m, c in r.terms)

    # {l} is a Gröbner basis of (l), so this is exact membership of g in (l)
    expected = sympy.groebner([to_sympy(l)], *xs, modulus=p, order="lex").contains(to_sympy(g))
    assert _linear_divides(l, g) == expected


@st.composite
def forms_and_multipliers(draw):
    """A form f in 3 variables, monic in x0, and a multiplier c of degree
    2 or 3 that is neither a monomial nor linear; half the time f, and
    independently c, is a multiple of one shared form k."""
    p = draw(PRIMES)

    def monic_form(degree):
        support = draw(st.lists(st.sampled_from(monomials_of_degree(3, degree)), max_size=3, unique=True))
        coeffs = {m: draw(st.integers(1, p - 1)) for m in support}
        coeffs[(degree, 0, 0)] = 1
        return PolynomialFp.make(p, 3, coeffs)

    k = monic_form(draw(st.integers(1, 2)))
    f = k * monic_form(draw(st.integers(1, 2))) if draw(st.booleans()) else monic_form(draw(st.integers(2, 4)))
    c = k * monic_form(3 - k.degree()) if draw(st.booleans()) else monic_form(draw(st.integers(2, 3)))
    if draw(st.booleans()):
        c = poly_sum(p, 3, (c, monic_form(draw(st.integers(0, 2)))))
    assume(len(c.terms) > 1 and c.degree() > 1)
    return f, c


@settings(derandomize=True, deadline=None, max_examples=120)
@given(forms_and_multipliers())
def test_zero_divisor_multiplier_matches_sympy_gcd(case):
    # c is a zero divisor modulo f exactly when it shares a factor with f
    sympy = pytest.importorskip("sympy")
    f, c = case
    xs = sympy.symbols("x0:3")

    def to_sympy(r):
        return sympy.Poly(sum(k * sympy.prod(x**e for x, e in zip(xs, m)) for m, k in r.terms), *xs, modulus=f.p)

    shared = to_sympy(f).gcd(to_sympy(c))
    if to_sympy(c).rem(to_sympy(f)).is_zero:
        expected = "nonzero modulo f"
    elif shared.total_degree() > 0:
        expected = "zero divisor: it shares a factor with f"
    else:
        expected = None
    try:
        tight_closure_zero_bounded(make_hypersurface(f), 1, c, 1)
        refused = None
    except UnsupportedInputError as exc:
        refused = str(exc)
    if expected is None:
        assert refused is None
    else:
        assert refused is not None and expected in refused


def test_zero_divisor_test_is_refused_before_any_normal_form(monkeypatch):
    # 99,999 monomials of degree deg f - 1 in two variables; the exact
    # test of a linear multiplier runs at any degree
    h = make_hypersurface(poly("x0^99999 + x1^99999", 3))
    monkeypatch.setattr(hypersurface, "_normal_form", None)
    with pytest.raises(CapacityError, match="99999 products"):
        tight_closure_zero_bounded(h, 1, poly("x0^2 + x1^2", 3, 2), 1)
    monkeypatch.undo()
    with pytest.raises(UnsupportedInputError, match="x0 \\+ x1 divides f"):
        tight_closure_zero_bounded(h, 1, poly("x0 + x1", 3, 2), 1)


@st.composite
def forms_and_params(draw, primes=PRIMES):
    """A form f of degree 1 to 3 in 3 variables and two nonzero linear forms."""
    p, e = draw(primes), draw(st.integers(1, 3))
    support = draw(st.lists(st.sampled_from(monomials_of_degree(3, e)), min_size=1, max_size=4, unique=True))
    f = PolynomialFp.make(p, 3, {m: draw(st.integers(1, p - 1)) for m in support})
    rows = [[draw(st.integers(0, p - 1)) for _ in range(3)] for _ in range(2)]
    assume(all(any(row) for row in rows))
    params = tuple(PolynomialFp.make(p, 3, {tuple(int(i == j) for i in range(3)): c for j, c in enumerate(row)}) for row in rows)
    return f, params


@st.composite
def levels_with_params(draw):
    """A hypersurface in 3 variables with random linear parameters, a
    level t and a homogeneous g of positive degree up to the top of A_t:
    a random element of the level ideal, plus a random form half the time."""
    f, params = draw(forms_and_params())
    try:
        h = GradedHypersurface(f.p, 3, f, params)
    except InvalidParametersError:
        assume(False)
    rng = draw(st.randoms(use_true_random=False))
    p, t = h.p, rng.randint(1, 2)
    d = rng.randint(1, max(1, level_top_degree(h, t)))

    def random_form(degree, low):
        return PolynomialFp.make(p, 3, {m: rng.randint(low, p - 1) for m in monomials_of_degree(3, degree)})

    parts = [random_form(d - q.degree(), 0) * q for q in level_generators(h, t) if q.degree() <= d]
    if rng.random() < 0.5:
        parts.append(random_form(d, 1))
    return h, t, poly_sum(p, 3, parts)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(levels_with_params())
def test_level_contains_matches_span_rank(case):
    h, t, g = case
    assert level_contains(h, t, g) == span_contains(level_generators(h, t), g, h.p, h.n_vars)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(forms_and_params())
def test_artinian_check_matches_span_rank(case):
    # A_1 is finite dimensional exactly when (f, l_1, l_2) contains every
    # monomial of degree deg f
    f, params = case
    p, e = f.p, f.degree()
    expected = all(
        span_contains((f,) + params, PolynomialFp.monomial(p, m), p, 3) for m in monomials_of_degree(3, e)
    )
    try:
        GradedHypersurface(p, 3, f, params)
        built = True
    except InvalidParametersError:
        built = False
    assert built == expected


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.data())
def test_frobenius_steps_match_one_step_normal_form(data):
    f, params = data.draw(forms_and_params(st.sampled_from([2, 3, 5])))
    try:
        h = GradedHypersurface(f.p, 3, f, params)
    except InvalidParametersError:
        assume(False)
    t, e_max = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    # g in y coordinates, mostly standard monomials of A_t, so that many
    # of its powers survive; y_i^t and degree top + 1 are in the ideal
    monos = [
        m
        for d in range(level_top_degree(h, t) + 2)
        for m in monomials_of_degree(3, d)
        if max(m[1:]) <= t
    ]
    support = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5, unique=True))
    g = PolynomialFp.make(h.p, 3, {m: data.draw(st.integers(1, h.p - 1)) for m in support})
    steps = tuple(_frobenius_power(h, t, g, e) for e in range(1, e_max + 1))
    assert steps == frobenius_powers_direct(h, t, g, e_max)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_frobenius_kills_the_socle_class_only_at_e_1(data):
    # Ker F is a submodule, so it meets the socle line of the Gorenstein
    # H^d_m when nonzero: the reference chain dies at e = 1 or never, and
    # the probe, which reads only e = 1, agrees with the reference loop
    f, params = data.draw(forms_and_params())
    try:
        h = GradedHypersurface(f.p, 3, f, params)
    except InvalidParametersError:
        assume(False)
    t, e_max = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 4))
    powers = frobenius_powers_by_steps(h, t, _socle(h, t), e_max)
    if not powers[0].is_zero:
        assert not any(power.is_zero for power in powers[1:])
    assert rf_simplicity_probe(h, t, e_max) == simplicity_probe_by_chain(h, t, e_max)


def fedder_by_full_power(f):
    """Fedder's criterion read off the whole expansion of f^(p-1)."""
    return any(all(e < f.p for e in m) for m, _ in f.pow(f.p - 1).terms)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(forms_and_params())
def test_fedder_truncated_power_matches_full_expansion(case):
    f, params = case
    try:
        h = GradedHypersurface(f.p, 3, f, params)
    except InvalidParametersError:
        assume(False)
    assert fedder_fpure_principal(h) == fedder_by_full_power(f)
