import pytest

from froblab.errors import CapacityError, InvalidParametersError
from froblab.hypersurface import (
    GradedHypersurface,
    classes_equal,
    f_injective_top,
    fedder_fpure_principal,
    level_contains,
    level_top_degree,
    lift_class,
    make_class,
    make_hypersurface,
    quotient_dims,
    rf_simplicity_probe,
    socle_polynomials,
    tight_closure_zero_bounded,
    unit_class,
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


def test_quotient_dims_fermat():
    h = fermat(7)
    assert quotient_dims(h, 1) == [1, 1, 1]
    assert level_top_degree(h, 1) == 2
    assert level_top_degree(h, 2) == 4


def test_socle_fermat_level_one():
    h = fermat(7)
    socle = socle_polynomials(h, 1)
    assert len(socle) == 1
    assert socle[0] == poly("x0^2", 7, 3)


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
    zero = make_class(h, PolynomialFp.zero(7, 3), 1)
    v = tight_closure_zero_bounded(h, zero, poly("x0", 7, 3), 2)
    assert v.consistent


def test_tight_closure_socle_consistent():
    h = fermat(7)
    socle = make_class(h, poly("x0^2", 7, 3), 1)
    v = tight_closure_zero_bounded(h, socle, poly("x0", 7, 3), 2)
    assert v.consistent and v.fails_at is None and v.e_checked == 2


def test_tight_closure_unit_fails():
    h = fermat(7)
    one = unit_class(h, 1)
    v = tight_closure_zero_bounded(h, one, poly("x0", 7, 3), 2)
    assert not v.consistent and v.fails_at == 1


def test_tight_closure_rejects_zero_multiplier():
    h = fermat(7)
    socle = make_class(h, poly("x0^2", 7, 3), 1)
    with pytest.raises(ValueError):
        tight_closure_zero_bounded(h, socle, poly("x0^3 + x1^3 + x2^3", 7), 2)


def test_bounded_checks_reject_e_max_below_one():
    h = fermat(7)
    socle = make_class(h, poly("x0^2", 7, 3), 1)
    with pytest.raises(ValueError):
        tight_closure_zero_bounded(h, socle, poly("x0", 7, 3), 0)
    with pytest.raises(ValueError):
        rf_simplicity_probe(h, 1, e_max=0)


def test_probe_fermat_p5_frobenius_kills():
    verdict = rf_simplicity_probe(fermat(5), 1)
    assert verdict.found
    assert verdict.reason.startswith("frobenius-kills-socle")


def test_probe_fermat_p7_tight_closure_witness():
    verdict = rf_simplicity_probe(fermat(7), 1)
    assert verdict.found
    assert "tight-closure" in verdict.reason
    assert verdict.witness.r == poly("x0^2", 7, 3)


def test_probe_regular_ring_finds_nothing():
    h = make_hypersurface(poly("x0", 3, 3))
    verdict = rf_simplicity_probe(h, 1)
    assert not verdict.found


def test_level_membership_cap():
    h = fermat(2)
    big = poly("x0", 2, 3).pow(200)
    with pytest.raises(CapacityError):
        level_contains(h, 1, big)
