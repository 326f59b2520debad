"""The value-record contract of the immutable classes built with @record."""

import pytest

from froblab.errors import InvalidParametersError
from froblab.hypersurface import (
    GradedHypersurface,
    LocalCohomClass,
    SimplicityProbeVerdict,
    TightClosureVerdict,
)
from froblab.polyfp import PolynomialFp, parse_polynomial
from froblab.simplicial import SimplicialComplex
from colon_oracle import MonomialIdeal
from perp_oracle import Subspace

X0 = PolynomialFp(3, 2, (((1, 0), 1),))


def hypersurface(*params):
    f = parse_polynomial("x0^2 + x1^2 + x2^2", 5)
    return GradedHypersurface(5, 3, f, tuple(parse_polynomial(l, 5, 3) for l in params))


# name -> (build an instance, build a rejected one or None, its error)
CASES = {
    "SimplicialComplex": (
        lambda: SimplicialComplex(3, ((0, 1), (1, 2))),
        lambda: SimplicialComplex(2, ((0,), (0, 1))),  # not an antichain
        ValueError,
    ),
    "PolynomialFp": (
        lambda: PolynomialFp(3, 2, (((1, 0), 1), ((0, 1), 2))),
        lambda: PolynomialFp(3, 2, (((1, 0), 3),)),  # coefficient equal to p
        ValueError,
    ),
    "MonomialIdeal": (
        lambda: MonomialIdeal(2, ((0, 2), (1, 0))),
        lambda: MonomialIdeal(2, ((1, 0), (1, 1))),  # not an antichain
        ValueError,
    ),
    "Subspace": (
        lambda: Subspace(3, 2, ((1, 2),)),
        lambda: Subspace(3, 2, ((1,),)),  # wrong row length
        ValueError,
    ),
    "GradedHypersurface": (
        lambda: hypersurface("x1", "x2"),
        lambda: hypersurface("x1", "2*x1"),  # dependent parameters
        InvalidParametersError,
    ),
    "LocalCohomClass": (lambda: LocalCohomClass(X0, 1), None, None),
    "TightClosureVerdict": (lambda: TightClosureVerdict(True, 2, None), None, None),
    "SimplicityProbeVerdict": (
        lambda: SimplicityProbeVerdict(LocalCohomClass(X0, 1), "found"), None, None
    ),
}


@pytest.mark.parametrize("make, make_bad, error", CASES.values(), ids=list(CASES))
def test_record_contract(make, make_bad, error):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != object()
    fields = tuple(type(a).__annotations__)
    # the hash is computed once and kept outside the fields
    assert hash(a) == hash(tuple(getattr(a, name) for name in fields)) == hash(a)
    fresh = make()
    assert repr(a) == repr(fresh) and a == fresh and fresh == a
    field = fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.unknown = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    if make_bad is not None:
        with pytest.raises(error):
            make_bad()


def test_defaults_and_argument_count():
    v = TightClosureVerdict(True, 2, None)
    assert v.note.startswith("one-sided bounded check")
    assert v == TightClosureVerdict(True, 2, None, v.note)
    assert v != TightClosureVerdict(True, 2, None, "another note")
    with pytest.raises(TypeError):
        TightClosureVerdict(True, 2)
    with pytest.raises(TypeError):
        TightClosureVerdict(True, 2, None, v.note, 3)


def test_derived_attributes_stay_out_of_equality():
    h, other_h = hypersurface("x1", "x2"), hypersurface("x1", "x2")
    object.__setattr__(other_h, "_f_y", None)
    assert h == other_h and hash(h) == hash(other_h)
