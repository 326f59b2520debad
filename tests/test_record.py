"""The value-record contract of the immutable classes built with @record."""

import pytest

from froblab.errors import InvalidParametersError
from froblab.hypersurface import GradedHypersurface
from froblab.polyfp import PolynomialFp, parse_polynomial
from froblab.record import record
from froblab.simplicial import SimplicialComplex
from colon_oracle import MonomialIdeal
from perp_oracle import Subspace


def hypersurface(*params):
    f = parse_polynomial("x0^2 + x1^2 + x2^2", 5)
    return GradedHypersurface(5, 3, f, tuple(parse_polynomial(l, 5, 3) for l in params))


# name -> (build an instance, build a rejected one, its error)
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
    with pytest.raises(error):
        make_bad()


def test_defaults_and_argument_count():
    # a class attribute named like a field is no default: every field is passed
    @record
    class Pair:
        first: int
        second: str = "fallback"

    assert Pair(1, "x").second == "x"
    for args in ((1,), (1, "x", 2)):
        with pytest.raises(TypeError, match=r"Pair\(\) takes \(first, second\), got"):
            Pair(*args)
    with pytest.raises(TypeError):
        PolynomialFp(3, 2)
    with pytest.raises(TypeError):
        PolynomialFp(3, 2, (), 4)


def test_derived_attributes_stay_out_of_equality():
    h, other_h = hypersurface("x1", "x2"), hypersurface("x1", "x2")
    object.__setattr__(other_h, "_tail", None)
    assert h == other_h and hash(h) == hash(other_h)
