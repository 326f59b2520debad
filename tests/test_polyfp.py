import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colon_oracle import (
    MonomialIdeal,
    check_p_power,
    frobenius_power,
    ideal_from_generators,
    monomial_colon,
    monomial_ideal_intersection,
    monomial_ideal_sum,
)
from helpers import is_unit, poly_sum, squarefree_minimal_primes, standard_monomial_splitting
from level_oracle import level_contains, level_generators, monomials_of_degree
from parse_oracle import parse_polynomial as reference_parse

from froblab.errors import ParseError, UnsupportedInputError
from froblab.hypersurface import make_hypersurface
from froblab.polyfp import PolynomialFp, parse_polynomial


def poly(text, p, n=None):
    return parse_polynomial(text, p, n)


def test_parse_and_print_roundtrip():
    f = poly("x0^3 + x1^3 + x2^3", 7)
    assert f.n_vars == 3 and f.degree() == 3 and f.is_homogeneous()
    assert f.to_text() == "x0^3 + x1^3 + x2^3"
    g = poly("2*x0*x1 - 3 + x0*x1", 5)
    assert g.as_dict() == {(1, 1): 3, (0, 0): 2}
    with pytest.raises(ParseError):
        poly("x0 + + x1", 3)
    with pytest.raises(ParseError):
        poly("y0", 3)


@pytest.mark.parametrize(
    "text", ["1" * 5000 + "*x0", "x" + "1" * 5000, "x0^" + "1" * 5000], ids=["coefficient", "variable", "exponent"]
)
def test_literal_past_the_digit_limit_is_malformed(text):
    # int() refuses a literal of more than 4,300 digits with a ValueError
    with pytest.raises(ParseError, match="4300 digits"):
        poly(text, 3)


# a variable always ends at a separator, so no later digit lengthens its
# index: either parser would build a monomial that long
PIECES = st.one_of(
    st.tuples(st.sampled_from(["x0", "x1", "x2"]), st.sampled_from([" ", "^", "*", "+", "-"])).map("".join),
    st.integers(0, 30).map(str),
    st.sampled_from(["^", "*", "+", "-", " ", "x ", "y", "("]),
)


def parsed_or_refused(parse, text, n_vars):
    try:
        return parse(text, 5, n_vars)
    except ParseError:
        return "ParseError"


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.lists(PIECES, max_size=10).map("".join), st.sampled_from([None, 3]))
# edge strings: a sign after a lone `*`, a `*` after a leading sign, a `*` before `^`,
# a second `^`, a `*`-only term between two signs, a `*` on either side of a sign
@example("* + x0", None)
@example("-*x0", None)
@example("x0 * ^ 2", None)
@example("x0^2^3", None)
@example("x0 - * + x1", None)
@example("x0 -* x1 *", None)
def test_parser_matches_the_reference_parser(text, n_vars):
    assert parsed_or_refused(parse_polynomial, text, n_vars) == parsed_or_refused(reference_parse, text, n_vars)


def test_arithmetic():
    p = 5
    f = poly("x0 + x1", p)
    g = poly("x0 - x1", p)
    assert (f * g).as_dict() == {(2, 0): 1, (0, 2): 4}
    assert f.pow(2).as_dict() == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert f.pow(0).as_dict() == {(0, 0): 1}


def test_repeated_monomials_are_refused():
    # accepted, x0 + x0 would differ from 2*x0, and x0 + 2*x0 would be a
    # zero polynomial whose is_zero is False
    for c in (1, 2):
        with pytest.raises(ValueError, match="terms not in canonical order"):
            PolynomialFp(3, 1, (((1,), 1), ((1,), c)))


def test_frobenius_of_polynomial_matches_pow():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(5):
            coeffs = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(1, p)
                for _ in range(3)
            }
            f = PolynomialFp.make(p, 2, coeffs)
            assert f.frobenius() == f.pow(p)
            assert f.frobenius().frobenius() == f.pow(p * p)


def test_check_p_power_names_its_argument():
    for q, p in ((1, 2), (8, 2), (81, 3), (25, 5)):
        check_p_power(q, p)
    for q, p in ((12, 2), (6, 2), (3, 2), (0, 2), (-4, 2), (18, 3)):
        with pytest.raises(ValueError, match=rf"^{q} is not a power of {p}$"):
            check_p_power(q, p)


def test_frobenius_power_monomial_ideal():
    xy = ideal_from_generators(2, [(1, 1)])
    assert frobenius_power(xy, 1, 2) == xy
    assert frobenius_power(xy, 2, 2).generators == ((2, 2),)
    i2 = ideal_from_generators(2, [(2, 0), (0, 1)])
    assert frobenius_power(i2, 3, 3).generators == ((0, 3), (6, 0))
    with pytest.raises(ValueError):
        frobenius_power(xy, 6, 2)


def test_frobenius_power_composition():
    rng = random.Random(9)
    for _ in range(10):
        gens = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(3)]
        ideal = ideal_from_generators(3, gens)
        assert frobenius_power(frobenius_power(ideal, 2, 2), 4, 2) == frobenius_power(ideal, 8, 2)
    # the power of an antichain is built without reducing its generators
    # again; it must equal the ideal of the powered generators
    for _ in range(60):
        n, p = rng.randint(1, 4), rng.choice((2, 3, 5))
        gens = [tuple(rng.randrange(5) for _ in range(n)) for _ in range(rng.randrange(7))]
        ideal = ideal_from_generators(n, gens)
        for q in (1, p, p * p):
            powered = [tuple(e * q for e in g) for g in ideal.generators]
            assert frobenius_power(ideal, q, p) == ideal_from_generators(n, powered)


def test_monomial_colon_basics():
    i = ideal_from_generators(2, [(2, 2)])
    j = ideal_from_generators(2, [(1, 1)])
    assert monomial_colon(i, j).generators == ((1, 1),)
    assert is_unit(monomial_colon(i, i))
    i2 = ideal_from_generators(2, [(3, 0), (0, 3)])
    assert monomial_colon(i2, ideal_from_generators(2, [(1, 0)])).generators == (
        (0, 3),
        (2, 0),
    )


def test_colon_containment_property():
    rng = random.Random(13)
    for _ in range(25):
        i = ideal_from_generators(
            3, [tuple(rng.randrange(4) for _ in range(3)) for _ in range(3)]
        )
        j = ideal_from_generators(
            3, [tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)]
        )
        q = monomial_colon(i, j)
        for g in j.generators:
            for h in q.generators:
                assert i.contains_monomial(tuple(a + b for a, b in zip(g, h)))


def test_squarefree_minimal_primes():
    i = ideal_from_generators(2, [(1, 1)])
    assert squarefree_minimal_primes(i) == ((0,), (1,))
    m = ideal_from_generators(2, [(1, 0), (0, 1)])
    assert squarefree_minimal_primes(m) == ((0, 1),)
    assert squarefree_minimal_primes(MonomialIdeal(2, ())) == ((),)
    assert squarefree_minimal_primes(MonomialIdeal(2, ((0, 0),))) == ()


def test_splitting_examples():
    for p in (2, 3, 5):
        x = poly("x0", p, 1)
        assert standard_monomial_splitting(x.pow(p)) == x
        assert standard_monomial_splitting(x).is_zero
    f = poly("x0^2*x1^2 + x0*x1", 2)
    assert standard_monomial_splitting(f) == poly("x0*x1", 2)


def test_splitting_semilinearity():
    rng = random.Random(17)
    for p in (2, 3):
        for _ in range(10):
            s = PolynomialFp.make(
                p, 2, {(rng.randrange(3), rng.randrange(3)): rng.randrange(1, p) for _ in range(2)}
            )
            r = PolynomialFp.make(
                p, 2, {(rng.randrange(4), rng.randrange(4)): rng.randrange(1, p) for _ in range(3)}
            )
            assert standard_monomial_splitting(s.pow(p) * r) == s * standard_monomial_splitting(r)


# Beyond monomial ideals, membership is decided in the hypersurface levels
# (f, x_1^t, ..., x_{n-1}^t) only; these tests pin it there.


def test_membership_trivial_cases():
    p = 5
    h = make_hypersurface(poly("x0^2", p, 2))  # level 1 is (x0^2, x1)
    assert level_contains(h, 1, poly("x0^2", p, 2))
    assert level_contains(h, 1, poly("x1", p, 2))
    assert not level_contains(h, 1, poly("x0", p, 2))


def test_membership_fermat_cubic_examples():
    p7 = 7
    h7 = make_hypersurface(poly("x0^3 + x1^3 + x2^3", p7))
    assert not level_contains(h7, 7, poly("x0^14", p7, 3))
    p5 = 5
    h5 = make_hypersurface(poly("x0^3 + x1^3 + x2^3", p5))
    assert level_contains(h5, 5, poly("x0^10", p5, 3))


def test_membership_rejects_inhomogeneous_generators():
    p = 3
    bad = poly("x0^2 + x1", p, 2)
    with pytest.raises(UnsupportedInputError):
        make_hypersurface(bad)


def test_membership_inhomogeneous_element_with_homogeneous_generators():
    # each graded component is tested separately; level 3 is (x0, x1^3)
    p = 3
    h = make_hypersurface(poly("x0", p, 2))
    assert level_contains(h, 3, poly("x0^2 + x0*x1", p, 2))
    assert not level_contains(h, 3, poly("x0 + x1^2", p, 2))


def _naive_membership(r, gens, p, n):
    """Enumerate every F_p-combination of the span {m*g} at deg(r)."""
    d = r.degree()
    span = []
    for g in gens:
        if g.is_zero or g.degree() > d:
            continue
        for mult in monomials_of_degree(n, d - g.degree()):
            span.append(PolynomialFp.monomial(p, mult) * g)
    for coeffs in itertools.product(range(p), repeat=len(span)):
        if poly_sum(p, n, (s * PolynomialFp.constant(p, n, c) for c, s in zip(coeffs, span))) == r:
            return True
    return False


def test_membership_agrees_with_naive_span():
    rng = random.Random(23)
    p, n = 2, 2
    checked_in = 0
    for _ in range(30):
        dg = rng.randrange(1, 3)
        coeffs = {m: rng.randrange(p) for m in monomials_of_degree(n, dg)}
        coeffs[(dg, 0)] = 1
        h = make_hypersurface(PolynomialFp.make(p, n, coeffs))
        t = rng.randrange(1, 4)
        d = rng.randrange(1, 4)
        r = PolynomialFp.make(p, n, {m: rng.randrange(p) for m in monomials_of_degree(n, d)})
        fast = level_contains(h, t, r)
        slow = _naive_membership(r, level_generators(h, t), p, n)
        assert fast == slow
        checked_in += fast
    assert 0 < checked_in < 30  # the comparison saw both outcomes


def test_monomial_ideal_sum_intersection():
    a = ideal_from_generators(2, [(2, 0)])
    b = ideal_from_generators(2, [(0, 2)])
    assert monomial_ideal_sum(a, b).generators == ((0, 2), (2, 0))
    assert monomial_ideal_intersection(a, b).generators == ((2, 2),)
