"""The polynomial parser of froblab.polyfp as it was before its terms were
cut in one flat loop, kept as the reference the new one is compared with
on random token strings: a term parser nested in a loop over the signs,
with flags for a term expected and for the start of the input."""

import re

from froblab.errors import ParseError
from froblab.gfp_linalg import check_prime
from froblab.polyfp import Monomial, PolynomialFp

TOKEN = re.compile(r"\s*(x\d+|\d+|\^|\*|\+|-)")


def parse_polynomial(text: str, p: int, n_vars: int | None = None) -> PolynomialFp:
    """Parse `x0^3 + 2*x1*x2 - 1` style input; coefficients reduced mod p."""
    check_prime(p)
    tokens = []
    pos = 0
    while pos < len(text):
        m = TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial")

    terms: list[tuple[dict[int, int], int]] = []
    sign = 1
    i = 0

    def parse_term(i: int, sign: int):
        coeff = sign
        expo: dict[int, int] = {}
        saw_factor = False
        while i < len(tokens):
            t = tokens[i]
            if t == "*":
                i += 1
                continue
            if t in "+-":
                break
            if t.isdigit():
                coeff *= int(t)
                i += 1
            elif t.startswith("x"):
                v = int(t[1:])
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1] == "^":
                    if i + 2 >= len(tokens) or not tokens[i + 2].isdigit():
                        raise ParseError("exponent expected after '^'")
                    e = int(tokens[i + 2])
                    i += 3
                else:
                    i += 1
                expo[v] = expo.get(v, 0) + e
            else:
                raise ParseError(f"unexpected token {t!r}")
            saw_factor = True
        if not saw_factor:
            raise ParseError("empty term")
        return i, coeff, expo

    expect_term = True
    at_start = True
    while i < len(tokens):
        t = tokens[i]
        if t in "+-":
            if expect_term and not at_start:
                raise ParseError(f"misplaced operator {t!r}")
            sign = -sign if t == "-" else sign
            expect_term = True
            at_start = False
            i += 1
            continue
        try:
            i, coeff, expo = parse_term(i, sign)
        except ValueError as exc:  # int() refuses a literal past the interpreter's digit limit
            raise ParseError(str(exc)) from None
        sign = 1
        expect_term = False
        at_start = False
        terms.append((expo, coeff))
    if expect_term:
        raise ParseError("dangling operator")

    max_var = max((v for expo, _ in terms for v in expo), default=-1)
    n = max_var + 1 if n_vars is None else n_vars
    if max_var >= n:
        raise ParseError(f"variable x{max_var} out of range for {n} variables")
    coeffs: dict[Monomial, int] = {}
    for expo, c in terms:
        m = tuple(expo.get(j, 0) for j in range(n))
        coeffs[m] = (coeffs.get(m, 0) + c) % p
    return PolynomialFp.make(p, n, coeffs)
