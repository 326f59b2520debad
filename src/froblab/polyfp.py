"""Multivariate polynomials over F_p.

Monomials are exponent tuples of fixed length.  The hypersurface levels,
the only ideals of polynomials decided, get their normal form in
froblab.hypersurface.  The face rings need no polynomials: their
nonface ideal is a tuple of exponent tuples in froblab.stanley_reisner,
so analyze-complex never loads this module.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .gfp_linalg import check_prime
from .record import record

Monomial = tuple[int, ...]


def mono_deg(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_to_text(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


@record
class PolynomialFp:
    """Polynomial over F_p with nonzero coefficients only; terms are kept
    sorted strictly lexicographically descending, one per monomial, for
    deterministic output."""

    p: int
    n_vars: int
    terms: tuple[tuple[Monomial, int], ...]

    def __post_init__(self):
        check_prime(self.p)
        for m, c in self.terms:
            if len(m) != self.n_vars or any(e < 0 for e in m):
                raise ValueError("bad monomial")
            if not (0 < c < self.p):
                raise ValueError("coefficients must lie in [1, p)")
        # strictly descending, so no monomial is repeated
        if any(a[0] <= b[0] for a, b in zip(self.terms, self.terms[1:])):
            raise ValueError("terms not in canonical order")

    @classmethod
    def make(cls, p: int, n_vars: int, coeffs: dict[Monomial, int]) -> "PolynomialFp":
        items = []
        for m, c in coeffs.items():
            c %= p
            if c:
                items.append((tuple(m), c))
        items.sort(key=lambda t: t[0], reverse=True)
        return cls(p, n_vars, tuple(items))

    @classmethod
    def constant(cls, p: int, n_vars: int, c: int) -> "PolynomialFp":
        return cls.make(p, n_vars, {(0,) * n_vars: c})

    @classmethod
    def variable(cls, p: int, n_vars: int, i: int) -> "PolynomialFp":
        m = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls.make(p, n_vars, {m: 1})

    @classmethod
    def monomial(cls, p: int, m: Monomial) -> "PolynomialFp":
        return cls.make(p, len(m), {tuple(m): 1})

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((mono_deg(m) for m, _ in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m, _ in self.terms}
        return len(degs) <= 1

    def __mul__(self, other: "PolynomialFp") -> "PolynomialFp":
        self._check(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                out[m] = (out.get(m, 0) + c1 * c2) % self.p
        return PolynomialFp.make(self.p, self.n_vars, out)

    def pow(self, e: int) -> "PolynomialFp":
        if e < 0:
            raise ValueError("negative exponent")
        result = PolynomialFp.constant(self.p, self.n_vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def frobenius(self) -> "PolynomialFp":
        """The p-th power: exponents scale by p, coefficients stay fixed."""
        p = self.p
        return PolynomialFp.make(p, self.n_vars, {tuple(e * p for e in m): c for m, c in self.terms})

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.terms:
            mt = mono_to_text(m)
            if mt == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mt)
            else:
                parts.append(f"{c}*{mt}")
        return " + ".join(parts)

    def _check(self, other: "PolynomialFp") -> None:
        if self.p != other.p or self.n_vars != other.n_vars:
            raise ValueError("polynomials from different rings")


# a variable's power is one token, so `^` stands nowhere else
_TOKEN = re.compile(r"\s*(x\d+(?:\s*\^\s*\d+)?|\d+|\*|\+|-)")


def parse_polynomial(text: str, p: int, n_vars: int | None = None) -> PolynomialFp:
    """Parse `x0^3 + 2*x1*x2 - 1` style input; coefficients reduced mod p.

    A term is a product of integers and variables, each variable with an
    optional `^` exponent, side by side or joined by `*`; one `+` or `-`
    stands between two terms, and one may lead the input."""
    check_prime(p)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial")

    # `*` only joins factors, so the terms are cut at the signs; a sign
    # leads only as the first token, and a lone `*` is no term
    factors = [t for t in tokens if t != "*"]
    if not factors or (factors[0] in "+-" and tokens[0] == "*"):
        raise ParseError("empty term")
    terms: list[list] = []  # [coefficient, {variable: exponent}] per term
    try:
        for i, t in enumerate(factors):
            prev = factors[i - 1] if i else "+"
            if t in "+-":
                nxt = factors[i + 1] if i + 1 < len(factors) else None
                if nxt is None or nxt in "+-":
                    raise ParseError(f"misplaced operator {nxt!r}" if nxt else "dangling operator")
                continue
            if prev in "+-":
                terms.append([-1 if prev == "-" else 1, {}])
            if t[0] == "x":
                var, _, e = t[1:].partition("^")
                v = int(var)
                expo = terms[-1][1]
                expo[v] = expo.get(v, 0) + int(e or 1)
            else:
                terms[-1][0] *= int(t)
    except ValueError as exc:  # int() refuses a literal past the interpreter's digit limit
        raise ParseError(str(exc)) from None

    max_var = max((v for _, expo in terms for v in expo), default=-1)
    n = max_var + 1 if n_vars is None else n_vars
    if max_var >= n:
        raise ParseError(f"variable x{max_var} out of range for {n} variables")
    coeffs: dict[Monomial, int] = {}
    for c, expo in terms:
        m = tuple(expo.get(j, 0) for j in range(n))
        coeffs[m] = (coeffs.get(m, 0) + c) % p
    return PolynomialFp.make(p, n, coeffs)
