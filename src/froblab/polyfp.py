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


def check_p_power(q: int, p: int) -> None:
    """Raise ValueError unless q = p^e for some e >= 0."""
    r = q
    while r > 0 and r % p == 0:
        r //= p
    if r != 1:
        raise ValueError(f"{q} is not a power of {p}")


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
    sorted lexicographically descending for deterministic output."""

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
        if list(self.terms) != sorted(self.terms, key=lambda t: t[0], reverse=True):
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

    def __add__(self, other: "PolynomialFp") -> "PolynomialFp":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms:
            out[m] = (out.get(m, 0) + c) % self.p
        return PolynomialFp.make(self.p, self.n_vars, out)

    def __neg__(self) -> "PolynomialFp":
        return PolynomialFp.make(self.p, self.n_vars, {m: self.p - c for m, c in self.terms})

    def __sub__(self, other: "PolynomialFp") -> "PolynomialFp":
        return self + (-other)

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

    def frobenius(self, q: int) -> "PolynomialFp":
        """q-th power for q a power of p: exponents scale, coefficients fixed."""
        check_p_power(q, self.p)
        return PolynomialFp.make(
            self.p, self.n_vars, {tuple(e * q for e in m): c for m, c in self.terms}
        )

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


_TOKEN = re.compile(r"\s*(x\d+|\d+|\^|\*|\+|-)")


def parse_polynomial(text: str, p: int, n_vars: int | None = None) -> PolynomialFp:
    """Parse `x0^3 + 2*x1*x2 - 1` style input; coefficients reduced mod p."""
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
