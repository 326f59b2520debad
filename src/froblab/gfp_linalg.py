"""Exact dense linear algebra over the prime field F_p, in pure Python.

Vectors and matrices are lists (or tuples) of Python integers kept
reduced to [0, p); p is checked prime by trial division, once per
prime, and bounded below 2^15 (desk scale).  Subspaces are immutable
and all operations are pure.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import CapacityError, UnsupportedInputError
from .record import record

MAX_PRIME = 2**15
DEFAULT_ENUM_CAP = 2**16


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def check_prime(p: int) -> int:
    if not is_prime(p):
        raise UnsupportedInputError(f"modulus {p} is not prime")
    if p >= MAX_PRIME:
        raise UnsupportedInputError(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
    return p


def check_p_power(q: int, p: int) -> None:
    """Raise ValueError unless q = p^e for some e >= 0."""
    if q < 1:
        raise ValueError(f"{q} is not a power of {p}")
    while q % p == 0:
        q //= p
    if q != 1:
        raise ValueError(f"{q} is not a power of {p}")


def _lead(v: list[int], start: int = 0) -> int | None:
    for j in range(start, len(v)):
        if v[j]:
            return j
    return None


def row_echelon(rows, p: int, reduced: bool = False) -> tuple[list[list[int]], tuple[int, ...]]:
    """Echelon basis of the span of `rows`, any sequence of integer rows
    of equal length.

    Each row is reduced mod p and against the pivot rows found so far.
    The result is one monic row per pivot column, rows sorted by pivot,
    and the pivots; the number of rows is the rank.  With reduced=True
    one back-substitution pass also clears the entries above every
    pivot, giving the canonical reduced row-echelon form.
    """
    pivot_row: dict[int, list[int]] = {}
    for row in rows:
        v = [int(x) % p for x in row]
        lead = _lead(v)
        while lead in pivot_row:
            f, pivot = v[lead], pivot_row[lead]
            # the pivot row is zero left of its pivot
            v[lead:] = [(a - f * b) % p for a, b in zip(v[lead:], pivot[lead:])]
            lead = _lead(v, lead + 1)
        if lead is not None:
            inv = pow(v[lead], p - 2, p)
            pivot_row[lead] = v if inv == 1 else [x * inv % p for x in v]
    pivots = tuple(sorted(pivot_row))
    echelon = [pivot_row[c] for c in pivots]
    if reduced:
        for k in range(len(pivots) - 1, 0, -1):
            c, below = pivots[k], echelon[k]
            for row in echelon[:k]:
                f = row[c]
                if f:
                    row[c:] = [(a - f * b) % p for a, b in zip(row[c:], below[c:])]
    return echelon, pivots


@record
class Subspace:
    """Subspace of F_p^ambient_dim, stored as a canonical rref basis (no zero rows)."""

    p: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        if len(self.basis) > self.ambient_dim:
            raise ValueError("more basis rows than ambient dimension")
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise ValueError("basis row length mismatch")

    @property
    def dim(self) -> int:
        return len(self.basis)


def enumerate_subspaces(p: int, dim: int, cap: int = DEFAULT_ENUM_CAP):
    """Yield every subspace of F_p^dim exactly once, via rref normal forms."""
    check_prime(p)
    if p**dim > cap:
        raise CapacityError(f"p^dim = {p**dim} exceeds enumeration cap {cap}")
    for k in range(dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free_pos = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, dim)
                if j not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_pos)):
                rows = [[0] * dim for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                yield Subspace(p, dim, tuple(tuple(r) for r in rows))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def num_subspaces(p: int, n: int) -> int:
    """Total number of subspaces of F_p^n (sum of Gaussian binomials)."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


@lru_cache(maxsize=None)
def subspace_lattice(p: int, dim: int, cap: int = DEFAULT_ENUM_CAP) -> tuple[Subspace, ...]:
    """All subspaces of F_p^dim as a cached tuple, zero subspace first."""
    return tuple(enumerate_subspaces(p, dim, cap))
