"""Exact dense linear algebra over the prime field F_p.

Matrix entries are machine integers kept reduced to [0, p); p is checked
prime by trial division and bounded so that products fit in int64 with
plenty of slack.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DimensionMismatchError

MAX_PRIME = 2**15
DEFAULT_ENUM_CAP = 2**16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p >= MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
    return p


def row_echelon(rows, p: int, reduced: bool = False) -> tuple[np.ndarray, tuple[int, ...]]:
    """Echelon basis of the span of `rows`, a 2-D array or a nonempty list
    of equal-length 1-D arrays, with entries in [0, p).

    Rows are taken in order of their leading column and each is reduced
    against the pivot rows found so far.  The result has one monic row
    per pivot column, rows sorted by pivot; its length is the rank.
    With reduced=True one back-substitution pass also clears the entries
    above every pivot, giving the canonical reduced row-echelon form.
    """
    order = []
    for i, row in enumerate(rows):
        nz = row.nonzero()[0]
        if nz.size:
            order.append((int(nz[0]), i))
    order.sort()
    pivot_row: dict[int, np.ndarray] = {}
    for lead, i in order:
        v = rows[i]
        while lead in pivot_row:
            v = (v - v[lead] * pivot_row[lead]) % p
            nz = v.nonzero()[0]
            if nz.size == 0:
                break
            lead = int(nz[0])
        else:
            inv = pow(int(v[lead]), p - 2, p)
            pivot_row[lead] = v if inv == 1 else (v * inv) % p
    pivots = tuple(sorted(pivot_row))
    if not pivots:
        width = len(rows[0]) if len(rows) else rows.shape[1]
        return np.zeros((0, width), dtype=np.int64), pivots
    echelon = np.vstack([pivot_row[c] for c in pivots])
    if reduced:
        for k in range(len(pivots) - 1, 0, -1):
            above = echelon[:k, pivots[k]].nonzero()[0]
            if above.size:
                factors = echelon[above, pivots[k]]
                echelon[above] = (echelon[above] - np.outer(factors, echelon[k])) % p
    return echelon, pivots


@dataclass(frozen=True)
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

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls(p, ambient_dim, ())

    @classmethod
    def full(cls, p: int, ambient_dim: int) -> "Subspace":
        rows = tuple(tuple(1 if j == i else 0 for j in range(ambient_dim)) for i in range(ambient_dim))
        return cls(p, ambient_dim, rows)

    @classmethod
    def from_vectors(cls, p: int, ambient_dim: int, vectors) -> "Subspace":
        vecs = [list(v) for v in vectors]
        if not vecs:
            return cls.zero(p, ambient_dim)
        echelon, _ = row_echelon(np.array(vecs, dtype=np.int64) % p, p, reduced=True)
        return cls(p, ambient_dim, tuple(tuple(int(x) for x in row) for row in echelon))

    def contains_vector(self, v) -> bool:
        v = [int(x) % self.p for x in v]
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector length differs from ambient dimension")
        for row in self.basis:  # echelon rows, each monic at its pivot
            f = v[next(j for j, x in enumerate(row) if x)]
            if f:
                v = [(a - f * b) % self.p for a, b in zip(v, row)]
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        _check_compatible(self, other)
        return all(self.contains_vector(row) for row in other.basis)

    def vectors(self):
        """Iterate over all vectors of the subspace (desk scale only)."""
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            v = np.zeros(self.ambient_dim, dtype=np.int64)
            for c, row in zip(coeffs, self.basis):
                v = (v + c * np.array(row, dtype=np.int64)) % self.p
            yield tuple(int(x) for x in v)


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.p != b.p:
        raise DimensionMismatchError("subspaces over different primes")
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def kernel_basis(a: np.ndarray, p: int) -> Subspace:
    """Basis of {v : a v = 0} over F_p; its dimension is cols - rank(a)."""
    a = np.asarray(a, dtype=np.int64) % p
    cols = a.shape[1]
    echelon, pivots = row_echelon(a, p, reduced=True)
    free = [c for c in range(cols) if c not in pivots]
    vecs = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        v[list(pivots)] = (-echelon[:, f]) % p
        vecs.append(v)
    return Subspace.from_vectors(p, cols, vecs)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return Subspace.from_vectors(a.p, a.ambient_dim, list(a.basis) + list(b.basis))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """A ∩ B from one kernel: x = cA = dB exactly when (c, d) kills the
    stacked rows [A; -B], and c determines x since A has full rank."""
    _check_compatible(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.p, a.ambient_dim)
    rows_a = np.array(a.basis, dtype=np.int64)
    rows_b = np.array(b.basis, dtype=np.int64)
    relations = kernel_basis(np.vstack([rows_a, -rows_b]).T, a.p)
    coeffs = np.array(relations.basis, dtype=np.int64).reshape(relations.dim, a.dim + b.dim)[:, : a.dim]
    return Subspace.from_vectors(a.p, a.ambient_dim, coeffs @ rows_a % a.p)


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


class LatticeTables(NamedTuple):
    """index maps each subspace of subspace_lattice(p, dim) to its
    position; contains[a, b] says L[a] ⊇ L[b]; meet[a, b] is the position
    of L[a] ∩ L[b]."""

    index: dict[Subspace, int]
    contains: np.ndarray
    meet: np.ndarray


@lru_cache(maxsize=None)
def lattice_tables(p: int, dim: int) -> LatticeTables:
    lattice = subspace_lattice(p, dim)
    index = {s: k for k, s in enumerate(lattice)}
    size = len(lattice)
    meet = np.empty((size, size), dtype=np.int64)
    for a in range(size):
        for b in range(a, size):
            meet[a, b] = meet[b, a] = index[subspace_intersection(lattice[a], lattice[b])]
    # L[a] contains L[b] exactly when their meet is L[b]
    return LatticeTables(index, meet == np.arange(size), meet)
