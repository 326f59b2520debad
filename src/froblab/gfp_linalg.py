"""Exact dense linear algebra over the prime field F_p, in pure Python.

Vectors and matrices are lists (or tuples) of Python integers kept
reduced to [0, p); p is bounded below 2^15 (desk scale) and checked
prime, once per prime.  row_echelon is the one elimination kernel.  The
command line reads DEFAULT_ENUM_CAP, fmodule's cap, without fmodule.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import UnsupportedInputError

MAX_PRIME = 2**15
DEFAULT_ENUM_CAP = 2**16


@lru_cache(maxsize=None)
def check_prime(p: int) -> int:
    # the bound first: trial division up to the root of a huge modulus would not end
    if p >= MAX_PRIME:
        raise UnsupportedInputError(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise UnsupportedInputError(f"modulus {p} is not prime")
    return p


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
