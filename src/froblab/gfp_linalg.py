"""Exact sparse linear algebra over the prime field F_p, in pure Python.

A row is a mapping {column: value} without zero entries, its columns
labels of one orderable kind (a face mask, a monomial or a position) and
its values in [0, p); p is bounded below 2^15 (desk scale) and checked
prime, once per prime.  row_echelon is the one elimination kernel and the
only code that orders columns.  The command line reads DEFAULT_ENUM_CAP,
fmodule's cap, without fmodule.
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


def subtract(v: dict, f: int, row: dict, p: int) -> None:
    """v -= f * row over F_p in place, for f and the entries of row nonzero;
    an entry that becomes zero is dropped, so a lead is never zero."""
    for k, b in row.items():
        if a := (v.get(k, 0) - f * b) % p:
            v[k] = a
        else:
            del v[k]


def row_echelon(rows, p: int, reduced: bool = False) -> tuple[list[dict], tuple]:
    """Echelon basis of the span of `rows`, mappings {column: value}.

    Each row is reduced mod p and against the pivot rows found so far,
    least column first.  The result is one monic row per pivot column,
    rows sorted by pivot, and the pivots; the number of rows is the rank.
    With reduced=True one back-substitution pass also clears the entries
    above every pivot, giving the canonical reduced row-echelon form.
    """
    pivot_row: dict = {}
    for row in rows:
        v = {k: a for k, x in row.items() if (a := x % p)}
        while v:
            lead = min(v)
            if lead not in pivot_row:
                inv = pow(v[lead], p - 2, p)
                pivot_row[lead] = v if inv == 1 else {k: a * inv % p for k, a in v.items()}
                break
            subtract(v, v[lead], pivot_row[lead], p)
    pivots = tuple(sorted(pivot_row))
    echelon = [pivot_row[c] for c in pivots]
    if reduced:
        for k in range(len(pivots) - 1, 0, -1):
            c, below = pivots[k], echelon[k]
            for row in echelon[:k]:
                if c in row:
                    subtract(row, row[c], below, p)
    return echelon, pivots
