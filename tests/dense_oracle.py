"""The dense F_p elimination kernel, the tests' reference for
froblab.gfp_linalg.row_echelon.

Rows are sequences of integers of equal length, one entry per column
position.  The test oracles eliminate with this kernel, so they share no
kernel with the routes of froblab that they check.
"""

from __future__ import annotations


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
