"""Counts of the graded F-stable submodules of the local cohomology of
a face ring, from the maps between its face blocks.

In a multidegree theta <= 0 with negative support nu, the localization
complex is the cochain complex C_nu of the faces containing nu; its H^i
is the block of nu.  For j in nu, C_nu is a subcomplex of C_{nu - j},
and x_j from theta_j = -1 is that inclusion, phi_{nu,j} on H^i.
Elsewhere x_j steps inside a block, or kills it for j outside nu, and F
sends theta to p*theta; both are the identity on the face basis.  So x
gives U(theta) ⊆ U(theta + e_j), F gives U(theta) ⊆ U(p*theta), and
walking back from p*theta with x, U(p*theta) ⊆ U(theta): a graded
F-stable submodule is a family (U_nu) constant on each block, with
phi_{nu,j}(U_nu) ⊆ U_{nu - j}.

face_count counts such families, one node per nonzero block.  F is the
identity on each block, so it is injective on every quotient of two
graded F-stable submodules: H^i is anti-nilpotent (Enescu-Hochster).
The count searches graded submodules only.  Each node picks an entry of
subspace_lattice, a reduced echelon basis; the cap, checked before any
lattice is listed, bounds the search.  check_maps compares the rank of
every phi with the one local_cohomology.map_ranks reads off the exact
sequence of its pair, which builds no block.  Where every block has
multiplicity 1 the count depends only on which maps are nonzero, so the
check covers all it reads.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache

from .errors import CapacityError, OracleMismatchError
from .gfp_linalg import DEFAULT_ENUM_CAP, row_echelon
from .local_cohomology import decomposition, map_ranks
from .simplicial import SimplicialComplex, coboundary_rows, face_masks, mask_vertices, vertex_mask

EXACT_SIZE_BITS = 2**17  # the largest search space multiplied out, in bits


def num_subspaces(p: int, n: int) -> int:
    """Number of subspaces of F_p^n, by the Goldman-Rota recurrence
    G(n) = 2 G(n - 1) + (p^(n - 1) - 1) G(n - 2), G(0) = 1, G(1) = 2."""
    g, h = 0, 1  # G(-1), whose coefficient p^0 - 1 is zero, and G(0)
    for k in range(n):
        g, h = h, 2 * h + (p**k - 1) * g
    return h


@lru_cache(maxsize=None)
def subspace_lattice(p: int, dim: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every subspace of F_p^dim once, as its reduced row-echelon basis
    (rows of 1 at the pivot, free right of it off the other pivots), by
    dimension and then pivots: the zero subspace () first."""
    lattice = []
    for k in range(dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            cells = [range(p) if j > c and j not in pivots else (int(j == c),) for c in pivots for j in range(dim)]
            for values in itertools.product(*cells):
                lattice.append(tuple(values[i * dim : (i + 1) * dim] for i in range(k)))
    return tuple(lattice)


@lru_cache(maxsize=None)
def lattice_contains(p: int, dim: int, a: int, b: int) -> bool:
    """Whether L[a] ⊇ L[b] for L = subspace_lattice(p, dim): the basis of
    L[b] adds no pivot to that of L[a]."""
    lattice = subspace_lattice(p, dim)
    big, small = lattice[a], lattice[b]
    return len(row_echelon(big + small, p)[1]) == len(big)


@lru_cache(maxsize=None)
def block(c: SimplicialComplex, p: int, i: int, nu: int):
    """H^i(C_nu) for the face mask nu, as (faces, boundaries, classes):
    the faces of size i containing nu, and (row, pivot) pairs of the
    reduced echelon forms of the coboundaries and of the cocycles, the
    latter at the pivots that are not coboundary pivots.  Their classes are
    a basis: a cocycle that is zero at the coboundary pivots is the
    combination of them read off at their pivots."""
    by_size = face_masks(c)[0]
    below, faces, above = ([m for m in by_size.get(k, ()) if m & nu == nu] for k in (i - 1, i, i + 1))
    boundaries, fixed = row_echelon(zip(*coboundary_rows(below, faces)), p, reduced=True)
    rows, pivots = row_echelon(coboundary_rows(faces, above), p, reduced=True)
    kernel = []
    for free in sorted(set(range(len(faces))) - set(pivots)):
        z = [int(k == free) for k in range(len(faces))]
        for row, col in zip(rows, pivots):
            z[col] = -row[free] % p
        kernel.append(z)
    cocycles, z_pivots = row_echelon(boundaries + kernel, p, reduced=True)
    classes = [(row, col) for row, col in zip(cocycles, z_pivots) if col not in fixed]
    return faces, list(zip(boundaries, fixed)), classes


def phi(c: SimplicialComplex, p: int, i: int, nu: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Rows: the coordinates in H^i(C_{nu - j}) of the images of the basis
    classes of H^i(C_nu) under the inclusion of C_nu: each cocycle is
    cleared at the coboundary pivots of the target and read off at its
    class pivots."""
    faces, _, classes = block(c, p, i, nu)
    target, boundaries, target_classes = block(c, p, i, nu & ~(1 << j))
    column = {m: k for k, m in enumerate(target)}
    out = []
    for cocycle, _ in classes:
        w = [0] * len(target)
        for m, a in zip(faces, cocycle):
            w[column[m]] = a
        for row, col in boundaries:
            f = w[col]
            if f:
                w = [(a - f * b) % p for a, b in zip(w, row)]
        out.append(tuple(w[col] for _, col in target_classes))
    return tuple(out)


@lru_cache(maxsize=None)
def _phi_images(c: SimplicialComplex, p: int, i: int, nu: int, j: int) -> list[int]:
    """The lattice index of the image under phi_{nu,j} of every entry of
    the subspace lattice of H^i(C_nu)."""
    matrix = phi(c, p, i, nu, j)
    target = subspace_lattice(p, len(block(c, p, i, nu & ~(1 << j))[2]))
    index = {basis: k for k, basis in enumerate(target)}
    out = []
    for basis in subspace_lattice(p, len(matrix)):
        rows = [[sum(a * b for a, b in zip(r, col)) for col in zip(*matrix)] for r in basis]
        out.append(index[tuple(map(tuple, row_echelon(rows, p, reduced=True)[0]))])
    return out


def _check_cap(p: int, multiplicities: Counter, cap: int) -> None:
    """Raise CapacityError when the search space, num_subspaces(p, m) to
    the power k for each multiplicity m of k nodes, exceeds cap.  The
    leading bit of each factor bounds the size's bits from below; a bound
    past the cap and past EXACT_SIZE_BITS refuses without multiplying."""
    factors = [(num_subspaces(p, m), k) for m, k in multiplicities.items()]
    low = sum(k * (g.bit_length() - 1) for g, k in factors) + 1
    if low > max(cap.bit_length(), EXACT_SIZE_BITS):
        raise CapacityError(f"profile search space of at least {low} bits exceeds cap {cap}")
    # one power per multiplicity: a running product of many factors is quadratic
    size = math.prod(g**k for g, k in factors)
    if size > cap:
        # str() of an integer past 4300 digits raises
        raise CapacityError(f"profile search space of {size.bit_length()} bits exceeds cap {cap}")


def _count_families(p: int, dims: list[int], edges: list[tuple[int, int, Sequence[int]]]) -> int:
    """Number of families (U_k), U_k an entry of subspace_lattice(p,
    dims[k]), with every edge (a, b, image) carrying U_a into U_b, image[s]
    being the lattice index of the image of entry s of node a.  Each edge
    is checked at whichever end the search assigns later."""
    checks: list[list] = [[] for _ in dims]
    for a, b, image in edges:
        checks[max(a, b)].append((a, b, image))
    ids = [0] * len(dims)

    def dfs(k: int) -> int:
        if k == len(dims):
            return 1
        count = 0
        for ids[k] in range(len(subspace_lattice(p, dims[k]))):
            if all(lattice_contains(p, dims[b], ids[b], image[ids[a]]) for a, b, image in checks[k]):
                count += dfs(k + 1)
        return count

    return dfs(0)


def face_count(c: SimplicialComplex, p: int, i: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of graded F-stable submodules of H^i_m(K[Delta]): the
    families over the nonzero blocks, one node each, with phi_{nu,j}(U_nu)
    ⊆ U_{nu - j}, the largest face first.  The search space is checked
    against cap first."""
    blocks = [(vertex_mask(nu), m) for ei, nu, m in decomposition(c, p) if ei == i]
    blocks.sort(key=lambda b: (-b[0].bit_count(), b[0]))
    _check_cap(p, Counter(m for _, m in blocks), cap)
    node = {nu: k for k, (nu, _) in enumerate(blocks)}
    edges = [
        (a, node[nu & ~(1 << j)], _phi_images(c, p, i, nu, j))
        for a, (nu, _) in enumerate(blocks)
        for j in range(nu.bit_length())
        if nu >> j & 1 and nu & ~(1 << j) in node
    ]
    return _count_families(p, [m for _, m in blocks], edges)


def check_maps(c: SimplicialComplex, p: int) -> int:
    """Compare the rank of every phi_{nu,j} between two nonzero blocks
    with map_ranks, raising OracleMismatchError at the first difference;
    returns the number of maps checked."""
    ranks = map_ranks(c, p)
    for (i, nu, j), rank in ranks.items():
        found = len(row_echelon(phi(c, p, i, nu, j), p)[1])
        if found != rank:
            where = f"i={i}, nu={mask_vertices(nu)}, j={j}"
            raise OracleMismatchError(f"phi at {where} has rank {found}, the exact sequence {rank}")
    return len(ranks)
