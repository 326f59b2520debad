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
The count searches graded submodules only.  Over the blocks of
multiplicity 1 the families are the down-sets of the order of the
nonzero maps (Birkhoff), whose ranks local_cohomology.map_ranks reads
off the exact sequence of each pair without building a block; a block
of multiplicity above 1 branches over its subspace_lattice.  check_maps
compares those ranks with the matrices phi, so where every block has
multiplicity 1 the check covers all the count reads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import CapacityError, OracleMismatchError
from .gfp_linalg import DEFAULT_ENUM_CAP, row_echelon, subtract
from .local_cohomology import decomposition, map_ranks
from .simplicial import SimplicialComplex, coboundary_rows, face_masks, mask_vertices, vertex_mask


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
def block(c: SimplicialComplex, p: int, i: int, nu: int):
    """H^i(C_nu) for the face mask nu, as (faces, boundaries, classes):
    the faces of size i containing nu, and (row, pivot) pairs of the
    reduced echelon forms of the coboundaries and of the cocycles, rows
    keyed by face mask, the latter at the pivots that are not coboundary
    pivots.  Their classes are a basis: a cocycle that is zero at the
    coboundary pivots is the combination of them read off at their pivots."""
    by_size = face_masks(c)[0]
    below, faces, above = ([m for m in by_size.get(k, ()) if m & nu == nu] for k in (i - 1, i, i + 1))
    images: dict[int, dict[int, int]] = {}  # the coboundary of each face below
    for tau, row in zip(faces, coboundary_rows(below, faces)):
        for sigma, sign in row.items():
            images.setdefault(sigma, {})[tau] = sign
    boundaries, fixed = row_echelon(images.values(), p, reduced=True)
    rows, pivots = row_echelon(coboundary_rows(faces, above), p, reduced=True)
    kernel = [
        {free: 1} | {col: -row[free] % p for row, col in zip(rows, pivots) if free in row}
        for free in faces if free not in pivots
    ]
    cocycles, z_pivots = row_echelon(boundaries + kernel, p, reduced=True)
    classes = [(row, col) for row, col in zip(cocycles, z_pivots) if col not in fixed]
    return faces, list(zip(boundaries, fixed)), classes


@lru_cache(maxsize=None)
def phi(c: SimplicialComplex, p: int, i: int, nu: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Rows: the coordinates in H^i(C_{nu - j}) of the images of the basis
    classes of H^i(C_nu) under the inclusion of C_nu: each cocycle is
    cleared at the coboundary pivots of the target and read off at its
    class pivots.  Cached like block, so the result is shared and read-only."""
    classes = block(c, p, i, nu)[2]
    _, boundaries, target_classes = block(c, p, i, nu & ~(1 << j))
    out = []
    for cocycle, _ in classes:
        w = dict(cocycle)
        for row, col in boundaries:
            if col in w:
                subtract(w, w[col], row, p)
        out.append(tuple(w.get(col, 0) for _, col in target_classes))
    return tuple(out)


def face_count(c: SimplicialComplex, p: int, i: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of graded F-stable submodules of H^i_m(K[Delta]), the families
    (U_nu) with phi_{nu,j}(U_nu) ⊆ U_{nu - j}.  Each block of multiplicity
    above 1 branches over its lattice; a leaf forces in the small targets of
    nonzero images, with all below them, and out the small sources of images
    outside the chosen subspace, with all above them, and counts the rest.
    Branches and memo states together may not pass cap."""
    blocks = [(vertex_mask(nu), m) for ei, nu, m in decomposition(c, p) if ei == i]
    blocks.sort(key=lambda b: (b[0].bit_count(), b[0]))
    node = {nu: k for k, (nu, _) in enumerate(blocks)}
    small = sum(1 << k for k, (_, m) in enumerate(blocks) if m == 1)
    large = [k for k, (_, m) in enumerate(blocks) if m > 1]
    targets: list[list[tuple[int, int]]] = [[] for _ in blocks]
    for (ei, nu, j), rank in map_ranks(c, p).items():
        if ei == i and rank:
            targets[node[nu]].append((node[nu ^ 1 << j], j))
    # a target is a smaller face, so sorted earlier: one pass closes the order down, one in reverse up
    edges = [(a, b) for a, ts in enumerate(targets) for b, _ in ts if small >> a & small >> b & 1]
    below, above = [0] * len(blocks), [0] * len(blocks)
    for a, b in edges:
        below[a] |= 1 << b | below[b]
    for a, b in reversed(edges):
        above[b] |= 1 << a | above[a]
    memo, spent, chosen = {0: 1}, [0], {}

    def charge(work: int) -> None:
        spent[0] += work
        if spent[0] > cap:
            raise CapacityError(f"count past {cap} branches and memo states")

    def count(nodes: int) -> int:
        # the product over the comparability components; a connected one splits on its
        # most comparable node x: the down-sets without x, and those with x and all below it
        if nodes not in memo:
            charge(1)
            total, rest = 1, nodes
            while rest:
                grow, left, most = rest & -rest, rest & (rest - 1), -1  # from the lowest node; left unreached
                while grow:
                    k = grow.bit_length() - 1
                    grow ^= 1 << k
                    reach = (below[k] | above[k]) & rest
                    if reach.bit_count() > most:
                        x, most = k, reach.bit_count()
                    grow, left = grow | reach & left, left & ~reach
                part, rest = rest ^ left, left
                if part == nodes:
                    total = count(part & ~below[x] & ~(1 << x)) + count(part & ~above[x] & ~(1 << x))
                else:
                    total *= count(part)
            memo[nodes] = total
        return memo[nodes]

    def fits(basis, rows) -> bool:
        return len(row_echelon([dict(enumerate(row)) for row in (*basis, *rows)], p)[1]) == len(basis)

    @lru_cache(maxsize=None)
    def image(basis, a: int, j: int) -> tuple[tuple[int, ...], ...]:
        matrix = tuple(zip(*phi(c, p, i, blocks[a][0], j)))
        return tuple(tuple(sum(x * y for x, y in zip(r, col)) % p for col in matrix) for r in basis)

    def branch(k: int) -> int:
        # the large blocks from the smallest face up: the targets of each are chosen before it
        if k == len(large):
            inside = outside = 0
            for a, ts in enumerate(targets):
                for b, j in ts:
                    if a in chosen and small >> b & 1 and any(map(any, image(chosen[a], a, j))):
                        inside |= 1 << b | below[b]
                    elif b in chosen and small >> a & 1 and not fits(chosen[b], phi(c, p, i, blocks[a][0], j)):
                        outside |= 1 << a | above[a]
            return 0 if inside & outside else count(small & ~inside & ~outside)
        a, total = large[k], 0
        charge(num_subspaces(p, blocks[a][1]))
        for chosen[a] in subspace_lattice(p, blocks[a][1]):
            if all(fits(chosen[b], image(chosen[a], a, j)) for b, j in targets[a] if b in chosen):
                total += branch(k + 1)
        return total

    return branch(0)


def check_maps(c: SimplicialComplex, p: int) -> int:
    """Compare the rank of every phi_{nu,j} between two nonzero blocks
    with map_ranks, raising OracleMismatchError at the first difference;
    returns the number of maps checked."""
    ranks = map_ranks(c, p)
    for (i, nu, j), rank in ranks.items():
        found = len(row_echelon([dict(enumerate(row)) for row in phi(c, p, i, nu, j)], p)[1])
        if found != rank:
            where = f"i={i}, nu={mask_vertices(nu)}, j={j}"
            raise OracleMismatchError(f"phi at {where} has rank {found}, the exact sequence {rank}")
    return len(ranks)
