"""Graded dimensions of local cohomology for face rings over F_p.

For a complex Delta with face ring R = K[Delta] and homogeneous maximal
ideal m, the multidegree-theta piece of H^i_m(R) is nonzero only when
theta has no positive entry and its negative support is a face nu; its
dimension is then m(i, nu) = dim H~^{i-1-|nu|}(link(nu); F_p).  This
module computes that table, {(i, nu): m} keyed by face mask, which gives
the graded dimensions exactly, and checks it against an independent
oracle that evaluates a multidegree piece directly from the
monomial-localization complex.  Both depend on a multidegree only
through its sign pattern, and both vanish unless that pattern splits a
face, so the one oracle box, BOX = [-3, 1]^n, is checked once per such
pattern, weighted by its 3^|nu| box points, not once per box point.  The
two routes pick their faces independently, the table from each link's
faces, read off the facets that contain nu (simplicial.link_cohomology),
and the oracle by filtering the whole complex's face masks by sign
pattern, and both take the cohomology from the one cochain routine,
simplicial.cochain_dims.

The table is not a module decomposition: x_j maps the block of nu into
the block of nu minus {j}, often by a nonzero map, so H^i_m(R) is not a
direct sum of its face blocks.  froblab.fmodule counts its F-stable
submodules from those maps, and map_ranks gives the rank of each from
the table and the long exact sequence of its pair, which fmodule
checks its matrices against.  Only froblab.cli turns the table into
report rows, each nu as a vertex tuple.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .errors import CapacityError, OracleMismatchError
from .gfp_linalg import check_prime
from .simplicial import (
    SimplicialComplex,
    cochain_dims,
    face_masks,
    facet_masks,
    link_cohomology,
    mask_vertices,
    submasks,
)

# faces times the patterns that split a face (the sum of 2^|sigma| over the
# faces): each pattern is one elimination over the filtered face table
MAX_ORACLE_SIZE = 2**20
# the one multidegree box [lo, hi]^n that the graded oracle checks
BOX = (-3, 1)


@lru_cache(maxsize=None)
def decomposition(c: SimplicialComplex, p: int) -> MappingProxyType[tuple[int, int], int]:
    """The nonzero multiplicities m(i, nu) of the face blocks of
    H^i_m(K[Delta]), as {(i, nu): m}, nu a face mask, in increasing key
    order: the reduced cohomology of link(nu) in degree j, for every face
    nu (the empty face included), placed at index i = |nu| + 1 + j.
    Cached, so read-only."""
    check_prime(p)
    faces = ((size, nu) for size, nus in face_masks(c)[0].items() for nu in nus)
    table = {(j + 1 + size, nu): m for size, nu in faces for j, m in link_cohomology(c, p, nu)}
    return MappingProxyType(dict(sorted(table.items())))


@lru_cache(maxsize=None)
def _cech_dims_by_signs(c: SimplicialComplex, p: int, nu_mask: int, pi_mask: int) -> tuple[tuple[int, int], ...]:
    """Cohomology of the single-multidegree piece of the localization
    complex.  The term in cohomological degree i has one F_p summand for
    each face sigma with |sigma| = i, nu contained in sigma, and
    sigma union pi a face; differentials carry the usual alternating
    signs.  Depends on theta only through the sign pattern (nu, pi), here
    as vertex bitmasks.

    The faces are read off the complex's table of face masks, filtered
    by the pattern, and the cohomology is that of cochain_dims."""
    by_size, masks = face_masks(c)
    cochains = {}
    for size, ms in by_size.items():
        kept = [m for m in ms if m & nu_mask == nu_mask and m | pi_mask in masks]
        if kept:
            cochains[size] = kept
    return cochain_dims(cochains, p)


def oracle_box_check(c: SimplicialComplex, p: int) -> tuple[int, int]:
    """Compare the table against the localization-complex oracle at every
    multidegree theta in the box BOX = [-3, 1]^n and every cohomological
    index.  Returns the numbers of agreeing and of disagreeing (theta, i)
    pairs (the second expected 0).

    Both sides depend on theta only through its sign pattern: nu where
    theta < 0 and pi where theta > 0.  The table side is m(i, nu) when pi
    is empty and 0 otherwise; the oracle's piece has no cochains unless
    nu union pi is a face.  So both vanish unless the pattern splits a
    face mask sigma into a submask nu and pi = sigma - nu; only those are
    evaluated, each weighted by its 3^|nu| box points: theta is one of
    -3, -2, -1 on nu, 1 on pi and 0 elsewhere.  Past MAX_ORACLE_SIZE it
    raises CapacityError before any elimination, and before listing the
    faces if one facet of k vertices, 2^k faces and 3^k patterns, does."""
    least = 6 ** max(map(len, c.facets), default=0)
    if least > MAX_ORACLE_SIZE:
        raise CapacityError(f"graded oracle size at least {least} exceeds cap {MAX_ORACLE_SIZE}")
    by_size = face_masks(c)[0]
    work = sum(map(len, by_size.values())) * sum(len(sigmas) << k for k, sigmas in by_size.items())
    if work > MAX_ORACLE_SIZE:
        raise CapacityError(f"graded oracle size {work} exceeds cap {MAX_ORACLE_SIZE}")
    top = c.dim + 1
    table = decomposition(c, p)
    disagree = 0
    for sigmas in by_size.values():
        for sigma in sigmas:
            for nu in submasks(sigma):
                pi = sigma ^ nu
                oracle = dict(_cech_dims_by_signs(c, p, nu, pi))
                for i in range(0, top + 1):
                    if (0 if pi else table.get((i, nu), 0)) != oracle.get(i, 0):
                        disagree += 3 ** nu.bit_count()
    lo, hi = BOX
    return (hi - lo + 1) ** c.n_vertices * (top + 1) - disagree, disagree


@lru_cache(maxsize=None)
def map_ranks(c: SimplicialComplex, p: int) -> MappingProxyType[tuple[int, int, int], int]:
    """The rank of phi_{nu,j} on H^i, keyed (i, nu, j), nu a face mask
    and j in nu, for every map between two nonzero blocks of H^i.

    C_nu, the faces containing nu, is a subcomplex of C_{nu - j} with
    quotient Q, the faces containing nu - j and not j.  The long exact
    sequence of the pair gives dim H^i(Q) = (m(i, nu - j) - rk phi_i) +
    (m(i + 1, nu) - rk phi_{i + 1}), solved from the top degree down with
    rank 0 above it: m from the table, H(Q) from cochain_dims on the
    filtered face masks, and no cocycle basis built.  Cached, so
    read-only."""
    table = decomposition(c, p)
    by_size = face_masks(c)[0]
    pairs = sorted({(nu, j) for i, nu in table for j in mask_vertices(nu) if (i, nu ^ 1 << j) in table})
    ranks = {}
    for nu, j in pairs:
        rest = nu ^ 1 << j
        quotient = {size: kept for size, ms in by_size.items() if (kept := [m for m in ms if m & nu == rest])}
        h = dict(cochain_dims(quotient, p))
        rank = 0
        for i in range(c.dim + 1, -1, -1):
            rank = table.get((i, rest), 0) + table.get((i + 1, nu), 0) - rank - h.get(i, 0)
            if (i, nu) in table and (i, rest) in table:
                ranks[i, nu, j] = rank
    return MappingProxyType(ranks)


def reisner_cm_condition(c: SimplicialComplex, p: int) -> bool:
    """Every link has reduced cohomology only in its own top dimension:
    the link of nu has dimension max |F| - |nu| - 1 over the facets F
    containing nu, so every block (i, nu) of the table sits at
    i = max |F|."""
    facets = facet_masks(c)
    return all(i == max(f.bit_count() for f in facets if f & nu == nu) for i, nu in decomposition(c, p))


def depth_and_cm(c: SimplicialComplex, p: int) -> tuple[int, int, bool]:
    """(depth, dim, is_cm) with depth = least index carrying a summand.

    The Cohen-Macaulay verdict is computed twice, from the table's depth
    and from the link condition on its blocks, and the two must agree.
    """
    dim = c.dim + 1
    indices = sorted({i for i, _ in decomposition(c, p)})
    if not indices:
        raise OracleMismatchError("decomposition table unexpectedly empty")
    depth = indices[0]
    is_cm = depth == dim
    if max(indices) > dim:
        raise OracleMismatchError("table shape contradicts the depth computation")
    if is_cm != reisner_cm_condition(c, p):
        raise OracleMismatchError("link condition disagrees with the table route")
    return depth, dim, is_cm
