"""Per-multidegree, per-sign-pattern and per-face-tuple references for
the graded oracle box, and the face-tuple cochain routine.

froblab.local_cohomology.oracle_box_check evaluates only the sign
patterns of theta that split a face into its negative and positive
support, each weighted by the box points it covers.  These are the
routes it replaced: graded_dim reads one multidegree off the table and
cech_graded_oracle evaluates it from the localization complex;
oracle_box_check_per_theta compares them at every point of the box
[lo, hi]^n, and oracle_box_check_by_signs once per sign pattern, 3^n of
them.  Both list every disagreeing (theta, i) with its two values, where
froblab returns only how many there are.  graded_dim looks decomposition up on the module, so a
monkeypatched table reaches every route.  cech_dims_by_face_tuples
builds one pattern's piece from face tuples, by a scan of face_tuples
and an is_face test per face, where froblab filters its table of face
bitmasks.  froblab keeps no table of face tuples and no face test; both
live here.

froblab computes every cochain cohomology on face bitmasks
(froblab.simplicial.cochain_dims).  coboundary_matrix and
cochain_cohomology are the same computation on face tuples, kept as
the reference that cech_dims_by_face_tuples and the homology route of
helpers.boundary_homology_dims build on.
"""

import itertools
import math
from functools import lru_cache

from dense_oracle import row_echelon
from froblab import local_cohomology as lc
from froblab.gfp_linalg import check_prime
from froblab.simplicial import face_masks, mask_vertices, vertex_mask


@lru_cache(maxsize=None)
def face_tuples(c):
    """Every face as a vertex tuple, by size and then in lexicographic
    order, the empty face first."""
    return tuple(f for ms in face_masks(c)[0].values() for f in sorted(map(mask_vertices, ms)))


def is_face(c, sigma):
    return vertex_mask(sigma) in face_masks(c)[1]


def coboundary_matrix(src, tgt, p):
    """Matrix of the coboundary between the cochains on the face lists
    src and tgt; rows indexed by tgt, columns by src, sign (-1)^k for
    inserting the new vertex at position k of the sorted target face."""
    idx = {f: i for i, f in enumerate(src)}
    m = [[0] * len(src) for _ in tgt]
    for row, tau in zip(m, tgt):
        for k in range(len(tau)):
            ci = idx.get(tau[:k] + tau[k + 1 :])
            if ci is not None:
                row[ci] = (row[ci] + (-1) ** k) % p
    return m


def cochain_cohomology(cochains, p):
    """Nonzero (degree, dim) of the cohomology over F_p of the cochain
    complex with one summand per face of cochains[d] in degree d and
    coboundary_matrix as differential; dim = faces - rank out - rank in."""
    ranks = {
        d: len(row_echelon(coboundary_matrix(fs, cochains.get(d + 1, ()), p), p)[1])
        for d, fs in cochains.items()
    }
    dims = ((d, len(cochains[d]) - ranks[d] - ranks.get(d - 1, 0)) for d in sorted(cochains))
    return tuple((d, h) for d, h in dims if h)


def neg_support(theta):
    return tuple(i for i, t in enumerate(theta) if t < 0)


def graded_dim(c, p, i, theta):
    """dim of the theta-graded piece of H^i_m(K[Delta]), read off the table.

    Nonzero only when theta has no positive entry and the negatively
    supported variables form a face nu; then it equals m(i, nu).
    """
    theta = tuple(int(t) for t in theta)
    if any(t > 0 for t in theta):
        return 0
    nu = neg_support(theta)
    if not is_face(c, nu):
        return 0
    return lc.decomposition(c, p).get((i, vertex_mask(nu)), 0)


def cech_graded_oracle(c, p, theta):
    """Dims of every H^i_m(K[Delta]) in one multidegree, built directly
    from the localization complex with no reference to links or to the
    decomposition table."""
    check_prime(p)
    theta = tuple(int(t) for t in theta)
    nu = sum(1 << v for v, t in enumerate(theta) if t < 0)
    pi = sum(1 << v for v, t in enumerate(theta) if t > 0)
    return dict(lc._cech_dims_by_signs(c, p, nu, pi))


def cech_dims_by_face_tuples(c, p, nu, pi):
    """Nonzero (degree, dim) of the piece of sign pattern (nu, pi): one
    cochain per face sigma containing nu with sigma union pi a face, in
    degree |sigma|, and the coboundary of simplicial.coboundary_matrix."""
    nu_set, pi_set = set(nu), set(pi)
    cochains = {}
    for sigma in face_tuples(c):
        if nu_set <= set(sigma) and is_face(c, set(sigma) | pi_set):
            cochains.setdefault(len(sigma), []).append(sigma)
    return cochain_cohomology(cochains, p)


def oracle_box_check_per_theta(c, p, lo=-3, hi=1):
    top = c.dim + 1
    agree = 0
    mismatches = []
    for theta in itertools.product(range(lo, hi + 1), repeat=c.n_vertices):
        oracle = cech_graded_oracle(c, p, theta)
        for i in range(0, top + 1):
            lhs = graded_dim(c, p, i, theta)
            rhs = oracle.get(i, 0)
            if lhs == rhs:
                agree += 1
            else:
                mismatches.append((theta, i, lhs, rhs))
    return agree, mismatches


def oracle_box_check_by_signs(c, p, lo=-3, hi=1):
    """Every sign pattern evaluated once, at one of its box points, and
    counted for all of them; mismatches sorted as the box lists them."""
    top = c.dim + 1
    by_sign = (
        range(lo, min(hi, -1) + 1),
        range(max(lo, 0), min(hi, 0) + 1),
        range(max(lo, 1), hi + 1),
    )
    values = [r for r in by_sign if r]
    agree = 0
    mismatches = []
    for pattern in itertools.product(values, repeat=c.n_vertices):
        theta = tuple(r[0] for r in pattern)
        weight = math.prod(len(r) for r in pattern)
        oracle = cech_graded_oracle(c, p, theta)
        for i in range(0, top + 1):
            lhs = graded_dim(c, p, i, theta)
            rhs = oracle.get(i, 0)
            if lhs == rhs:
                agree += weight
            else:
                mismatches += [(t, i, lhs, rhs) for t in itertools.product(*pattern)]
    mismatches.sort()
    return agree, mismatches
