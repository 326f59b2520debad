"""Finite graded truncation models of the local cohomology modules of a
face ring, with their variable action and Frobenius action.

A model is determined by the prime p, the ambient variable count, a
cohomological index, a depth bound T, and the face blocks
(nu, multiplicity) from the decomposition table.  The summand of nu sits
at the multidegrees whose negative support is exactly nu; the window
holds exponent magnitudes in [1, T] and Frobenius maps it into the
depth-p*T extension.

Action rules on the summand of nu at a multidegree:
  * x_j with j outside nu kills it;
  * x_j at magnitude 1 (exponent -1) kills it;
  * otherwise x_j lowers the magnitude by one;
  * F scales every magnitude by p (and is the identity on the
    multiplicity coordinate, the coefficient field being F_p).

The second rule is not the action on H^i_m(K[Delta]): there x_j at
exponent -1 maps the block of nu into the block of nu minus {j}, often
by a nonzero map.  So the models have the right graded dimensions, but
their submodule counts are known to be wrong (two points: 8 against
the true 5; ROADMAP.md, open item 1).

Everything downstream of these rules (brute-force submodule
enumeration and the anti-nilpotence check) is computed over
graded submodules held as codes: a code is a tuple with one index into
subspace_lattice for each multidegree of lattice_points(t), in that
order, index 0 being the zero subspace and the last index the full
multiplicity space.  The enumeration searches graded submodules only,
and reports flag that as a scope condition.  Containment of two lattice
entries is decided pair by pair, when the search asks, by
lattice_contains.

M is anti-nilpotent when F acts injectively on M/N for every F-stable
submodule N (Enescu-Hochster).  Since F is theta -> p*theta and the
identity on multiplicity coordinates, Frobenius is injective on N/N' at
an interior theta exactly when N(theta) ∩ N'(p*theta) ⊆ N'(theta).  That
only gets harder as N grows, and the whole module contains every
submodule, so N' fails with some N exactly when it fails with the whole
module: when N'(p*theta) ⊄ N'(theta) at some interior theta, or, for the
zero map, when N'(theta) is not the full space.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from .errors import CapacityError
from .gfp_linalg import (
    DEFAULT_ENUM_CAP,
    check_prime,
    num_subspaces,
    row_echelon,
    subspace_lattice,
)
from .local_cohomology import decomposition
from .record import record
from .simplicial import Face, SimplicialComplex

MultiDegree = tuple[int, ...]
# one index into subspace_lattice per point of lattice_points(t), in order
Code = tuple[int, ...]


@record
class FModuleTruncation:
    """Finite window of one graded local cohomology module.

    zero_frobenius replaces the Frobenius action by the zero map; it
    exists purely as a diagnostic fixture for the anti-nilpotence check.
    """

    p: int
    n_vars: int
    index: int
    depth: int
    summands: tuple[tuple[Face, int], ...]
    zero_frobenius: bool = False

    def __post_init__(self):
        check_prime(self.p)
        if self.depth < 1:
            raise ValueError("depth bound must be positive")
        for nu, m in self.summands:
            if m < 1 or any(v < 0 or v >= self.n_vars for v in nu):
                raise ValueError("bad summand")

    @property
    def extension_depth(self) -> int:
        return self.p * self.depth


def build_truncation(
    c: SimplicialComplex, p: int, i: int, depth: int, zero_frobenius: bool = False
) -> FModuleTruncation:
    """Model of H^i over the window of exponent magnitudes [1, depth]."""
    table = decomposition(c, p)
    if i < 0 or i > c.dim + 1:
        raise ValueError(f"index {i} out of range [0, {c.dim + 1}]")
    summands = tuple((nu, m) for ei, nu, m in table if ei == i)
    return FModuleTruncation(p, c.n_vertices, i, depth, summands, zero_frobenius)


@lru_cache(maxsize=None)
def lattice_contains(p: int, dim: int, a: int, b: int) -> bool:
    """Whether L[a] ⊇ L[b] for L = subspace_lattice(p, dim): the basis of
    L[b] adds no pivot to that of L[a]."""
    if a == b:
        return True
    lattice = subspace_lattice(p, dim)
    big, small = lattice[a], lattice[b]
    return len(row_echelon(big.basis + small.basis, p)[1]) == big.dim


def lattice_points(t: FModuleTruncation) -> dict[MultiDegree, int]:
    """Multidegrees of the working box [-pT, 0]^n whose negative support
    carries a summand, with the multiplicity-space dimension at each.

    They come face by face, magnitudes ascending within a face.  Every
    constraint of the action rules joins two points of one face, so the
    search settles each face before it enters the next and never repeats
    a dead end of one face under every partial choice of another.
    """
    bound = t.extension_depth
    points: dict[MultiDegree, int] = {}
    for nu, m in t.summands:
        for mags in itertools.product(range(1, bound + 1), repeat=len(nu)):
            theta = [0] * t.n_vars
            for v, mag in zip(nu, mags):
                theta[v] = -mag
            points[tuple(theta)] = m
    return points


def _constraints(t: FModuleTruncation, points: dict[MultiDegree, int]):
    """Inclusion constraints U_src <= U_tgt induced by the action rules.

    x_j gives one for every surviving step (exponent below -1); F gives
    one whenever p*theta stays inside the box.  Both maps are the
    identity on multiplicity coordinates.
    """
    cons: list[tuple[MultiDegree, MultiDegree]] = []
    for theta in points:
        for j in range(t.n_vars):
            if theta[j] <= -2:
                tgt = list(theta)
                tgt[j] += 1
                tgt = tuple(tgt)
                if tgt in points:
                    cons.append((theta, tgt))
        if not t.zero_frobenius:
            ptheta = tuple(t.p * v for v in theta)
            if theta != ptheta and all(v >= -t.extension_depth for v in ptheta):
                if ptheta in points:
                    cons.append((theta, ptheta))
    return cons


def enumerate_f_stable_submodules(
    t: FModuleTruncation, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, list[Code]]:
    """Brute-force search over the codes of all graded submodules
    compatible with the variable action inside the box and with Frobenius
    wherever its image stays inside the box; returns their number and the
    codes in search order.  Degrees outside the box are unconstrained, so
    no genuine submodule is ever rejected."""
    # the summand of nu has (pT)^|nu| points, so the size is known before
    # any point is listed; one power per multiplicity, as a running
    # product of many factors is quadratic
    exponents = Counter()
    for nu, m in t.summands:
        exponents[m] += t.extension_depth ** len(nu)
    size = math.prod(num_subspaces(t.p, m) ** k for m, k in exponents.items())
    if size > cap:
        # str() of an integer past 4300 digits raises
        raise CapacityError(f"profile search space of {size.bit_length()} bits exceeds cap {cap}")
    points = lattice_points(t)
    # every constraint is checked at whichever of its two points the
    # search assigns later: there the current index is the source
    # (bounded by the target above) or the target (bounding the source)
    position = {theta: k for k, theta in enumerate(points)}
    above: list[list[int]] = [[] for _ in points]
    below: list[list[int]] = [[] for _ in points]
    for src, tgt in _constraints(t, points):
        if position[src] >= position[tgt]:
            above[position[src]].append(position[tgt])
        else:
            below[position[tgt]].append(position[src])
    dims = list(points.values())
    sizes = [len(subspace_lattice(t.p, m)) for m in dims]

    codes: list[Code] = []
    ids = [0] * len(dims)

    def dfs(k: int):
        if k == len(dims):
            codes.append(tuple(ids))
            return
        # both ends of a constraint share one multiplicity space
        m = dims[k]
        for s in range(sizes[k]):
            if all(lattice_contains(t.p, m, ids[j], s) for j in above[k]) and all(
                lattice_contains(t.p, m, s, ids[j]) for j in below[k]
            ):
                ids[k] = s
                dfs(k + 1)

    dfs(0)
    return len(codes), codes


def check_antinilpotent(t: FModuleTruncation, codes: list[Code]) -> bool:
    """Whether Frobenius acts injectively, over the box interior (the
    degrees whose image under F stays inside the box), on every quotient
    N/N' of two nested submodules whose codes
    enumerate_f_stable_submodules returned.  The list must hold the whole
    module, the largest code, so one check of each N' against it decides:
    N'(p*theta) ⊆ N'(theta) at every interior theta, or, for the zero
    map, N'(theta) the full space."""
    points = lattice_points(t)
    dims = list(points.values())
    column = {theta: k for k, theta in enumerate(points)}
    whole = tuple(len(subspace_lattice(t.p, m)) - 1 for m in dims)
    if codes and whole not in codes:
        raise ValueError("the codes do not include the whole module")
    interior = [
        (k, column[tuple(t.p * v for v in theta)])
        for k, theta in enumerate(points)
        if all(t.p * v >= -t.extension_depth for v in theta)
    ]
    if t.zero_frobenius:
        return all(code[k] == whole[k] for code in codes for k, _ in interior)
    return all(
        lattice_contains(t.p, dims[k], code[k], code[pk]) for code in codes for k, pk in interior
    )
