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
and reports flag that as a scope condition.  Containment and meets are
lookups in lattice_tables.

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
from typing import NamedTuple

from .errors import CapacityError
from .gfp_linalg import (
    DEFAULT_ENUM_CAP,
    Subspace,
    check_prime,
    num_subspaces,
    subspace_intersection,
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
    c: SimplicialComplex,
    p: int,
    i: int,
    depth: int,
    nu_filter=None,
    zero_frobenius: bool = False,
) -> FModuleTruncation:
    """Model of H^i over the window of exponent magnitudes [1, depth].

    nu_filter optionally restricts to a subset of faces, giving the
    sub-model spanned by those face blocks.
    """
    table = decomposition(c, p)
    if i < 0 or i > c.dim + 1:
        raise ValueError(f"index {i} out of range [0, {c.dim + 1}]")
    allowed = None if nu_filter is None else {tuple(sorted(nu)) for nu in nu_filter}
    summands = tuple(
        (nu, m)
        for ei, nu, m in table.entries
        if ei == i and (allowed is None or nu in allowed)
    )
    return FModuleTruncation(p, c.n_vertices, i, depth, summands, zero_frobenius)


class LatticeTables(NamedTuple):
    """index maps each subspace of subspace_lattice(p, dim) to its
    position (the zero subspace first, the full space last);
    contains[a][b] says L[a] ⊇ L[b]; meet[a][b] is the position of
    L[a] ∩ L[b]."""

    index: dict[Subspace, int]
    contains: list[list[bool]]
    meet: list[list[int]]


@lru_cache(maxsize=None)
def lattice_tables(p: int, dim: int) -> LatticeTables:
    lattice = subspace_lattice(p, dim)
    index = {s: k for k, s in enumerate(lattice)}
    meet = [[0] * len(lattice) for _ in lattice]
    for a, sa in enumerate(lattice):
        for b in range(a, len(lattice)):
            meet[a][b] = meet[b][a] = index[subspace_intersection(sa, lattice[b])]
    # L[a] contains L[b] exactly when their meet is L[b]
    contains = [[m == b for b, m in enumerate(row)] for row in meet]
    return LatticeTables(index, contains, meet)


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


def _profile_count(p: int, points: dict[MultiDegree, int]) -> int:
    # one power per multiplicity: a running product of many factors is quadratic
    dims = Counter(points.values())
    return math.prod(num_subspaces(p, m) ** k for m, k in dims.items())


def enumerate_f_stable_submodules(
    t: FModuleTruncation, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, list[Code]]:
    """Brute-force search over the codes of all graded submodules
    compatible with the variable action inside the box and with Frobenius
    wherever its image stays inside the box; returns their number and the
    codes in search order.  Degrees outside the box are unconstrained, so
    no genuine submodule is ever rejected."""
    points = lattice_points(t)
    size = _profile_count(t.p, points)
    if size > cap:
        # str() of an integer past 4300 digits raises
        raise CapacityError(f"profile search space of {size.bit_length()} bits exceeds cap {cap}")
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
    contains = {m: lattice_tables(t.p, m).contains for m in set(dims)}

    codes: list[Code] = []
    ids = [0] * len(dims)

    def dfs(k: int):
        if k == len(dims):
            codes.append(tuple(ids))
            return
        table = contains[dims[k]]
        for s in range(len(table)):
            if all(table[ids[j]][s] for j in above[k]) and all(
                table[s][ids[j]] for j in below[k]
            ):
                ids[k] = s
                dfs(k + 1)

    dfs(0)
    return len(codes), codes


class AntiNilpotenceWitness(NamedTuple):
    smaller: Code
    larger: Code
    theta: MultiDegree


def check_antinilpotent(
    t: FModuleTruncation, codes: list[Code]
) -> tuple[bool, AntiNilpotenceWitness | None]:
    """Whether Frobenius acts injectively, over the box interior (the
    degrees whose image under F stays inside the box), on every quotient
    N/N' of two nested submodules whose codes
    enumerate_f_stable_submodules returned.  The list must hold the whole
    module, the largest code, so one check of each N' against it decides;
    only for the first N' that fails are the larger codes scanned, so the
    witness is the first failing (smaller, larger, theta) with both codes
    taken in list order and theta in the order of lattice_points."""
    points = lattice_points(t)
    thetas = list(points)
    tables = [lattice_tables(t.p, m) for m in points.values()]
    column = {theta: k for k, theta in enumerate(thetas)}
    whole = tuple(len(table.index) - 1 for table in tables)
    if codes and whole not in codes:
        raise ValueError("the codes do not include the whole module")
    interior = [
        (k, column[tuple(t.p * v for v in theta)])
        for k, theta in enumerate(thetas)
        if all(t.p * v >= -t.extension_depth for v in theta)
    ]

    def fails(small: Code, large: Code, k: int, pk: int) -> bool:
        # the part of N(theta) that F sends into N'(p*theta) must lie in N'(theta)
        table = tables[k]
        held = large[k] if t.zero_frobenius else table.meet[large[k]][small[pk]]
        return not table.contains[small[k]][held]

    for code in codes:
        if not any(fails(code, whole, k, pk) for k, pk in interior):
            continue
        for other in codes:
            if other == code or not all(
                table.contains[a][b] for table, a, b in zip(tables, other, code)
            ):
                continue
            for k, pk in interior:
                if fails(code, other, k, pk):
                    return False, AntiNilpotenceWitness(code, other, thetas[k])
    return True, None
