"""Finite graded truncation models of the local cohomology modules of a
face ring, with their variable action and Frobenius action.

A model is determined by the prime p, the ambient variable count, a
cohomological index, a depth bound T, and the isotypic summands
(nu, multiplicity) from the decomposition table.  Basis elements are
triples (nu, class_index, w) where w records the magnitudes of strictly
negative exponents supported exactly on nu; the window holds magnitudes
in [1, T] and Frobenius maps it into the depth-p*T extension.

Action rules on a basis element:
  * x_j with j outside nu kills it;
  * x_j at magnitude 1 (exponent -1) kills it;
  * otherwise x_j lowers the magnitude by one;
  * F scales every magnitude by p (and is the identity on the
    multiplicity coordinate, the coefficient field being F_p).

Everything downstream of these rules (stable-span closure, brute-force
submodule enumeration, the anti-nilpotence check, annihilators) is
computed over graded profiles: assignments of a subspace of the
multiplicity space to each multidegree in the working box [-pT, 0]^n.
The enumeration searches graded profiles only; the semisimple graded
structure of the models justifies this, and reports flag it as a scope
condition.  Both the search and the anti-nilpotence check hold each
subspace as its index into subspace_lattice and test containment and
meets by lookups in lattice_tables.  Those tables are numpy arrays, so
the anti-nilpotence check runs vectorised; this is the one module of
froblab that uses numpy.  Since F is theta -> p*theta and the identity
on multiplicity coordinates, Frobenius is injective on N/N' at an
interior theta exactly when N(theta) ∩ N'(p*theta) ⊆ N'(theta).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, UnsupportedInputError
from .gfp_linalg import (
    DEFAULT_ENUM_CAP,
    Subspace,
    check_prime,
    num_subspaces,
    subspace_intersection,
    subspace_lattice,
    subspace_sum,
)
from .local_cohomology import decomposition
from .polyfp import MonomialIdeal
from .simplicial import Face, SimplicialComplex

MultiDegree = tuple[int, ...]


class BasisElement(NamedTuple):
    nu: Face
    class_index: int
    w: tuple[int, ...]  # magnitudes of the negative exponents; support == nu


Element = dict[BasisElement, int]


@dataclass(frozen=True)
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

    def multiplicity(self, nu) -> int:
        nu = tuple(sorted(nu))
        for s, m in self.summands:
            if s == nu:
                return m
        return 0

    def basis(self, depth: int | None = None) -> list[BasisElement]:
        """Window basis (or the depth-p*T extension when depth is given)."""
        bound = self.depth if depth is None else depth
        out = []
        for nu, m in self.summands:
            for w_on_nu in itertools.product(range(1, bound + 1), repeat=len(nu)):
                w = [0] * self.n_vars
                for v, mag in zip(nu, w_on_nu):
                    w[v] = mag
                for k in range(m):
                    out.append(BasisElement(nu, k, tuple(w)))
        return sorted(out)

    def is_zero_module(self) -> bool:
        return not self.summands


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
    sub-model spanned by those isotypic blocks.
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


def degree_of(b: BasisElement) -> MultiDegree:
    return tuple(-m for m in b.w)


def apply_x(t: FModuleTruncation, j: int, v: Element) -> Element:
    """Multiplication by x_j, extended linearly."""
    out: dict[BasisElement, int] = {}
    for b, c in v.items():
        if j not in b.nu:
            continue
        mag = b.w[j]
        if mag == 1:
            continue
        w = list(b.w)
        w[j] = mag - 1
        nb = BasisElement(b.nu, b.class_index, tuple(w))
        out[nb] = (out.get(nb, 0) + c) % t.p
    return {b: c for b, c in out.items() if c}


def apply_F(t: FModuleTruncation, v: Element) -> Element:
    """Frobenius: magnitudes scale by p, coefficients are fixed (prime field)."""
    if t.zero_frobenius:
        return {}
    out: dict[BasisElement, int] = {}
    for b, c in v.items():
        nb = BasisElement(b.nu, b.class_index, tuple(m * t.p for m in b.w))
        out[nb] = (out.get(nb, 0) + c) % t.p
    return {b: c for b, c in out.items() if c}


@dataclass(frozen=True)
class Profile:
    """Graded profile: one subspace of the multiplicity space for each
    multidegree of the working box (zero subspaces omitted).

    stabilized records whether the assignment depends on the multidegree
    only through its negative support; patterns then hold the common
    subspace per face."""

    assignments: tuple[tuple[MultiDegree, Subspace], ...]
    stabilized: bool
    patterns: tuple[tuple[Face, Subspace], ...]

    @property
    def is_zero(self) -> bool:
        return not self.assignments


def _neg_support(theta: MultiDegree) -> Face:
    return tuple(i for i, v in enumerate(theta) if v < 0)


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


def lattice_points(t: FModuleTruncation) -> tuple[dict[MultiDegree, int], list[MultiDegree]]:
    """Multidegrees of the working box [-pT, 0]^n whose negative support
    carries a summand, with the multiplicity-space dimension at each;
    ordered shallow-first so constraints bind early during search."""
    nus = {nu: m for nu, m in t.summands}
    bound = t.extension_depth
    points: dict[MultiDegree, int] = {}
    for nu, m in nus.items():
        free = [v for v in nu]
        for mags in itertools.product(range(1, bound + 1), repeat=len(free)):
            theta = [0] * t.n_vars
            for v, mag in zip(free, mags):
                theta[v] = -mag
            points[tuple(theta)] = m
    order = sorted(points, key=lambda th: (-sum(th), th))
    return points, order


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


def _profile_builder(order: list[MultiDegree]):
    """Profile from the subspaces listed along order; keys[j] are equal
    exactly when the subspaces are, and decide stabilization.  Faces and
    the sorted multidegrees are worked out once per model."""
    ranked = sorted(range(len(order)), key=order.__getitem__)
    by_face: dict[Face, list[int]] = {}
    for j, theta in enumerate(order):
        by_face.setdefault(_neg_support(theta), []).append(j)
    faces = sorted(by_face.items())

    def build(subspaces: list[Subspace], keys: list) -> Profile:
        nonzero = tuple((order[j], subspaces[j]) for j in ranked if subspaces[j].basis)
        stabilized = all(len({keys[j] for j in block}) == 1 for _, block in faces)
        patterns = ()
        if stabilized:
            patterns = tuple((nu, subspaces[b[0]]) for nu, b in faces if subspaces[b[0]].basis)
        return Profile(nonzero, stabilized, patterns)

    return build


def search_space_size(t: FModuleTruncation) -> int:
    return _profile_count(t.p, lattice_points(t)[0])


def _profile_count(p: int, points: dict[MultiDegree, int]) -> int:
    # one power per multiplicity: a running product of many factors is quadratic
    dims = Counter(points.values())
    return math.prod(num_subspaces(p, m) ** k for m, k in dims.items())


def enumerate_f_stable_submodules(
    t: FModuleTruncation, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, list[Profile]]:
    """Brute-force search over all graded profiles compatible with the
    variable action inside the box and with Frobenius wherever its image
    stays inside the box.  Degrees outside the box are unconstrained,
    so no genuine submodule is ever rejected."""
    points, order = lattice_points(t)
    size = _profile_count(t.p, points)
    if size > cap:
        # str() of an integer past 4300 digits raises
        raise CapacityError(f"profile search space of {size.bit_length()} bits exceeds cap {cap}")
    if not points:
        return 1, [Profile((), True, ())]
    # every constraint is checked at whichever of its two points the
    # search assigns later: there the current index is the source
    # (bounded by the target above) or the target (bounding the source)
    position = {theta: k for k, theta in enumerate(order)}
    above: list[list[int]] = [[] for _ in order]
    below: list[list[int]] = [[] for _ in order]
    for src, tgt in _constraints(t, points):
        if position[src] >= position[tgt]:
            above[position[src]].append(position[tgt])
        else:
            below[position[tgt]].append(position[src])
    dims = [points[theta] for theta in order]
    lattices = {m: subspace_lattice(t.p, m) for m in set(dims)}
    contains = {m: lattice_tables(t.p, m).contains.tolist() for m in set(dims)}
    build = _profile_builder(order)

    profiles: list[Profile] = []
    ids = [0] * len(order)

    def dfs(k: int):
        if k == len(order):
            profiles.append(build([lattices[m][s] for m, s in zip(dims, ids)], ids))
            return
        table = contains[dims[k]]
        for s in range(len(table)):
            if all(table[ids[j]][s] for j in above[k]) and all(
                table[s][ids[j]] for j in below[k]
            ):
                ids[k] = s
                dfs(k + 1)

    dfs(0)
    return len(profiles), profiles


def f_stable_span(t: FModuleTruncation, generators: list[Element]) -> Profile:
    """Smallest graded profile containing the generators and closed under
    the variable action inside the box and under F into the box."""
    points, order = lattice_points(t)
    spans: dict[MultiDegree, Subspace] = {
        theta: Subspace.zero(t.p, m) for theta, m in points.items()
    }

    def vector_of(el: Element) -> tuple[MultiDegree, tuple[int, ...]]:
        degs = {degree_of(b) for b in el}
        if len(degs) != 1:
            raise UnsupportedInputError("generators must be homogeneous")
        theta = degs.pop()
        if theta not in points:
            raise UnsupportedInputError(f"degree {theta} outside the model")
        vec = [0] * points[theta]
        for b, c in el.items():
            vec[b.class_index] = c
        return theta, tuple(vec)

    queue: list[tuple[MultiDegree, tuple[int, ...]]] = []

    def add(theta: MultiDegree, vec: tuple[int, ...]):
        if spans[theta].contains_vector(vec):
            return
        spans[theta] = subspace_sum(
            spans[theta], Subspace.from_vectors(t.p, points[theta], [vec])
        )
        queue.append((theta, vec))

    for g in generators:
        if g:
            add(*vector_of(g))
    while queue:
        theta, vec = queue.pop()
        for j in range(t.n_vars):
            if theta[j] <= -2:
                tgt = tuple(v + 1 if k == j else v for k, v in enumerate(theta))
                if tgt in points:
                    add(tgt, vec)
        if not t.zero_frobenius:
            ptheta = tuple(t.p * v for v in theta)
            if ptheta != theta and ptheta in points:
                add(ptheta, vec)
    subspaces = [spans[theta] for theta in order]
    return _profile_builder(order)(subspaces, subspaces)


class AntiNilpotenceWitness(NamedTuple):
    smaller: Profile
    larger: Profile
    theta: MultiDegree


def check_antinilpotent(
    t: FModuleTruncation, profiles: list[Profile]
) -> tuple[bool, AntiNilpotenceWitness | None]:
    """For every nested pair of the profiles enumerate_f_stable_submodules
    returned, Frobenius must act injectively on the quotient over the box
    interior (the degrees whose image under F stays inside the box).
    The witness is the first failing (smaller, larger, theta) with both
    profiles taken in list order."""
    points, _ = lattice_points(t)
    thetas = list(points)
    column = {theta: k for k, theta in enumerate(thetas)}
    # the tables of every multiplicity present, set block-diagonally: a
    # code is the block's offset plus the index into its lattice
    dims = sorted(set(points.values()))
    blocks = {m: lattice_tables(t.p, m) for m in dims}
    sizes = [len(blocks[m].index) for m in dims]
    offsets = dict(zip(dims, itertools.accumulate(sizes, initial=0)))
    contains = np.zeros((sum(sizes), sum(sizes)), dtype=bool)
    meet = np.zeros((sum(sizes), sum(sizes)), dtype=np.int64)
    for m, size in zip(dims, sizes):
        block = slice(offsets[m], offsets[m] + size)
        contains[block, block] = blocks[m].contains
        meet[block, block] = blocks[m].meet + offsets[m]
    zero = [offsets[points[theta]] for theta in thetas]  # index 0 is the zero subspace
    rows = []
    for profile in profiles:
        row = zero.copy()
        for theta, s in profile.assignments:
            row[column[theta]] += blocks[s.ambient_dim].index[s]
        rows.append(row)
    codes = np.array(rows, dtype=np.int64).reshape(len(profiles), len(thetas))
    interior = [
        k for k, theta in enumerate(thetas) if all(t.p * v >= -t.extension_depth for v in theta)
    ]
    images = [column[tuple(t.p * v for v in thetas[k])] for k in interior]
    for small, code in enumerate(codes):
        nested = contains[codes, code].all(axis=1) & (codes != code).any(axis=1)
        held = codes[nested][:, interior]
        if not t.zero_frobenius:
            # the part of N(theta) that F sends into N'(p*theta)
            held = meet[held, code[images]]
        fails = ~contains[code[interior], held]
        bad = np.flatnonzero(fails.any(axis=1))
        if bad.size:
            large = int(np.flatnonzero(nested)[bad[0]])
            theta = thetas[interior[int(np.argmax(fails[bad[0]]))]]
            return False, AntiNilpotenceWitness(profiles[small], profiles[large], theta)
    return True, None


def adjoin_inverse_variable(t: FModuleTruncation) -> FModuleTruncation:
    """Model of M<x^{-1}> over one extra variable: every summand picks up
    the new vertex, the cohomological index shifts by one, and the new
    variable acts by the same magnitude rules (killing magnitude 1)."""
    new = t.n_vars
    summands = tuple(
        (tuple(sorted(nu + (new,))), m) for nu, m in t.summands
    )
    return FModuleTruncation(t.p, t.n_vars + 1, t.index + 1, t.depth, summands, t.zero_frobenius)


def annihilator_up_to_cap(t: FModuleTruncation, profile: Profile, cap: int) -> MonomialIdeal:
    """Monomial annihilator of the submodule a stabilized profile spans,
    reported up to the given degree cap.

    A monomial x^a acts on a basis element by the magnitude rules, so it
    kills the whole nu-block tail exactly when its support is not
    contained in nu.  For a stabilized profile the annihilator is the
    square-free ideal of supports hitting the complement of every
    nonzero block, truncated to generators of degree at most cap.
    """
    if not profile.stabilized:
        raise UnsupportedInputError(
            "annihilators are reported only for stabilized profiles"
        )
    if not profile.assignments:
        return MonomialIdeal.unit(t.n_vars)
    active = [nu for nu, _ in profile.patterns]
    complements = [
        frozenset(range(t.n_vars)) - frozenset(nu) for nu in active
    ]
    gens = []
    for size in range(0, t.n_vars + 1):
        if size > cap:
            break
        for cand in itertools.combinations(range(t.n_vars), size):
            cs = set(cand)
            if not all(cs & comp for comp in complements):
                continue
            if any(set(g) <= cs for g in gens):
                continue
            gens.append(cand)
    return MonomialIdeal.from_generators(
        t.n_vars, [tuple(1 if i in g else 0 for i in range(t.n_vars)) for g in gens]
    )
