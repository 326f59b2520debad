"""The element model of the window of H^i_m(K[Delta]), kept for tests.

froblab.fmodule counts families of subspaces and never holds an
element.  Here a basis element is a triple (nu, class_index, w): w
records the magnitudes of the strictly negative exponents, supported
exactly on nu, and class_index picks a basis class of the block of nu in
the cocycle basis of the Čech-map oracle (tests/cech_map_oracle.py).  An
element maps basis elements to nonzero coefficients.  x_j and F act by
the true action: x_j kills an element of the block of nu for j outside
nu, lowers the magnitude w_j by one above 1, and at magnitude 1 maps the
block of nu into that of nu - {j} by the oracle's phi; F scales every
magnitude by p and fixes the class, or is the zero map in the
zero-Frobenius fixture.

A model is a complex, a prime, an index and a depth T: its basis holds
the magnitudes [1, T]^nu, and f_stable_span closes a set of elements
under x and F inside the window [1, pT]^nu and returns the family it
spans, one Subspace per point.  The same rules give two paper features
that the froblab command does not run and the acceptance suite checks:
the model of M<x^{-1}> (adjoin_inverse_variable, the model of the cone)
and the monomial annihilator of a submodule (annihilator_up_to_cap).
"""

import itertools
import math
from collections import Counter
from typing import NamedTuple

from cech_map_oracle import phi
from colon_oracle import ideal_from_generators
from helpers import cone, table_entries
from froblab.errors import UnsupportedInputError
from froblab.fmodule import num_subspaces
from froblab.local_cohomology import decomposition
from froblab.simplicial import Face, SimplicialComplex, vertex_mask
from perp_oracle import contains_vector, subspace_from_vectors, subspace_sum, zero_subspace


class Truncation(NamedTuple):
    c: SimplicialComplex
    p: int
    index: int
    depth: int
    zero_frobenius: bool = False

    @property
    def n_vars(self):
        return self.c.n_vertices

    @property
    def summands(self):
        """(nu, multiplicity) of the nonzero blocks, nu as a vertex tuple."""
        return tuple((nu, m) for i, nu, m in table_entries(decomposition(self.c, self.p)) if i == self.index)

    @property
    def extension_depth(self):
        return self.p * self.depth


def build_truncation(c, p, i, depth, zero_frobenius=False):
    if i < 0 or i > c.dim + 1:
        raise ValueError(f"index {i} out of range [0, {c.dim + 1}]")
    if depth < 1:
        raise ValueError("depth bound must be positive")
    return Truncation(c, p, i, depth, zero_frobenius)


class BasisElement(NamedTuple):
    nu: Face
    class_index: int
    w: tuple[int, ...]  # magnitudes of the negative exponents; support == nu


Element = dict[BasisElement, int]


def basis(t):
    """Window basis of the truncation t: magnitudes in [1, T]."""
    out = []
    for nu, m in t.summands:
        for w_on_nu in itertools.product(range(1, t.depth + 1), repeat=len(nu)):
            w = [0] * t.n_vars
            for v, mag in zip(nu, w_on_nu):
                w[v] = mag
            for k in range(m):
                out.append(BasisElement(nu, k, tuple(w)))
    return sorted(out)


def window_points(t):
    """The multidegrees of the window [-pT, -1]^nu of each block, with
    the dimension of the block."""
    points = {}
    for nu, m in t.summands:
        for mags in itertools.product(range(1, t.extension_depth + 1), repeat=len(nu)):
            theta = [0] * t.n_vars
            for v, mag in zip(nu, mags):
                theta[v] = -mag
            points[tuple(theta)] = m
    return points


def degree_of(b):
    return tuple(-m for m in b.w)


def apply_x(t, j, v):
    """Multiplication by x_j, extended linearly."""
    out = {}
    for b, c in v.items():
        if j not in b.nu:
            continue
        w = list(b.w)
        w[j] -= 1
        if w[j]:
            images = [(BasisElement(b.nu, b.class_index, tuple(w)), 1)]
        else:
            row = phi(t.c, t.p, t.index, vertex_mask(b.nu), j)[b.class_index]
            nu = tuple(v for v in b.nu if v != j)
            images = [(BasisElement(nu, k, tuple(w)), a) for k, a in enumerate(row) if a]
        for nb, a in images:
            out[nb] = (out.get(nb, 0) + a * c) % t.p
    return {b: c for b, c in out.items() if c}


def apply_monomial(t, exponents, v):
    """Multiplication by x^exponents, one variable step at a time."""
    out = v
    for j, e in enumerate(exponents):
        for _ in range(e):
            out = apply_x(t, j, out)
    return out


def apply_F(t, v):
    """Frobenius: magnitudes scale by p, coefficients are fixed (prime field)."""
    if t.zero_frobenius:
        return {}
    out = {}
    for b, c in v.items():
        nb = BasisElement(b.nu, b.class_index, tuple(m * t.p for m in b.w))
        out[nb] = (out.get(nb, 0) + c) % t.p
    return {b: c for b, c in out.items() if c}


def search_space_size(t):
    """Number of graded profiles of the window, F-stable or not."""
    # one power per multiplicity: a running product of many factors is quadratic
    dims = Counter(window_points(t).values())
    return math.prod(num_subspaces(t.p, m) ** k for m, k in dims.items())


def f_stable_span(t, generators):
    """The smallest family of the window containing the generators and
    closed under x and F wherever their images stay in the window, as
    {theta: Subspace} over every point of the window."""
    points = window_points(t)
    spans = {theta: zero_subspace(t.p, m) for theta, m in points.items()}

    def vector_of(el):
        degs = {degree_of(b) for b in el}
        if len(degs) != 1:
            raise UnsupportedInputError("generators must be homogeneous")
        theta = degs.pop()
        if theta not in points:
            raise UnsupportedInputError(f"degree {theta} outside the model")
        vec = [0] * points[theta]
        for b, c in el.items():
            vec[b.class_index] = c
        return theta, vec

    queue = []

    def add(el):
        theta, vec = vector_of(el)
        if not contains_vector(spans[theta], vec):
            spans[theta] = subspace_sum(spans[theta], subspace_from_vectors(t.p, points[theta], [vec]))
            queue.append(el)

    for g in generators:
        if g:
            add(g)
    while queue:
        el = queue.pop()
        for image in [apply_x(t, j, el) for j in range(t.n_vars)] + [apply_F(t, el)]:
            if image and degree_of(next(iter(image))) in points:
                add(image)
    return spans


def on_points(t, family):
    """A family of the Čech-map oracle, {face mask: Subspace}, spread over
    the points of the window."""
    return {
        theta: family[vertex_mask(v for v, x in enumerate(theta) if x)]
        for theta in window_points(t)
    }


def is_block_constant(family):
    """Whether the family {theta: Subspace} depends on theta only through
    its negative support."""
    by_nu = {}
    for theta, s in family.items():
        by_nu.setdefault(tuple(v for v, x in enumerate(theta) if x), set()).add(s)
    return all(len(s) == 1 for s in by_nu.values())


def adjoin_inverse_variable(t):
    """Model of M<y^{-1}> over one extra variable y: H^{i+1} of the cone,
    whose blocks are those of M with the apex added."""
    return build_truncation(cone(t.c), t.p, t.index + 1, t.depth, t.zero_frobenius)


def annihilator_up_to_cap(t, family, cap):
    """Monomial annihilator of the submodule whose window family is given,
    which must be constant on each block, with generators of degree at
    most cap in each variable, cap below pT.

    Every element of such a submodule is x^a times an element at the
    deepest point of its block, magnitudes pT, so x^a kills the
    submodule when it kills the basis vectors there; with exponents below
    pT they never leave the block.
    """
    if not is_block_constant(family):
        raise UnsupportedInputError("annihilators are reported only for families constant on each face block")
    if cap >= t.extension_depth:
        raise ValueError("cap must lie below the window depth pT")
    deepest = []
    for theta, s in family.items():
        if all(x in (0, -t.extension_depth) for x in theta):
            nu = tuple(v for v, x in enumerate(theta) if x)
            w = tuple(-x for x in theta)
            deepest += [{BasisElement(nu, k, w): a for k, a in enumerate(row) if a} for row in s.basis]
    killing = [
        a
        for a in itertools.product(range(cap + 1), repeat=t.n_vars)
        if not any(apply_monomial(t, a, el) for el in deepest)
    ]
    return ideal_from_generators(t.n_vars, killing)
