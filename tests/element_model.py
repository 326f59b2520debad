"""The element model of the froblab.fmodule truncations, kept for tests.

froblab computes over graded submodules held as codes only.  Here a
basis element is a triple (nu, class_index, w) where w records the
magnitudes of the strictly negative exponents, supported exactly on nu,
and an element is a map from basis elements to nonzero coefficients.
x_j and F act on elements by the rules in the froblab.fmodule docstring,
and f_stable_span closes a set of elements under them inside the box and
returns the code of the span.
"""

import itertools
from typing import NamedTuple

from froblab.errors import UnsupportedInputError
from froblab.fmodule import _profile_count, lattice_points, lattice_tables
from froblab.gfp_linalg import Subspace, subspace_sum
from froblab.simplicial import Face


class BasisElement(NamedTuple):
    nu: Face
    class_index: int
    w: tuple[int, ...]  # magnitudes of the negative exponents; support == nu


Element = dict[BasisElement, int]


def basis(t):
    """Window basis of the truncation t."""
    out = []
    for nu, m in t.summands:
        for w_on_nu in itertools.product(range(1, t.depth + 1), repeat=len(nu)):
            w = [0] * t.n_vars
            for v, mag in zip(nu, w_on_nu):
                w[v] = mag
            for k in range(m):
                out.append(BasisElement(nu, k, tuple(w)))
    return sorted(out)


def degree_of(b):
    return tuple(-m for m in b.w)


def apply_x(t, j, v):
    """Multiplication by x_j, extended linearly."""
    out = {}
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
    """Number of graded profiles of the box, F-stable or not."""
    return _profile_count(t.p, lattice_points(t))


def f_stable_span(t, generators):
    """Code of the smallest graded submodule containing the generators and
    closed under the variable action inside the box and under F into the
    box."""
    points = lattice_points(t)
    spans = {theta: Subspace.zero(t.p, m) for theta, m in points.items()}

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
        return theta, tuple(vec)

    queue = []

    def add(theta, vec):
        if spans[theta].contains_vector(vec):
            return
        spans[theta] = subspace_sum(spans[theta], Subspace.from_vectors(t.p, points[theta], [vec]))
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
    return tuple(lattice_tables(t.p, m).index[spans[theta]] for theta, m in points.items())
