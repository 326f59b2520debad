"""The element model of the froblab.fmodule truncations, kept for tests.

froblab computes over graded submodules held as codes only.  Here a
basis element is a triple (nu, class_index, w) where w records the
magnitudes of the strictly negative exponents, supported exactly on nu,
and an element is a map from basis elements to nonzero coefficients.
x_j and F act on elements by the rules in the froblab.fmodule docstring,
and f_stable_span closes a set of elements under them inside the box and
returns the code of the span; face_submodel keeps only some face blocks
of a model.  The same rules give two paper features that the froblab
command does not run and the acceptance suite checks: the model of
M<x^{-1}> (adjoin_inverse_variable) and the monomial annihilator of a
submodule (annihilator_up_to_cap).
"""

import itertools
import math
from collections import Counter
from typing import NamedTuple

from box_oracle import neg_support
from colon_oracle import ideal_from_generators
from froblab.errors import UnsupportedInputError
from froblab.fmodule import FModuleTruncation, lattice_points
from froblab.gfp_linalg import num_subspaces, subspace_lattice
from froblab.simplicial import Face
from perp_oracle import contains_vector, subspace_from_vectors, subspace_sum, zero_subspace


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
    """Number of graded profiles of the box, F-stable or not, counted
    over the listed points (froblab counts them from the summands)."""
    # one power per multiplicity: a running product of many factors is quadratic
    dims = Counter(lattice_points(t).values())
    return math.prod(num_subspaces(t.p, m) ** k for m, k in dims.items())


def f_stable_span(t, generators):
    """Code of the smallest graded submodule containing the generators and
    closed under the variable action inside the box and under F into the
    box."""
    points = lattice_points(t)
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
        return theta, tuple(vec)

    queue = []

    def add(theta, vec):
        if contains_vector(spans[theta], vec):
            return
        spans[theta] = subspace_sum(spans[theta], subspace_from_vectors(t.p, points[theta], [vec]))
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
    return tuple(subspace_lattice(t.p, m).index(spans[theta]) for theta, m in points.items())


def face_submodel(t, faces):
    """The sub-model of t spanned by the face blocks of the given faces."""
    kept = {tuple(sorted(nu)) for nu in faces}
    summands = tuple((nu, m) for nu, m in t.summands if nu in kept)
    return FModuleTruncation(t.p, t.n_vars, t.index, t.depth, summands, t.zero_frobenius)


def adjoin_inverse_variable(t):
    """Model of M<x^{-1}> over one extra variable: every summand picks up
    the new vertex, the cohomological index shifts by one, and the new
    variable acts by the same magnitude rules (killing magnitude 1)."""
    new = t.n_vars
    summands = tuple(
        (tuple(sorted(nu + (new,))), m) for nu, m in t.summands
    )
    return FModuleTruncation(t.p, t.n_vars + 1, t.index + 1, t.depth, summands, t.zero_frobenius)


def annihilator_up_to_cap(t, code, cap):
    """Monomial annihilator of the submodule with the given code, which
    must be constant on each face block, reported up to the given degree
    cap.

    A monomial x^a acts on a basis element by the magnitude rules, so it
    kills the whole nu-block tail exactly when its support is not
    contained in nu.  So the annihilator is the square-free ideal of
    supports hitting the complement of every nonzero block, truncated to
    generators of degree at most cap.
    """
    blocks = {}
    for theta, s in zip(lattice_points(t), code):
        blocks.setdefault(neg_support(theta), set()).add(s)
    if any(len(ids) > 1 for ids in blocks.values()):
        raise UnsupportedInputError(
            "annihilators are reported only for codes constant on each face block"
        )
    active = [nu for nu, ids in blocks.items() if ids != {0}]
    if not active:
        return ideal_from_generators(t.n_vars, [(0,) * t.n_vars])
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
    return ideal_from_generators(
        t.n_vars, [tuple(1 if i in g else 0 for i in range(t.n_vars)) for g in gens]
    )
