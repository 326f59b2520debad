"""Small helpers that only the tests use: the minimal primes of a
square-free monomial ideal, prime and irrelevant ideals, the standard
Frobenius splitting of a polynomial ring and the containment check
built on it, the sum of polynomials, the entries of a decomposition
table and lookups into them and into reduced cohomology, Reisner's link
condition by one link at a time, the Krull dimension of a face ring, links,
cones and relabelings of complexes, the homology and Euler
characteristic routes that cross-check reduced cohomology, and faces,
the table of face tuples that froblab.simplicial.face_masks replaced."""

import itertools

from box_oracle import coboundary_matrix
from colon_oracle import contains_ideal, ideal_from_generators, monomial_ideal_sum
from corpus import make_complex
from dense_oracle import row_echelon
from froblab.errors import UnsupportedInputError
from froblab.gfp_linalg import check_prime
from froblab.polyfp import PolynomialFp
from froblab.simplicial import SimplicialComplex, face_masks, facet_masks, link_cohomology, mask_vertices


def is_squarefree(ideal):
    return all(all(e <= 1 for e in g) for g in ideal.generators)


def is_unit(ideal):
    return any(not any(g) for g in ideal.generators)


def squarefree_minimal_primes(ideal):
    """Minimal primes of a square-free monomial ideal, each as a sorted
    tuple of variable indices (minimal hitting sets of the generator
    supports).  The unit ideal has none."""
    if not is_squarefree(ideal):
        raise UnsupportedInputError("ideal is not square-free")
    if is_unit(ideal):
        return ()
    if ideal.is_zero:
        return ((),)
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in ideal.generators]
    hits = []
    for size in range(0, ideal.n_vars + 1):
        for cand in itertools.combinations(range(ideal.n_vars), size):
            cs = set(cand)
            if all(cs & s for s in supports) and not any(set(h) <= cs for h in hits):
                hits.append(cand)
    return tuple(sorted(hits))


def standard_monomial_splitting(r):
    """The F_p-linear Frobenius splitting of a polynomial ring: keep the
    terms whose exponents are all divisible by p, dividing them by p.
    Satisfies T(s^p r) = s T(r)."""
    out = {}
    for m, c in r.terms:
        if all(e % r.p == 0 for e in m):
            out[tuple(e // r.p for e in m)] = c
    return PolynomialFp.make(r.p, r.n_vars, out)


def splitting_containment_check(i, p, j):
    """Finite generating check that the standard splitting T maps the
    p-th-root image of j back into j, modulo the nonface ideal i.

    Verifies T(g * x^a) in j + I_Delta for every generator g of j and
    every exponent vector a with all entries below p; by the
    T(s^p r) = s T(r) law this covers the whole module.
    Requires I_Delta to be contained in j.
    """
    if not contains_ideal(j, i):
        raise ValueError("j must contain the nonface ideal")
    target = monomial_ideal_sum(j, i)
    for g in j.generators:
        for a in itertools.product(range(p), repeat=i.n_vars):
            m = tuple(e + x for e, x in zip(g, a))
            split = standard_monomial_splitting(PolynomialFp.monomial(p, m))
            if not all(target.contains_monomial(t) for t, _ in split.terms):
                return False
    return True


def poly_sum(p, n, polys):
    """The sum of the polynomials polys in n variables over F_p."""
    out = {}
    for g in polys:
        for m, c in g.terms:
            out[m] = out.get(m, 0) + c
    return PolynomialFp.make(p, n, out)


def table_entries(table):
    """The entries (i, nu, m) of a decomposition table {(i, nu mask): m},
    nu as a vertex tuple, sorted by (i, nu): the table as the references
    read it."""
    return tuple(sorted((i, mask_vertices(nu), m) for (i, nu), m in table.items()))


def by_index(table, i):
    """The summands {nu: multiplicity} of H^i in a decomposition table,
    nu as a vertex tuple."""
    return {nu: m for ei, nu, m in table_entries(table) if ei == i}


def reisner_by_links(c, p):
    """Reisner's link condition by one reduced cohomology per face: the
    link of nu, of dimension max |F - nu| - 1 over the facets F containing
    nu, has cohomology only there.  The per-link loop that
    local_cohomology.reisner_cm_condition replaced by reading the table."""
    facets = facet_masks(c)
    for nus in face_masks(c)[0].values():
        for nu in nus:
            top = max((f ^ nu).bit_count() for f in facets if f & nu == nu) - 1
            if any(j < top for j, _ in link_cohomology(c, p, nu)):
                return False
    return True


def dim_at(dims, j):
    """Dimension in degree j of the reduced cohomology dims of a complex."""
    return dict(dims).get(j, 0)


def krull_dim(c):
    """Krull dimension of the face ring of c."""
    return c.dim + 1


def prime_to_ideal(n_vars, variables):
    gens = [tuple(1 if i == v else 0 for i in range(n_vars)) for v in variables]
    return ideal_from_generators(n_vars, gens)


def irrelevant_ideal(n_vars):
    return prime_to_ideal(n_vars, tuple(range(n_vars)))


def cone(c):
    """Add a fresh apex vertex to every facet."""
    apex = c.n_vertices
    if c.is_void:
        return SimplicialComplex(apex + 1, ((apex,),))
    return make_complex(apex + 1, [f + (apex,) for f in c.facets])


def link(c, sigma):
    """link(sigma) as a complex of its own: the sets F - sigma over the
    facets F containing sigma, normalized; void when sigma is no face."""
    s = set(sigma)
    return make_complex(c.n_vertices, [set(f) - s for f in c.facets if s <= set(f)])


def relabel(c, perm):
    """Apply a vertex permutation (perm[v] = new label)."""
    return make_complex(c.n_vertices, [tuple(perm[v] for v in f) for f in c.facets])


def is_cone_complex(c):
    if c.is_void or not c.facets[0]:
        return False
    common = set(range(c.n_vertices))
    for f in c.facets:
        common &= set(f)
    return bool(common)


def faces(c):
    """All faces as vertex tuples grouped by dimension, including () at
    dimension -1, each dimension sorted: every subset of every facet."""
    if c.is_void:
        return {}
    seen = set()
    for f in c.facets:
        for k in range(len(f) + 1):
            seen.update(itertools.combinations(f, k))
    out = {}
    for s in seen:
        out.setdefault(len(s) - 1, []).append(s)
    return {d: tuple(sorted(fs)) for d, fs in sorted(out.items())}


def boundary_homology_dims(c, p):
    """Reduced homology dimensions via boundary-matrix ranks (cross-check route)."""
    check_prime(p)
    fs = faces(c)
    # boundary of (j+1)-chains: the transposed coboundary
    ranks = {
        j: len(row_echelon(zip(*coboundary_matrix(fs[j], fs.get(j + 1, ()), p)), p)[1])
        for j in fs
    }
    out = {}
    for j in sorted(fs):
        h = (len(fs[j]) - ranks.get(j - 1, 0)) - ranks[j]
        if h:
            out[j] = h
    return out


def euler_characteristic_faces(c):
    """Alternating face count including the empty face with sign -1."""
    return sum((-1) ** d * len(fs) for d, fs in faces(c).items())
