"""The Čech-map oracle: graded F-stable submodules of H^i_m(K[Delta])
counted from the maps between face blocks, kept in tests only.

In a degree theta <= 0 with negative support nu, the localization
complex is the cochain complex C_nu of the faces sigma containing nu,
sigma in degree |sigma|, with the coboundary sign of
froblab.simplicial.cochain_dims.  For j in nu, C_nu is a subcomplex of
C_{nu - j}, and multiplication by x_j from theta_j = -1 is that
inclusion; phi_{nu,j} is the map it induces on H^i.  Inside a block x
and F are the identity on the face basis, so a graded F-stable
submodule is constant on each block, and the graded F-stable
submodules of H^i are the families (U_nu), U_nu a subspace of
H^i(C_nu), with phi_{nu,j}(U_nu) inside U_{nu - j}.

Block is H^i(C_nu) with a cocycle basis, phi the matrix of phi_{nu,j},
and closed_families lists the families face by face, largest face
first.  PointModel builds the complex and every map of x and F at each
point of the box {-p, ..., 0}^n instead; its families are the
point-level count, which equals the face-level one only if the
submodules are constant on each block.  With zero_frobenius, F is the
zero map, the fixture on which anti-nilpotence fails.

The coboundary is box_oracle.coboundary_matrix read on face masks, and
kernels, spans and containment are those of perp_oracle.

froblab.fmodule builds the same blocks and maps from
froblab.simplicial.coboundary_rows and counts the families as the
down-sets of the order of its nonzero maps, branching over the subspace
lattice of each block of multiplicity above 1; this listing of Subspace
records (perp_oracle.lattice) is the reference its counts are checked
against.  window_count runs a search on subspace-lattice indices,
_count_families, on one node per point of a window of multidegrees
instead of one per block, with fmodule's maps phi: its agreement with
the face count checks the step from points to blocks, not phi.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

from box_oracle import coboundary_matrix
from dense_oracle import row_echelon
from perp_oracle import (
    contains_vector,
    kernel_basis,
    lattice,
    lattice_contains,
    subspace_contains,
    subspace_from_vectors,
)
from froblab import fmodule
from froblab.errors import CapacityError
from froblab.gfp_linalg import DEFAULT_ENUM_CAP
from froblab.local_cohomology import decomposition
from froblab.simplicial import face_masks, mask_vertices

EXACT_SIZE_BITS = 2**17  # the largest search space multiplied out, in bits


def coboundary(src, tgt, p):
    """box_oracle.coboundary_matrix on the face masks src and tgt: rows
    indexed by tgt, columns by src."""
    return coboundary_matrix([mask_vertices(m) for m in src], [mask_vertices(m) for m in tgt], p)


def holds(space, vectors):
    """Whether the Subspace space holds every one of vectors."""
    return all(contains_vector(space, v) for v in vectors)


def image(rows, matrix, p):
    """The rows r @ matrix."""
    return [[sum(a * b for a, b in zip(r, col)) % p for col in zip(*matrix)] for r in rows]


def preimage(rows, matrix, target, p):
    """A spanning set of the vectors u in the span of rows with
    u @ matrix in the span of target: the combinations of the images
    that reduce to zero modulo target, read off the tagged echelon."""
    width = len(matrix[0])
    tagged = [list(t) + [0] * len(rows) for t in target]
    tagged += [w + [int(k == j) for k in range(len(rows))] for j, w in enumerate(image(rows, matrix, p))]
    echelon, pivots = row_echelon(tagged, p)
    coeffs = [r[width:] for r, c in zip(echelon, pivots) if c >= width]
    return [[sum(a * u[x] for a, u in zip(co, rows)) % p for x in range(len(rows[0]))] for co in coeffs]


class Block:
    """H^i(C_nu) for the face mask nu: the faces of size i that contain
    nu, the coboundaries out of size i - 1, and cocycles whose classes
    form a basis of the cohomology."""

    def __init__(self, c, p, i, nu):
        by_size = face_masks(c)[0]
        below, faces, above = ([m for m in by_size.get(k, ()) if m & nu == nu] for k in (i - 1, i, i + 1))
        self.p = p
        self.faces = {m: k for k, m in enumerate(faces)}
        # the coboundaries are the columns of the matrix out of size i - 1
        self.boundaries = row_echelon(list(zip(*coboundary(below, faces, p))), p)[0]
        self.cocycles = []
        for z in kernel_basis(coboundary(faces, above, p), p, len(faces)).basis:
            if not contains_vector(subspace_from_vectors(p, len(faces), self.boundaries + self.cocycles), z):
                self.cocycles.append(list(z))
        # the boundaries and cocycles are independent: tag each with its index
        basis = self.boundaries + self.cocycles
        tagged = [v + [int(k == j) for k in range(len(basis))] for j, v in enumerate(basis)]
        self._solved = list(zip(*row_echelon(tagged, p, reduced=True)))

    @property
    def dim(self):
        return len(self.cocycles)

    def cocycle(self, k):
        """The k-th basis cocycle as {face mask: coefficient}."""
        return {m: a for m, a in zip(self.faces, self.cocycles[k]) if a}

    def coordinates(self, cochain):
        """The class of the cocycle {face mask: coefficient}, whose faces
        must be faces of this block, in the basis of the cocycles."""
        n = len(self.faces)
        w = [0] * (n + len(self.boundaries) + self.dim)
        for m, a in cochain.items():
            w[self.faces[m]] = a % self.p
        for row, col in self._solved:
            f = w[col]
            if f:
                w = [(a - f * b) % self.p for a, b in zip(w, row)]
        if any(w[:n]):
            raise ValueError("not a cocycle of this block")
        # w = cochain - sum of the tagged rows with coefficients -w[n:]
        return [-a % self.p for a in w[n + len(self.boundaries) :]]


@lru_cache(maxsize=None)
def block(c, p, i, nu):
    return Block(c, p, i, nu)


def phi(c, p, i, nu, j):
    """Rows: the images in H^i(C_{nu - j}) of the basis classes of
    H^i(C_nu) under the inclusion of C_nu."""
    src, tgt = block(c, p, i, nu), block(c, p, i, nu & ~(1 << j))
    return [tgt.coordinates(src.cocycle(k)) for k in range(src.dim)]


def closed_families(c, p, i):
    """The families (U_nu) closed under every phi_{nu,j}, listed face by
    face, largest face first, each as {face mask: Subspace}; a face
    whose block is zero is left out."""
    by_size = face_masks(c)[0]
    faces = [nu for k in sorted(by_size, reverse=True) for nu in by_size[k] if block(c, p, i, nu).dim]
    into = {nu: [] for nu in faces}
    for nu in faces:
        for j in range(nu.bit_length()):
            if nu >> j & 1 and nu & ~(1 << j) in into:
                into[nu & ~(1 << j)].append((nu, phi(c, p, i, nu, j)))

    def extend(k, chosen):
        if k == len(faces):
            yield dict(chosen)
            return
        nu = faces[k]
        need = [row for src, m in into[nu] for row in image(chosen[src].basis, m, p)]
        for u in lattice(p, block(c, p, i, nu).dim):
            if holds(u, need):
                chosen[nu] = u
                yield from extend(k + 1, chosen)
                del chosen[nu]

    return list(extend(0, {}))


class PointModel:
    """H^i over the box {-p, ..., 0}^n, each point with the complex of
    its negative support built at the point, and the maps of x_j
    (theta to theta + e_j) and of F (theta to p * theta) between the
    points of the box whose blocks are nonzero, each read off the face
    basis: F is the identity there, or zero with zero_frobenius."""

    def __init__(self, c, p, i, zero_frobenius=False):
        self.p = p
        blocks = {}
        for theta in itertools.product(range(-p, 1), repeat=c.n_vertices):
            b = Block(c, p, i, sum(1 << v for v, t in enumerate(theta) if t < 0))
            if b.dim:
                blocks[theta] = b
        # the largest negative support first, and in a block the points nearest 0
        self.points = sorted(blocks, key=lambda t: (-sum(x < 0 for x in t), [x < 0 for x in t], -sum(t), t))
        self.dims = {t: blocks[t].dim for t in self.points}

        def carried(a, b, scale):
            return [[scale * x for x in blocks[b].coordinates(blocks[a].cocycle(k))] for k in range(self.dims[a])]

        self.x_maps, self.f_maps = [], []
        for a in self.points:
            for j, t in enumerate(a):
                b = a[:j] + (t + 1,) + a[j + 1 :]
                if t < 0 and b in blocks:
                    self.x_maps.append((a, b, carried(a, b, 1)))
            b = tuple(p * t for t in a)
            if b != a and b in blocks:
                self.f_maps.append((a, b, carried(a, b, 0 if zero_frobenius else 1)))

    def families(self):
        """Every family (U_theta) with each map carrying U_a into U_b, as
        {theta: Subspace}; each map is checked at its later point."""
        order = {t: k for k, t in enumerate(self.points)}
        checks = {t: [] for t in self.points}
        for a, b, m in self.x_maps + self.f_maps:
            checks[max(a, b, key=order.get)].append((a, b, m))

        def extend(k, chosen):
            if k == len(self.points):
                yield dict(chosen)
                return
            theta = self.points[k]
            for u in lattice(self.p, self.dims[theta]):
                chosen[theta] = u
                if all(holds(chosen[b], image(chosen[a].basis, m, self.p)) for a, b, m in checks[theta]):
                    yield from extend(k + 1, chosen)
            del chosen[theta]

        return list(extend(0, {}))

    def antinilpotent(self, families):
        """Whether F is injective on N / N' for every pair N' inside N of
        the families: at every theta with p * theta in the box, the u in
        N(theta) with F(u) in N'(p * theta) lie in N'(theta)."""
        p = self.p
        for big, small in itertools.permutations(families, 2):
            if all(subspace_contains(big[t], small[t]) for t in self.points):
                for a, b, m in self.f_maps:
                    if big[a].dim and not holds(small[a], preimage(big[a].basis, m, small[b].basis, p)):
                        return False
        return True


@lru_cache(maxsize=None)
def _phi_images(c, p, i, nu, j):
    """The lattice index of the image under phi_{nu,j} of every entry of
    the subspace lattice of H^i(C_nu)."""
    matrix = fmodule.phi(c, p, i, nu, j)
    target = fmodule.subspace_lattice(p, len(fmodule.block(c, p, i, nu & ~(1 << j))[2]))
    index = {basis: k for k, basis in enumerate(target)}
    out = []
    for basis in fmodule.subspace_lattice(p, len(matrix)):
        rows = [[sum(a * b for a, b in zip(r, col)) for col in zip(*matrix)] for r in basis]
        out.append(index[tuple(map(tuple, row_echelon(rows, p, reduced=True)[0]))])
    return out


def _check_cap(p, multiplicities, cap):
    """Raise CapacityError when the search space, num_subspaces(p, m) to
    the power k for each multiplicity m of k nodes, exceeds cap.  The
    leading bit of each factor bounds the size's bits from below; a bound
    past the cap and past EXACT_SIZE_BITS refuses without multiplying."""
    factors = [(fmodule.num_subspaces(p, m), k) for m, k in multiplicities.items()]
    low = sum(k * (g.bit_length() - 1) for g, k in factors) + 1
    if low > max(cap.bit_length(), EXACT_SIZE_BITS):
        raise CapacityError(f"profile search space of at least {low} bits exceeds cap {cap}")
    # one power per multiplicity: a running product of many factors is quadratic
    size = math.prod(g**k for g, k in factors)
    if size > cap:
        # str() of an integer past 4300 digits raises
        raise CapacityError(f"profile search space of {size.bit_length()} bits exceeds cap {cap}")


def _count_families(p, dims, edges):
    """Number of families (U_k), U_k an entry of subspace_lattice(p,
    dims[k]), with every edge (a, b, image) carrying U_a into U_b, image[s]
    being the lattice index of the image of entry s of node a.  Each edge
    is checked at whichever end the search assigns later."""
    checks = [[] for _ in dims]
    for a, b, image in edges:
        checks[max(a, b)].append((a, b, image))
    ids = [0] * len(dims)

    def dfs(k):
        if k == len(dims):
            return 1
        count = 0
        for ids[k] in range(len(fmodule.subspace_lattice(p, dims[k]))):
            if all(lattice_contains(p, dims[b], ids[b], image[ids[a]]) for a, b, image in checks[k]):
                count += dfs(k + 1)
        return count

    return dfs(0)


def window_count(c, p, i, depth, cap=DEFAULT_ENUM_CAP):
    """Number of graded submodules of the window of H^i closed under x and
    F inside it: one node per point of [-pT, -1]^nu of each nonzero block,
    T the depth, block by block from the largest face and magnitudes
    ascending within a block; x_j steps inside a block by the identity,
    phi_{nu,j} at exponent -1, and F by the identity wherever p*theta
    stays in the window.  The search space is checked against cap first;
    the search helpers are read at call time, so a patched one is called."""
    bound = p * depth
    blocks = [(nu, m) for (ei, nu), m in decomposition(c, p).items() if ei == i]
    blocks.sort(key=lambda b: (-b[0].bit_count(), b[0]))
    sizes = Counter()
    for nu, m in blocks:
        sizes[m] += bound ** nu.bit_count()
    _check_cap(p, sizes, cap)
    points = {}
    dims, support = [], []
    for nu, m in blocks:
        verts = mask_vertices(nu)
        for mags in itertools.product(range(1, bound + 1), repeat=len(verts)):
            theta = [0] * c.n_vertices
            for v, mag in zip(verts, mags):
                theta[v] = -mag
            points[tuple(theta)] = len(dims)
            dims.append(m)
            support.append(nu)
    edges = []
    for theta, a in points.items():
        nu, same = support[a], range(len(fmodule.subspace_lattice(p, dims[a])))
        for j, t in enumerate(theta):
            b = points.get(theta[:j] + (t + 1,) + theta[j + 1 :]) if t < 0 else None
            if b is not None:
                edges.append((a, b, same if t < -1 else _phi_images(c, p, i, nu, j)))
        b = points.get(tuple(p * t for t in theta))
        if nu and b is not None:
            edges.append((a, b, same))
    return _count_families(p, dims, edges)
