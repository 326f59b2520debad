"""Pins of the Čech-map oracle (tests/cech_map_oracle.py): its blocks are
the decomposition table, its point-level and face-level listings agree,
and its counts are those of the known cases, Katzman's count on the
boundary of a simplex among them.  froblab.fmodule's counts are checked
against it in tests/test_fmodule.py."""

import math

import pytest

from cech_map_oracle import PointModel, block, closed_families, coboundary, phi
from corpus import POINT, TRIANGLE, TWO_EDGES, TWO_POINTS, WEDGE, boundary_facets, make_complex
from katzman_oracle import katzman_count
from froblab.fmodule import num_subspaces
from froblab.local_cohomology import decomposition
from froblab.simplicial import face_masks

PATH = make_complex(3, [(0, 1), (1, 2)])
SQUARE = make_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def faces_of(c):
    return [nu for masks in face_masks(c)[0].values() for nu in masks]


@pytest.mark.parametrize("p", [2, 3])
def test_blocks_are_the_table_with_cocycle_bases(p):
    for c in (TWO_POINTS, PATH, SQUARE, TRIANGLE, TWO_EDGES, WEDGE):
        table = decomposition(c, p)
        for nu in faces_of(c):
            for i in range(c.dim + 2):
                b = block(c, p, i, nu)
                assert b.dim == table.get((i, nu), 0), (c, i, nu)
                above = [m for m in face_masks(c)[0].get(i + 1, ()) if m & nu == nu]
                matrix = coboundary(list(b.faces), above, p)
                for k, z in enumerate(b.cocycles):
                    assert not any(sum(a * x for a, x in zip(z, row)) % p for row in matrix)
                    assert b.coordinates(b.cocycle(k)) == [int(j == k) for j in range(b.dim)]


def test_wedge_maps_are_all_nonzero():
    pairs = [
        (nu, j)
        for nu in faces_of(WEDGE)
        for j in range(5)
        if nu >> j & 1 and block(WEDGE, 2, 2, nu).dim and block(WEDGE, 2, 2, nu & ~(1 << j)).dim
    ]
    assert len(pairs) == 17
    assert all(any(any(row) for row in phi(WEDGE, 2, 2, nu, j)) for nu, j in pairs)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "c, i, count",
    [(TWO_POINTS, 1, 5), (PATH, 2, 5), (SQUARE, 2, 48), (TWO_EDGES, 1, 2), (TWO_EDGES, 2, 4)],
    ids=["two-points-H1", "path-H2", "square-H2", "two-edges-H1", "two-edges-H2"],
)
def test_face_level_counts(c, i, count, p):
    assert len(closed_families(c, p, i)) == count


@pytest.mark.parametrize("p, count", [(2, 925), (3, 1302)])
def test_wedge_count(p, count):
    assert len(closed_families(WEDGE, p, 2)) == count


@pytest.mark.parametrize("p", [2, 3])
def test_two_edges_have_no_nonzero_map_and_keep_the_block_count(p):
    for i in (1, 2):
        blocks = [m for (ei, _), m in decomposition(TWO_EDGES, p).items() if ei == i]
        assert len(closed_families(TWO_EDGES, p, i)) == math.prod(num_subspaces(p, m) for m in blocks)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3])
def test_simplex_boundary_matches_katzman(n, p):
    # K[boundary of the (n-1)-simplex] = F_p[x0..x_{n-1}]/(x0...x_{n-1})
    c = make_complex(n, boundary_facets(n - 1))
    assert len(closed_families(c, p, n - 1)) == katzman_count(n, p, top=1)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("c, i", [(TWO_POINTS, 1), (PATH, 2)], ids=["two-points", "path"])
def test_point_level_count_is_the_face_level_count(c, i, p):
    model = PointModel(c, p, i)
    families = model.families()
    assert len(families) == len(closed_families(c, p, i)) == 5
    # the submodules are constant on each block, so F is injective on
    # every quotient of two of them
    assert model.antinilpotent(families)


@pytest.mark.parametrize("p", [2, 3])
def test_zero_frobenius_fixture_is_not_antinilpotent(p):
    # H^1 of F_p[x0]: with F the identity on the face basis the two
    # submodules 0 and the whole module; with F zero every x-closed
    # family of the box, and F kills a nonzero quotient
    true_f = PointModel(POINT, p, 1)
    assert len(true_f.families()) == 2 and true_f.antinilpotent(true_f.families())
    zero_f = PointModel(POINT, p, 1, zero_frobenius=True)
    assert len(zero_f.families()) == p + 1
    assert not zero_f.antinilpotent(zero_f.families())
