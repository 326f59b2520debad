"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its time budget.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines."""

import itertools
import time

import pytest

from box_oracle import graded_dim
from colon_oracle import monomial_ideal_intersection, nonface_monomial_ideal
from corpus import (
    CROSS_POLYTOPE_8,
    POINT,
    RP2,
    TRIANGLE,
    TWO_BOUNDARY_4,
    TWO_EDGES,
    TWO_POINTS,
    acceptance_corpus,
)
from cech_map_oracle import PointModel, closed_families, window_count
from element_model import annihilator_up_to_cap, build_truncation, on_points
from helpers import (
    cone,
    irrelevant_ideal,
    is_squarefree,
    prime_to_ideal,
    splitting_containment_check,
    squarefree_minimal_primes,
)
from froblab.errors import CapacityError
from froblab.fmodule import face_count
from froblab.hypersurface import f_injective_top, fedder_fpure_principal, make_hypersurface
from froblab.local_cohomology import decomposition, depth_and_cm, oracle_box_check
from froblab.polyfp import parse_polynomial


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and elapsed >= self.seconds:
            raise AssertionError(
                f"criterion {self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def fermat(p):
    return make_hypersurface(parse_polynomial("x0^3 + x1^3 + x2^3", p))


def test_criterion_1_fermat_f_injectivity():
    with Budget("1 (Fermat cubic F-injectivity)", 5):
        for p in (7, 13):
            assert f_injective_top(fermat(p), 1) is True
        for p in (2, 5, 11):
            assert f_injective_top(fermat(p), 1) is False


def test_criterion_2_fedder_consistency():
    with Budget("2 (Fedder/Fermat consistency)", 5):
        for p in (2, 5, 7, 11, 13):
            h = fermat(p)
            assert fedder_fpure_principal(h) == f_injective_top(h, 1)


def test_criterion_3_graded_oracle_equivalence():
    with Budget("3 (graded oracle equivalence)", 60):
        for c in acceptance_corpus():
            for p in (2, 3):
                agree, disagree = oracle_box_check(c, p)
                assert disagree == 0, (c, p, disagree)
        for c in (CROSS_POLYTOPE_8, TWO_BOUNDARY_4):
            agree, disagree = oracle_box_check(c, 3)
            assert disagree == 0 and agree == 5**c.n_vertices * (c.dim + 2)


def test_criterion_4_reisner_criterion():
    with Budget("4 (Reisner criterion)", 5):
        assert depth_and_cm(RP2, 3) == (3, 3, True)
        depth2, dim2, cm2 = depth_and_cm(RP2, 2)
        assert (dim2, cm2) == (3, False)
        assert depth_and_cm(TWO_EDGES, 2)[:2] == (1, 2)
        assert depth_and_cm(TWO_EDGES, 3)[:2] == (1, 2)


def test_criterion_5_fh_count_brute_force():
    with Budget("5 (FH-count brute force)", 30):
        # the face count and the window search of two points and of a line
        assert face_count(TWO_POINTS, 2, 1) == window_count(TWO_POINTS, 2, 1, 2) == 5
        assert face_count(POINT, 2, 1) == window_count(POINT, 2, 1, 3) == 2


# name, complex, prime, index, window depth
CORPUS_MODELS = [
    ("two points H^1", TWO_POINTS, 2, 1, 2),
    ("one-variable H^1", POINT, 2, 1, 3),
    ("segment H^2", cone(POINT), 2, 2, 2),
    ("two edges H^1", TWO_EDGES, 2, 1, 2),
    ("two points H^1 (p=3)", TWO_POINTS, 3, 1, 1),
    ("triangle H^2", TRIANGLE, 2, 2, 1),
]


def test_criterion_6_anti_nilpotence():
    with Budget("6 (anti-nilpotence)", 30):
        for name, c, p, i, _ in CORPUS_MODELS:
            model = PointModel(c, p, i)
            assert model.antinilpotent(model.families()), name
        fixture = PointModel(POINT, 2, 1, zero_frobenius=True)
        assert not fixture.antinilpotent(fixture.families())


def test_criterion_7_inverse_variable_adjunction():
    with Budget("7 (inverse-variable adjunction)", 60):
        # H^{i+1} of the cone is M<y^{-1}> for M = H^i: the same number of
        # F-stable submodules, wherever the count fits under the cap
        for c in acceptance_corpus():
            if c.n_vertices > 4:
                continue
            k = cone(c)
            for p in (2, 3):
                for i in sorted({e[0] for e in decomposition(c, p)}):
                    try:
                        count = face_count(c, p, i)
                    except CapacityError:
                        continue
                    assert face_count(k, p, i + 1) == count, (c, p, i)
        # cone law on the graded Hilbert functions over the box
        for c in acceptance_corpus():
            if c.n_vertices > 4:
                continue
            k = cone(c)
            apex_range = range(-3, 2)
            for p in (2, 3):
                for theta in itertools.product(range(-3, 2), repeat=c.n_vertices):
                    for i in range(0, c.dim + 2):
                        base = graded_dim(c, p, i, theta)
                        for last in apex_range:
                            lifted = graded_dim(k, p, i + 1, theta + (last,))
                            assert lifted == (base if last < 0 else 0)


def test_criterion_8_radical_annihilators():
    with Budget("8 (radical annihilators)", 30):
        for c, i in ((TWO_POINTS, 1), (POINT, 1), (TRIANGLE, 2)):
            model = build_truncation(c, 2, i, 2)
            anns = []
            for family in closed_families(c, 2, i):
                ann = annihilator_up_to_cap(model, on_points(model, family), model.extension_depth - 1)
                assert is_squarefree(ann)
                anns.append(ann)
            for a in anns:
                for b in anns:
                    assert monomial_ideal_intersection(a, b) in anns
                for prime in squarefree_minimal_primes(a):
                    pid = prime_to_ideal(c.n_vertices, prime)
                    assert pid.is_zero or pid in anns


def test_criterion_9_splitting_containment():
    with Budget("9 (splitting containment)", 10):
        for c in acceptance_corpus():
            if c.n_vertices == 0:
                continue
            i = nonface_monomial_ideal(c)
            candidates = [i, irrelevant_ideal(c.n_vertices)]
            candidates += [
                prime_to_ideal(c.n_vertices, prime)
                for prime in squarefree_minimal_primes(i)
            ]
            for j in candidates:
                assert splitting_containment_check(i, 2, j), (c, j)
