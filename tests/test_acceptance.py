"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its time budget.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines."""

import itertools
import time

import pytest

from box_oracle import graded_dim
from colon_oracle import monomial_ideal_intersection
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
from antinil_oracle import antinilpotent_by_pairs, decode
from element_model import adjoin_inverse_variable, annihilator_up_to_cap, face_submodel
from helpers import (
    cone,
    irrelevant_ideal,
    is_squarefree,
    prime_to_ideal,
    splitting_containment_check,
    squarefree_minimal_primes,
)
from froblab.fmodule import build_truncation, check_antinilpotent, enumerate_f_stable_submodules
from froblab.hypersurface import f_injective_top, fedder_fpure_principal, make_hypersurface
from froblab.local_cohomology import depth_and_cm, fh_count, oracle_box_check
from froblab.polyfp import parse_polynomial
from froblab.stanley_reisner import nonface_ideal


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
                agree, mismatches = oracle_box_check(c, p, -3, 1)
                assert mismatches == [], (c, p, mismatches[:3])
        for c in (CROSS_POLYTOPE_8, TWO_BOUNDARY_4):
            agree, mismatches = oracle_box_check(c, 3, -3, 1)
            assert mismatches == [] and agree == 5**c.n_vertices * (c.dim + 2)


def test_criterion_4_reisner_criterion():
    with Budget("4 (Reisner criterion)", 5):
        assert depth_and_cm(RP2, 3) == (3, 3, True)
        depth2, dim2, cm2 = depth_and_cm(RP2, 2)
        assert (dim2, cm2) == (3, False)
        assert depth_and_cm(TWO_EDGES, 2)[:2] == (1, 2)
        assert depth_and_cm(TWO_EDGES, 3)[:2] == (1, 2)


def test_criterion_5_fh_count_brute_force():
    with Budget("5 (FH-count brute force)", 30):
        t = build_truncation(TWO_POINTS, 2, 1, 2)
        count, _ = enumerate_f_stable_submodules(t)
        assert count == 8 == fh_count(TWO_POINTS, 2, 1)
        line = build_truncation(POINT, 2, 1, 3)
        count2, _ = enumerate_f_stable_submodules(line)
        assert count2 == 2 == fh_count(POINT, 2, 1)


CORPUS_MODELS = [
    ("two points H^1", lambda: build_truncation(TWO_POINTS, 2, 1, 2)),
    ("one-variable H^1", lambda: build_truncation(POINT, 2, 1, 3)),
    ("segment H^2", lambda: build_truncation(cone(POINT), 2, 2, 2)),
    ("two edges H^1", lambda: build_truncation(TWO_EDGES, 2, 1, 2)),
    ("two points H^1 (p=3)", lambda: build_truncation(TWO_POINTS, 3, 1, 1)),
    (
        "triangle H^2 restricted",
        lambda: face_submodel(build_truncation(TRIANGLE, 2, 2, 2), [(), (0,), (1,)]),
    ),
]


def test_criterion_6_anti_nilpotence():
    with Budget("6 (anti-nilpotence)", 30):
        for name, make in CORPUS_MODELS:
            t = make()
            assert check_antinilpotent(t, enumerate_f_stable_submodules(t)[1]), name
        fixture = build_truncation(POINT, 2, 1, 2, zero_frobenius=True)
        codes = enumerate_f_stable_submodules(fixture)[1]
        assert not check_antinilpotent(fixture, codes)
        ok, witness = antinilpotent_by_pairs(fixture, [decode(fixture, code) for code in codes])
        assert not ok and witness is not None


def test_criterion_7_inverse_variable_adjunction():
    with Budget("7 (inverse-variable adjunction)", 60):
        adj = adjoin_inverse_variable(build_truncation(POINT, 2, 1, 2))
        count, _ = enumerate_f_stable_submodules(adj)
        assert count == 2
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
        for complex_, model in ((TWO_POINTS, build_truncation(TWO_POINTS, 2, 1, 2)),
                                (POINT, build_truncation(POINT, 2, 1, 3))):
            cap = model.p * model.depth
            _, profiles = enumerate_f_stable_submodules(model)
            anns = []
            for prof in profiles:
                ann = annihilator_up_to_cap(model, prof, cap)
                assert is_squarefree(ann)
                anns.append(ann)
            for a in anns:
                for b in anns:
                    assert monomial_ideal_intersection(a, b) in anns
                for prime in squarefree_minimal_primes(a):
                    pid = prime_to_ideal(model.n_vars, prime)
                    assert pid.is_zero or pid in anns


def test_criterion_9_splitting_containment():
    with Budget("9 (splitting containment)", 10):
        for c in acceptance_corpus():
            if c.n_vertices == 0:
                continue
            i = nonface_ideal(c)
            candidates = [i, irrelevant_ideal(c.n_vertices)]
            candidates += [
                prime_to_ideal(c.n_vertices, prime)
                for prime in squarefree_minimal_primes(i)
            ]
            for j in candidates:
                assert splitting_containment_check(i, 2, j), (c, j)
