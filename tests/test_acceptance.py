"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL (t s)` line and asserts
exact equality everywhere (no float tolerances anywhere in the package).
Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from lpoly import characters as ch
from lpoly import counting, desing, linalg, polyhedra, randgen, rootsys, subdivisions
from lpoly.cli import main as cli_main
from lpoly.polyhedra import LabelledPolyhedron, label
from conftest import (
    doubled_interval,
    egyptian_pyramid,
    half_interval,
    standard_simplex,
    unit_cube,
    unit_square,
    weighted_triangle,
)

SEED = 2026


def named_polytopes():
    out = [
        ("cube", unit_cube()),
        ("simplex1", standard_simplex(1)),
        ("simplex2", standard_simplex(2)),
        ("simplex3", standard_simplex(3)),
        ("pyramid", egyptian_pyramid()),
        ("wtriangle", weighted_triangle()),
    ]
    return out


def seeded_random_polytopes(count=20):
    rng = random.Random(SEED)
    out = []
    for i in range(count):
        k = (i % 3) + 1
        out.append((f"random{i}", randgen.random_lattice_polytope(rng, k)))
    return out


_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = named_polytopes() + seeded_random_polytopes()
    return _CORPUS


class Timer:
    def __init__(self, number, title, budget):
        self.number = number
        self.title = title
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.title}): {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} overran its {self.budget}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_01_ehrhart_reciprocity():
    with Timer(1, "ehrhart reciprocity", 30):
        for name, P in corpus():
            k = P.body_dim()
            qp, rows = counting.reciprocity_check(P, 6)
            for m, lhs, rhs, ok in rows:
                assert ok, f"{name}: p(-{m}) = {lhs} != {rhs}"
                assert lhs == (-1) ** k * counting.count_points(P, m, "interior")


def test_criterion_02_brion_oracle():
    with Timer(2, "brion oracle", 10):
        rng = random.Random(SEED + 1)
        tested = 0
        for name, P in corpus():
            if not polyhedra.is_simply_laced(P):
                continue
            tested += 1
            expected = {pt: 1 for pt in counting.lattice_points(P, 1)}
            hits = 0
            while hits < 3:
                z = tuple(
                    Fraction(rng.randint(2, 9), rng.choice([1, 1, 3])) for _ in range(P.dim)
                )
                try:
                    got = counting.brion_evaluate(P, z)
                except ValueError:
                    continue
                want = Fraction(0)
                for pt, c in expected.items():
                    term = Fraction(c)
                    for base, e in zip(z, pt):
                        term *= Fraction(base) ** e
                    want += term
                assert got == want, f"{name} at z={z}"
                hits += 1
        assert tested >= 4  # cube, simplices at least


def test_criterion_03_vergne():
    with Timer(3, "vergne example", 1):
        rep = ch.verify_vergne()
        assert rep.ok, rep.render()
        assert cli_main(["verify", "vergne"]) == 0


def test_criterion_04_induction_oracle():
    with Timer(4, "induction functor", 10):
        R = rootsys.root_system("A1")
        for mu in range(-5, 6):
            assert rootsys.induce(R, (mu,)) == _brute_induce(R, (mu,))
        for name in ("A2", "B2"):
            R = rootsys.root_system(name)
            for mu in itertools.product(range(-4, 5), repeat=R.rank):
                assert rootsys.induce(R, mu) == _brute_induce(R, mu)


def _brute_induce(R, mu):
    shifted = tuple(m + r for m, r in zip(mu, R.rho))
    for w, l in zip(R.elements, R.lengths):
        moved = rootsys.act(w, shifted)
        if all(x > 0 for x in moved):
            return ((-1) ** l, tuple(m - r for m, r in zip(moved, R.rho)))
    return (0, None)


def test_criterion_05_reflection_conditions():
    with Timer(5, "reflection conditions", 10):
        for name in ("A1", "A2", "B2"):
            R = rootsys.root_system(name)
            for lam in itertools.product(range(0, 5), repeat=R.rank):
                sigma = rootsys.support_of(lam)
                rho_sigma, w_sigma = rootsys.wall_data(R, sigma)
                lam_rho = tuple(l - 1 for l in lam)
                shifted = tuple(Fraction(l) - 2 * (1 - rs) for l, rs in zip(lam, rho_sigma))
                cond1_w = next(
                    (
                        w
                        for w in R.elements
                        if rootsys.is_dominant(
                            rootsys.affine_action(R, w, tuple(-x for x in lam))
                        )
                    ),
                    None,
                )
                cond2 = rootsys.is_regular(R, lam_rho)
                moved = rootsys.act(w_sigma, lam_rho)
                cond3 = rootsys.is_dominant(moved) and rootsys.is_regular(R, moved)
                cond4 = rootsys.is_dominant(shifted)
                assert (cond1_w is not None) == cond2 == cond3 == cond4
                out = rootsys.reflect(R, lam)
                if cond2:
                    w, result = out
                    assert w == linalg.mat_mul(R.w0, w_sigma)
                    assert tuple(Fraction(x) for x in result) == tuple(
                        rootsys.star(R, shifted)
                    )
                else:
                    assert out is None


def test_criterion_06_euler_and_dual_subdivision():
    with Timer(6, "euler + dual subdivision", 20):
        for name in ("A2", "A3", "B2"):
            R = rootsys.root_system(name)
            for lam in randgen.seeded_dominant_points(R, SEED, 5):
                S = subdivisions.dual_subdivision(R, lam)
                assert len(S.cells) == 3 ** R.rank
                for cell, (sigma, tau) in zip(S.cells, S.walls):
                    assert R.rank - cell.body_dim() == len(tau) - len(sigma)
                rep = subdivisions.validate(S, region="dominant")
                assert rep.ok, f"{name} {lam}: {rep.render()}"
                rep = subdivisions.euler_check(S, 100, seed=SEED, region="dominant")
                assert rep.ok, f"{name} {lam}: {rep.render()}"


def test_criterion_07_gluing_shadow():
    with Timer(7, "gluing shadow", 30):
        rng = random.Random(SEED + 2)
        for i in range(20):
            k = (i % 3) + 1
            delta, S = randgen.random_glue_pair(rng, k)
            rep = subdivisions.glue_count_check(delta, S)
            assert rep.ok, f"pair {i}: {rep.render()}"


def test_criterion_08_toric_rr_matches_enumeration():
    with Timer(8, "toric characters", 10):
        for name, P in corpus():
            zero = tuple(0 for _ in range(P.dim))
            for m in range(0, 6):
                char = counting.toric_rr(P, m)
                if m == 0:
                    assert char == {zero: 1}
                else:
                    assert char == {pt: 1 for pt in counting.lattice_points(P, m)}
                Q = polyhedra.dilate(P, m)
                expected0 = 1 if Q.contains(tuple(Fraction(0) for _ in range(P.dim)), "closed") else 0
                assert char.get(zero, 0) == expected0


def test_criterion_09_clebsch_gordan():
    with Timer(9, "clebsch-gordan", 5):
        for lam in range(0, 7):
            for nu in range(0, 7):
                rep = ch.verify_product_orbits(lam, nu)
                assert rep.ok, rep.render()


def test_criterion_10_quantum_dh():
    with Timer(10, "quantum DH", 10):
        qp, rep = ch.quantum_dh_check(half_interval(), (0,), 12)
        assert rep.ok, rep.render()
        assert qp.period == 2
        assert qp.degree <= 1
        qp, rep = ch.quantum_dh_check(weighted_triangle(), (0, 0), 12)
        assert rep.ok, rep.render()
        assert 2 % qp.period == 0
        assert qp.degree <= 2
        qp, rep = ch.quantum_dh_check(unit_square(), (1, 1), 12)
        assert rep.ok, rep.render()
        assert qp.degree <= 2


def test_criterion_11_arithmetic_genus():
    with Timer(11, "arithmetic genus localization", 5):
        rng = random.Random(SEED + 3)
        for i in range(50):
            k = (i % 3) + 1
            P = randgen.random_lattice_polytope(rng, k)
            xi = randgen.random_generic_direction(rng, P)
            _, count = counting.localized_vertex_multiplicity(P, 1, xi)
            assert count == 1, f"pair {i}"


def test_criterion_12_desingularization():
    with Timer(12, "desingularization", 5):
        trace = desing.canonical_desingularization(egyptian_pyramid())
        assert len(trace.steps) == 1
        result = trace.result
        facets = [f for f in result.face_lattice() if f.dim == 2]
        assert len(facets) == 6
        excesses = {polyhedra.excess(result, f) for f in result.face_lattice()}
        assert excesses == {0}

        non_simple = [
            egyptian_pyramid(),
            doubled_interval(),
            LabelledPolyhedron(2, [label(1, 0, 0), label(0, 1, 0), label(1, 1, 0)]),
            LabelledPolyhedron(3, [
                label(1, 0, 1, 0), label(-1, 0, 1, 0), label(0, 1, 1, 0), label(0, -1, 1, 0),
            ]),
            LabelledPolyhedron(1, [label(1, 0), label(-1, 0)]),
        ]
        for P in non_simple:
            assert not polyhedra.is_simple(P)
            shifted = desing.shift_desingularization(P)
            assert not shifted.is_empty()
            values = {polyhedra.excess(shifted, f) for f in shifted.face_lattice()}
            assert len(values) == 1
            top_dim = shifted.body_dim()
            originals = {lab.v for lab in P.labels}
            for f in shifted.face_lattice():
                if f.dim == top_dim - 1:
                    assert any(shifted.labels[i].v in originals for i in f.tight)
