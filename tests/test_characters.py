import itertools
import random

import pytest

from lpoly import characters as ch
from lpoly.characters import (
    FixedPointDatum,
    decompose,
    expand,
    multiply,
    multiply_G,
    quantum_dh_check,
    toric_moment_data,
    verify_decomposition_toric,
    verify_dual_toric,
    verify_product_orbits,
    vertex_multiplicity,
    weight_polytope,
    weyl_character,
)
from lpoly.counting import localized_vertex_multiplicity
from lpoly.rootsys import act, root_system, weyl_dimension
from conftest import egyptian_pyramid, half_interval, segment, unit_square, weighted_triangle


def test_weyl_character_a1():
    R = root_system("A1")
    assert weyl_character(R, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}
    assert weyl_character(R, (0,)) == {(0,): 1}


def test_weyl_character_a2_fundamental():
    R = root_system("A2")
    chi = weyl_character(R, (1, 0))
    assert len(chi) == 3
    assert all(v == 1 for v in chi.values())
    assert (1, 0) in chi


def test_weyl_character_adjoint_a2():
    R = root_system("A2")
    chi = weyl_character(R, (1, 1))
    assert sum(chi.values()) == 8
    assert chi[(0, 0)] == 2


def test_weyl_character_dimensions():
    for name in ("A1", "A2", "B2"):
        R = root_system(name)
        for mu in itertools.product(range(0, 5), repeat=R.rank):
            chi = weyl_character(R, mu)
            assert sum(chi.values()) == weyl_dimension(R, mu)


def test_weyl_character_invariance():
    for name in ("A2", "B2", "G2"):
        R = root_system(name)
        chi = weyl_character(R, tuple(1 for _ in range(R.rank)))
        for w in R.simple_reflections:
            moved = {act(w, e): c for e, c in chi.items()}
            assert moved == chi


def test_decompose_examples():
    R = root_system("A1")
    assert decompose(R, {(1,): 1, (0,): 1, (-1,): 1}) == {(1,): 1, (0,): 1}
    chi3 = weyl_character(R, (3,))
    assert decompose(R, chi3) == {(3,): 1}
    A2 = root_system("A2")
    assert decompose(A2, {(-1, -1): 1}) == {}


def test_decompose_expand_roundtrip_random():
    rng = random.Random(3)
    for name in ("A1", "A2", "B2"):
        R = root_system(name)
        for _ in range(8):
            g = {}
            for _ in range(rng.randint(1, 4)):
                mu = tuple(rng.randint(0, 3) for _ in range(R.rank))
                g[mu] = rng.randint(-2, 2)
            g = ch.clean(g)
            assert decompose(R, expand(R, g)) == g


def test_multiply_unit_and_clebsch_gordan():
    R = root_system("A1")
    chi1 = weyl_character(R, (1,))
    assert multiply(chi1, {(0,): 1}) == chi1
    assert multiply_G(R, {(1,): 1}, {(1,): 1}) == {(2,): 1, (0,): 1}
    A2 = root_system("A2")
    assert multiply_G(A2, {(1, 0): 1}, {(0, 1): 1}) == {(1, 1): 1, (0, 0): 1}


def test_weight_polytope_from_character():
    R = root_system("A1")
    chi = weyl_character(R, (2,))
    verts, P = weight_polytope(1, chi)
    assert verts == [(-2,), (2,)]
    rigid = [FixedPointDatum((0,), ((1,),)), FixedPointDatum((0,), ((-1,),))]
    verts, _ = weight_polytope(1, rigid)
    assert verts == [(0,)]


def test_weight_polytope_toric_matches_polytope():
    P = egyptian_pyramid()
    data = toric_moment_data(P)
    verts, hullP = weight_polytope(3, data)
    assert sorted(verts) == sorted(tuple(v) for v in P.vertices())


def test_vertex_multiplicity_segment():
    data = toric_moment_data(segment(0, 2))
    assert vertex_multiplicity(data, (0,), (1,)) == 1
    assert vertex_multiplicity(data, (2,), (-1,)) == 1


def test_vertex_multiplicity_rigid_matches_localized():
    P = unit_square()
    rigid = [
        FixedPointDatum((0, 0), d.normal_weights, d.rr)
        for d in toric_moment_data(P)
    ]
    for xi in ((1, 2), (-1, 3), (2, -5)):
        assert vertex_multiplicity(rigid, (0, 0), xi) == 1
        _, count = localized_vertex_multiplicity(P, 1, xi)
        assert count == 1


def test_vertex_multiplicity_dual_zero():
    data = toric_moment_data(segment(0, 2), dual=True)
    # sigmas are {0, -2}; mu=0 is a vertex; xi=-1 isolates it
    assert vertex_multiplicity(data, (0,), (-1,)) == 0


def test_vertex_multiplicity_moment_data_random():
    # moment-bundle data of a lattice polytope: the localized count at the
    # minimizing vertex must reproduce the multiplicity 1 seen by enumeration
    import random

    from lpoly import linalg, randgen

    rng = random.Random(29)
    for i in range(12):
        k = (i % 3) + 1
        P = randgen.random_lattice_polytope(rng, k)
        data = toric_moment_data(P)
        xi = randgen.random_generic_direction(rng, P)
        values = [(linalg.dot(d.sigma, xi), d.sigma) for d in data]
        values.sort(key=lambda t: t[0])
        if len(values) > 1 and values[0][0] == values[1][0]:
            continue  # tie at the minimum: xi does not isolate a vertex
        mu = values[0][1]
        assert vertex_multiplicity(data, mu, xi) == 1


def test_vertex_multiplicity_errors():
    data = toric_moment_data(segment(0, 2))
    with pytest.raises(ValueError):
        vertex_multiplicity(data, (1,), (1,))  # not a vertex
    with pytest.raises(ValueError):
        vertex_multiplicity(data, (0,), (0,))  # degenerate direction


def test_verify_decomposition_toric():
    assert verify_decomposition_toric(unit_square(), 3).ok
    assert verify_decomposition_toric(egyptian_pyramid(), 2).ok
    rep = verify_decomposition_toric(half_interval(), 1)
    assert rep.ok


def test_verify_dual_toric():
    assert verify_dual_toric(segment(0, 2), 1).ok
    assert verify_dual_toric(unit_square(), 1).ok
    assert verify_dual_toric(unit_square(), 2).ok
    assert verify_dual_toric(weighted_triangle(), 3).ok


def test_verify_product_orbits():
    rep = verify_product_orbits(1, 1)
    assert rep.ok
    assert verify_product_orbits(3, 0).ok
    assert verify_product_orbits(2, 1).ok
    for lam in range(0, 7):
        for nu in range(0, 7):
            assert verify_product_orbits(lam, nu).ok


def test_quantum_dh_half_interval():
    qp, rep = quantum_dh_check(half_interval(), (0,), 12)
    assert rep.ok
    assert qp.period == 2
    assert qp.degree <= 1


def test_quantum_dh_square_interior_ray():
    qp, rep = quantum_dh_check(unit_square(), (1, 1), 8)
    assert rep.ok
    assert qp.degree == 2
    assert qp.period == 1


def test_quantum_dh_weighted_triangle():
    qp, rep = quantum_dh_check(weighted_triangle(), (0, 0), 12)
    assert rep.ok
    assert 2 % qp.period == 0
    assert qp.degree == 2


def test_quantum_dh_rejects_outside_point():
    with pytest.raises(ValueError):
        quantum_dh_check(unit_square(), (5, 5), 4)


def test_format_characters():
    out = ch.format_tcharacter({(1, 0): 2, (-1, 2): -1})
    assert out.splitlines() == ["-1\t-1 2", "2\t1 0"]


def test_laurent_division_check_survives_optimize_flag():
    """A non-exact Laurent division raises InvariantError even under ``python -O``."""
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    code = textwrap.dedent("""
        from lpoly import InvariantError, characters
        from lpoly.rootsys import root_system
        R = root_system("A1")
        real = characters.alternating_sum
        # a Weyl denominator with leading coefficient 2 divides nothing exactly
        characters.alternating_sum = lambda R, nu: (
            {(1,): 2} if tuple(nu) == tuple(R.rho) else real(R, nu))
        try:
            characters.weyl_character(R, (1,))
        except InvariantError as e:
            print(e)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "non-exact laurent division"
