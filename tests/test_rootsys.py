import itertools
from fractions import Fraction

import pytest

from lpoly import linalg, rootsys
from lpoly.polyhedra import LabelledPolyhedron, label
from lpoly.rootsys import (
    affine_action,
    act,
    dual_support_bound,
    induce,
    is_dominant,
    principal_wall,
    reflect,
    root_system,
    star,
    wall_data,
    walls,
    weyl_dimension,
    weyl_group,
)
from oracles import root_system_by_inverses, wall_data_by_search

ALL_TYPES = ["A1", "A2", "A3", "B2", "G2"]


def test_group_orders():
    expected = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "G2": 12}
    for name, order in expected.items():
        R = root_system(name)
        elems = weyl_group(R)
        assert len(elems) == order
        assert elems[0][1] == 0
        assert max(l for _, l in elems) == len(R.positive_roots)


def test_max_lengths():
    maxlen = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "G2": 6}
    for name, l in maxlen.items():
        R = root_system(name)
        assert R.lengths[R.w0_index] == l


def test_unsupported_type():
    with pytest.raises(ValueError):
        root_system("F4")


def test_affine_action_examples():
    R = root_system("A1")
    ident = R.elements[0]
    s = R.simple_reflections[0]
    assert affine_action(R, ident, (5,)) == (5,)
    assert affine_action(R, s, (0,)) == (-2,)


def test_affine_action_is_group_action():
    for name in ("A2", "B2"):
        R = root_system(name)
        box = range(-3, 4)
        mus = list(itertools.product(box, repeat=R.rank))[:20]
        for w1 in R.elements:
            for w2 in R.elements:
                prod = linalg.mat_mul(w1, w2)
                for mu in mus:
                    assert affine_action(R, prod, mu) == affine_action(
                        R, w1, affine_action(R, w2, mu)
                    )


def brute_induce(R, mu):
    """Oracle: scan the whole group for a strictly dominant shift."""
    shifted = tuple(m + r for m, r in zip(mu, R.rho))
    for w, l in weyl_group(R):
        moved = act(w, shifted)
        if all(x > 0 for x in moved):
            return ((-1) ** l, tuple(m - r for m, r in zip(moved, R.rho)))
    return (0, None)


def test_induce_a1_examples():
    R = root_system("A1")
    assert induce(R, (3,)) == (1, (3,))
    assert induce(R, (-1,)) == (0, None)
    assert induce(R, (-3,)) == (-1, (1,))


def test_induce_matches_brute_force():
    """Integer weights out to +-8 below rank 3 and +-4 for A3, and
    half-integer ``Fraction`` weights."""
    for name in ALL_TYPES:
        R = root_system(name)
        rng = range(-8, 9) if R.rank <= 2 else range(-4, 5)
        halves = [Fraction(n, 2) for n in (range(-5, 6) if R.rank <= 2 else (-3, -1, 0, 1, 3))]
        for mu in [*itertools.product(rng, repeat=R.rank),
                   *itertools.product(halves, repeat=R.rank)]:
            assert induce(R, mu) == brute_induce(R, mu)


def test_reflection_closures_match_inverse_search():
    """Every field (elements, lengths, simple reflections, positive roots with
    their coroot pairings, w0_index, rho) and the wall data of every wall
    equal those of the inverse-search construction."""
    for name in ALL_TYPES:
        R, want = root_system(name), root_system_by_inverses(name)
        assert vars(R) == vars(want)
        for sigma in walls(R):
            assert wall_data(R, sigma) == wall_data_by_search(R, sigma)


def test_induce_zero_iff_stabilized():
    for name in ("A1", "A2", "B2"):
        R = root_system(name)
        for mu in itertools.product(range(-5, 6), repeat=R.rank):
            shifted = tuple(m + r for m, r in zip(mu, R.rho))
            stabilized = any(
                act(w, shifted) == tuple(shifted)
                for w, l in weyl_group(R)
                if l > 0
            )
            assert (induce(R, mu)[0] == 0) == stabilized


def test_star():
    A1 = root_system("A1")
    assert star(A1, (5,)) == (5,)
    A2 = root_system("A2")
    assert star(A2, (1, 0)) == (0, 1)
    for name in ALL_TYPES:
        R = root_system(name)
        assert star(R, tuple(0 for _ in range(R.rank))) == tuple(0 for _ in range(R.rank))
        for mu in itertools.product(range(0, 3), repeat=R.rank):
            out = star(R, mu)
            assert is_dominant(out)
            assert star(R, out) == tuple(mu)


def test_wall_data():
    A2 = root_system("A2")
    rho_sigma, w_sigma = wall_data(A2, frozenset())
    assert rho_sigma == (1, 1)
    assert w_sigma == A2.w0
    rho_sigma, w_sigma = wall_data(A2, frozenset({0, 1}))
    assert rho_sigma == (0, 0)
    assert w_sigma == A2.elements[0]
    rho_sigma, _ = wall_data(A2, frozenset({0}))
    diff = tuple(1 - x for x in rho_sigma)
    assert diff == (Fraction(3, 2), 0)


def test_reflect_a1():
    R = root_system("A1")
    out = reflect(R, (2,))
    assert out is not None
    w, result = out
    assert w == R.w0
    assert result == (0,)
    assert reflect(R, (1,)) is None


def test_reflect_a2_lambda1():
    R = root_system("A2")
    assert reflect(R, (1, 0)) is None


def test_reflect_rejects_non_dominant():
    with pytest.raises(ValueError):
        reflect(root_system("A2"), (-1, 0))


def brute_reflect_exists(R, lam):
    for w, l in weyl_group(R):
        if is_dominant(affine_action(R, w, tuple(-x for x in lam))):
            return w
    return None


def test_reflect_conditions_equivalent():
    for name in ("A1", "A2", "B2"):
        R = root_system(name)
        for lam in itertools.product(range(0, 5), repeat=R.rank):
            sigma = rootsys.support_of(lam)
            rho_sigma, w_sigma = wall_data(R, sigma)
            lam_rho = tuple(l - 1 for l in lam)
            cond1 = brute_reflect_exists(R, lam) is not None
            cond2 = rootsys.is_regular(R, lam_rho)
            cond3_vec = act(w_sigma, lam_rho)
            cond3 = is_dominant(cond3_vec) and rootsys.is_regular(R, cond3_vec)
            cond4 = is_dominant(tuple(Fraction(l) - 2 * (1 - rs)
                                      for l, rs in zip(lam, rho_sigma)))
            assert cond1 == cond2 == cond3 == cond4
            out = reflect(R, lam)
            if cond1:
                w, result = out
                assert w == brute_reflect_exists(R, lam)
                expected = star(
                    R, tuple(Fraction(l) - 2 * (1 - rs) for l, rs in zip(lam, rho_sigma))
                )
                assert tuple(Fraction(x) for x in result) == tuple(expected)
            else:
                assert out is None


def test_principal_wall():
    A2 = root_system("A2")
    assert principal_wall(A2, [(0, 0)]) == frozenset()
    assert principal_wall(A2, [(2, 0), (3, 0)]) == frozenset({0})
    assert principal_wall(A2, [(1, 0), (0, 1)]) == frozenset({0, 1})
    with pytest.raises(ValueError):
        principal_wall(A2, [(-1, 0)])


def test_walls_count():
    for name in ALL_TYPES:
        R = root_system(name)
        assert len(walls(R)) == 2 ** R.rank


def test_rho_sigma_extremes():
    for name in ALL_TYPES:
        R = root_system(name)
        rho_sigma, w = wall_data(R, frozenset(range(R.rank)))
        assert all(x == 0 for x in rho_sigma)
        assert w == R.elements[0]
        rho_sigma, w = wall_data(R, frozenset())
        assert tuple(rho_sigma) == tuple(Fraction(1) for _ in range(R.rank))
        assert w == R.w0


def test_weyl_dimension():
    A1 = root_system("A1")
    assert weyl_dimension(A1, (3,)) == 4
    A2 = root_system("A2")
    assert weyl_dimension(A2, (1, 0)) == 3
    assert weyl_dimension(A2, (1, 1)) == 8
    B2 = root_system("B2")
    assert weyl_dimension(B2, (0, 0)) == 1


def test_coroot_pairing_stays_exact():
    """Integer weights pair in ``int``, rational ones in ``Fraction``, and
    the Weyl dimension is an exact ``int``."""
    for name in ("A2", "B2", "G2", "A3"):
        R = root_system(name)
        for mu in itertools.product(range(-2, 3), repeat=R.rank):
            pairs = [rootsys.coroot_pairing(a, mu) for a in R.positive_roots]
            assert all(type(p) is int for p in pairs)
            want = [sum(Fraction(p) * m for p, m in zip(a.coroot_pairing, mu))
                    for a in R.positive_roots]
            assert pairs == want
            assert rootsys.is_regular(R, mu) == all(w != 0 for w in want)
            half = tuple(Fraction(m, 2) for m in mu)
            assert [rootsys.coroot_pairing(a, half) for a in R.positive_roots] == [
                w / 2 for w in want]
            if is_dominant(mu):
                dim = weyl_dimension(R, mu)
                assert type(dim) is int and dim >= 1
    assert weyl_dimension(root_system("G2"), (1, 0)) == 7


def point_polytope(coords):
    k = len(coords)
    labs = []
    for i in range(k):
        e = [0] * k
        e[i] = 1
        labs.append(label(*e, coords[i]))
        labs.append(label(*[-x for x in e], -Fraction(coords[i])))
    return LabelledPolyhedron(k, labs)


def test_dual_support_bound_a1():
    R = root_system("A1")
    assert dual_support_bound(R, point_polytope((2,)), (0,))
    interval = LabelledPolyhedron(1, [label(1, 0), label(-1, -4)])
    assert dual_support_bound(R, interval, (1,))
    assert not dual_support_bound(R, point_polytope((0,)), (1,))
    assert dual_support_bound(R, point_polytope((0,)), (0,))
