import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpoly import randgen
from lpoly._kernels import _floor_sum, count_box, scan_box
from lpoly.counting import (
    QuasiPolynomial,
    brion_evaluate,
    count_points,
    ehrhart_fit,
    lattice_points,
    localized_vertex_multiplicity,
    reciprocity_check,
    toric_rr,
    vertex_denominator_lcm,
)
from lpoly.polyhedra import LabelledPolyhedron, Label, dilate, label
from conftest import (
    doubled_interval,
    egyptian_pyramid,
    half_interval,
    segment,
    standard_simplex,
    unit_cube,
    unit_square,
    weighted_triangle,
)


def brute_count(P, m, region="closed"):
    """Independent oracle: fraction-arithmetic membership over the box."""
    import math

    Q = dilate(P, m)
    verts = Q.vertices()
    if not verts:
        return []
    lo = [math.ceil(min(v[c] for v in verts)) for c in range(Q.dim)]
    hi = [math.floor(max(v[c] for v in verts)) for c in range(Q.dim)]
    import itertools

    out = []
    for mu in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if Q.contains(tuple(Fraction(x) for x in mu), region):
            out.append(mu)
    return out


def test_count_cube():
    assert count_points(unit_cube(), 2) == 27


def test_count_pyramid():
    P = egyptian_pyramid()
    assert count_points(P, 1) == 10
    assert sorted(lattice_points(P, 1)) == sorted(brute_count(P, 1))


def test_count_interval_interior():
    assert count_points(segment(0, 2), 1, "interior") == 1


def test_count_unbounded_rejected():
    P = LabelledPolyhedron(1, [label(1, 0)])
    with pytest.raises(ValueError):
        count_points(P, 1)


def test_count_matches_oracle_random():
    rng = random.Random(5)
    from lpoly.hull import hull_of_points

    done = 0
    while done < 10:
        k = rng.randint(1, 3)
        pts = [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(k + 3)]
        P, _ = hull_of_points(k, pts)
        if P.is_empty():
            continue
        done += 1
        for m in range(0, 4):
            assert sorted(lattice_points(P, m)) == sorted(brute_count(P, m))
            assert sorted(lattice_points(P, m, "interior")) == sorted(
                brute_count(P, m, "interior")
            )


def test_toric_rr_basics():
    seg = segment(0, 1)
    assert toric_rr(seg, 1) == {(0,): 1, (1,): 1}
    assert toric_rr(seg, 0) == {(0,): 1}
    # one interior point of [0,2], dimension 1 gives sign -1
    assert toric_rr(segment(0, 2), -1) == {(-1,): -1}
    # unit square has no interior points; its double has one
    assert toric_rr(unit_square(), -1) == {}
    assert toric_rr(unit_square(), -2) == {(-1, -1): 1}


def test_toric_rr_term_counts():
    for P in (unit_square(), egyptian_pyramid(), half_interval()):
        for m in range(0, 4):
            assert len(toric_rr(P, m)) == (1 if m == 0 else count_points(P, m))
        for m in range(1, 4):
            assert len(toric_rr(P, -m)) == count_points(P, m, "interior")


def test_toric_rr_dilation_consistency():
    for P in (unit_square(), weighted_triangle(), half_interval()):
        for m in range(1, 5):
            assert toric_rr(P, m) == toric_rr(dilate(P, m), 1)


def test_toric_rr_lower_dimensional_sign():
    # a segment sitting inside the plane: the sign uses its own dimension
    P = LabelledPolyhedron(2, [
        label(0, 1, 0), label(0, -1, 0), label(1, 0, 0), label(-1, 0, -2),
    ])
    assert P.body_dim() == 1
    assert toric_rr(P, 1) == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    assert toric_rr(P, -1) == {(-1, 0): -1}


def test_ehrhart_triangle():
    qp = ehrhart_fit(standard_simplex(2), 8)
    assert qp.period == 1
    assert qp.degree == 2
    for m in range(0, 9):
        assert qp(m) == (m + 1) * (m + 2) // 2


def test_ehrhart_half_interval():
    qp = ehrhart_fit(half_interval(), 10)
    assert qp.period == 2
    assert qp.degree == 1
    for m in range(0, 11):
        assert qp(m) == m // 2 + 1


def test_ehrhart_weighted_triangle():
    P = weighted_triangle()
    assert vertex_denominator_lcm(P) == 1
    qp = ehrhart_fit(P, 8)
    assert 2 % qp.period == 0
    for m in range(0, 9):
        assert qp(m) == (m + 1) ** 2


def test_ehrhart_m_max_too_small():
    with pytest.raises(ValueError):
        ehrhart_fit(half_interval(), 2)


def test_ehrhart_label_multiplicity_invariance():
    P = weighted_triangle()
    doubled = LabelledPolyhedron(2, [
        Label((2, 0), Fraction(0), weighted=True),
        P.labels[1],
        P.labels[2],
    ])
    a = ehrhart_fit(P, 8)
    b = ehrhart_fit(doubled, 8)
    assert a == b


def test_reciprocity_cube():
    qp, rows = reciprocity_check(unit_cube(), 6)
    assert all(ok for (_, _, _, ok) in rows)
    for m in range(1, 7):
        assert qp(-m) == -((m - 1) ** 3)
        assert qp(m) == (m + 1) ** 3


def test_reciprocity_pyramid_and_half_interval():
    for P in (egyptian_pyramid(), half_interval(), weighted_triangle()):
        _, rows = reciprocity_check(P, 6)
        assert all(ok for (_, _, _, ok) in rows)
    qp, _ = reciprocity_check(half_interval(), 1)
    assert qp(-1) == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_reciprocity_and_fit_on_random_polytopes(seed, k, full_dim):
    """On hulls of random lattice points every reciprocity row up to m = 4
    holds, and the Ehrhart fit over its smallest window predicts the count
    at three dilates past that window."""
    P = randgen.random_lattice_polytope(random.Random(seed), k, full_dim=full_dim)
    _, rows = reciprocity_check(P, 4)
    assert [m for m, *_ in rows] == [1, 2, 3, 4]
    assert all(ok for *_, ok in rows), rows
    window = vertex_denominator_lcm(P) * (P.body_dim() + 1) - 1
    qp = ehrhart_fit(P)
    for m in (window + 1, window + 2, window + 5):
        assert qp(m) == count_points(P, m)


def test_brion_interval():
    assert brion_evaluate(segment(0, 1), (3,)) == 4


def test_brion_square():
    assert brion_evaluate(unit_square(), (2, 3)) == 12


def test_brion_triangle():
    P = LabelledPolyhedron(2, [label(1, 0, 0), label(0, 1, 0), label(-1, -1, -2)])
    z = (Fraction(2), Fraction(5))
    expected = sum(
        Fraction(2) ** a * Fraction(5) ** b for (a, b) in lattice_points(P, 1)
    )
    assert brion_evaluate(P, z) == expected


def _random_z(rng, k):
    return tuple(Fraction(rng.randint(2, 7), rng.randint(1, 3)) for _ in range(k))


def test_brion_oracle_random_points():
    rng = random.Random(17)
    polys = [segment(0, 1), unit_square(), unit_cube(), standard_simplex(3)]
    for P in polys:
        expected = {
            pt: 1 for pt in lattice_points(P, 1)
        }
        hits = 0
        while hits < 3:
            z = _random_z(rng, P.dim)
            try:
                got = brion_evaluate(P, z)
            except ValueError:
                continue  # non-generic draw
            val = sum(c * _pow(z, pt) for pt, c in expected.items())
            assert got == val
            hits += 1
    # seeded lattice polytopes, most of them simple but not simply laced:
    # each is rejected or evaluates to the direct Laurent sum
    rng = random.Random(5)
    evaluated = Counter()
    for i in range(80):
        P = randgen.random_lattice_polytope(rng, 2 + i % 2, coord_range=3)
        for z in (_random_z(rng, P.dim) for _ in range(3)):
            try:
                got = brion_evaluate(P, z)
            except ValueError:
                continue  # not simply laced, or a pole
            assert got == sum(_pow(z, pt) for pt in lattice_points(P, 1)), (i, P, z)
            evaluated[P.dim] += 1
            break
    assert sum(evaluated.values()) >= 5 and evaluated[3] >= 1, evaluated


def _pow(z, w):
    out = Fraction(1)
    for b, e in zip(z, w):
        out *= Fraction(b) ** e
    return out


def test_brion_errors():
    with pytest.raises(ValueError):
        brion_evaluate(egyptian_pyramid(), (2, 3, 5))  # non-simple
    with pytest.raises(ValueError):
        brion_evaluate(half_interval(), (2,))  # non-lattice vertex
    with pytest.raises(ValueError):
        brion_evaluate(segment(0, 1), (1,))  # pole
    with pytest.raises(ValueError):
        # simple, but the cone at (0, 0) has index 3: the formula gives 31, not 37
        brion_evaluate(LabelledPolyhedron(2, [label(2, -1, 0), label(-1, 2, 0),
                                              label(-1, -1, -3)]), (2, 3))


def test_localized_vertex_multiplicity_examples():
    nu, count = localized_vertex_multiplicity(unit_square(), 1, (1, 2))
    assert nu == (0, 0)
    assert count == 1
    nu, count = localized_vertex_multiplicity(egyptian_pyramid(), 1, (1, 1, 3))
    assert count == 1
    nu, count = localized_vertex_multiplicity(segment(0, 2), 1, (-1,))
    assert nu == (2,)
    assert count == 1


def test_localized_vertex_multiplicity_of_dilates():
    """At m the answer is that of m*P, as a polytope of its own, at m = 1."""
    rng = random.Random(7)
    cases = [(unit_square(), (1, 2)), (egyptian_pyramid(), (1, 1, 3)),
             (segment(0, 2), (-1,)), (half_interval(), (1,)), (weighted_triangle(), (2, 3))]
    for i in range(30):
        P = randgen.random_lattice_polytope(rng, i % 3 + 1, full_dim=(i % 4 != 0))
        cases.append((P, randgen.random_generic_direction(rng, P)))
    for P, xi in cases:
        for m in (2, 3, 7):
            Q = LabelledPolyhedron(P.dim, dilate(P, m).labels)
            assert localized_vertex_multiplicity(P, m, xi) == localized_vertex_multiplicity(Q, 1, xi)


def test_localized_vertex_multiplicity_non_generic():
    with pytest.raises(ValueError):
        localized_vertex_multiplicity(unit_square(), 1, (0, 1))


def test_quasipolynomial_eval_residues():
    qp = QuasiPolynomial(
        1, 2, ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    )
    assert qp(4) == 3
    assert qp(5) == 3
    assert qp(-1) == 0


# -- the line-sweep kernel against brute membership ---------------------------

# The kernel cases are written as labels: label j passes mu when
# den[j] * <mu, V[j]> is >= (OP_GE), > (OP_GT) or == (OP_EQ) num[j].
OP_GE, OP_GT, OP_EQ = 0, 1, 2


def _label_rows(V, num, den, ops):
    """The labels as the kernels' (c, k, strict) rows, <mu, c> + k >= 0
    (> 0 when strict); an equality is a weak row and its negation."""
    rows = []
    for v, n, d, op in zip(V, num, den, ops):
        c = tuple(d * x for x in v)
        rows.append((c, -n, op == OP_GT))
        if op == OP_EQ:
            rows.append((tuple(-x for x in c), n, False))
    return rows


def _scan(lo, hi, V, num, den, ops):
    return scan_box(lo, hi, _label_rows(V, num, den, ops))


def _count(lo, hi, V, num, den, ops):
    return count_box(lo, hi, _label_rows(V, num, den, ops))


def _brute_box(lo, hi, V, num, den, ops):
    import itertools

    def passes(mu):
        for v, n, d, op in zip(V, num, den, ops):
            lhs = d * sum(a * x for a, x in zip(v, mu))
            if op == OP_GE and not lhs >= n:
                return False
            if op == OP_GT and not lhs > n:
                return False
            if op == OP_EQ and lhs != n:
                return False
        return True

    return [
        mu for mu in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        if passes(mu)
    ]


def test_kernel_matches_brute_random_boxes():
    rng = random.Random(11)
    for _ in range(400):
        k = rng.randint(1, 4)
        lo = [rng.randint(-5, 3) for _ in range(k)]
        hi = [a + rng.randint(0, 5) for a in lo]
        n = rng.randint(0, 5)
        V = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(k)] for _ in range(n)]
        if V and rng.random() < 0.5:
            V[0][-1] = 0  # a label the last axis does not move
        num = [rng.randint(-20, 20) for _ in range(n)]
        den = [rng.choice((1, 1, 2, 3, 7)) for _ in range(n)]
        ops = [rng.choice((OP_GE, OP_GE, OP_GT, OP_EQ)) for _ in range(n)]
        want = _brute_box(lo, hi, V, num, den, ops)
        assert _scan(lo, hi, V, num, den, ops) == want
        assert _count(lo, hi, V, num, den, ops) == len(want)


def test_kernel_empty_box():
    args = ([0, 3], [2, 1], [[1, 1]], [0], [1], [OP_GE])
    assert _scan(*args) == []
    assert _count(*args) == 0


def test_kernel_beyond_int64():
    # the box [2^63, 2^63 + 3] x [-2^64 - 1, -2^64 + 1] cut by x + y >= -2^63
    # and 2x - 3y > 0: every product overflows 64-bit integers
    big = 1 << 63
    lo, hi = [big, -2 * big - 1], [big + 3, -2 * big + 1]
    V, num, den = [[1, 1], [2, -3]], [-big + 1, 0], [1, 5]
    ops = [OP_GE, OP_GT]
    want = _brute_box(lo, hi, V, num, den, ops)
    assert 0 < len(want) < 12
    assert _scan(lo, hi, V, num, den, ops) == want
    assert _count(lo, hi, V, num, den, ops) == len(want)
    assert all(type(x) is int for pt in want for x in pt)


# -- the slice counter against the sweep and brute membership ----------------


@st.composite
def _boxes(draw):
    k = draw(st.integers(2, 4))
    lo = draw(st.lists(st.integers(-4, 3), min_size=k, max_size=k))
    hi = [a + draw(st.integers(-1, 4)) for a in lo]  # -1 empties the axis
    n = draw(st.integers(0, 5))
    coeffs = st.lists(st.sampled_from((0, 0, 1, -1, 2, -3)), min_size=k, max_size=k)
    V = draw(st.lists(coeffs, min_size=n, max_size=n))
    num = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    den = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n))
    ops = draw(st.lists(st.sampled_from((OP_GE, OP_GT, OP_EQ)), min_size=n, max_size=n))
    return lo, hi, V, num, den, ops


# The slices run along the two longest axes: the last two in these examples.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
# rows free of x, and rows free of both slice axes
@example(([0, 0, 0], [1, 3, 4], [[0, 1, 0], [1, 0, 0], [0, -1, 0], [-1, 0, -1]],
          [1, 1, -2, -5], [1, 1, 1, 1], [OP_GE, OP_GE, OP_GE, OP_GE]))
@example(([0, 0, 0], [2, 3, 4], [[1, 1, 1], [0, 1, -2]], [3, 1], [1, 1], [OP_EQ, OP_EQ]))
@example(([0, 0], [4, 5], [[1, 2], [-1, -2], [2, 4], [-3, -6]], [0, -9, 1, -20],
          [1, 1, 2, 1], [OP_GE, OP_GE, OP_GT, OP_GE]))  # parallel lower and upper lines
@example(([0, 0], [3, 5], [[1, 0], [-1, 0]], [3, -1], [1, 1], [OP_GE, OP_GE]))  # empty y-range
@example(([0, 0, 0], [-1, 3, 4], [[1, 1, 1]], [0], [1], [OP_GE]))  # empty prefix axis
@example(([0, 0, 0, 0], [1, 2, 3, 4], [[1, -1, 2, -3], [0, 0, 1, 1]], [-4, 2], [2, 3],
          [OP_GT, OP_GE]))  # two prefix axes
@given(_boxes())
def test_slice_counter_matches_sweep_and_brute(box):
    want = _brute_box(*box)
    assert _scan(*box) == want
    assert _count(*box) == len(want)


def test_slice_counter_beyond_int64_in_three_axes():
    # the box [2^63, 2^63 + 3] x [-2^64 - 1, -2^64 + 1] x [5*2^63, 5*2^63 + 4]
    # cut by three rows, each of which removes points
    big = 1 << 63
    lo, hi = [big, -2 * big - 1, 5 * big], [big + 3, -2 * big + 1, 5 * big + 4]
    V = [[1, 1, 0], [2, -3, 1], [1, 0, -1]]
    num, den = [-big + 1, 5 * (13 * big + 3), -4 * big - 2], [1, 5, 1]
    ops = [OP_GE, OP_GT, OP_GE]
    want = _brute_box(lo, hi, V, num, den, ops)
    assert len(want) == 28
    assert len(_scan(lo, hi, V, num, den, ops)) == len(want)
    assert _count(lo, hi, V, num, den, ops) == len(want)


def test_floor_sum_matches_direct_sum():
    for n in range(0, 9):
        for m in range(1, 6):
            for a in range(-13, 14):
                for b in range(-13, 14):
                    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))
    assert _floor_sum(0, 7, -5, -9) == 0
    big = 1 << 70
    assert _floor_sum(5, 3, big, -big) == sum((big * i - big) // 3 for i in range(5))


def _closed_form(name, m, region):
    if name == "cube":
        return (m + 1) ** 3 if region == "closed" else (m - 1) ** 3
    if name == "simplex":
        return math.comb(m + 3, 3) if region == "closed" else math.comb(m - 1, 3)
    if name == "pyramid":
        # layer z of m*pyramid is the square [z, 2m - z]^2
        if region == "closed":
            return sum((2 * j + 1) ** 2 for j in range(m + 1))
        return sum((2 * j - 1) ** 2 for j in range(1, m))
    return (m + 1) ** 2 if region == "closed" else (m - 1) ** 2


@pytest.mark.parametrize("m", [200, 1000])
def test_large_dilates_match_closed_forms(m):
    polys = {
        "cube": unit_cube(),
        "simplex": standard_simplex(3),
        "pyramid": egyptian_pyramid(),
        "wtriangle": weighted_triangle(),
    }
    for name, P in polys.items():
        for region in ("closed", "interior"):
            assert count_points(P, m, region) == _closed_form(name, m, region), (name, region)


def test_lattice_points_sorted_and_counted():
    for P in (unit_cube(), egyptian_pyramid(), weighted_triangle(), half_interval(),
              standard_simplex(3)):
        for m in (0, 1, 2, 5):
            for region in ("closed", "interior"):
                pts = lattice_points(P, m, region)
                assert len(pts) == count_points(P, m, region)
                assert pts == sorted(set(pts))
                assert all(type(x) is int for pt in pts for x in pt)


def test_ehrhart_fit_builds_one_face_lattice(monkeypatch):
    builds = []
    real = LabelledPolyhedron._compute_faces

    def counted(self):
        builds.append(self)
        return real(self)

    monkeypatch.setattr(LabelledPolyhedron, "_compute_faces", counted)
    P = egyptian_pyramid()
    ehrhart_fit(P)
    assert builds == [P]


def test_import_needs_only_the_standard_library():
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    code = textwrap.dedent("""
        import sys
        import lpoly
        from lpoly.polyhedra import LabelledPolyhedron, label
        P = LabelledPolyhedron(1, [label(1, 0), label(-1, -3)])
        print(lpoly.counting.count_points(P, 2), "numpy" in sys.modules)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["7", "False"]
