import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from lpoly import polyhedra
from lpoly.polyhedra import (
    Label,
    LabelledPolyhedron,
    excess,
    excess_decomposition,
    face_labels,
    face_join,
    face_meet,
    format_lpoly,
    is_simple,
    is_simply_laced,
    label,
    minimalize,
    parse_lpoly,
    structure_group_order,
)
from conftest import (
    doubled_interval,
    egyptian_pyramid,
    standard_simplex,
    unit_cube,
    unit_square,
    weighted_triangle,
)


def faces_by_dim(P):
    out = {}
    for f in P.face_lattice():
        out.setdefault(f.dim, []).append(f)
    return out


def test_square_faces(square):
    by_dim = faces_by_dim(square)
    assert len(square.face_lattice()) == 9
    assert len(by_dim[0]) == 4
    assert len(by_dim[1]) == 4
    assert len(by_dim[2]) == 1


def test_pyramid_faces(pyramid):
    by_dim = faces_by_dim(pyramid)
    assert len(pyramid.face_lattice()) == 19
    assert [len(by_dim[d]) for d in (0, 1, 2, 3)] == [5, 8, 5, 1]


def test_infeasible_empty():
    P = LabelledPolyhedron(1, [label(1, 1), label(-1, 0)])
    assert P.face_lattice() == []
    assert P.is_empty()


def test_face_samples_certify_tight_sets(square, pyramid):
    for P in (square, pyramid):
        for f in P.face_lattice():
            assert P.tight_at(f.sample) == f.tight
            assert P.contains(f.sample, "closed")


def test_face_labels_square(square):
    verts = [f for f in square.face_lattice() if f.dim == 0]
    tight, restricted = face_labels(square, verts[0])
    assert len(tight) == 2
    assert len(restricted) == 6


def test_face_labels_pyramid_apex(pyramid):
    apex = next(f for f in pyramid.face_lattice() if f.sample == (1, 1, 1))
    tight, _ = face_labels(pyramid, apex)
    assert len(tight) == 4
    assert all(lab.v[2] < 0 for lab in tight)


def test_face_labels_whole(square):
    top = square.top_face()
    tight, restricted = face_labels(square, top)
    assert tight == []
    assert restricted == list(square.labels)


def test_excess(cube, pyramid):
    for f in cube.face_lattice():
        assert excess(cube, f) == 0
    apex = next(f for f in pyramid.face_lattice() if f.sample == (1, 1, 1))
    assert excess(pyramid, apex) == 1
    assert excess(pyramid, pyramid.top_face()) == 0


def test_excess_decomposition_cube(cube):
    dec = excess_decomposition(cube)
    assert len(dec.pieces) == 1
    assert dec.pieces[0].excess == 0


def test_excess_decomposition_pyramid(pyramid):
    dec = excess_decomposition(pyramid)
    assert len(dec.pieces) == 2
    by_excess = {p.excess: p for p in dec.pieces}
    assert set(by_excess) == {0, 1}
    assert len(by_excess[1].faces) == 1
    assert len(by_excess[0].faces) == 18
    assert all(p.closure_is_face for p in dec.pieces)


def test_excess_decomposition_doubled_interval():
    P = doubled_interval()
    faces = P.face_lattice()
    v0 = next(f for f in faces if f.sample == (0,))
    assert excess(P, v0) == 1
    dec = excess_decomposition(P)
    assert len(dec.pieces) == 2


def test_simple_laced_simplex():
    P = standard_simplex(2)
    assert is_simple(P)
    assert is_simply_laced(P)


def test_weighted_triangle_not_laced():
    P = weighted_triangle()
    assert is_simple(P)
    assert not is_simply_laced(P)
    # the vertex on the y-axis carries the order-2 structure group
    orders = {}
    for f in P.face_lattice():
        if f.dim == 0:
            orders[f.sample] = structure_group_order(P, f)
    assert orders[(Fraction(0), Fraction(1))] == 2
    assert orders[(Fraction(0), Fraction(0))] == 1
    assert orders[(Fraction(2), Fraction(0))] == 1


def test_minimalize_drops_redundant(square):
    P = LabelledPolyhedron(2, list(square.labels) + [label(1, 0, -5)])
    M = minimalize(P)
    assert M.labels == square.labels


def test_structure_group_order_errors():
    P = doubled_interval()
    v0 = next(f for f in P.face_lattice() if f.sample == (0,))
    with pytest.raises(ValueError):
        structure_group_order(P, v0)


def test_structure_group_weighted_label():
    P = LabelledPolyhedron(1, [Label((3,), Fraction(0), weighted=True)])
    v0 = next(f for f in P.face_lattice() if f.dim == 0)
    assert structure_group_order(P, v0) == 3


def test_simply_laced_vertex_from_snf():
    # tight labels (1,0) and (-1,-2) span index-2 sublattice
    from lpoly import linalg
    assert linalg.elementary_divisors([(1, 0), (-1, -2)]) == [1, 2]
    assert linalg.elementary_divisors([(0, 1), (-1, -2)]) == [1, 1]


def test_unbounded_flags():
    P = LabelledPolyhedron(2, [label(1, 0, 0), label(0, 1, 0)])
    faces = P.face_lattice()
    assert not P.is_bounded()
    assert all(not f.is_bounded for f in faces if f.dim >= 1)
    vertex = next(f for f in faces if f.dim == 0)
    assert vertex.is_bounded


def test_lower_dimensional_polyhedron():
    # segment {0 <= x <= 1, y = 0} via an equality pair
    P = LabelledPolyhedron(2, [
        label(0, 1, 0), label(0, -1, 0), label(1, 0, 0), label(-1, 0, -1),
    ])
    assert P.body_dim() == 1
    top = P.top_face()
    assert excess(P, top) == 1  # the equality pair is tight everywhere
    assert len(P.vertices()) == 2


def brute_force_tight_sets(P):
    """Oracle: scan every label subset for a point tight exactly there."""
    import itertools

    from lpoly._feasible import feasible_point

    n = len(P.labels)
    out = set()
    for bits in itertools.product([0, 1], repeat=n):
        rows = []
        for i, lab in enumerate(P.labels):
            coeffs = tuple(Fraction(x) for x in lab.v)
            if bits[i]:
                rows.append((coeffs, -lab.r, False))
                rows.append((tuple(-c for c in coeffs), lab.r, False))
            else:
                rows.append((coeffs, -lab.r, True))
        if feasible_point(rows, P.dim) is not None:
            out.add(frozenset(i for i in range(n) if bits[i]))
    return out


def test_face_lattice_matches_brute_force():
    polys = [unit_square(), egyptian_pyramid(), doubled_interval(), weighted_triangle()]
    rng = random.Random(43)
    while len(polys) < 8:
        P = random_polyhedron(rng, rng.randint(1, 3), rng.randint(2, 5))
        polys.append(P)
    for P in polys:
        got = {f.tight for f in P.face_lattice()}
        assert got == brute_force_tight_sets(P)


def euler_characteristic(P):
    return sum((-1) ** f.dim for f in P.face_lattice())


def random_polyhedron(rng, k, nlabels, denom=2):
    labs = []
    while len(labs) < nlabels:
        v = tuple(rng.randint(-3, 3) for _ in range(k))
        if all(x == 0 for x in v):
            continue
        from lpoly import linalg
        v = linalg.primitive(v)
        r = Fraction(rng.randint(-6, 6), rng.choice([1, denom]))
        labs.append(Label(v, r, weighted=False))
    return LabelledPolyhedron(k, labs)


def test_euler_characteristic_bounded():
    rng = random.Random(23)
    for P in (unit_square(), unit_cube(), egyptian_pyramid(), standard_simplex(3)):
        assert euler_characteristic(P) == 1
    found = 0
    while found < 12:
        k = rng.randint(1, 3)
        P = random_polyhedron(rng, k, rng.randint(k + 1, k + 4))
        if P.is_empty() or not P.is_bounded():
            continue
        found += 1
        assert euler_characteristic(P) == 1


def test_excess_upper_semicontinuous_random():
    rng = random.Random(31)
    found = 0
    while found < 15:
        k = rng.randint(1, 3)
        P = random_polyhedron(rng, k, rng.randint(2, k + 4))
        if P.is_empty():
            continue
        found += 1
        faces = P.face_lattice()
        for f1 in faces:
            for f2 in faces:
                if polyhedra.below(f2, f1):
                    assert excess(P, f2) >= excess(P, f1)


def test_excess_modular_identity():
    # The pairwise excess identity e(join) + e(meet) = e(F1) + e(F2) holds
    # whenever the meet's tight set is generated by the two faces' tight sets
    # (always the case on simple polytopes).  It is NOT universal: see the
    # counterexample test below.
    rng = random.Random(37)
    polys = [unit_square(), unit_cube(), standard_simplex(3), weighted_triangle()]
    found = 0
    while found < 8:
        k = rng.randint(1, 3)
        P = random_polyhedron(rng, k, rng.randint(2, k + 3))
        if P.is_empty():
            continue
        polys.append(P)
        found += 1
    for P in polys:
        faces = P.face_lattice()
        for f1 in faces:
            for f2 in faces:
                meet = face_meet(P, f1, f2)
                if meet is None or meet.tight != (f1.tight | f2.tight):
                    continue
                join = face_join(P, f1, f2)
                assert excess(P, join) + excess(P, meet) == excess(P, f1) + excess(P, f2)


def test_excess_modular_identity_pyramid_counterexample():
    # At a non-simple meet the identity can fail: a slant facet and a
    # non-adjacent slant edge of the pyramid meet only in the apex, whose
    # tight set (all four slant labels) exceeds the union of theirs.
    P = egyptian_pyramid()
    faces = {f.tight: f for f in P.face_lattice()}
    f1 = faces[frozenset({1})]
    f2 = faces[frozenset({2, 3})]
    meet = face_meet(P, f1, f2)
    join = face_join(P, f1, f2)
    assert meet.tight == frozenset({1, 2, 3, 4})
    assert excess(P, join) + excess(P, meet) == 1
    assert excess(P, f1) + excess(P, f2) == 0


def test_face_excess_restriction():
    # excess in the closed-face label set grows by the tight count
    for P in (unit_square(), egyptian_pyramid(), doubled_interval()):
        faces = P.face_lattice()
        for f1 in faces:
            Q = polyhedra.closed_face(P, f1)
            for f2 in faces:
                if not polyhedra.below(f2, f1):
                    continue
                qf = next(g for g in Q.face_lattice() if g.sample == f2.sample)
                assert excess(Q, qf) == excess(P, f2) + len(f1.tight)


def test_simple_implies_orders_defined():
    for P in (unit_square(), unit_cube(), standard_simplex(3), weighted_triangle()):
        assert is_simple(P)
        for f in P.face_lattice():
            structure_group_order(P, f)


def test_lpoly_roundtrip(pyramid):
    text = format_lpoly(pyramid)
    Q = parse_lpoly(text)
    assert Q == pyramid
    assert format_lpoly(Q) == text


def test_lpoly_rationals_and_comments():
    text = "# a comment\ndim 1\nlabel 1 ; 0\nlabel -1 ; -1/2  # upper bound\n"
    P = parse_lpoly(text)
    assert P.labels[1].r == Fraction(-1, 2)
    assert parse_lpoly(format_lpoly(P)) == P


def test_lpoly_errors():
    with pytest.raises(polyhedra.LpolyParseError) as err:
        parse_lpoly("dim 1\nlabel 0 ; 0\n")
    assert err.value.line_no == 2
    with pytest.raises(polyhedra.LpolyParseError):
        parse_lpoly("label 1 ; 0\n")
    with pytest.raises(polyhedra.LpolyParseError):
        parse_lpoly("dim 2\nlabel 1 ; 0\n")


def test_subset_and_equality(square):
    big = LabelledPolyhedron(2, [
        label(1, 0, 0), label(0, 1, 0), label(-1, 0, -2), label(0, -1, -2),
    ])
    assert polyhedra.is_subset(square, big)
    assert not polyhedra.is_subset(big, square)
    assert polyhedra.same_set(square, minimalize(
        LabelledPolyhedron(2, list(square.labels) + [label(1, 1, -1)])
    ))


# -- dilates carry the face lattice over -------------------------------------

DILATIONS = (1, 2, 3, 7, Fraction(5, 2))


def _recomputed(Q):
    return LabelledPolyhedron(Q.dim, Q.labels).face_lattice()


def test_dilate_carries_face_lattice_acceptance_corpus():
    from test_acceptance import corpus

    for name, P in corpus():
        for m in DILATIONS:
            Q = polyhedra.dilate(P, m)
            assert Q.face_lattice() == _recomputed(Q), (name, m)


def test_dilate_carries_face_lattice_random_polytopes():
    from lpoly import randgen

    rng = random.Random(4)
    for i in range(200):
        P = randgen.random_lattice_polytope(rng, i % 3 + 1, full_dim=(i % 4 != 0))
        for m in DILATIONS:
            Q = polyhedra.dilate(P, m)
            assert Q.face_lattice() == _recomputed(Q), (i, m)
            assert Q.is_bounded()


def test_dilate_carries_unbounded_faces():
    # a quadrant cut by a slanted label: an unbounded polyhedron with
    # bounded and unbounded faces
    P = LabelledPolyhedron(2, [label(1, 0, 0), label(0, 1, 0), label(1, 2, 2)])
    for m in DILATIONS:
        Q = polyhedra.dilate(P, m)
        got, want = Q.face_lattice(), _recomputed(Q)
        assert [(f.tight, f.dim, f.affine_basis, f.is_bounded) for f in got] == [
            (f.tight, f.dim, f.affine_basis, f.is_bounded) for f in want
        ]
        assert any(not f.is_bounded for f in got) and any(f.is_bounded for f in got)
        for f in got:
            assert Q.tight_at(f.sample) == f.tight
        assert not Q.is_bounded()


def test_dilate_by_zero_recomputes(monkeypatch):
    P = egyptian_pyramid()
    P.face_lattice()
    builds = []
    real = LabelledPolyhedron._compute_faces

    def counted(self):
        builds.append(self)
        return real(self)

    monkeypatch.setattr(LabelledPolyhedron, "_compute_faces", counted)
    Q = polyhedra.dilate(P, 0)
    faces = Q.face_lattice()
    assert builds == [Q]
    assert [(f.dim, f.sample) for f in faces] == [(0, (0, 0, 0))]
    assert faces[0].tight == frozenset(range(len(P.labels)))
    polyhedra.dilate(P, 3).face_lattice()
    assert builds == [Q]


def test_invariant_checks_survive_optimize_flag():
    """Broken invariants raise RuntimeError even under ``python -O``."""
    code = textwrap.dedent("""
        from fractions import Fraction
        from lpoly import linalg, polyhedra, rootsys, subdivisions
        from lpoly.polyhedra import Face, LabelledPolyhedron, label

        def check(name, thunk):
            try:
                thunk()
            except RuntimeError:
                print(name)

        P = LabelledPolyhedron(1, [label(1, 0), label(-1, -1)])
        ends = [Face(frozenset({i}), 0, (), (Fraction(i),), True) for i in (0, 1)]
        P._faces = ends
        check("top_face", P.top_face)
        P._faces = ends + [Face(frozenset(), 0, (), (Fraction(1, 2),), True)]
        check("face_meet", lambda: polyhedra.face_meet(P, P._faces[2], P._faces[2]))

        R = rootsys.root_system("A2")
        real_pairing = rootsys.coroot_pairing
        rootsys.coroot_pairing = lambda a, mu: 2 if tuple(mu) == (1, 1) else 1
        check("weyl_dimension", lambda: rootsys.weyl_dimension(R, (1, 0)))
        rootsys.coroot_pairing = real_pairing

        linalg.solve = lambda rows, rhs: None
        check("cone_cell", lambda: subdivisions.dual_subdivision(R, (1, 1)))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["top_face", "face_meet", "weyl_dimension", "cone_cell"]
