import random
from fractions import Fraction

import pytest

from lpoly._feasible import feasible_point
from lpoly.polyhedra import LabelledPolyhedron, Label, intersect, label, same_set
from lpoly.rootsys import principal_wall, root_system
from lpoly.subdivisions import (
    Subdivision,
    _face_inside,
    _generators,
    _interior_sample,
    dual_subdivision,
    euler_check,
    glue_count_check,
    is_admissible,
    validate,
    wall_alternating_sums,
)
from conftest import egyptian_pyramid, segment, unit_square


def axis_split(k: int, axis: int, value) -> Subdivision:
    """Split all of k-space along one hyperplane into three cells."""
    value = Fraction(value)
    e = tuple(1 if j == axis else 0 for j in range(k))
    ne = tuple(-x for x in e)
    lower = LabelledPolyhedron(k, [Label(ne, -value)])
    wall = LabelledPolyhedron(k, [Label(e, value), Label(ne, -value)])
    upper = LabelledPolyhedron(k, [Label(e, value)])
    return Subdivision(k, [lower, wall, upper])


def grid_split(k: int, values_per_axis) -> Subdivision:
    """Product of per-axis interval complexes (values_per_axis[i] sorted)."""
    import itertools

    axis_cells = []
    for axis in range(k):
        vals = [Fraction(v) for v in values_per_axis[axis]]
        pieces = []
        if not vals:
            pieces.append([])
            axis_cells.append(pieces)
            continue
        e = tuple(1 if j == axis else 0 for j in range(k))
        ne = tuple(-x for x in e)
        pieces.append([Label(ne, -vals[0])])
        for i, v in enumerate(vals):
            pieces.append([Label(e, v), Label(ne, -v)])
            if i + 1 < len(vals):
                pieces.append([Label(e, v), Label(ne, -vals[i + 1])])
        pieces.append([Label(e, vals[-1])])
        axis_cells.append(pieces)
    cells = []
    for combo in itertools.product(*axis_cells):
        labs = [lab for piece in combo for lab in piece]
        cells.append(LabelledPolyhedron(k, labs))
    return Subdivision(k, cells)


def test_validate_line_split():
    S = axis_split(1, 0, 0)
    rep = validate(S)
    assert rep.ok, rep.render()


def test_validate_coverage_violation():
    cells = [
        LabelledPolyhedron(1, [label(-1, 0)]),   # (-inf, 0]
        LabelledPolyhedron(1, [label(1, 1)]),    # [1, inf)
    ]
    rep = validate(Subdivision(1, cells))
    assert not rep.ok
    assert any(line.startswith("uncovered") for line in rep.lines)


def test_validate_missing_face():
    cells = [
        LabelledPolyhedron(1, [label(-1, 0)]),
        LabelledPolyhedron(1, [label(1, 0)]),
    ]
    rep = validate(Subdivision(1, cells))
    assert not rep.ok
    assert any(line.startswith("missing-face") for line in rep.lines)


def test_validate_grid_2d():
    S = grid_split(2, [[Fraction(1, 3)], [Fraction(1, 2)]])
    assert len(S.cells) == 9
    rep = validate(S)
    assert rep.ok, rep.render()


def test_is_admissible_interval():
    delta = segment(0, 2)
    assert is_admissible(axis_split(1, 0, Fraction(1)), delta)
    assert not is_admissible(axis_split(1, 0, 2), delta)


def test_is_admissible_square_third():
    assert is_admissible(axis_split(2, 0, Fraction(1, 3)), unit_square())
    # cutting straight through the vertical edge is not transverse
    assert not is_admissible(axis_split(2, 0, 0), unit_square())


def test_euler_line_split():
    S = axis_split(1, 0, 0)
    rep = euler_check(S, 25)
    assert rep.ok, rep.render()


def test_euler_grid():
    S = grid_split(2, [[0], [Fraction(1, 3)]])
    rep = euler_check(S, 60)
    assert rep.ok, rep.render()


def test_glue_interval():
    delta = segment(0, 3)
    S = axis_split(1, 0, 1)
    rep = glue_count_check(delta, S)
    assert rep.ok, rep.render()


def test_glue_square_half():
    rep = glue_count_check(unit_square(), axis_split(2, 0, Fraction(1, 2)))
    assert rep.ok, rep.render()


def test_glue_pyramid_dual_subdivision_cells():
    delta = egyptian_pyramid()
    S = grid_split(3, [[Fraction(1, 3)], [], []])
    assert is_admissible(S, delta)
    rep = glue_count_check(delta, S)
    assert rep.ok, rep.render()


def test_glue_random_pairs():
    from lpoly.hull import hull_of_points

    rng = random.Random(41)
    done = 0
    while done < 8:
        k = rng.randint(1, 2)
        pts = [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(k + 3)]
        delta, _ = hull_of_points(k, pts)
        if delta.is_empty() or delta.body_dim() < k:
            continue
        splits = [[Fraction(rng.randint(0, 3) * 3 + 1, 3)] for _ in range(k)]
        S = grid_split(k, splits)
        if not is_admissible(S, delta):
            continue
        rep = glue_count_check(delta, S)
        assert rep.ok, rep.render()
        done += 1


def test_dual_subdivision_a1():
    R = root_system("A1")
    S = dual_subdivision(R, (1,))
    assert len(S.cells) == 3
    kinds = sorted((c.body_dim(), len(c.labels)) for c in S.cells)
    assert kinds[0][0] == 0
    rep = validate(S)
    assert rep.ok, rep.render()


def test_dual_subdivision_a2():
    R = root_system("A2")
    S = dual_subdivision(R, (1, 1))
    assert len(S.cells) == 9
    by_codim = {}
    for cell, (sigma, tau) in zip(S.cells, S.walls):
        codim = 2 - cell.body_dim()
        assert codim == len(tau) - len(sigma)
        by_codim[codim] = by_codim.get(codim, 0) + 1
    assert by_codim == {0: 4, 1: 4, 2: 1}
    rep = validate(S, region="dominant")
    assert rep.ok, rep.render()
    rep = euler_check(S, 50, region="dominant")
    assert rep.ok, rep.render()


def test_dual_subdivision_a3_count():
    R = root_system("A3")
    S = dual_subdivision(R, (1, Fraction(3, 2), 2))
    assert len(S.cells) == 27
    for cell, (sigma, tau) in zip(S.cells, S.walls):
        assert 3 - cell.body_dim() == len(tau) - len(sigma)


def test_dual_subdivision_codim_all_types():
    for name in ("A1", "A2", "B2", "G2"):
        R = root_system(name)
        lam = tuple(Fraction(2 * i + 3, 2) for i in range(R.rank))
        S = dual_subdivision(R, lam)
        assert len(S.cells) == 3 ** R.rank
        for cell, (sigma, tau) in zip(S.cells, S.walls):
            assert R.rank - cell.body_dim() == len(tau) - len(sigma)
        rep = euler_check(S, 30, region="dominant")
        assert rep.ok, rep.render()


def test_dual_subdivision_face_relation():
    # closed faces of a cell are exactly the cells with smaller sigma, larger tau
    R = root_system("A2")
    S = dual_subdivision(R, (2, 3))
    lookup = {(s, t): c for c, (s, t) in zip(S.cells, S.walls)}
    for (s1, t1), c1 in lookup.items():
        for (s2, t2), c2 in lookup.items():
            from lpoly.polyhedra import is_subset

            if s2 <= s1 and t1 <= t2:
                assert is_subset(c2, c1)


def test_dual_subdivision_intersection_law():
    for name in ("A2", "B2"):
        R = root_system(name)
        S = dual_subdivision(R, (1, 2))
        lookup = {(s, t): c for c, (s, t) in zip(S.cells, S.walls)}
        items = list(lookup.items())
        for (s1, t1), c1 in items:
            for (s2, t2), c2 in items:
                expected = lookup[(s1 & s2, t1 | t2)]
                assert same_set(intersect(c1, c2), expected)


def test_dual_subdivision_rejects_boundary_lambda():
    with pytest.raises(ValueError):
        dual_subdivision(root_system("A2"), (1, 0))


def test_glue_pyramid_against_a3_dual_subdivision():
    pyramid = egyptian_pyramid()
    R = root_system("A3")
    lam = (Fraction(6, 7), Fraction(8, 9), Fraction(10, 11))
    S = dual_subdivision(R, lam)
    assert is_admissible(S, pyramid)
    rep = glue_count_check(pyramid, S)
    assert rep.ok, rep.render()


def test_wall_alternating_sums_b2():
    from lpoly.hull import hull_of_points

    R = root_system("B2")
    S = dual_subdivision(R, (Fraction(1, 7), Fraction(1, 9)))
    for pts in ([(2, 3)], [(3, 0)], [(0, 2), (0, 5)], [(0, 0)], [(1, 1), (3, 1), (1, 3)]):
        delta, _ = hull_of_points(2, pts)
        principal = principal_wall(R, pts)
        sums = wall_alternating_sums(S, delta)
        for tau, value in sums.items():
            assert value == (1 if tau == principal else 0), (pts, tau, sums)


def test_wall_alternating_sums_a2():
    R = root_system("A2")
    lam = (Fraction(1, 7), Fraction(1, 9))
    S = dual_subdivision(R, lam)
    deltas = {
        "interior-point": [(2, 3)],
        "wall-point": [(3, 0)],
        "origin": [(0, 0)],
        "wall-segment": [(2, 0), (5, 0)],
        "full-triangle": [(1, 1), (3, 1), (1, 3)],
    }
    from lpoly.hull import hull_of_points

    for name, pts in deltas.items():
        delta, _ = hull_of_points(2, pts)
        principal = principal_wall(R, pts)
        sums = wall_alternating_sums(S, delta)
        for tau in sums:
            expected = 1 if tau == principal else 0
            assert sums[tau] == expected, (name, tau, sums)


# -- pairwise-intersection verdicts ------------------------------------------


def point_cell(x):
    return LabelledPolyhedron(1, [label(1, x), label(-1, -x)])


def test_validate_bad_intersection_overlapping_segments():
    cells = [segment(0, 2), segment(1, 3)] + [point_cell(x) for x in range(4)]
    rep = validate(Subdivision(1, cells))
    assert rep.lines == [
        "cells: 6",
        "bad-intersection: cells 0 1 not a face of 0",
        "bad-intersection: cells 0 1 not a face of 1",
        "bad-intersection: cells 0 3 not a face of 0",
        "bad-intersection: cells 1 4 not a face of 1",
        "uncovered: ('-1',)",
        "uncovered: ('-2/7',)",
        "uncovered: ('23/7',)",
        "uncovered: ('4',)",
    ]


def test_validate_bad_intersection_foreign_a2_cell():
    R = root_system("A2")
    cells = list(dual_subdivision(R, (Fraction(3, 2), Fraction(5, 3))).cells)
    cells[4] = dual_subdivision(R, (2, Fraction(5, 3))).cells[4]
    rep = validate(Subdivision(2, cells), region="dominant")
    assert rep.lines == [
        "cells: 9",
        "missing-face: cell 2 face [1]",
        "missing-face: cell 4 face [0, 1, 2]",
        "missing-face: cell 5 face [1]",
        "bad-intersection: cells 2 4 not a face of 2",
        "bad-intersection: cells 4 5 not a face of 5",
    ]


def test_validate_duplicate_cell():
    R = root_system("A2")
    S = dual_subdivision(R, (Fraction(3, 2), Fraction(5, 3)))
    assert validate(S, region="dominant").ok
    rep = validate(Subdivision(2, list(S.cells) + [S.cells[0]]), region="dominant")
    assert rep.lines == ["cells: 10", "duplicate-cell: cells 0 9"]
    # the same set under another label list is still the same cell
    twin = LabelledPolyhedron(2, list(S.cells[6].labels) + [S.cells[6].labels[0]])
    rep = validate(Subdivision(2, [twin] + list(S.cells)), region="dominant")
    assert rep.lines == ["cells: 10", "duplicate-cell: cells 0 7"]
    # and cells with lines (no vertex) go the same way
    rep = validate(Subdivision(1, list(axis_split(1, 0, 0).cells) * 2))
    assert rep.lines == [
        "cells: 6", "duplicate-cell: cells 0 3", "duplicate-cell: cells 1 4",
        "duplicate-cell: cells 2 5",
    ]


# -- relative-interior samples and face containment ----------------------------


def dual_subdivision_pairs():
    for name, lam in (
        ("A2", (Fraction(3, 2), Fraction(5, 3))),
        ("B2", (1, 2)),
        ("A3", (1, Fraction(3, 2), 2)),
    ):
        S = dual_subdivision(root_system(name), lam)
        for i, ci in enumerate(S.cells):
            for cj in S.cells[i + 1:]:
                yield ci, cj


def probed_equalities(P):
    """Labels no point of P makes strict: one feasibility probe per label."""
    rows = [(lab.v, -lab.r, False) for lab in P.labels]
    return frozenset(
        i for i, lab in enumerate(P.labels)
        if feasible_point(rows + [(lab.v, -lab.r, True)], P.dim) is None
    )


def test_interior_sample_dual_subdivision_pairs():
    for ci, cj in dual_subdivision_pairs():
        Q = intersect(ci, cj)
        hints = [f.sample for f in ci.face_lattice()]
        eq = probed_equalities(Q)
        for q in (_interior_sample(Q), _interior_sample(Q, hints)):
            assert Q.contains(q, "closed")
            assert Q.tight_at(q) == eq


def random_labels(rng, k, n):
    labs = []
    while len(labs) < n:
        v = tuple(rng.randint(-3, 3) for _ in range(k))
        if any(v):
            labs.append(label(*v, Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))))
    return labs


def test_interior_sample_duplicated_and_opposite_labels():
    rng = random.Random(53)
    empty = 0
    for _ in range(150):
        k = rng.randint(1, 3)
        labs = random_labels(rng, k, rng.randint(1, k + 3))
        for _ in range(rng.randint(0, 3)):
            lab = rng.choice(labs)
            labs.append(rng.choice((
                lab,
                lab.flipped(),
                Label(tuple(2 * x for x in lab.v), 2 * lab.r, weighted=True),
                Label(tuple(-3 * x for x in lab.v), -3 * lab.r, weighted=True),
            )))
        rng.shuffle(labs)
        P = LabelledPolyhedron(k, labs)
        hints = [tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(k)) for _ in range(4)]
        for q in (_interior_sample(P), _interior_sample(P, hints)):
            if P.is_empty():
                assert q is None
            else:
                assert P.contains(q, "closed")
                assert P.tight_at(q) == P.implicit_equalities()
        empty += P.is_empty()
    assert 0 < empty < 150


def test_interior_sample_mirror_labels_are_not_opposites():
    """Only an exact opposite (-v, -r) pins a label: the strip -1 <= x <= 1
    has labels (1, -1) and (-1, -1), neither an equality, while the point
    x = 1 is cut out by a real opposite pair, one half listed twice."""
    strip = LabelledPolyhedron(1, [label(1, -1), label(-1, -1)])
    for hints in ((), [(Fraction(-1),)], [(Fraction(1),)]):
        q = _interior_sample(strip, hints)
        assert strip.tight_at(q) == frozenset()
    point = LabelledPolyhedron(1, [label(1, 0), label(-1, -1), label(1, 1), label(-1, -1)])
    q = _interior_sample(point, [(Fraction(1),)])
    assert q == (Fraction(1),)
    assert point.tight_at(q) == point.implicit_equalities() == frozenset({1, 2, 3})


def test_face_inside_generators_match_probes():
    """Faces tested at vertices and unbounded edges agree with the
    feasibility probes on bounded and unbounded pointed cells."""
    rng = random.Random(59)
    R = root_system("A2")
    cells = list(dual_subdivision(R, (Fraction(3, 2), Fraction(5, 3))).cells)
    cells += [egyptian_pyramid(), unit_square()]
    others = cells + [
        LabelledPolyhedron(k, random_labels(rng, k, rng.randint(1, 4)))
        for k in (2, 2, 2, 3, 3, 3) for _ in range(4)
    ]
    checked = inside = 0
    for cell in cells:
        gens = _generators(cell)
        assert gens is not None
        for other in others:
            if other.dim != cell.dim:
                continue
            for f in cell.face_lattice():
                got = _face_inside(cell, gens, f.tight, other)
                assert got == _face_inside(cell, None, f.tight, other)
                checked += 1
                inside += got
    assert 0 < inside < checked


# -- integer membership -------------------------------------------------------


def test_integer_membership_matches_slack():
    rng = random.Random(61)
    for _ in range(120):
        k = rng.randint(1, 3)
        labs = random_labels(rng, k, rng.randint(1, k + 3))
        labs.append(Label(tuple(2 * x for x in labs[0].v), 2 * labs[0].r + 1, weighted=True))
        P = LabelledPolyhedron(k, labs)
        points = [tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 7)))
                        for _ in range(k)) for _ in range(15)]
        points += [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(5)]
        points += [f.sample for f in P.face_lattice()]
        eq = P.implicit_equalities() if not P.is_empty() else frozenset()
        n = len(P.labels)
        for x in points:
            slacks = [P.slack(i, x) for i in range(n)]
            assert P.contains(x, "closed") == all(s >= 0 for s in slacks)
            assert P.tight_at(x) == frozenset(i for i in range(n) if slacks[i] == 0)
            if not P.is_empty():
                assert P.contains(x, "interior") == all(
                    (s == 0) if i in eq else (s > 0) for i, s in enumerate(slacks))
    with pytest.raises(TypeError):
        P.contains((0.5,) * P.dim, "closed")
