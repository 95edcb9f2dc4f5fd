import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpoly._feasible import feasible_point
from lpoly import subdivisions
from lpoly.linalg import _scaled
from lpoly.polyhedra import LabelledPolyhedron, Label, _opposite, _rows, intersect, label
from lpoly.randgen import random_lattice_polytope, seeded_dominant_points
from lpoly.rootsys import principal_wall, root_system
from lpoly.subdivisions import (
    Subdivision,
    _face_inside,
    _face_keys,
    _key,
    _pair_failures,
    dual_subdivision,
    euler_check,
    glue_count_check,
    is_admissible,
    validate,
)
from conftest import egyptian_pyramid, segment, unit_square
from oracles import closed_face, flipped, is_subset, same_set, slack


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


def wall_alternating_sums(S: Subdivision, delta: LabelledPolyhedron) -> dict:
    """Per wall tau, the alternating count (-1)^(|tau| - |sigma|) of the
    cells of ``dual_subdivision``'s wall metadata that meet delta."""
    sums = {}
    for (sigma, tau), cell in zip(S.walls, S.cells):
        if feasible_point(_rows(delta) + _rows(cell), delta.dim) is not None:
            sums[tau] = sums.get(tau, 0) + (-1) ** (len(tau) - len(sigma))
    return sums


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


def with_moved_samples(S: Subdivision) -> Subdivision:
    """Fresh copies of S's cells whose face samples are moved halfway to one
    of the face's points: other relative-interior points of the same faces."""
    cells = []
    for cell in S.cells:
        copy = LabelledPolyhedron(cell.dim, cell.labels)
        points = cell.generators().points
        copy._faces = [
            replace(f, sample=tuple(
                (a + b) / 2 for a, b in zip(f.sample, next(x for t, x in points if t >= f.tight))))
            for f in cell.face_lattice()
        ]
        cells.append(copy)
    return Subdivision(S.dim, cells)


def test_validate_planted_gaps_fail_by_facets():
    """A gap of width 1/10^6 between two cells and a missing 2-cell of the A2
    dual subdivision are reported at the facets that bound them, whatever the
    face samples are."""
    eps = Fraction(1, 10**6)
    thin = Subdivision(1, [LabelledPolyhedron(1, [label(-1, 0)]), point_cell(0),
                           point_cell(eps), LabelledPolyhedron(1, [Label((1,), eps)])])
    S = dual_subdivision(root_system("A2"), (Fraction(3, 2), Fraction(5, 3)))
    assert S.cells[5].body_dim() == 2
    missing = Subdivision(2, S.cells[:5] + S.cells[6:])
    for sub, region, want in (
        (thin, "all", ["cells: 4", "uncovered: cell 0 facet [0]", "uncovered: cell 3 facet [0]"]),
        (missing, "dominant",
         ["cells: 8", "uncovered: cell 2 facet [1]", "uncovered: cell 7 facet [1]"]),
    ):
        for T in (sub, with_moved_samples(sub)):
            rep = validate(T, region=region)
            assert not rep.ok and rep.lines == want


def test_validate_region_needs_a_full_dimensional_cell():
    """Lower-dimensional cells cover no open set, and a cell outside the
    dominant orthant does not cover it."""
    rep = validate(Subdivision(1, [point_cell(0)]))
    assert rep.lines == ["cells: 1", "uncovered: no 1-dimensional cell meets the region"]
    negative = Subdivision(1, [LabelledPolyhedron(1, [label(-1, 0)]), point_cell(0)])
    assert validate(negative, region="dominant").lines == [
        "cells: 2", "uncovered: no 1-dimensional cell meets the region"]
    # its facet at 0 lies on the region's boundary, so it leaves no gap in x < 0
    positive = Subdivision(1, [LabelledPolyhedron(1, [label(1, 0)]), point_cell(0)])
    assert validate(positive, region="dominant").ok


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


# -- pair verdicts against sets -------------------------------------------------


def not_a_face(I, cell):
    """Oracle: I, inside ``cell``, is nonempty and ``same_set`` with no
    closed face of ``cell``.  Were I the closed face F, every face whose
    sample lies in I would be a face of F, so F alone is compared: the first
    face of highest dimension among those."""
    if feasible_point(_rows(I), I.dim) is None:
        return False
    inside = [f for f in cell.face_lattice() if I.contains(f.sample)]
    return not inside or not same_set(I, closed_face(cell, max(inside, key=lambda f: f.dim)))


def verdict_cells(rng):
    """Pools of same-dimension cells: the A2, B2, G2 and A3 dual subdivisions
    at two seeded shift points each, random lattice-point hulls with the
    closed faces of some of them, and segments and points around 0, where
    mirror labels (v, r) and (-v, r) are not opposites."""
    for name in ("A2", "B2", "G2", "A3"):
        R = root_system(name)
        yield [c for lam in seeded_dominant_points(R, 71, 2)
               for c in dual_subdivision(R, lam).cells]
    for k in (1, 2, 3):
        hulls = [random_lattice_polytope(rng, k, coord_range=3, full_dim=bool(i % 2))
                 for i in range(6)]
        yield hulls + [closed_face(P, f) for P in hulls[:2] for f in P.face_lattice()]
    yield ([segment(a, b) for a, b in itertools.combinations(range(-2, 3), 2)]
           + [point_cell(x) for x in range(-2, 3)])


def relabelled(rng, cell):
    """``cell`` with duplicated, flipped and weighted (2v, 2r) or (-3v, -3r)
    labels appended, so that some label rows are exact opposites."""
    labs = list(cell.labels)
    for _ in range(rng.randint(1, 3)):
        lab = rng.choice(labs)
        labs.append(rng.choice((
            lab,
            flipped(lab),
            Label(tuple(2 * x for x in lab.v), 2 * lab.r, weighted=True),
            Label(tuple(-3 * x for x in lab.v), -3 * lab.r, weighted=True),
        )))
    rng.shuffle(labs)
    return LabelledPolyhedron(cell.dim, labs)


def verdict_pairs(rng, per_pool=100):
    for pool in verdict_cells(rng):
        pairs = list(itertools.combinations(pool, 2))
        yield from rng.sample(pairs, min(per_pool, len(pairs)))
        for _ in range(per_pool // 2):
            ci, cj = rng.sample(pool, 2)
            ci = relabelled(rng, ci)
            if not ci.is_empty():
                yield ci, cj


def test_pair_verdicts_match_set_oracle():
    """``validate`` on two cells names ck exactly when their intersection is
    nonempty and no closed face of ck is the same set."""
    rng = random.Random(71)
    verdicts = Counter()
    for ci, cj in verdict_pairs(rng):
        lines = validate(Subdivision(ci.dim, [ci, cj])).lines
        I = intersect(ci, cj)
        for ck, cell in enumerate((ci, cj)):
            want = not_a_face(I, cell)
            got = f"bad-intersection: cells 0 1 not a face of {ck}" in lines
            assert got == want, (ci, cj, ck, lines)
            verdicts[want] += 1
    assert verdicts[True] >= 200 and verdicts[False] >= 1000, verdicts


def count_calls(monkeypatch, *names) -> Counter:
    """A counter of calls to the named ``subdivisions`` functions."""
    calls = Counter()
    for name in names:
        def wrapper(*args, name=name, fn=getattr(subdivisions, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(subdivisions, name, wrapper)
    return calls


def test_passing_dual_subdivisions_probe_each_pair_at_most_once(monkeypatch):
    """Facet pairing certifies passing dual subdivisions: no pair is probed
    and no face is tested against another cell."""
    calls = count_calls(monkeypatch, "feasible_point", "_face_inside", "_meets_off")
    for name, lam in (("A2", (Fraction(3, 2), Fraction(5, 3))), ("B2", (2, Fraction(1, 3))),
                      ("G2", (1, Fraction(2, 5))), ("A3", (1, Fraction(3, 2), 2))):
        S = dual_subdivision(root_system(name), lam)
        calls.clear()
        assert validate(S, region="dominant").ok
        n = len(S.cells)
        assert 0 < calls["feasible_point"] <= n * (n - 1) // 2 + n
        assert calls["_face_inside"] == 0
        assert calls["_meets_off"] == 0


def test_weighted_opposite_rows_cost_no_probe(monkeypatch):
    """x >= 0 written as the weighted label (2; 0) faces x <= 0 as plainly as
    (1; 0) does: it is zero on their intersection either way, so neither
    ``validate`` nor (b) run alone makes a probe more."""
    calls = count_calls(monkeypatch, "feasible_point")
    counts = []
    for up in (label(1, 0), Label((2,), 0, weighted=True)):
        cells = [LabelledPolyhedron(1, [up]), point_cell(0), LabelledPolyhedron(1, [label(-1, 0)])]
        calls.clear()
        assert validate(Subdivision(1, cells)).ok
        in_validate = calls["feasible_point"]
        calls.clear()
        assert _pair_failures(cells, *_face_keys(cells)) == []
        counts.append((in_validate, calls["feasible_point"]))
    assert counts[0] == counts[1] == (1, 0)


# -- the facet-pairing certificate ---------------------------------------------


def certified(S: Subdivision, region: str):
    """``validate``'s report, and whether the certificate accepted: the one
    way past (b) with a passing report."""
    with pytest.MonkeyPatch.context() as m:
        calls = count_calls(m, "_pair_failures")
        rep = validate(S, region=region)
    return rep, rep.ok and not calls


def test_certificate_accepts_only_proper_collections():
    """Dual subdivisions with cells dropped, swapped in from other shift
    points, shuffled or relabelled: whenever the certificate accepts, (b) run
    alone names no pair, and the report has no line but the cell count."""
    seen = Counter()
    shifted = {}
    for name in ("A2", "B2", "G2", "A3"):
        R = root_system(name)
        shifted[name] = [dual_subdivision(R, lam) for lam in seeded_dominant_points(R, 13, 3)]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(shifted)),
           st.lists(st.sampled_from(("drop", "swap", "shuffle", "relabel")), max_size=2),
           st.randoms(use_true_random=False))
    def prop(name, edits, rng):
        subs = shifted[name]
        cells = list(subs[0].cells)
        for edit in edits:
            i = rng.randrange(len(cells))
            if edit == "drop":
                del cells[i]
            elif edit == "swap":
                cells[i] = rng.choice(subs[1:]).cells[i]
            elif edit == "shuffle":
                rng.shuffle(cells)
            else:
                cells[i] = relabelled(rng, cells[i])
        rep, accepted = certified(Subdivision(subs[0].dim, cells), "dominant")
        seen[accepted] += 1
        if accepted:
            assert rep.lines == [f"cells: {len(cells)}"]
            assert _pair_failures(cells, *_face_keys(cells)) == []

    prop()
    assert seen[True] >= 10 and seen[False] >= 10, seen


def test_certificate_declines_an_overlay_of_two_tilings():
    """Two grids laid over each other pair every facet on opposite sides but
    cover each point twice: the certificate declines and (b) names the
    overlaps."""
    cells = grid_split(2, [[0], [0]]).cells + grid_split(2, [[1], [Fraction(1, 2)]]).cells
    keys, faces = _face_keys(cells)
    assert len(set(keys)) == len(cells) == 18
    facets = Counter(key for c, cf in zip(cells, faces) if c.body_dim() == 2
                     for f, key in cf if f.dim == 1)
    assert set(facets.values()) == {2}
    rep, accepted = certified(Subdivision(2, cells), "all")
    assert not accepted and not rep.ok
    assert rep.lines[0] == "cells: 18"
    assert len(rep.lines) > 1 and all(ln.startswith("bad-intersection") for ln in rep.lines[1:])


def half_line(sign, x):
    """[x, oo) for sign 1, (-oo, x] for sign -1."""
    return LabelledPolyhedron(1, [label(sign, sign * x)])


def test_certificate_declines_each_broken_condition():
    """Line splits that meet every condition of the certificate but one, with
    the witness at -1 in one k-cell: segments on the same side of their
    shared facets 1 and 3, a facet of three k-cells, and a point that is a
    face of no k-cell.  The certificate declines and (b) names the overlaps."""
    points = [point_cell(x) for x in range(4)]
    for cells, bad in (
        ([half_line(-1, 0), half_line(1, 0), segment(1, 2), segment(1, 3), segment(2, 3)]
         + points, ["1 2 not a face of 1", "1 3 not a face of 1", "1 4 not a face of 1",
                    "1 6 not a face of 1", "1 7 not a face of 1", "1 8 not a face of 1",
                    "2 3 not a face of 3", "3 4 not a face of 3", "3 7 not a face of 3"]),
        ([half_line(-1, 0), half_line(1, 0), segment(0, 1), half_line(1, 1)] + points[:2],
         ["1 2 not a face of 1", "1 3 not a face of 1", "1 5 not a face of 1"]),
        ([half_line(-1, 0), points[0], half_line(1, 0), points[1]], ["2 3 not a face of 2"]),
    ):
        rep, accepted = certified(Subdivision(1, cells), "all")
        assert not accepted
        assert rep.lines == [f"cells: {len(cells)}"] + [
            f"bad-intersection: cells {b}" for b in bad]


# -- face containment ------------------------------------------------------------


def random_labels(rng, k, n):
    labs = []
    while len(labs) < n:
        v = tuple(rng.randint(-3, 3) for _ in range(k))
        if any(v):
            labs.append(label(*v, Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))))
    return labs


def face_inside_by_probes(cell, tight, other):
    """Oracle: one Fourier-Motzkin probe per label of ``other`` for a point
    of the closed face that violates it."""
    host = _rows(cell, tight)
    return all(feasible_point(host + [_opposite(lab, True)], cell.dim) is None
               for lab in other.labels)


def test_face_inside_generators_match_probes():
    """Faces tested at their points, rays and lineality space agree with
    feasibility probes on bounded, unbounded and line-containing cells."""
    rng = random.Random(59)
    R = root_system("A2")
    cells = list(dual_subdivision(R, (Fraction(3, 2), Fraction(5, 3))).cells)
    cells += [egyptian_pyramid(), unit_square()]
    cells += [c for k in (2, 3) for axis in range(k) for c in axis_split(k, axis, Fraction(1, 3)).cells]
    cells += [LabelledPolyhedron(2, [label(1, -1, 0), label(-1, 1, -2)]),
              LabelledPolyhedron(3, [label(1, 1, 0, 1), label(0, 1, 1, -1), label(-1, -2, -1, -3)])]
    others = cells + [
        LabelledPolyhedron(k, random_labels(rng, k, rng.randint(1, 4)))
        for k in (2, 2, 2, 3, 3, 3) for _ in range(4)
    ]
    checked = inside = with_lines = 0
    for cell in cells:
        lines = bool(cell.generators().lineality)
        for other in others:
            if other.dim != cell.dim:
                continue
            for f in cell.face_lattice():
                got = _face_inside(cell, f.tight, other)
                assert got == face_inside_by_probes(cell, f.tight, other)
                checked += 1
                inside += got
                with_lines += lines
    assert 0 < inside < checked
    assert with_lines > 100


# -- canonical face keys -------------------------------------------------------


def test_key_equality_is_set_equality():
    """``_key`` of a closed face, read off its cell's generators, is the key
    of that face as a polyhedron of its own, and two keys are equal exactly
    when ``same_set`` says the faces are, over every pair of faces of one
    dimension among dual-subdivision cells and random lattice polytopes.
    A face's relative-interior sample outside the other face already proves
    the sets differ, so ``same_set`` runs only where both samples lie in both."""
    polys = []
    for name, lam in (("A2", (Fraction(3, 2), Fraction(5, 3))), ("B2", (2, Fraction(1, 3))),
                      ("G2", (1, Fraction(2, 5))), ("A3", (1, Fraction(3, 2), 2))):
        polys += dual_subdivision(root_system(name), lam).cells
    rng = random.Random(3)
    polys += [random_lattice_polytope(rng, rng.randint(1, 3), full_dim=bool(i % 2))
              for i in range(40)]
    groups = {}
    for P in polys:
        gens = P.generators()
        for f in P.face_lattice():
            C = closed_face(P, f)
            key = _key(gens.of_face(f.tight))
            assert _key(C.generators()) == key
            groups.setdefault((P.dim, f.dim), []).append((key, C, f.sample))
    pairs = equal = 0
    for group in groups.values():
        for (k1, C1, x1), (k2, C2, x2) in itertools.combinations(group, 2):
            same = C2.contains(x1) and C1.contains(x2) and same_set(C1, C2)
            assert (k1 == k2) == same
            pairs += 1
            equal += same
    assert pairs >= 20000 and equal >= 500


# -- integer membership -------------------------------------------------------


def test_integer_membership_matches_slack():
    """Membership and the sign kernel agree with ``slack``: ``_signs`` has the
    sign of every slack and ``_holds`` is closed membership, on int and
    Fraction points, weighted labels, and right-hand sides and coordinates
    with denominators past 2^64."""
    rng = random.Random(61)
    big = 2**64 + 13
    for _ in range(120):
        k = rng.randint(1, 3)
        labs = random_labels(rng, k, rng.randint(1, k + 3))
        labs.append(Label(tuple(2 * x for x in labs[0].v), 2 * labs[0].r + 1, weighted=True))
        labs.append(Label(labs[-1].v, labs[-1].r + Fraction(1, big), weighted=True))
        labs.append(label(*labs[0].v, labs[0].r - Fraction(rng.randint(1, 5), big)))
        P = LabelledPolyhedron(k, labs)
        points = [tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 7)))
                        for _ in range(k)) for _ in range(15)]
        points += [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(5)]
        points += [tuple(Fraction(rng.randint(-12, 12), rng.choice((1, big)))
                         for _ in range(k)) for _ in range(5)]
        points += [f.sample for f in P.face_lattice()]
        eq = P.implicit_equalities() if not P.is_empty() else frozenset()
        n = len(P.labels)
        for x in points:
            slacks = [slack(P, i, x) for i in range(n)]
            assert P.contains(x, "closed") == all(s >= 0 for s in slacks)
            assert P.tight_at(x) == frozenset(i for i in range(n) if slacks[i] == 0)
            if not P.is_empty():
                assert P.contains(x, "interior") == all(
                    (s == 0) if i in eq else (s > 0) for i, s in enumerate(slacks))
            X, d = _scaled(x)
            assert d > 0 and [Fraction(c, d) for c in X] == list(x)
            signs = P._signs(X, d)
            assert [(s > 0) - (s < 0) for s in signs] == [(s > 0) - (s < 0) for s in slacks]
            assert P._holds(X, d) == all(s >= 0 for s in slacks)
    for x in ((0.5,) * P.dim, (Fraction(1, 2),) * (P.dim - 1) + (1.0,)):
        with pytest.raises(TypeError):
            P.contains(x, "closed")
        with pytest.raises(TypeError):
            P.tight_at(x)
