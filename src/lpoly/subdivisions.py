"""Polyhedral subdivisions: validation, admissibility, Euler and gluing
identities, and the wall-dual subdivision of the dominant chamber.

Cells are labelled polyhedra (unbounded ones included).  Pairwise checks
lean on an exact relint-sample argument: a nonnegative affine functional
vanishing at a relative-interior point of a convex set vanishes on all of
it, so an intersection is automatically inside the minimal closed face
around its sample and only the reverse inclusion needs a test.  That test
reads the face's vertices and unbounded edges off the cell's face lattice
when the cell has a vertex, and falls back to feasibility probes otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import counting, linalg
from ._feasible import feasible_point
from .polyhedra import Face, Label, LabelledPolyhedron, intersect
from .report import Report
from .rootsys import RootSystem


@dataclass
class Subdivision:
    dim: int
    cells: list[LabelledPolyhedron]
    walls: list[tuple[frozenset, frozenset]] | None = None  # (sigma, tau) metadata


def _weak_rows(P: LabelledPolyhedron):
    return [(lab.v, -lab.r, False) for lab in P.labels]


def _relint_rows(P: LabelledPolyhedron, F: Face):
    rows = []
    for i, lab in enumerate(P.labels):
        coeffs = lab.v
        if i in F.tight:
            rows.append((coeffs, -lab.r, False))
            rows.append((tuple(-c for c in coeffs), lab.r, False))
        else:
            rows.append((coeffs, -lab.r, True))
    return rows


def _interior_sample(P: LabelledPolyhedron, hints=()):
    """Relative-interior sample without computing the face lattice.

    A label is an implicit equality iff no point of P makes it strict.  The
    points of P among ``hints``, or one feasibility witness when there are
    none, start a set of witnesses, and a label strict at a witness is not an
    equality, while a label whose exact opposite is also a label is one.
    The labels left are probed together: the sum of their slacks is positive
    somewhere on P iff one of them is strict there, so an infeasible probe
    proves them all equalities, and a feasible one adds a witness strict on
    at least one of them.  Every label that is not an equality ends strict
    at some witness, so the average of the witnesses is strict on exactly
    those labels: a relative-interior point.  None when P is empty.
    """
    base = _weak_rows(P)
    witnesses = [p for p in hints if P.contains(p, "closed")]
    if not witnesses:
        w = feasible_point(base, P.dim)
        if w is None:
            return None
        witnesses = [w]
    present = set(P.labels)
    pending = {i for i, lab in enumerate(P.labels) if lab.flipped() not in present}
    for p in witnesses:
        pending.intersection_update(P.tight_at(p))
    while pending:
        labs = [P.labels[i] for i in pending]
        coeffs = tuple(map(sum, zip(*(lab.v for lab in labs))))
        const = -sum(lab.r for lab in labs)
        p = feasible_point(base + [(coeffs, const, True)], P.dim)
        if p is None:
            break
        witnesses.append(p)
        pending.intersection_update(P.tight_at(p))
    n = len(witnesses)
    return tuple(sum(c) / n for c in zip(*witnesses))


def _rows_hold_on(host_rows, check_rows, dim: int) -> bool:
    """Does every row of ``check_rows`` hold everywhere on ``host_rows``?"""
    for coeffs, const, strict in check_rows:
        probe = host_rows + [(tuple(-c for c in coeffs), -const, True)]
        if feasible_point(probe, dim) is not None:
            return False
    return True


def _generators(cell: LabelledPolyhedron):
    """Vertices and unbounded-edge directions of a cell, each with its tight
    set, read off the face lattice; None when the cell has no vertex.

    A cell with a vertex contains no line, and each of its closed faces is
    then the convex hull of the vertices inside it plus the cone on the
    directions of the unbounded edges inside it.  Directions are scaled to
    integer vectors.
    """
    faces = cell.face_lattice()
    verts = [(f.tight, f.sample) for f in faces if f.dim == 0]
    if not verts:
        return None
    rays = []
    for f in faces:
        if f.dim == 1 and not f.is_bounded:
            u = next(x for t, x in verts if t >= f.tight)
            rays.append((f.tight, linalg.clear_denominators(
                [a - b for a, b in zip(f.sample, u)])))
    return verts, rays


def _face_inside(cell: LabelledPolyhedron, gens, tight, other: LabelledPolyhedron) -> bool:
    """Is the closed face of ``cell`` where the labels in ``tight`` bind
    inside ``other``?

    ``gens`` is ``_generators(cell)``.  The convex hull of points plus a cone
    lies in ``other`` iff the points do and no label of ``other`` decreases
    along a direction of the cone.  Without generators, one feasibility probe
    per label of ``other``.
    """
    if gens is None:
        fbar_rows = _weak_rows(cell)
        for i in tight:
            lab = cell.labels[i]
            fbar_rows.append((tuple(-x for x in lab.v), lab.r, False))
        return _rows_hold_on(fbar_rows, _weak_rows(other), cell.dim)
    verts, rays = gens
    return all(
        other.contains(x, "closed") for t, x in verts if t >= tight
    ) and all(
        linalg.dot(lab.v, d) >= 0 for t, d in rays if t >= tight for lab in other.labels
    )


def _interest_box(S: Subdivision, pad: int = 1):
    samples = []
    for cell in S.cells:
        for f in cell.face_lattice():
            samples.append(f.sample)
    if not samples:
        return None
    lo = [min(s[c] for s in samples) - pad for c in range(S.dim)]
    hi = [max(s[c] for s in samples) + pad for c in range(S.dim)]
    return lo, hi, samples


def _grid_points(lo, hi, steps: int = 7):
    axes = []
    for a, b in zip(lo, hi):
        if a == b:
            axes.append([Fraction(a)])
        else:
            axes.append([Fraction(a) + Fraction(j * (b - a), steps) for j in range(steps + 1)])
    return [tuple(p) for p in itertools.product(*axes)]


def _in_region(point, region) -> bool:
    if region == "all":
        return True
    if region == "dominant":
        return all(x >= 0 for x in point)
    raise ValueError(f"unknown region {region!r}")


def validate(S: Subdivision, region: str = "all") -> Report:
    """Face-closedness, proper pairwise intersections and region coverage."""
    rep = Report(f"subdivision (region={region})")
    cells = S.cells
    rep.add(f"cells: {len(cells)}")
    dims = [c.body_dim() for c in cells]
    if any(d < 0 for d in dims):
        rep.fail("empty-cell: subdivision contains an empty cell")
        return rep
    tops = [c.top_face().sample for c in cells]

    gens = [_generators(c) for c in cells]
    hints = [[f.sample for f in c.face_lattice()] for c in cells]

    # (a) every closed face of every cell is a cell.  For a candidate cell D
    # with relint sample inside the closed face: D is inside every tight
    # hyperplane for free (a bound achieved at a relint point of a convex
    # set is achieved identically), so only D-inside-cell and face-inside-D
    # need checking.
    for ci, cell in enumerate(cells):
        for f in cell.face_lattice():
            hit = False
            for cj, other in enumerate(cells):
                if dims[cj] != f.dim:
                    continue
                if not (cell.contains(tops[cj], "closed") and f.tight <= cell.tight_at(tops[cj])):
                    continue
                if not other.contains(f.sample, "closed"):
                    continue
                if _face_inside(cell, gens[ci], f.tight, other) and _face_inside(
                    other, gens[cj], frozenset(), cell
                ):
                    hit = True
                    break
            if not hit:
                rep.fail(f"missing-face: cell {ci} face {sorted(f.tight)}")

    # (b) pairwise intersections are closed faces of each.  Q lies inside
    # the minimal closed face of each cell around its relint sample q, so it
    # is that face iff the face lies inside the other cell.  A Q that
    # is a face of both cells with q in the relative interior of each is
    # both cells: one cell listed twice.
    equalities = [c.implicit_equalities() for c in cells]
    for ci in range(len(cells)):
        for cj in range(ci + 1, len(cells)):
            Q = intersect(cells[ci], cells[cj])
            q = _interior_sample(Q, hints[ci])
            if q is None:
                continue  # empty intersection: the trivial common face
            whole = True
            for ck, other in ((ci, cj), (cj, ci)):
                tight = cells[ck].tight_at(q)
                if not _face_inside(cells[ck], gens[ck], tight, cells[other]):
                    rep.fail(f"bad-intersection: cells {ci} {cj} not a face of {ck}")
                    whole = False
                elif tight != equalities[ck]:
                    whole = False
            if whole:
                rep.fail(f"duplicate-cell: cells {ci} {cj}")

    # (c) coverage of the region on a grid plus all face samples
    box = _interest_box(S)
    if box is not None:
        lo, hi, samples = box
        probes = list(dict.fromkeys(_grid_points(lo, hi) + samples))
        misses = 0
        for p in probes:
            if not _in_region(p, region):
                continue
            if not any(cell.contains(p, "closed") for cell in cells):
                misses += 1
                if misses <= 5:
                    rep.fail(f"uncovered: {tuple(str(x) for x in p)}")
        if misses > 5:
            rep.fail(f"uncovered-total: {misses}")
    return rep


def is_admissible(S: Subdivision, delta: LabelledPolyhedron) -> bool:
    """Transversality of every open cell face against every open face of delta."""
    if not delta.is_bounded():
        raise ValueError("moment polytope must be bounded")
    k = delta.dim
    for cell in S.cells:
        for f in cell.face_lattice():
            f_rows = _relint_rows(cell, f)
            for g in delta.face_lattice():
                rows = f_rows + _relint_rows(delta, g)
                if feasible_point(rows, k) is None:
                    continue
                span = [list(v) for v in f.affine_basis] + [list(v) for v in g.affine_basis]
                if linalg.rank(span) < k:
                    return False
    return True


def euler_check(S: Subdivision, samples: int, seed: int = 0, region: str = "all") -> Report:
    """Alternating codimension sum over the cells containing each probe point."""
    rep = Report(f"euler identity ({samples} points)")
    box = _interest_box(S)
    if box is None:
        rep.fail("empty subdivision")
        return rep
    lo, hi, face_samples = box
    rng = random.Random(seed)
    probes = [p for p in dict.fromkeys(face_samples) if _in_region(p, region)]
    while len(probes) < samples:
        p = tuple(
            Fraction(rng.randint(int(a * 7), int(b * 7)), 7) for a, b in zip(lo, hi)
        )
        if _in_region(p, region):
            probes.append(p)
    probes = probes[:samples]
    k = S.dim
    bad = 0
    for p in probes:
        total = sum(
            (-1) ** (k - cell.body_dim())
            for cell in S.cells
            if cell.contains(p, "closed")
        )
        if total != 1:
            bad += 1
            if bad <= 5:
                rep.fail(f"sum: {tuple(str(x) for x in p)} -> {total}")
    rep.add(f"points: {len(probes)}")
    if bad > 5:
        rep.fail(f"bad-total: {bad}")
    return rep


def glue_count_check(delta: LabelledPolyhedron, S: Subdivision) -> Report:
    """Inclusion-exclusion of lattice points and characters over the cells."""
    rep = Report("gluing counts")
    if not delta.is_bounded():
        raise ValueError("moment polytope must be bounded")
    k = delta.dim
    direct = counting.toric_rr(delta, 1)
    total: dict = {}
    count_total = 0
    for cell in S.cells:
        piece = intersect(delta, cell)
        sign = (-1) ** (k - cell.body_dim())
        pts = counting.lattice_points(piece, 1)
        count_total += sign * len(pts)
        for pt in pts:
            total[pt] = total.get(pt, 0) + sign
    total = {pt: c for pt, c in total.items() if c != 0}
    rep.add(f"points: {len(direct)}")
    if count_total != len(direct):
        rep.fail(f"count: {count_total} != {len(direct)}")
    if total != direct:
        rep.fail("character-mismatch")
    return rep


# -- the wall-dual subdivision ------------------------------------------------


def _cone_cell(R: RootSystem, apex, gens) -> LabelledPolyhedron:
    """Shifted simplicial cone apex + cone(gens) as a labelled polyhedron."""
    k = R.rank
    labels = []
    if gens:
        rows = [list(g) for g in gens]
        for w in linalg.kernel_basis(rows, cols=k):
            r = linalg.dot(apex, w)
            labels.append(Label(w, r, weighted=not linalg.is_primitive(w)))
            labels.append(Label(tuple(-x for x in w), -r, weighted=not linalg.is_primitive(w)))
        for i in range(len(gens)):
            ei = [Fraction(1 if j == i else 0) for j in range(len(gens))]
            u = linalg.solve(rows, ei)
            if u is None:
                raise RuntimeError("cone generators are not linearly independent")
            ui = linalg.clear_denominators(u)
            labels.append(Label(ui, linalg.dot(apex, ui)))
    else:
        for i in range(k):
            e = tuple(1 if j == i else 0 for j in range(k))
            r = Fraction(apex[i])
            labels.append(Label(e, r))
            labels.append(Label(tuple(-x for x in e), -r))
    return LabelledPolyhedron(k, labels)


def dual_subdivision(R: RootSystem, lam) -> Subdivision:
    """Subdivision of the chamber dual to the wall structure, shifted to lam.

    One cell per wall pair sigma <= tau, spanned at lam by the fundamental
    weights of sigma and the negated simple roots missing from tau; its
    codimension is dim tau - dim sigma.
    """
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != R.rank or any(x <= 0 for x in lam):
        raise ValueError("shift point must be strictly dominant")
    k = R.rank
    cells = []
    walls_meta = []
    for tau_mask in range(1 << k):
        tau = frozenset(i for i in range(k) if tau_mask >> i & 1)
        sigma_mask = tau_mask
        while True:
            sigma = frozenset(i for i in range(k) if sigma_mask >> i & 1)
            gens = []
            for i in sorted(sigma):
                gens.append(tuple(Fraction(1 if j == i else 0) for j in range(k)))
            for j in range(k):
                if j not in tau:
                    gens.append(tuple(Fraction(-R.cartan[i][j]) for i in range(k)))
            cell = _cone_cell(R, lam, gens)
            expected_codim = len(tau) - len(sigma)
            if k - cell.body_dim() != expected_codim:
                raise ValueError("degenerate cell: shift point is not generic")
            cells.append(cell)
            walls_meta.append((sigma, tau))
            if sigma_mask == 0:
                break
            sigma_mask = (sigma_mask - 1) & tau_mask
    order = sorted(
        range(len(cells)),
        key=lambda i: (sorted(walls_meta[i][1]), sorted(walls_meta[i][0])),
    )
    return Subdivision(k, [cells[i] for i in order], [walls_meta[i] for i in order])


def wall_alternating_sums(S: Subdivision, delta: LabelledPolyhedron) -> dict:
    """Per-wall alternating count of subdivision cells meeting delta."""
    if S.walls is None:
        raise ValueError("subdivision carries no wall metadata")
    sums: dict = {}
    delta_rows = _weak_rows(delta)
    for (sigma, tau), cell in zip(S.walls, S.cells):
        rows = delta_rows + _weak_rows(cell)
        if feasible_point(rows, delta.dim) is None:
            continue
        sums[tau] = sums.get(tau, 0) + (-1) ** (len(tau) - len(sigma))
    return sums
