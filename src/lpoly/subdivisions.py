"""Polyhedral subdivisions: validation, admissibility, Euler and gluing
identities, and the wall-dual subdivision of the dominant chamber.

Cells are labelled polyhedra (unbounded ones included).  Pairwise checks
lean on an exact relint-sample argument: a nonnegative affine functional
vanishing at a relative-interior point of a convex set vanishes on all of
it, so an intersection is automatically inside the minimal closed face
around its sample and only the reverse inclusion needs a test.  That test
reads the face's generators -- points, rays and the cell's lineality space
-- off the cell, one route for bounded, unbounded and line-containing cells.

Membership in ``validate`` and ``euler_check`` is integer arithmetic on
points scaled once (``linalg._scaled``) and tested against every cell's
label rows; feasibility probes take the ``(c, k, strict)`` rows of
``polyhedra._rows``: a cell, or a face's relative interior with its tight
labels as equalities and the others strict.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import counting, linalg
from ._feasible import feasible_point
from .linalg import _scaled
from .polyhedra import Label, LabelledPolyhedron, _rows, _zeros, intersect
from .report import Report
from .rootsys import RootSystem


@dataclass
class Subdivision:
    dim: int
    cells: list[LabelledPolyhedron]
    walls: list[tuple[frozenset, frozenset]] | None = None  # (sigma, tau) metadata


def _interior_sample(P: LabelledPolyhedron, hints=()):
    """Relative-interior sample without computing the face lattice.

    A label is an implicit equality iff no point of P makes it strict.  The
    points of P among ``hints``, or one feasibility witness when there are
    none, start a set of witnesses, and a label strict at a witness is not an
    equality, while a label whose opposite row (-c, -k) is also a label's
    row is one, whatever their ``weighted`` flags.
    The labels left are probed together: the sum of their slacks is positive
    somewhere on P iff one of them is strict there, so an infeasible probe
    proves them all equalities, and a feasible one adds a witness strict on
    at least one of them.  Every label that is not an equality ends strict
    at some witness, so the average of the witnesses is strict on exactly
    those labels: a relative-interior point.  None when P is empty.
    """
    base = _rows(P)
    witnesses = [Xd for Xd in map(_scaled, hints) if P._holds(*Xd)]
    if not witnesses:
        w = feasible_point(base, P.dim)
        if w is None:
            return None
        witnesses = [_scaled(w)]
    present = {lab.row for lab in P.labels}
    pending = {i for i, (c, k) in enumerate(lab.row for lab in P.labels)
               if (tuple(-x for x in c), -k) not in present}
    for X, d in witnesses:
        pending.intersection_update(_zeros(P._signs(X, d)))
    while pending:
        labs = [P.labels[i] for i in pending]
        coeffs = tuple(map(sum, zip(*(lab.v for lab in labs))))
        const = -sum(lab.r for lab in labs)
        p = feasible_point(base + [(coeffs, const, True)], P.dim)
        if p is None:
            break
        X, d = _scaled(p)
        witnesses.append((X, d))
        pending.intersection_update(_zeros(P._signs(X, d)))
    # the average of the witnesses X/d, over their common denominator
    D = lcm(*(d for _, d in witnesses))
    total = [sum(c) for c in zip(*([x * (D // d) for x in X] for X, d in witnesses))]
    n = len(witnesses) * D
    return tuple(Fraction(c, n) for c in total)


def _face_inside(cell: LabelledPolyhedron, tight, other: LabelledPolyhedron) -> bool:
    """Is the closed face of ``cell`` where the labels in ``tight`` bind
    inside ``other``?

    The face is the convex hull of its points plus the cone on its rays plus
    the cell's lineality space, so it lies in ``other`` iff the points do, no
    label of ``other`` decreases along a ray, and every label of ``other`` is
    constant along the lineality space.
    """
    points, rays, lineality = cell.generators().of_face(tight)
    return (
        all(other.contains(x, "closed") for _, x in points)
        and all(linalg.dot(lab.v, d) >= 0 for _, d in rays for lab in other.labels)
        and all(linalg.dot(lab.v, d) == 0 for d in lineality for lab in other.labels)
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
    tops = [_scaled(c.top_face().sample) for c in cells]

    hints = [[f.sample for f in c.face_lattice()] for c in cells]

    # (a) every closed face of every cell is a cell.  For a candidate cell D
    # with relint sample inside the closed face: D is inside every tight
    # hyperplane for free (a bound achieved at a relint point of a convex
    # set is achieved identically), so only D-inside-cell and face-inside-D
    # need checking.
    for ci, cell in enumerate(cells):
        # per top sample: its tight set in this cell, None when outside it
        at = []
        for X, d in tops:
            signs = cell._signs(X, d)
            at.append(_zeros(signs) if all(t >= 0 for t in signs) else None)
        for f in cell.face_lattice():
            hit = False
            sample = _scaled(f.sample)
            for cj, other in enumerate(cells):
                if dims[cj] != f.dim or at[cj] is None or not f.tight <= at[cj]:
                    continue
                if not other._holds(*sample):
                    continue
                if _face_inside(cell, f.tight, other) and _face_inside(
                    other, frozenset(), cell
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
                if not _face_inside(cells[ck], tight, cells[other]):
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
            X, d = _scaled(p)
            if not any(cell._holds(X, d) for cell in cells):
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
            f_rows = _rows(cell, f.tight, strict=True)
            for g in delta.face_lattice():
                rows = f_rows + _rows(delta, g.tight, strict=True)
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
    signs = [(-1) ** (k - cell.body_dim()) for cell in S.cells]
    bad = 0
    for p in probes:
        X, d = _scaled(p)
        total = sum(sign for sign, cell in zip(signs, S.cells) if cell._holds(X, d))
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
    delta_rows = _rows(delta)
    for (sigma, tau), cell in zip(S.walls, S.cells):
        rows = delta_rows + _rows(cell)
        if feasible_point(rows, delta.dim) is None:
            continue
        sums[tau] = sums.get(tau, 0) + (-1) ** (len(tau) - len(sigma))
    return sums
