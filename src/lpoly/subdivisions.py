"""Polyhedral subdivisions: validation, admissibility, Euler and gluing
identities, and the wall-dual subdivision of the dominant chamber.

Cells are labelled polyhedra (unbounded ones included).  ``validate``
compares closed faces by one canonical, hashable key (``_key``) made from
their generators -- the points of the minimal faces orthogonal to the
lineality space, the primitive extreme rays and the lineality space's
reduced-echelon basis -- so two keys are equal exactly when the sets are.
Face-closedness is a set lookup of every face's key among the cells' keys,
and a cell listed twice is two equal keys.

Proper intersections are first certified by facet pairing (Grunbaum and
Shephard, *Tilings and Patterns*; Ziegler, *Lectures on Polytopes*, ch. 5).
Suppose (a) passes, no two keys are equal, every cell's key is a face key
of some k-cell (a full-dimensional one), every facet of a k-cell is a facet
of exactly two k-cells, whose interior samples lie strictly on opposite
sides of a label tight on it, and (c)'s witness, a point of the open region
inside a k-cell, lies in no other k-cell.  A point off the k-cells'
(k-2)-skeletons lies in the relative interior of every facet through it,
and each such facet has its two cells one on each side, so the number of
k-cells over a point off every boundary does not change across a facet.
The complement of the skeletons is connected, so that number is 1
everywhere, as at the witness: the k-cells tile R^k facet to facet.  Such
a tiling is face-to-face.  Let p lie in the relative interior of a face F
of a k-cell C.  Near p, a k-cell with F as a face is its tangent cone at
F, and each facet of that cone is a facet through F, whose partner cell
has F as a face too.  So the cells reached from C across facets containing
F have a union that is closed and, off a set of codimension 2, open: it is
a neighbourhood of p.  Interiors are disjoint, so every k-cell through p is
one of these and has F as a face.  For k-cells C and D, let p lie in the
relative interior of C & D and F be the face of C with p in its relative
interior; F contains C & D and is a face of D, so F = C & D.  Every other
cell is a face of a k-cell, and faces A of C and B of D meet in a face of
each: A & B = (A & G) & (B & G), where G = C & D is a face of both.  So (b)
holds with no probe, and (c) too: no facet is unpaired, and the witness
lies in the region.

When the certificate declines, (b) decides and names the failing pairs on
the same keys: I = Ci & Cj contains every face the two cells share, so it
is a face of both iff it lies inside Q, their shared face of highest
dimension.  A point of I lies off Q iff a label of Ci tight on Q is slack
there, so one feasibility probe with the sum of those labels' rows made
strict decides the pair; labels zero on all of I, a positive multiple of
whose opposite row is a row of either cell, are left out, and when none is
left no probe is made.  Only a pair that fails is then named, cell by cell:
I is a face of Ck iff it lies inside the highest-dimensional face of Ck
inside the other cell.

Coverage is exact, by facet pairing.  When intersections are proper, a
facet shared by two full-dimensional cells has them on opposite sides, so
the number of full-dimensional cells over a point is constant off the
(k-2)-skeleton except across facets that no second cell shares.  The open
region is therefore covered, exactly once, iff some full-dimensional
cell's interior meets it and no unpaired facet's relative interior does:
one feasibility probe each, with no sample points.  Without proper
intersections an unpaired facet need not border a gap, so coverage is
checked only when every intersection passed.

Membership in ``validate`` and ``euler_check`` is integer arithmetic on
points scaled once (``linalg._scaled``) and tested against every cell's
label rows; feasibility probes take the ``(c, k, strict)`` rows of
``polyhedra._rows``: two cells plus one strict row, a cell, or a face's
relative interior with its tight labels as equalities and the others
strict.  ``euler_check`` still samples probe points, drawn as integer
numerators over 7: a seeded cross-check of the Euler identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import counting, linalg
from ._feasible import _normalize, feasible_point
from .linalg import InvariantError, _scaled
from .polyhedra import Generators, Label, LabelledPolyhedron, _rows, intersect
from .report import Report
from .rootsys import RootSystem


@dataclass
class Subdivision:
    dim: int
    cells: list[LabelledPolyhedron]
    walls: list[tuple[frozenset, frozenset]] | None = None  # (sigma, tau) metadata


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


def _meets_off(cell: LabelledPolyhedron, face, base) -> bool:
    """Has the intersection of ``cell`` with another cell, whose rows and
    ``cell``'s make ``base``, a point off the closed ``face`` of ``cell``
    (any point at all when ``face`` is None, the empty face)?

    Such a point makes some label tight on the face slack, so one probe
    asks for a positive sum of those labels' rows.  A label a positive
    multiple of whose opposite row is among ``base`` is zero on the whole
    intersection and is left out; when no label is left, the intersection
    lies inside the face.
    """
    if face is None:
        return feasible_point(base, cell.dim) is not None
    present = {_normalize(c, k, False) for c, k, _ in base}
    slack = [(c, k) for c, k in (cell.labels[i].row for i in face.tight)
             if _normalize(tuple(-x for x in c), -k, False) not in present]
    if not slack:
        return False
    row = (tuple(map(sum, zip(*(c for c, _ in slack)))), sum(k for _, k in slack), True)
    return feasible_point(base + [row], cell.dim) is not None


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


def _region(region: str, k: int) -> LabelledPolyhedron:
    """The closed region: all of k-space, or the dominant orthant x >= 0."""
    if region == "all":
        return LabelledPolyhedron(k, [])
    if region == "dominant":
        return LabelledPolyhedron(
            k, [Label(tuple(int(i == j) for j in range(k)), 0) for i in range(k)])
    raise ValueError(f"unknown region {region!r}")


def _key(gens: Generators):
    """Canonical key of the closed set conv(points) + cone(rays) +
    span(lineality): two keys are equal exactly when the sets are.  The set
    fixes its lineality space and ``kernel_basis`` returns that space's
    reduced-echelon basis; it fixes its minimal faces, and each gives the one
    point orthogonal to the lineality space; and it fixes its extreme rays
    modulo lineality, each a primitive vector."""
    return (frozenset(x for _, x in gens.points), frozenset(u for _, u in gens.rays),
            gens.lineality)


def _face_keys(cells):
    """Each cell's key, and each cell's faces paired with their keys."""
    gens = [c.generators() for c in cells]
    faces = [[(f, _key(g.of_face(f.tight))) for f in c.face_lattice()]
             for c, g in zip(cells, gens)]
    return [_key(g) for g in gens], faces


def _pair_failures(cells, keys, faces) -> list[str]:
    """(b): a line for every cell listed twice and for every pair whose
    intersection is not a closed face of each.  I = Ci & Cj contains every
    face the cells share, so it is a face of both iff it lies inside Q,
    their shared face of highest dimension (the empty face when they share
    none)."""
    rows = [_rows(c) for c in cells]
    # each cell's faces by key, highest dimension first
    by_key = [{key: f for f, key in sorted(cf, key=lambda fk: -fk[0].dim)} for cf in faces]
    lines = []
    for ci in range(len(cells)):
        for cj in range(ci + 1, len(cells)):
            if keys[ci] == keys[cj]:
                lines.append(f"duplicate-cell: cells {ci} {cj}")
                continue
            base = rows[ci] + rows[cj]
            Q = next((f for key, f in by_key[ci].items() if key in by_key[cj]), None)
            if not _meets_off(cells[ci], Q, base):
                continue
            # I is a face of Ck iff it lies inside G, the highest-dimensional
            # face of Ck inside the other cell
            for ck, other in ((ci, cj), (cj, ci)):
                G = max((f for f in cells[ck].face_lattice()
                         if _face_inside(cells[ck], f.tight, cells[other])),
                        key=lambda f: f.dim, default=None)
                if _meets_off(cells[ck], G, base):
                    lines.append(f"bad-intersection: cells {ci} {cj} not a face of {ck}")
    return lines


def _facets_paired(cells, keys, faces, tops, facets) -> bool:
    """The certificate's conditions on faces: no two cells are equal, each
    is a face of a k-cell, and each facet of a k-cell is a facet of exactly
    two, whose interior samples lie strictly on opposite sides of a label
    tight on it."""
    if len(set(keys)) < len(keys):
        return False
    if not {key for ci in tops for _, key in faces[ci]}.issuperset(keys):
        return False
    inner = {ci: _scaled(cells[ci].interior_sample()) for ci in tops}
    for pair in facets.values():
        if len(pair) != 2:
            return False
        (ci, f), (cj, _) = pair
        c, k = cells[ci].labels[min(f.tight)].row
        sides = [sum(map(mul, X, c)) + k * d for X, d in (inner[ci], inner[cj])]
        if sides[0] * sides[1] >= 0:
            return False
    return True


def _witness(cells, tops, open_region):
    """(c)'s probe: a point of the open region inside some k-cell, or None."""
    for ci in tops:
        w = feasible_point(_rows(cells[ci], strict=True) + open_region, cells[ci].dim)
        if w is not None:
            return w
    return None


def validate(S: Subdivision, region: str = "all") -> Report:
    """Face-closedness, proper pairwise intersections and exact coverage of
    the region, all on canonical face keys (``_key``).  Intersections are
    certified by facet pairing when the cells tile space once, and probed
    pair by pair, naming the failures, otherwise."""
    rep = Report(f"subdivision (region={region})")
    cells = S.cells
    rep.add(f"cells: {len(cells)}")
    if any(c.body_dim() < 0 for c in cells):
        rep.fail("empty-cell: subdivision contains an empty cell")
        return rep
    keys, faces = _face_keys(cells)

    # (a) every closed face of every cell is a cell
    known = set(keys)
    for ci, cell_faces in enumerate(faces):
        for f, key in cell_faces:
            if key not in known:
                rep.fail(f"missing-face: cell {ci} face {sorted(f.tight)}")

    # the facet-pairing certificate (see the module docstring): when it
    # holds, (b) and (c) hold with no further probe
    k = S.dim
    tops = [ci for ci, c in enumerate(cells) if c.body_dim() == k]
    facets = {}  # each facet key of the k-cells: the (cell, face) pairs it bounds
    for ci in tops:
        for f, key in faces[ci]:
            if f.dim == k - 1:
                facets.setdefault(key, []).append((ci, f))
    open_region = _rows(_region(region, k), strict=True)
    witness = None
    if rep.ok and _facets_paired(cells, keys, faces, tops, facets):
        witness = _witness(cells, tops, open_region)
        if witness is not None:
            X, d = _scaled(witness)
            if sum(cells[ci]._holds(X, d) for ci in tops) == 1:
                return rep

    # (b) no cell is listed twice, and pairwise intersections are closed
    # faces of each
    failures = _pair_failures(cells, keys, faces)
    for line in failures:
        rep.fail(line)

    # (c) exact coverage by facet pairing, which needs (b) to hold (see the
    # module docstring)
    if failures:
        return rep
    for pair in facets.values():
        if len(pair) == 1:
            (ci, f), = pair
            if feasible_point(_rows(cells[ci], f.tight, strict=True) + open_region,
                              k) is not None:
                rep.fail(f"uncovered: cell {ci} facet {sorted(f.tight)}")
    if witness is None and _witness(cells, tops, open_region) is None:
        rep.fail(f"uncovered: no {k}-dimensional cell meets the region")
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
    inside = _region(region, S.dim)
    # each probe is (X, d), the point X/d; a random draw is X over 7, its
    # numerators inside the box scaled by 7
    probes = [_scaled(p) for p in dict.fromkeys(face_samples) if inside.contains(p)]
    grid = [(int(a * 7), int(b * 7)) for a, b in zip(lo, hi)]
    while len(probes) < samples:
        X = [rng.randint(a, b) for a, b in grid]
        if inside._holds(X, 7):
            probes.append((X, 7))
    probes = probes[:samples]
    k = S.dim
    signs = [(-1) ** (k - cell.body_dim()) for cell in S.cells]
    bad = 0
    for X, d in probes:
        total = sum(sign for sign, cell in zip(signs, S.cells) if cell._holds(X, d))
        if total != 1:
            bad += 1
            if bad <= 5:
                rep.fail(f"sum: {tuple(str(Fraction(x, d)) for x in X)} -> {total}")
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
    k, m = R.rank, len(gens)
    # one elimination of [G | -I]: its kernel holds (w, 0) for each w normal
    # to the gens, then (s u_i, s e_i), s > 0, per dual vector <g_j, u_i> = [i == j]
    kern = linalg.kernel_basis([list(g) + [-int(i == j) for j in range(m)]
                                for i, g in enumerate(gens)], cols=k)
    if sum(any(v[k:]) for v in kern) < m:
        raise InvariantError("cone generators are not linearly independent")
    labels = []
    A, d = _scaled(apex)  # each offset <apex, w> is <A, w> / d
    for v in kern:
        w = v[:k]
        if any(v[k:]):
            ui = linalg.primitive(w)
            labels.append(Label(ui, Fraction(linalg.dot(A, ui), d)))
        else:
            # v is primitive and its tail is zero, so w is primitive
            r = Fraction(linalg.dot(A, w), d)
            labels += [Label(w, r), Label(tuple(-x for x in w), -r)]
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
                gens.append(tuple(int(j == i) for j in range(k)))
            for j in range(k):
                if j not in tau:
                    gens.append(tuple(-R.cartan[i][j] for i in range(k)))
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
