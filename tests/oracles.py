"""Oracles for the face, subdivision and root-system tests.

A label's slack at a point, the opposite of a label, closed faces as labelled polyhedra, exact
containment and equality of the underlying sets by Fourier-Motzkin probes,
and the join and meet of two faces.  The tests check ``excess``,
``validate`` and ``_key`` against these; the library itself decides faces by
tight sets and generator keys.

``generators_by_kernels`` and ``faces_by_kernels`` are the independent
route to face lattices: one elimination per label subset and per face, in
``Fraction`` arithmetic, against which the integer build is checked.

``hull_by_frames`` and ``minimalize_by_probes`` are the independent routes
to hulls and minimalization: facets by one ``kernel_basis`` per point subset
in an affine frame (affine dimension 3 at most), and one Fourier-Motzkin
probe per label; the polar-cone hull and the generator-tight-set
minimalization are checked against them.

``root_system_by_inverses`` and ``wall_data_by_search`` are the independent
route to root systems: each Weyl element inverted by search, roots read off
the group with ``linalg.solve`` deciding positivity, and each wall's longest
element looked up by its index in W; the reflection closures of
``rootsys`` are checked against them.
"""

from fractions import Fraction
from itertools import combinations

from lpoly import linalg
from lpoly._feasible import feasible_point
from lpoly.linalg import InvariantError
from lpoly.polyhedra import (
    Face, Generators, Label, LabelledPolyhedron, _opposite, _rows, below, check_face,
)
from lpoly.rootsys import _CARTAN, _ORDER, Root, RootSystem, act


def slack(P: LabelledPolyhedron, i: int, x) -> Fraction:
    """<x, v_i> - r_i: label i holds at x when it is >= 0, binds when 0."""
    lab = P.labels[i]
    return linalg.dot(x, lab.v) - lab.r


def flipped(lab: Label) -> Label:
    """The label of <x, v> <= r: the closed half-space opposite ``lab``'s."""
    return Label(tuple(-x for x in lab.v), -lab.r, weighted=lab.weighted)


def closed_face(P: LabelledPolyhedron, F: Face) -> LabelledPolyhedron:
    """P's labels plus each label tight on F flipped: the closure of F."""
    check_face(P, F)
    opposite = [flipped(P.labels[i]) for i in sorted(F.tight)]
    return LabelledPolyhedron(P.dim, list(P.labels) + opposite)


def is_subset(P: LabelledPolyhedron, Q: LabelledPolyhedron) -> bool:
    """Exact containment P <= Q: no point of P violates a label of Q."""
    base = _rows(P)
    return all(feasible_point(base + [_opposite(lab, True)], P.dim) is None
               for lab in Q.labels)


def same_set(P: LabelledPolyhedron, Q: LabelledPolyhedron) -> bool:
    return is_subset(P, Q) and is_subset(Q, P)


def face_join(P: LabelledPolyhedron, F1: Face, F2: Face) -> Face:
    """Smallest face whose closure contains both: the face of the midpoint
    of their relative-interior samples."""
    mid = tuple((a + b) / 2 for a, b in zip(F1.sample, F2.sample))
    return {f.tight: f for f in P.face_lattice()}[P.tight_at(mid)]


def face_meet(P: LabelledPolyhedron, F1: Face, F2: Face) -> Face | None:
    """Open face whose closure is cl(F1) & cl(F2), or None when empty."""
    want = F1.tight | F2.tight
    candidates = [f for f in P.face_lattice() if f.tight >= want]
    if not candidates:
        return None
    top = max(candidates, key=lambda f: f.dim)
    if not all(below(f, top) for f in candidates):
        raise AssertionError("face intersection is not a face")
    return top


# -- face lattices by one elimination per subset and per face ------------------


def solve_unique(a, b):
    """The solution of ``a x = b`` when there is exactly one, else None."""
    return linalg.solve(a, b) if linalg.rank(a) == len(a[0]) else None


def generators_by_kernels(P: LabelledPolyhedron) -> Generators:
    """P's generators by the enumeration that ``_compute_generators`` speeds
    up: ``kernel_basis`` for L and for every (r-1)-subset, ``solve_unique``
    for every r-subset, and ``Fraction`` slacks; no subset is skipped for
    parallel vectors, and only generators already found prune."""
    k, n = P.dim, len(P.labels)
    vs = [lab.v for lab in P.labels]
    lin = tuple(linalg.kernel_basis(vs, cols=k))
    r = k - len(lin)
    points = []
    for T in combinations(range(n), r):
        if any(t.issuperset(T) for t, _ in points):
            continue
        x = solve_unique([vs[i] for i in T] + list(lin),
                         [P.labels[i].r for i in T] + [0] * len(lin))
        if x is None:
            continue
        slacks = [slack(P, i, x) for i in range(n)]
        if all(s >= 0 for s in slacks):
            points.append((frozenset(i for i, s in enumerate(slacks) if s == 0), x))
    rays = []
    for T in combinations(range(n), r - 1) if r else ():
        if any(z.issuperset(T) for z, _ in rays):
            continue
        kern = linalg.kernel_basis([vs[i] for i in T] + list(lin), cols=k)
        if len(kern) != 1:
            continue
        u = kern[0]
        pairings = [linalg.dot(v, u) for v in vs]
        if min(pairings) < 0:
            if max(pairings) > 0:
                continue
            u = tuple(-c for c in u)
        rays.append((frozenset(i for i, p in enumerate(pairings) if p == 0), u))
    return Generators(tuple(points), tuple(rays), lin)


def faces_by_kernels(P: LabelledPolyhedron) -> list[Face]:
    """P's faces from ``generators_by_kernels`` by the same closures as
    ``_compute_faces``, with ``Fraction`` samples and one ``kernel_basis`` of
    the tight label vectors per face."""
    gens = generators_by_kernels(P)
    npts = len(gens.points)
    tights = [t for t, _ in gens.points] + [z for z, _ in gens.rays]
    found = {}
    todo = [tuple(range(len(tights)))] if npts else []
    while todo:
        G = todo.pop()
        S = frozenset.intersection(*(tights[g] for g in G))
        if S in found:
            continue
        found[S] = G
        for j in range(len(P.labels)):
            if j not in S:
                H = tuple(g for g in G if j in tights[g])
                if H and H[0] < npts:
                    todo.append(H)
    faces = []
    for S, G in found.items():
        pts = [gens.points[g][1] for g in G if g < npts]
        rays = [gens.rays[g - npts][1] for g in G if g >= npts]
        sample = [sum(c) / len(pts) for c in zip(*pts)]
        for u in rays:
            sample = [a + b for a, b in zip(sample, u)]
        basis = tuple(linalg.kernel_basis([P.labels[i].v for i in sorted(S)], cols=P.dim))
        faces.append(Face(S, len(basis), basis, tuple(sample), not rays and not gens.lineality))
    return sorted(faces, key=Face.sort_key)


# -- hulls by affine frames, minimalization by probes --------------------------


def _affine_basis(points):
    """(base point, independent direction list) spanning the affine hull."""
    base = points[0]
    dirs = []
    for p in points[1:]:
        d = linalg.vsub(p, base)
        if linalg.rank([list(x) for x in dirs + [d]]) == len(dirs) + 1:
            dirs.append(d)
    return base, dirs


def hull_by_frames(ambient_dim: int, points):
    """``hull.hull_of_points`` by the enumeration it replaces: frame
    coordinates in the affine hull, one ``kernel_basis`` per d-subset of the
    points for a candidate facet, and each facet normal pulled back from the
    frame by ``linalg.solve``.  Facet labels come in the sorted order of the
    frame normals.  Affine dimension 3 at most."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    k = ambient_dim
    base, dirs = _affine_basis(pts)
    d = len(dirs)
    labels: list[Label] = []

    # affine-hull equalities as label pairs
    if d < k:
        for w in linalg.kernel_basis([list(x) for x in dirs], cols=k):
            r = linalg.dot(base, w)
            labels.append(Label(w, r, weighted=not linalg.is_primitive(w)))
            labels.append(Label(tuple(-x for x in w), -r, weighted=not linalg.is_primitive(w)))

    if d == 0:
        return LabelledPolyhedron(k, labels), list(pts)
    if d > 3:
        raise ValueError("hull supported in affine dimension <= 3 only")

    # coordinates of every point in the affine frame
    dmat = [[Fraction(dirs[j][c]) for j in range(d)] for c in range(k)]
    coords = []
    for p in pts:
        c = linalg.solve(dmat, list(linalg.vsub(p, base)))
        if c is None:
            raise InvariantError("point outside the affine hull of the frame")
        coords.append(c)

    facets = set()
    for subset in combinations(range(len(pts)), d):
        rows = [list(linalg.vsub(coords[i], coords[subset[0]])) for i in subset[1:]]
        normals = linalg.kernel_basis(rows, cols=d)
        if len(normals) != 1:
            continue
        n = normals[0]
        c0 = linalg.dot(coords[subset[0]], n)
        sides = {linalg.dot(c, n) - c0 for c in coords}
        if all(s >= 0 for s in sides):
            facets.add((n, c0))
        elif all(s <= 0 for s in sides):
            facets.add((tuple(-x for x in n), -c0))

    pairing_rows = [list(x) for x in dirs]
    for n, c0 in sorted(facets):
        # pull the frame normal back to an ambient label: any w with
        # <dirs_j, w> = n_j gives the same functional on the affine hull
        w = linalg.solve(pairing_rows, list(n))
        if w is None:
            raise InvariantError("frame normal has no ambient label")
        wi = linalg.clear_denominators(w)
        # wi = s * w for s > 0; read s off a nonzero entry
        j = next(i for i, x in enumerate(w) if x)
        r = linalg.dot(base, wi) + Fraction(c0) * wi[j] / w[j]
        labels.append(Label(wi, r))

    P = LabelledPolyhedron(k, labels)
    verts = [f.sample for f in P.face_lattice() if f.dim == 0]
    vert_set = set(verts)
    if not vert_set <= set(pts):
        raise InvariantError("hull vertex is not an input point")
    return P, sorted(vert_set)


def minimalize_by_probes(P: LabelledPolyhedron) -> LabelledPolyhedron:
    """``polyhedra.minimalize`` by one Fourier-Motzkin probe per label: the
    label's hyperplane touches P iff <x, v> <= r is also attainable on P."""
    if P.is_empty():
        return P
    base = _rows(P)
    return LabelledPolyhedron(P.dim, [
        lab for lab in P.labels
        if feasible_point(base + [_opposite(lab, False)], P.dim) is not None])


# -- root systems by inverse search and rational solves ------------------------


def _group_by_search(gens, k):
    """{element: length} of the group ``gens`` generate, breadth first."""
    ident = linalg.identity(k)
    lengths = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                cand = linalg.mat_mul(s, w)
                if cand not in lengths:
                    lengths[cand] = lengths[w] + 1
                    nxt.append(cand)
        frontier = nxt
    return lengths


def root_system_by_inverses(name: str) -> RootSystem:
    """``rootsys.root_system(name)`` by the construction it replaces: every
    root is w(alpha_j) with the coroot functional row j of w^-1, found by an
    O(|W|^2) search, and is positive when ``linalg.solve`` puts it in the
    nonnegative span of the simple roots."""
    cartan = _CARTAN[name]
    k = len(cartan)
    simples = []
    for j in range(k):
        s = [[1 if i == l else 0 for l in range(k)] for i in range(k)]
        for i in range(k):
            s[i][j] -= cartan[i][j]
        simples.append(tuple(tuple(row) for row in s))
    lengths = _group_by_search(simples, k)
    elements = tuple(sorted(lengths, key=lambda w: (lengths[w], w)))
    length_list = tuple(lengths[w] for w in elements)
    if len(elements) != _ORDER[name]:
        raise InvariantError(f"Weyl group of {name} has the wrong order")
    ident = linalg.identity(k)
    inv = {w: next(g for g in elements if linalg.mat_mul(w, g) == ident) for w in elements}
    roots = {}
    for w in elements:
        for j in range(k):
            roots.setdefault(act(w, tuple(row[j] for row in cartan)), inv[w][j])
    cartan_cols = [[Fraction(x) for x in row] for row in cartan]
    positive = []
    for coords, pairing in sorted(roots.items()):
        c = linalg.solve(cartan_cols, list(coords))
        if c is None:
            raise InvariantError("root outside the span of the simple roots")
        if all(x >= 0 for x in c):
            positive.append(Root(coords, tuple(pairing)))
    if len(positive) != max(length_list):
        raise InvariantError("positive root count differs from the length of w0")
    w0_index = max(range(len(elements)), key=lambda i: length_list[i])
    return RootSystem(name, k, cartan, elements, length_list, tuple(simples),
                      tuple(positive), w0_index, tuple(1 for _ in range(k)))


def wall_data_by_search(R: RootSystem, support):
    """``rootsys.wall_data`` with w_sigma the element of the parabolic
    subgroup whose length in W, read by its index in ``R.elements``, is
    largest."""
    sub = [a for a in R.positive_roots if all(a.coroot_pairing[i] == 0 for i in support)]
    rho_sigma = tuple(sum((Fraction(a.coords[c]) for a in sub), Fraction(0)) / 2
                      for c in range(R.rank))
    gens = [R.simple_reflections[j] for j in range(R.rank) if j not in support]
    group = _group_by_search(gens, R.rank)
    return rho_sigma, max(group, key=lambda w: R.lengths[R.elements.index(w)])
