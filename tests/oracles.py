"""Set-level oracles for the face and subdivision tests.

The opposite of a label, closed faces as labelled polyhedra, exact
containment and equality of the underlying sets by Fourier-Motzkin probes,
and the join and meet of two faces.  The tests check ``excess``,
``validate`` and ``_key`` against these; the library itself decides faces by
tight sets and generator keys.

``generators_by_kernels`` and ``faces_by_kernels`` are the independent
route to face lattices: one elimination per label subset and per face, in
``Fraction`` arithmetic, against which the integer build is checked.
"""

from itertools import combinations

from lpoly import linalg
from lpoly._feasible import feasible_point
from lpoly.polyhedra import (
    Face, Generators, Label, LabelledPolyhedron, _opposite, _rows, below, check_face,
)


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
        slacks = [P.slack(i, x) for i in range(n)]
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
