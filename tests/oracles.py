"""Set-level oracles for the face and subdivision tests.

The opposite of a label, closed faces as labelled polyhedra, exact
containment and equality of the underlying sets by Fourier-Motzkin probes,
and the join and meet of two faces.  The tests check ``excess``,
``validate`` and ``_key`` against these; the library itself decides faces by
tight sets and generator keys.
"""

from lpoly._feasible import feasible_point
from lpoly.polyhedra import Face, Label, LabelledPolyhedron, _opposite, _rows, below, check_face


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
