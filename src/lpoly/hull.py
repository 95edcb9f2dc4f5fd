"""Exact convex hulls of rational point sets, in any dimension.

The facets of conv(pts) are the extreme rays (w, s) with a nonempty tight
set of the polar cone {(w, s) : <p, w> >= s for every p in pts}, a labelled
polyhedron with one primitive label (d*p, -d), offset 0, per point p, d the
least common denominator of p (Ziegler, *Lectures on Polytopes*, 1995,
sections 1-2), so its generators give them.
The hull is returned as a labelled polyhedron (affine-hull equality pairs,
then facet labels) together with its vertex list.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .linalg import InvariantError, _scaled
from .polyhedra import Label, LabelledPolyhedron


def hull_of_points(ambient_dim: int, points):
    """Convex hull as (LabelledPolyhedron, vertices).

    ``points`` are rational vectors of length ``ambient_dim``; duplicates
    are fine.  Raises on empty input.  A facet normal w is kept as the RREF
    solution of <x, w> = <x, w'> over the differences x = p - pts[0], for
    any normal w' of the facet: on a lower-dimensional hull, the one
    representative modulo the equalities.
    """
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    k = ambient_dim
    diffs = [linalg.vsub(p, pts[0]) for p in pts[1:]]
    labels = []
    for w in linalg.kernel_basis(diffs, cols=k):  # the affine hull's equalities
        r = linalg.dot(pts[0], w)
        labels += [Label(w, r), Label(tuple(-x for x in w), -r)]
    polar = LabelledPolyhedron(k + 1, [Label((*X, -d), 0) for X, d in map(_scaled, pts)])
    for tight, (*w, _) in polar.generators().rays:
        if tight:
            w = linalg.clear_denominators(linalg.solve(diffs, [linalg.dot(x, w) for x in diffs]))
            labels.append(Label(w, linalg.dot(pts[min(tight)], w)))
    P = LabelledPolyhedron(k, labels)
    verts = sorted({f.sample for f in P.face_lattice() if f.dim == 0})
    if not set(verts) <= set(pts):
        raise InvariantError("hull vertex is not an input point")
    return P, verts
