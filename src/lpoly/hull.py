"""Exact convex hulls of small rational point sets in dimension <= 3.

Facets are found by brute enumeration of supporting hyperplanes through
point subsets, which is plenty at the point counts used here (character
supports, fixed-point weights, random test polytopes).  The hull is
returned as a labelled polyhedron (facet labels plus affine-hull equality
pairs) together with its vertex list.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .linalg import InvariantError
from .polyhedra import Label, LabelledPolyhedron


def _affine_basis(points):
    """(base point, independent direction list) spanning the affine hull."""
    base = points[0]
    dirs = []
    for p in points[1:]:
        d = linalg.vsub(p, base)
        if linalg.rank([list(x) for x in dirs + [d]]) == len(dirs) + 1:
            dirs.append(d)
    return base, dirs


def hull_of_points(ambient_dim: int, points):
    """Convex hull as (LabelledPolyhedron, vertices).

    ``points`` are rational vectors of length ``ambient_dim``; duplicates
    are fine.  Raises on empty input.
    """
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
    for subset in itertools.combinations(range(len(pts)), d):
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
