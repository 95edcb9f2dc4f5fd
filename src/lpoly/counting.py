"""Lattice-point enumeration, Ehrhart quasi-polynomials, vertex localization.

Counts are exact and pure-int: count_points sums floors over 2-D slices of
a dilate's bounding box, and lattice_points sweeps the box line by line,
both with the kernels in _kernels on the dilate's label rows
(``polyhedra._rows``; for the relative interior the implicit equalities
stay equalities and every other label is strict).  A dilate is only its
label rows: m*P's vertices are m times P's, so its box and implicit
equalities are read off P's face lattice, built once however many dilates
are counted.
The Ehrhart fit solves small linear systems over the rationals, one per
residue class, trying period candidates in divisor order; the fitted
quasi-polynomial is verified against every available sample before being
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from ._kernels import count_box, scan_box
from .linalg import InvariantError
from .polyhedra import Face, LabelledPolyhedron, _rows, dilate, format_rational, is_simply_laced


@dataclass(frozen=True)
class QuasiPolynomial:
    """Period and per-residue exact polynomial coefficients (constant first)."""

    degree: int
    period: int
    coeffs: tuple[tuple[Fraction, ...], ...]

    def evaluate(self, m: int) -> Fraction:
        cs = self.coeffs[m % self.period]
        out = Fraction(0)
        power = Fraction(1)
        for c in cs:
            out += c * power
            power *= m
        return out

    def __call__(self, m: int) -> Fraction:
        return self.evaluate(m)

    def describe(self) -> str:
        lines = [f"degree: {self.degree}", f"period: {self.period}"]
        for s, cs in enumerate(self.coeffs):
            body = " ".join(format_rational(c) for c in cs)
            lines.append(f"residue {s}: {body}")
        return "\n".join(lines)


def _require_bounded(P: LabelledPolyhedron):
    if not P.is_bounded():
        raise ValueError("unbounded polyhedron")


def _box(P: LabelledPolyhedron, m):
    """The integer box of m*P, m >= 0: m*P's vertices are m times P's."""
    verts = P.vertices()
    lo = [math.ceil(m * min(v[c] for v in verts)) for c in range(P.dim)]
    hi = [math.floor(m * max(v[c] for v in verts)) for c in range(P.dim)]
    return lo, hi


def _scan_setup(P: LabelledPolyhedron, m: int, region: str):
    if region not in ("closed", "interior"):
        raise ValueError(f"unknown region {region!r}")
    _require_bounded(P)
    if m < 0:
        raise ValueError("dilation factor must be nonnegative")
    if P.is_empty():
        return None
    lo, hi = _box(P, m)
    # 0*P is the origin, where every label is tight
    eq = P.implicit_equalities() if m else range(len(P.labels))
    Q = dilate(P, m)
    rows = _rows(Q, eq, strict=True) if region == "interior" else _rows(Q)
    return lo, hi, rows


def lattice_points(P: LabelledPolyhedron, m: int = 1, region: str = "closed"):
    """Integer points of the closed (or relatively open) dilate m*P, as
    tuples in lexicographic order."""
    setup = _scan_setup(P, m, region)
    if setup is None:
        return []
    return scan_box(*setup)


def count_points(P: LabelledPolyhedron, m: int, region: str = "closed") -> int:
    setup = _scan_setup(P, m, region)
    if setup is None:
        return 0
    return count_box(*setup)


def toric_rr(P: LabelledPolyhedron, m: int) -> dict:
    """Finite Laurent sum of the m-th counting character of the polytope.

    Nonnegative m sums z^mu over lattice points of m*P; negative m sums
    (-1)^dim over sign-flipped interior points of |m|*P.
    """
    _require_bounded(P)
    if P.is_empty():
        return {}
    k = P.dim
    if m == 0:
        return {tuple(0 for _ in range(k)): 1}
    if m > 0:
        return {pt: 1 for pt in lattice_points(P, m, "closed")}
    sign = (-1) ** P.body_dim()
    return {
        tuple(-x for x in pt): sign
        for pt in lattice_points(P, -m, "interior")
    }


def vertex_denominator_lcm(P: LabelledPolyhedron) -> int:
    """Smallest l such that l*P has integral vertices."""
    return math.lcm(*(c.denominator for v in P.vertices() for c in v))


def _fit_residue(ms, values, degree):
    """Exact polynomial through (ms, values), verified on every sample."""
    head = ms[: degree + 1]
    a = [[Fraction(m) ** i for i in range(degree + 1)] for m in head]
    b = [Fraction(values[i]) for i in range(degree + 1)]
    coeffs = linalg.solve(a, b)
    if coeffs is None:
        return None
    for m, val in zip(ms, values):
        acc = Fraction(0)
        power = Fraction(1)
        for c in coeffs:
            acc += c * power
            power *= m
        if acc != val:
            return None
    return tuple(coeffs)


def ehrhart_fit(P: LabelledPolyhedron, m_max: int | None = None) -> QuasiPolynomial:
    """Exact quasi-polynomial fit of m -> #(lattice points of m*P)."""
    _require_bounded(P)
    if P.is_empty():
        raise ValueError("empty polyhedron")
    d = P.body_dim()
    l = vertex_denominator_lcm(P)
    need = l * (d + 1) - 1
    if m_max is None:
        m_max = need
    if m_max < need:
        raise ValueError(f"m_max={m_max} too small: need at least {need}")
    counts = [count_points(P, m) for m in range(m_max + 1)]
    divisors = [q for q in range(1, l + 1) if l % q == 0]
    for q in divisors:
        residue_coeffs = []
        for s in range(q):
            ms = list(range(s, m_max + 1, q))
            fit = _fit_residue(ms, [counts[m] for m in ms], d)
            if fit is None:
                break
            residue_coeffs.append(fit)
        else:
            deg = 0
            for cs in residue_coeffs:
                nz = [i for i, c in enumerate(cs) if c != 0]
                deg = max(deg, max(nz, default=0))
            trimmed = tuple(tuple(cs[: deg + 1]) for cs in residue_coeffs)
            return QuasiPolynomial(deg, q, trimmed)
    raise InvariantError("fit failure")  # the period claim failed: a bug


def reciprocity_check(P: LabelledPolyhedron, m_max: int):
    """Ehrhart reciprocity rows (m, p(-m), sign * interior count, equal)."""
    qp = ehrhart_fit(P, max(m_max, vertex_denominator_lcm(P) * (P.body_dim() + 1) - 1))
    k = P.body_dim()
    rows = []
    for m in range(1, m_max + 1):
        lhs = qp.evaluate(-m)
        rhs = Fraction((-1) ** k * count_points(P, m, "interior"))
        rows.append((m, lhs, rhs, lhs == rhs))
    return qp, rows


def _zpow(z, w) -> Fraction:
    out = Fraction(1)
    for base, e in zip(z, w):
        out *= Fraction(base) ** int(e)
    return out


def edge_directions(P: LabelledPolyhedron, vertex: Face):
    """Primitive directions of the edges leaving a vertex: toward the edge's
    other vertex, or along its ray.  An edge's sample is the midpoint of its
    two vertices, or the vertex plus its ray, so either way the direction is
    the sample minus the vertex."""
    return [linalg.clear_denominators(linalg.vsub(f.sample, vertex.sample))
            for f in P.face_lattice() if f.dim == 1 and vertex.tight >= f.tight]


def brion_evaluate(P: LabelledPolyhedron, z) -> Fraction:
    """Vertex-cone localization of the lattice-point sum at a rational point.

    Each vertex contributes z^vertex over the product of (1 - z^edge).  The
    total equals the plain Laurent sum over lattice points only when every
    vertex cone is unimodular, so P must be simply laced; a simple polytope
    with a cone that is not unimodular raises ValueError.
    """
    _require_bounded(P)
    if P.is_empty():
        raise ValueError("empty polyhedron")
    if not is_simply_laced(P):
        raise ValueError("not simply laced: some vertex cone is not unimodular")
    z = tuple(Fraction(x) for x in z)
    if len(z) != P.dim or any(x == 0 for x in z):
        raise ValueError("evaluation point must be nonzero rationals of full length")
    total = Fraction(0)
    for f in P.face_lattice():
        if f.dim != 0:
            continue
        if any(c.denominator != 1 for c in f.sample):
            raise ValueError(f"non-lattice vertex {f.sample}")
        term = _zpow(z, (int(c) for c in f.sample))
        for u in edge_directions(P, f):
            factor = 1 - _zpow(z, u)
            if factor == 0:
                raise ValueError("non-generic evaluation point")
            term /= factor
        total += term
    return total


def localized_vertex_multiplicity(P: LabelledPolyhedron, m: int, xi):
    """The xi-minimizing vertex of m*P and the count of sink vertices.

    A sink vertex is one whose edge directions all pair strictly negatively
    with xi; for generic xi there is exactly one.
    """
    _require_bounded(P)
    if P.is_empty():
        raise ValueError("empty polyhedron")
    if m < 1:
        raise ValueError("bundle shift must be >= 1")
    # m*P has m times P's vertices and P's edge directions
    xi = tuple(Fraction(x) for x in xi)
    verts = [f for f in P.face_lattice() if f.dim == 0]
    pairings = {}
    for f in verts:
        dirs = edge_directions(P, f)
        ps = [linalg.dot(u, xi) for u in dirs]
        if any(p == 0 for p in ps):
            raise ValueError("non-generic direction")
        pairings[f.tight] = ps
    values = [(linalg.dot(f.sample, xi), f) for f in verts]
    values.sort(key=lambda t: t[0])
    if len(values) > 1 and values[0][0] == values[1][0]:
        raise InvariantError("minimum must be unique")
    nu = tuple(m * x for x in values[0][1].sample)
    count = sum(1 for f in verts if all(p < 0 for p in pairings[f.tight]))
    return nu, count
