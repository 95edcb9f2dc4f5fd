"""Labelled polyhedra: faces, tight label sets, excess, orbifold orders.

A labelled polyhedron is an ordered list of labels (v, r) -- v a nonzero
integer vector, r rational -- cutting out P = {x : <x, v_i> >= r_i}.  The
label list itself is the identity of the object: duplicate and redundant
labels are meaningful (they change tight sets, excess and structure groups),
so nothing here ever silently rewrites the list.

All face computations are exact and start from P's generators: the points
of its minimal faces, the extreme rays of its recession cone and its
lineality space, P = conv(points) + cone(rays) + lineality, found in integers
from label subsets with no two parallel vectors (``_compute_generators``).
Each face is the closure of the generators its tight labels bind on, which
copes with duplicated labels, redundant labels, lower-dimensional, unbounded
and line-containing polyhedra alike.  A vertex, an edge or a ray from a
vertex takes its basis without elimination.  ``minimalize`` reads the same
generators: a label's hyperplane meets P exactly when the label is tight at
a generator point, so no feasibility test is needed.

Every half-space system is read off one integer row per label: ``row =
(c, k)`` with ``c = r.den * v`` and ``k = -r.num``, so the label is ``<x, c>
+ k >= 0``.  Membership scales a point x once to integers X = d*x, and the
sign of label i's slack at x is the sign of ``<X, c> + k * d``.  ``_rows``
turns the labels into the ``(c, k, strict)`` rows of Fourier-Motzkin
feasibility (in ``subdivisions``) and of the lattice kernels; nothing else
builds them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from . import linalg
from .linalg import InvariantError, _scaled

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Label:
    """One half-space <x, v> >= r.

    ``v`` must be primitive unless the label was deliberately built with a
    scaled vector (``weighted=True``); the scale changes orbifold structure
    but not the underlying set.  ``row`` is ``(r.denominator * v,
    -r.numerator)``, the integer row (c, k) of <x, c> + k >= 0, set once: an
    attribute, not a field, so equality, hashing and repr ignore it.  For an
    unweighted label the row is coprime, since v is primitive and so
    gcd(den * v, num) = gcd(den, num) = 1.  A weighted label's row can share
    a factor.  It is not divided here: Fourier-Motzkin divides every row by
    its gcd on entry, and membership and the lattice kernels are exact on
    any positive multiple of a row.
    """

    v: tuple[int, ...]
    r: Fraction
    weighted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))
        object.__setattr__(self, "r", Fraction(self.r))
        if all(x == 0 for x in self.v):
            raise ValueError("zero label vector")
        if not self.weighted and not linalg.is_primitive(self.v):
            raise ValueError(f"label vector {self.v} is not primitive; pass weighted=True")
        den = self.r.denominator
        c = self.v if den == 1 else tuple(den * x for x in self.v)
        object.__setattr__(self, "row", (c, -self.r.numerator))


def _zeros(signs) -> frozenset[int]:
    """The labels tight at a point, from its ``_signs``."""
    return frozenset(i for i, s in enumerate(signs) if s == 0)


def _rows(P: LabelledPolyhedron, eq=(), strict: bool = False):
    """P's labels as rows (c, k, strict), each <x, c> + k >= 0 (> 0 when
    strict): the labels in ``eq`` as equalities, a weak row and its negation,
    and the others strict when ``strict``."""
    rows = []
    for i, lab in enumerate(P.labels):
        c, k = lab.row
        if i in eq:
            rows += [(c, k, False), _opposite(lab, False)]
        else:
            rows.append((c, k, strict))
    return rows


def _opposite(lab: Label, strict: bool):
    """The row of <x, v> <= r (< r when strict)."""
    c, k = lab.row
    return tuple(-x for x in c), -k, strict


def label(*args) -> Label:
    """label(v1, ..., vk, r): convenience constructor, weighted if needed."""
    v, r = tuple(args[:-1]), Fraction(args[-1])
    g = linalg.vec_gcd(v)
    return Label(v, r, weighted=(g != 1))


@dataclass(frozen=True)
class Face:
    """An open face: the relative interior of {x in P : tight labels bind}."""

    tight: frozenset[int]
    dim: int
    affine_basis: tuple[tuple[int, ...], ...]
    sample: Point
    is_bounded: bool

    def sort_key(self):
        return (tuple(sorted(self.tight)), self.sample)


class Generators(NamedTuple):
    """P = conv(points) + cone(rays) + span(lineality).

    Each point, the one of a minimal face orthogonal to the lineality space,
    comes with the labels tight at it; each ray, a primitive integer vector,
    with the labels it pairs to zero.
    """

    points: tuple[tuple[frozenset[int], Point], ...]
    rays: tuple[tuple[frozenset[int], tuple[int, ...]], ...]
    lineality: tuple[tuple[int, ...], ...]

    def of_face(self, tight) -> "Generators":
        """Generators of the closed face where the labels in ``tight`` bind."""
        return Generators(
            tuple(g for g in self.points if g[0] >= tight),
            tuple(g for g in self.rays if g[0] >= tight),
            self.lineality,
        )


@dataclass(frozen=True)
class ExcessPiece:
    excess: int
    faces: frozenset[int]          # indices into the face lattice
    closure_is_face: bool


@dataclass
class ExcessDecomposition:
    pieces: list[ExcessPiece]


class LabelledPolyhedron:
    """An ordered label list plus the polyhedron it cuts out."""

    def __init__(self, dim: int, labels):
        self.dim = int(dim)
        self.labels: tuple[Label, ...] = tuple(labels)
        for lab in self.labels:
            if len(lab.v) != self.dim:
                raise ValueError("label dimension mismatch")
        self._faces: list[Face] | None = None
        self._gens: Generators | None = None

    def __repr__(self):
        return f"LabelledPolyhedron(dim={self.dim}, labels={list(self.labels)})"

    def __eq__(self, other):
        return (
            isinstance(other, LabelledPolyhedron)
            and self.dim == other.dim
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.dim, self.labels))

    # -- membership ------------------------------------------------------

    def _signs(self, X, d) -> list[int]:
        """Per label, ``<X, c> + k * d``: the sign of its slack at the point
        X/d given by ``_scaled``."""
        return [sum(map(mul, X, c)) + k * d for c, k in (lab.row for lab in self.labels)]

    def _holds(self, X, d) -> bool:
        """Is X/d in the closed polyhedron?  Stops at the first violated label."""
        for lab in self.labels:
            c, k = lab.row
            if sum(map(mul, X, c)) + k * d < 0:
                return False
        return True

    def contains(self, x, region: str = "closed") -> bool:
        if region == "closed":
            return self._holds(*_scaled(x))
        if region == "interior":
            eq = self.implicit_equalities()
            return all((s == 0) if i in eq else (s > 0)
                       for i, s in enumerate(self._signs(*_scaled(x))))
        raise ValueError(f"unknown region {region!r}")

    def tight_at(self, x) -> frozenset[int]:
        return _zeros(self._signs(*_scaled(x)))

    # -- generators and face lattice ----------------------------------------

    def generators(self) -> Generators:
        if self._gens is None:
            self._gens = self._compute_generators()
        return self._gens

    def _compute_generators(self) -> Generators:
        """Points of the minimal faces, extreme rays and the lineality space.

        With r the rank of the label vectors and L their common kernel, a
        minimal face is a translate of L on which r independent labels bind:
        each r-subset's integer rows ``[c | -k]`` (``Label.row``), solved with
        <x, l> = 0 for L's basis, give that face's point orthogonal to L, kept
        when the integer signs of its slacks put it in P.  Each (r-1)-subset
        plus L's basis leaves a line when their signed maximal minors are
        nonzero, an extreme ray when it pairs >= 0 (or, negated, <= 0) with
        every label.  A subset holding two parallel vectors is singular, and
        one inside the tight set of a point, or the zero set of a line, found
        before gives it again: all are skipped.  L is computed only when no k
        labels solve, since r = k as soon as some do.
        """
        k, n = self.dim, len(self.labels)
        vs = [lab.v for lab in self.labels]
        # one key per line through the origin: parallel vectors share it
        line = [max(u, tuple(-x for x in u)) for u in map(linalg.primitive, vs)]
        aug = [(*c, -b) for c, b in (lab.row for lab in self.labels)]

        def minimal_points(lin):  # None when no subset solves
            r = k - len(lin)
            points, solved = [], False
            for T in itertools.combinations(range(n), r):
                if len({line[i] for i in T}) < r or any(t.issuperset(T) for t, _ in points):
                    continue
                sol = linalg.solve_scaled([aug[i] for i in T] + [(*l, 0) for l in lin])
                if sol is None:
                    continue
                solved = True
                signs = self._signs(*sol)
                if all(s >= 0 for s in signs):
                    points.append((_zeros(signs), tuple(Fraction(x, sol[1]) for x in sol[0])))
            return points if solved else None

        points = minimal_points(lin := ())
        if points is None:
            points = minimal_points(lin := tuple(linalg.kernel_basis(vs, cols=k)))
        r = k - len(lin)
        rays, tried = [], []  # tried: the labels zero on each line met so far
        for T in itertools.combinations(range(n), r - 1) if r else ():
            if len({line[i] for i in T}) < r - 1 or any(z.issuperset(T) for z in tried):
                continue
            u = linalg.signed_minors([vs[i] for i in T] + list(lin), k)
            if not any(u):
                continue
            u = linalg.primitive(u)
            pairings = [linalg.dot(v, u) for v in vs]
            tried.append(frozenset(i for i, p in enumerate(pairings) if p == 0))
            if min(pairings) < 0:
                if max(pairings) > 0:
                    continue
                u = tuple(-c for c in u)
            rays.append((tried[-1], u))
        return Generators(tuple(points), tuple(rays), lin)

    def face_lattice(self) -> list[Face]:
        if self._faces is None:
            self._faces = self._compute_faces()
        return self._faces

    def _compute_faces(self) -> list[Face]:
        """Faces as closures of generator sets, top-down (Kaibel & Pfetsch
        2002).  A face's tight set is the intersection of its generators'
        tight sets; the generators on which one more label binds span a
        smaller face when a point is among them.  The sample, the average of
        the face's points plus the sum of its rays, is strict on every label
        outside the tight set: a relative-interior point.
        """
        gens = self.generators()
        npts = len(gens.points)
        tights = [t for t, _ in gens.points] + [z for z, _ in gens.rays]
        found: dict[frozenset[int], tuple[int, ...]] = {}
        todo = [tuple(range(len(tights)))] if npts else []
        while todo:
            G = todo.pop()
            S = frozenset.intersection(*(tights[g] for g in G))
            if S in found:
                continue
            found[S] = G
            for j in range(len(self.labels)):
                if j not in S:
                    H = tuple(g for g in G if j in tights[g])
                    if H and H[0] < npts:
                        todo.append(H)
        scaled = [_scaled(x) for _, x in gens.points]
        faces = []
        for S, G in found.items():
            pts = [scaled[g] for g in G if g < npts]
            rays = [gens.rays[g - npts][1] for g in G if g >= npts]
            # the sample over one denominator: the points' mean plus the rays
            L = lcm(*(d for _, d in pts))
            den = L * len(pts)
            num = [den * sum(c) for c in zip(*rays)] if rays else [0] * self.dim
            for X, d in pts:
                num = [a + x * (L // d) for a, x in zip(num, X)]
            if gens.lineality or len(G) > 2:
                basis = tuple(linalg.kernel_basis(
                    [self.labels[i].v for i in sorted(S)], cols=self.dim))
            else:
                # a vertex, or an edge or ray from one: its direction, if any,
                # signed as kernel_basis signs it (the last nonzero entry > 0)
                dirs = rays + [linalg.primitive([x1 * d0 - x0 * d1 for x0, x1 in zip(X0, X1)])
                               for (X0, d0), (X1, d1) in zip(pts, pts[1:])]
                basis = tuple(u if [x for x in u if x][-1] > 0 else tuple(-x for x in u)
                              for u in dirs)
            faces.append(Face(S, len(basis), basis, tuple(Fraction(a, den) for a in num),
                              not rays and not gens.lineality))
        return sorted(faces, key=Face.sort_key)

    # -- derived data ------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.face_lattice()

    def is_bounded(self) -> bool:
        """No extreme ray of {d : V d >= 0} and no line: empty polyhedra
        included, since the recession cone depends on the label vectors only."""
        gens = self.generators()
        return not gens.rays and not gens.lineality

    def body_dim(self) -> int:
        """Dimension of the polyhedron itself (-1 if empty)."""
        faces = self.face_lattice()
        return max((f.dim for f in faces), default=-1)

    def top_face(self) -> Face:
        faces = self.face_lattice()
        if not faces:
            raise ValueError("empty polyhedron")
        d = max(f.dim for f in faces)
        tops = [f for f in faces if f.dim == d]
        if len(tops) != 1:
            raise InvariantError("convex polyhedron has no unique maximal face")
        return tops[0]

    def implicit_equalities(self) -> frozenset[int]:
        return self.top_face().tight

    def interior_sample(self) -> Point:
        return self.top_face().sample

    def vertices(self) -> list[Point]:
        return [f.sample for f in self.face_lattice() if f.dim == 0]


# -- operations on (P, F) ----------------------------------------------------


def check_face(P: LabelledPolyhedron, F: Face):
    faces = {f.tight: f for f in P.face_lattice()}
    if F.tight not in faces or faces[F.tight] != F:
        raise ValueError("not a face of this polyhedron")


def excess(P: LabelledPolyhedron, F: Face) -> int:
    check_face(P, F)
    return len(F.tight) - (P.dim - F.dim)


def below(F1: Face, F2: Face) -> bool:
    """F1 lies in the closure of F2."""
    return F1.tight >= F2.tight


def excess_decomposition(P: LabelledPolyhedron) -> ExcessDecomposition:
    """Partition the open faces into connected constant-excess pieces."""
    faces = P.face_lattice()
    exc = [excess(P, f) for f in faces]
    n = len(faces)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for i in range(n):
        for j in range(i + 1, n):
            if exc[i] == exc[j] and (below(faces[i], faces[j]) or below(faces[j], faces[i])):
                union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    pieces = []
    for members in groups.values():
        mset = frozenset(members)
        # closure of the piece is a single face's closure iff the piece has a
        # unique maximal face whose closure contains every member
        maximal = [
            i for i in members
            if not any(j != i and below(faces[i], faces[j]) for j in members)
        ]
        single = len(maximal) == 1 and all(
            below(faces[i], faces[maximal[0]]) for i in members
        )
        pieces.append(ExcessPiece(exc[members[0]], mset, single))
    pieces.sort(key=lambda p: (p.excess, sorted(tuple(sorted(faces[i].tight)) for i in p.faces)))
    return ExcessDecomposition(pieces)


def is_simple(P: LabelledPolyhedron) -> bool:
    return all(excess(P, f) == 0 for f in P.face_lattice())


def is_simply_laced(P: LabelledPolyhedron) -> bool:
    """Tight labels form a lattice basis of their saturation at every face."""
    return all(
        len(f.tight) == P.dim - f.dim
        and linalg.lattice_index([P.labels[i].v for i in f.tight]) == 1
        for f in P.face_lattice()
    )


def structure_group_order(P: LabelledPolyhedron, F: Face) -> int:
    """Order of the finite structure group at a face with independent tight
    labels: their lattice index in its saturation."""
    check_face(P, F)
    order = linalg.lattice_index([P.labels[i].v for i in F.tight])
    if order == 0:
        raise ValueError("positive-dimensional kernel at face")
    return order


def minimalize(P: LabelledPolyhedron) -> LabelledPolyhedron:
    """Drop every label whose hyperplane misses the polyhedron entirely.

    A label's trace on P is a face, and every nonempty face holds a minimal
    face, so the hyperplane meets P exactly when the label is tight at one
    of P's generator points.  An empty P is returned unchanged.
    """
    points = P.generators().points
    if not points:
        return P
    touched = frozenset().union(*(t for t, _ in points))
    return LabelledPolyhedron(P.dim, [lab for i, lab in enumerate(P.labels) if i in touched])


def intersect(P: LabelledPolyhedron, Q: LabelledPolyhedron) -> LabelledPolyhedron:
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch")
    return LabelledPolyhedron(P.dim, P.labels + Q.labels)


def dilate(P: LabelledPolyhedron, m) -> LabelledPolyhedron:
    """m*P: P's labels with every offset times m.  Like any polyhedron it
    builds its own face lattice if asked; for m > 0 that lattice is P's with
    samples times m, which is why counting reads m*P's box off P."""
    m = Fraction(m)
    if m < 0:
        raise ValueError("dilation factor must be nonnegative")
    return LabelledPolyhedron(
        P.dim, [Label(lab.v, m * lab.r, weighted=lab.weighted) for lab in P.labels]
    )


# -- .lpoly text format -------------------------------------------------------


class LpolyParseError(ValueError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


def parse_lpoly(text: str) -> LabelledPolyhedron:
    dim = None
    labels = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dim":
            if dim is not None:
                raise LpolyParseError(line_no, "duplicate dim line")
            if len(parts) != 2:
                raise LpolyParseError(line_no, "expected: dim <k>")
            try:
                dim = int(parts[1])
            except ValueError:
                raise LpolyParseError(line_no, f"bad dimension {parts[1]!r}") from None
            if dim < 1:
                raise LpolyParseError(line_no, "dimension must be >= 1")
        elif parts[0] == "label":
            if dim is None:
                raise LpolyParseError(line_no, "label before dim line")
            body = line[len("label"):].strip()
            if ";" not in body:
                raise LpolyParseError(line_no, "expected: label <v...> ; <r>")
            vpart, rpart = body.split(";", 1)
            vtoks = vpart.split()
            if len(vtoks) != dim:
                raise LpolyParseError(line_no, f"expected {dim} vector entries, got {len(vtoks)}")
            try:
                v = tuple(int(t) for t in vtoks)
            except ValueError:
                raise LpolyParseError(line_no, "vector entries must be integers") from None
            try:
                r = Fraction(rpart.strip())
            except (ValueError, ZeroDivisionError):
                raise LpolyParseError(line_no, f"bad rational {rpart.strip()!r}") from None
            if all(x == 0 for x in v):
                raise LpolyParseError(line_no, "zero label vector")
            labels.append(Label(v, r, weighted=not linalg.is_primitive(v)))
        else:
            raise LpolyParseError(line_no, f"unknown directive {parts[0]!r}")
    if dim is None:
        raise LpolyParseError(0, "missing dim line")
    return LabelledPolyhedron(dim, labels)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_lpoly(P: LabelledPolyhedron) -> str:
    lines = [f"dim {P.dim}"]
    for lab in P.labels:
        vec = " ".join(str(x) for x in lab.v)
        lines.append(f"label {vec} ; {format_rational(lab.r)}")
    return "\n".join(lines) + "\n"
