"""Labelled polyhedra: faces, tight label sets, excess, orbifold orders.

A labelled polyhedron is an ordered list of labels (v, r) -- v a nonzero
integer vector, r rational -- cutting out P = {x : <x, v_i> >= r_i}.  The
label list itself is the identity of the object: duplicate and redundant
labels are meaningful (they change tight sets, excess and structure groups),
so nothing here ever silently rewrites the list.

All face computations are exact.  Faces are enumerated by scanning linearly
independent tight-candidate subsets and certifying each candidate with an
exact relative-interior point, which copes with duplicated labels, redundant
labels, lower-dimensional and unbounded polyhedra alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from ._feasible import feasible_point

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Label:
    """One half-space <x, v> >= r.

    ``v`` must be primitive unless the label was deliberately built with a
    scaled vector (``weighted=True``); the scale changes orbifold structure
    but not the underlying set.
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

    def flipped(self) -> "Label":
        return Label(tuple(-x for x in self.v), -self.r, weighted=self.weighted)


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
        self._bounded: bool | None = None
        # (P, m) when this is m*P with m > 0: faces and boundedness scale from P
        self._dilated_from: tuple[LabelledPolyhedron, Fraction] | None = None

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

    def slack(self, i: int, x) -> Fraction:
        lab = self.labels[i]
        return linalg.dot(x, lab.v) - lab.r

    def _slack_signs(self, x):
        """Per label, an integer with the sign of its slack at ``x``.

        ``x`` is scaled once to integers ``X`` by the lcm ``d`` of its
        denominators, and label (v, r) gives ``r.den * <X, v> - r.num * d``,
        which is ``slack * d * r.den``: no Fraction arithmetic.
        """
        try:
            d = lcm(*(t.denominator for t in x))
        except AttributeError:
            raise TypeError("membership takes int or Fraction coordinates") from None
        X = [t.numerator * (d // t.denominator) for t in x]
        for lab in self.labels:
            r = lab.r
            yield r.denominator * sum(a * b for a, b in zip(X, lab.v)) - r.numerator * d

    def contains(self, x, region: str = "closed") -> bool:
        if region == "closed":
            return all(s >= 0 for s in self._slack_signs(x))
        if region == "interior":
            eq = self.implicit_equalities()
            for i, s in enumerate(self._slack_signs(x)):
                if i in eq:
                    if s != 0:
                        return False
                elif s <= 0:
                    return False
            return True
        raise ValueError(f"unknown region {region!r}")

    def tight_at(self, x) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self._slack_signs(x)) if s == 0)

    # -- face lattice ------------------------------------------------------

    def face_lattice(self) -> list[Face]:
        if self._faces is None:
            if self._dilated_from is None:
                self._faces = self._compute_faces()
            else:
                P, m = self._dilated_from
                self._faces = [
                    Face(f.tight, f.dim, f.affine_basis, tuple(m * x for x in f.sample),
                         f.is_bounded)
                    for f in P.face_lattice()
                ]
        return self._faces

    def _compute_faces(self) -> list[Face]:
        k = self.dim
        n = len(self.labels)
        vs = [lab.v for lab in self.labels]
        found: dict[frozenset[int], Face] = {}

        bounded_all = self.is_bounded()

        # linearly independent candidate subsets, sizes 0..k
        def extend(subset, start, current_rank):
            yield subset
            for j in range(start, n):
                rows = [vs[i] for i in subset] + [vs[j]]
                if linalg.rank(rows) == current_rank + 1:
                    yield from extend(subset + (j,), j + 1, current_rank + 1)

        for T in extend((), 0, 0):
            if len(T) > k:
                continue
            self._probe_subset(T, vs, found, bounded_all)
        return sorted(found.values(), key=Face.sort_key)

    def _probe_subset(self, T, vs, found, bounded_all):
        k = self.dim
        n = len(self.labels)
        if T:
            sol = linalg.solve_affine([list(vs[i]) for i in T], [self.labels[i].r for i in T])
            if sol is None:
                return
            x0, kern = sol
        else:
            x0 = tuple(Fraction(0) for _ in range(k))
            kern = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
        d = len(kern)
        forced = set(T)
        rows = []
        for j in range(n):
            if j in forced:
                continue
            lin = tuple(linalg.dot(kv, vs[j]) for kv in kern)
            const = self.slack(j, x0)
            if all(c == 0 for c in lin):
                if const < 0:
                    return
                if const == 0:
                    forced.add(j)
                continue
            rows.append((lin, const, True))
        t = feasible_point(rows, d)
        if t is None:
            return
        sample = tuple(
            x0[c] + sum(tv * kv[c] for tv, kv in zip(t, kern)) for c in range(k)
        )
        tight = frozenset(forced)
        if tight in found:
            return
        tight_rows = [vs[i] for i in tight]
        fdim = k - linalg.rank(tight_rows)
        basis = tuple(linalg.kernel_basis(tight_rows, cols=k)) if tight_rows else tuple(
            tuple(1 if j == i else 0 for j in range(k)) for i in range(k)
        )
        if bounded_all:
            fbounded = True
        else:
            fbounded = not self._recession_nontrivial(tight)
        found[tight] = Face(tight, fdim, basis, sample, fbounded)

    def _recession_nontrivial(self, tight: frozenset[int]) -> bool:
        """Does the closed face with this tight set contain a ray?"""
        k = self.dim
        vs = [lab.v for lab in self.labels]
        tight_rows = [vs[i] for i in tight]
        kern = linalg.kernel_basis(tight_rows, cols=k) if tight_rows else [
            tuple(1 if j == i else 0 for j in range(k)) for i in range(k)
        ]
        d = len(kern)
        if d == 0:
            return False
        rows = []
        for j in range(len(vs)):
            if j in tight:
                continue
            lin = tuple(linalg.dot(kv, vs[j]) for kv in kern)
            rows.append((lin, 0, False))
        for i in range(d):
            for sign in (1, -1):
                probe = tuple(sign if a == i else 0 for a in range(d))
                extra = rows + [(probe, -1, False)]
                if feasible_point(extra, d) is not None:
                    return True
        return False

    # -- derived data ------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.face_lattice()

    def is_bounded(self) -> bool:
        if self._bounded is None:
            if self._dilated_from is None:
                self._bounded = not self._recession_nontrivial(frozenset())
            else:
                self._bounded = self._dilated_from[0].is_bounded()
        return self._bounded

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
            raise RuntimeError("convex polyhedron has no unique maximal face")
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


def face_labels(P: LabelledPolyhedron, F: Face):
    """(tight labels S_F, label list of the closed face: S plus flipped S_F)."""
    check_face(P, F)
    tight = [P.labels[i] for i in sorted(F.tight)]
    restricted = list(P.labels) + [lab.flipped() for lab in tight]
    return tight, restricted


def closed_face(P: LabelledPolyhedron, F: Face) -> LabelledPolyhedron:
    _, restricted = face_labels(P, F)
    return LabelledPolyhedron(P.dim, restricted)


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
    for f in P.face_lattice():
        codim = P.dim - f.dim
        if len(f.tight) != codim:
            return False
        if codim:
            divisors = linalg.elementary_divisors([P.labels[i].v for i in sorted(f.tight)])
            if len(divisors) != codim or any(d != 1 for d in divisors):
                return False
    return True


def structure_group_order(P: LabelledPolyhedron, F: Face) -> int:
    """Order of the finite structure group at a face with independent tight labels."""
    check_face(P, F)
    rows = [P.labels[i].v for i in sorted(F.tight)]
    if not rows:
        return 1
    if linalg.rank(rows) != len(rows):
        raise ValueError("positive-dimensional kernel at face")
    out = 1
    for d in linalg.elementary_divisors(rows):
        out *= d
    return out


def minimalize(P: LabelledPolyhedron) -> LabelledPolyhedron:
    """Drop every label whose hyperplane misses the polyhedron entirely."""
    if P.is_empty():
        return P
    base = [(lab.v, -lab.r, False) for lab in P.labels]
    keep = []
    for lab in P.labels:
        # hyperplane of the label touches P iff <x, v> <= r is also attainable
        rows = base + [(tuple(-x for x in lab.v), lab.r, False)]
        if feasible_point(rows, P.dim) is not None:
            keep.append(lab)
    return LabelledPolyhedron(P.dim, keep)


def intersect(P: LabelledPolyhedron, Q: LabelledPolyhedron) -> LabelledPolyhedron:
    if P.dim != Q.dim:
        raise ValueError("dimension mismatch")
    return LabelledPolyhedron(P.dim, P.labels + Q.labels)


def dilate(P: LabelledPolyhedron, m) -> LabelledPolyhedron:
    """m*P.  For m > 0 the faces of m*P are those of P with samples scaled by
    m (same tight sets, dimensions, bases and boundedness), so m*P's face
    lattice is taken from P's instead of recomputed; m = 0 collapses the
    lattice and recomputes it."""
    m = Fraction(m)
    if m < 0:
        raise ValueError("dilation factor must be nonnegative")
    Q = LabelledPolyhedron(
        P.dim, [Label(lab.v, m * lab.r, weighted=lab.weighted) for lab in P.labels]
    )
    if m > 0:
        Q._dilated_from = (P, m)
    return Q


def is_subset(P: LabelledPolyhedron, Q: LabelledPolyhedron) -> bool:
    """Exact containment P <= Q of the underlying sets."""
    base = [(lab.v, -lab.r, False) for lab in P.labels]
    for lab in Q.labels:
        rows = base + [(tuple(-x for x in lab.v), lab.r, True)]
        if feasible_point(rows, P.dim) is not None:
            return False
    return True


def same_set(P: LabelledPolyhedron, Q: LabelledPolyhedron) -> bool:
    return is_subset(P, Q) and is_subset(Q, P)


def face_join(P: LabelledPolyhedron, F1: Face, F2: Face) -> Face:
    """Smallest face whose closure contains both (always exists)."""
    mid = tuple((a + b) / 2 for a, b in zip(F1.sample, F2.sample))
    tight = P.tight_at(mid)
    lookup = {f.tight: f for f in P.face_lattice()}
    return lookup[tight]


def face_meet(P: LabelledPolyhedron, F1: Face, F2: Face) -> Face | None:
    """Open face whose closure is cl(F1) & cl(F2), or None when empty."""
    want = F1.tight | F2.tight
    candidates = [f for f in P.face_lattice() if f.tight >= want]
    if not candidates:
        return None
    top = max(candidates, key=lambda f: f.dim)
    if not all(below(f, top) for f in candidates):
        raise RuntimeError("face intersection is not a face")
    return top


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
