"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the checks of their outputs.

Inputs are made here from the seed alone and written as text: `.lpoly` for
polytopes, `TYPE c1 c2 ...` for shift points and weights.  The program only
parses that text during set-up, so no polytope reaches a pass with a face
lattice already computed, and every operation starts from a fresh copy of
its parsed input.

Seeds change the inputs without changing how much work they are: polytopes
are moved by a seeded signed permutation of the axes and an integer
translation (lattice counts are invariant, bounding boxes keep their size),
random lattice polytopes come from families with a fixed face lattice, and
the order of the tensor products is shuffled.  That keeps the run-to-run
spread of the timings small across seeds.

Checks compare outputs against computations made apart from the operation
(closed forms, the Weyl dimension formula, brute membership counts, an
Euler sum over probes placed inside every cell) or against properties the
method must have.  A check returns a list of failure lines; empty means the
outputs are correct.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

# -- polytopes as the benchmark defines them ----------------------------------


@dataclass(frozen=True)
class Poly:
    """A polytope as generated here: labels <x, v> >= r plus known vertices."""

    name: str
    dim: int
    labels: tuple  # ((v, r), ...) with integer v and rational r
    vertices: tuple  # integer points whose hull is the polytope

    def text(self) -> str:
        lines = [f"# {self.name}", f"dim {self.dim}"]
        for v, r in self.labels:
            lines.append(f"label {' '.join(str(x) for x in v)} ; {Fraction(r)}")
        return "\n".join(lines) + "\n"

    def moved(self, perm, signs, shift) -> "Poly":
        """Image under x -> A x + shift, A the signed permutation (perm, signs).

        A is orthogonal, so a label (v, r) becomes (A v, r + <A v, shift>).
        """

        def a(x):
            return tuple(s * x[p] for p, s in zip(perm, signs))

        labels = []
        for v, r in self.labels:
            av = a(v)
            labels.append((av, Fraction(r) + sum(c * t for c, t in zip(av, shift))))
        verts = tuple(tuple(c + t for c, t in zip(a(p), shift)) for p in self.vertices)
        return Poly(self.name, self.dim, tuple(labels), verts)


def _unit(k, i, scale=1):
    return tuple(scale if j == i else 0 for j in range(k))


def cube() -> Poly:
    labels = [(_unit(3, i), 0) for i in range(3)] + [(_unit(3, i, -1), -1) for i in range(3)]
    return Poly("cube", 3, tuple(labels), tuple(itertools.product((0, 1), repeat=3)))


def simplex(k: int) -> Poly:
    labels = [(_unit(k, i), 0) for i in range(k)] + [(tuple(-1 for _ in range(k)), -1)]
    verts = [tuple(0 for _ in range(k))] + [_unit(k, i) for i in range(k)]
    return Poly(f"simplex{k}", k, tuple(labels), tuple(verts))


def pyramid() -> Poly:
    """The Egyptian pyramid: square base of side 2 at height 0, apex (1, 1, 1)."""
    labels = (
        ((0, 0, 1), 0), ((1, 0, -1), 0), ((0, 1, -1), 0),
        ((-1, 0, -1), -2), ((0, -1, -1), -2),
    )
    verts = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1))
    return Poly("pyramid", 3, labels, verts)


def weighted_triangle() -> Poly:
    """Vertices (0,0), (2,0), (0,1); the (0,1) corner has structure group Z/2."""
    labels = (((1, 0), 0), ((0, 1), 0), ((-1, -2), -2))
    return Poly("wtriangle", 2, labels, ((0, 0), (2, 0), (0, 1)))


def _det(rows):
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a, b, c = rows
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _normal(dirs, k):
    """Primitive integer normal of the span of k-1 independent directions."""
    if k == 2:
        (d,) = dirs
        n = (-d[1], d[0])
    else:
        d, e = dirs
        n = (d[1] * e[2] - d[2] * e[1], d[2] * e[0] - d[0] * e[2], d[0] * e[1] - d[1] * e[0])
    g = math.gcd(*n)
    return tuple(x // g for x in n)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _random_frame(rng: random.Random, k: int):
    """Base point and k integer edge vectors spanning a lattice volume 1..8."""
    while True:
        base = tuple(rng.randint(0, 2) for _ in range(k))
        edges = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(k)]
        if 1 <= abs(_det(edges)) <= 8:
            return base, edges


def random_simplex(rng: random.Random, k: int, name: str) -> Poly:
    """Lattice simplex: one facet label opposite each vertex."""
    base, edges = _random_frame(rng, k)
    verts = [base] + [tuple(b + e for b, e in zip(base, d)) for d in edges]
    labels = []
    for i, p in enumerate(verts):
        others = [q for j, q in enumerate(verts) if j != i]
        n = _normal([tuple(a - b for a, b in zip(q, others[0])) for q in others[1:]], k)
        if _dot(n, p) < _dot(n, others[0]):
            n = tuple(-x for x in n)
        labels.append((n, _dot(n, others[0])))
    return Poly(name, k, tuple(labels), tuple(verts))


def random_parallelepiped(rng: random.Random, k: int, name: str) -> Poly:
    """Lattice parallelepiped base + [0,1]^k edges: a pair of labels per edge."""
    base, edges = _random_frame(rng, k)
    labels = []
    for i, d in enumerate(edges):
        n = _normal([e for j, e in enumerate(edges) if j != i], k)
        if _dot(n, d) < 0:
            n = tuple(-x for x in n)
        labels.append((n, _dot(n, base)))
        labels.append((tuple(-x for x in n), -_dot(n, base) - _dot(n, d)))
    verts = [
        tuple(b + sum(c * e[j] for c, e in zip(mask, edges)) for j, b in enumerate(base))
        for mask in itertools.product((0, 1), repeat=k)
    ]
    return Poly(name, k, tuple(labels), tuple(verts))


def random_motion(rng: random.Random, k: int):
    """A signed permutation of the axes and an integer translation."""
    perm = list(range(k))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(k)]
    shift = [rng.randint(-3, 3) for _ in range(k)]
    return perm, signs, shift


def moved(rng: random.Random, P: Poly) -> Poly:
    return P.moved(*random_motion(rng, P.dim))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _box(verts, m):
    k = len(verts[0])
    lo = [m * min(v[c] for v in verts) for c in range(k)]
    hi = [m * max(v[c] for v in verts) for c in range(k)]
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


@dataclass(frozen=True)
class Op:
    """One timed operation: a key naming it in outputs and checks, and a thunk."""

    key: tuple
    run: object


# -- workloads ----------------------------------------------------------------


class Workload:
    """Seeded inputs as text (``make`` sets ``texts``), parsed by the program
    during set-up (``load``)."""

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.make()

    def make(self):
        raise NotImplementedError

    def load(self, lpoly):
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, outputs: dict) -> list[str]:
        raise NotImplementedError


def _fresh(lpoly, P):
    """A copy of a parsed polytope without its cached face lattice."""
    return lpoly.LabelledPolyhedron(P.dim, P.labels)


class DualSubdivision(Workload):
    """Wall-dual subdivisions of the dominant chamber, validated and Euler-checked."""

    name = "dual-subdivision"
    why = "exact feasibility and membership: subdivisions validated pairwise, no lattice scan"
    # (type, number of shift points); A3 is about 12x the cost of A2 or B2
    TYPES = (("A2", 1), ("B2", 1), ("A3", 5))
    EULER_SAMPLES = 100

    def make(self):
        rng = _rng(self.name, self.seed)
        rank = {"A2": 2, "B2": 2, "A3": 3}
        self.points = []
        for name, count in self.TYPES:
            for _ in range(count):
                lam = tuple(
                    Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 5, 7)))
                    for _ in range(rank[name])
                )
                self.points.append((name, lam))
        self.texts = [f"{name} {' '.join(str(x) for x in lam)}" for name, lam in self.points]

    def load(self, lpoly):
        from lpoly import rootsys, subdivisions

        self.subdivisions = subdivisions
        self.inputs = []
        for line in self.texts:
            name, *coords = line.split()
            self.inputs.append((rootsys.root_system(name), tuple(Fraction(c) for c in coords)))

    def ops(self):
        sub = self.subdivisions

        def one(R, lam):
            S = sub.dual_subdivision(R, lam)
            v = sub.validate(S, region="dominant")
            e = sub.euler_check(S, self.EULER_SAMPLES, seed=self.seed, region="dominant")
            return SubdivisionOut(S, v.ok, tuple(v.lines), e.ok, tuple(e.lines))

        return [
            Op((R.name, i), lambda R=R, lam=lam: one(R, lam))
            for i, (R, lam) in enumerate(self.inputs)
        ]

    def check(self, outputs):
        fails = []
        for (name, i), out in outputs.items():
            lam = self.inputs[i][1]
            fails += [f"{name}#{i}: {f}" for f in check_subdivision(out, lam)]
        return fails


@dataclass(frozen=True)
class SubdivisionOut:
    S: object
    valid: bool
    valid_lines: tuple
    euler: bool
    euler_lines: tuple


def _closed_member(labels, p) -> bool:
    return all(sum(c * x for c, x in zip(lab.v, p)) >= lab.r for lab in labels)


def euler_probes(S, lam):
    """The shift point, plus one point inside each cell near the shift point.

    The shift point lies in every closed cell, so the open segment from it to
    a relative-interior sample of a cell stays in that cell's relative
    interior; halving along it reaches the open dominant chamber.
    """
    probes = [lam]
    for cell in S.cells:
        s = cell.interior_sample()
        t = Fraction(1)
        while True:
            p = tuple(a + t * (b - a) for a, b in zip(lam, s))
            if all(x > 0 for x in p):
                break
            t /= 2
        probes.append(p)
    return probes


def check_subdivision(out: SubdivisionOut, lam) -> list[str]:
    S = out.S
    k = S.dim
    fails = []
    if not out.valid:
        fails.append("validate: " + "; ".join(out.valid_lines))
    if not out.euler:
        fails.append("euler_check: " + "; ".join(out.euler_lines))
    if len(S.cells) != 3 ** k:
        fails.append(f"cells: {len(S.cells)} != 3^{k}")
    dims = [c.body_dim() for c in S.cells]
    for d, (sigma, tau) in zip(dims, S.walls):
        if k - d != len(tau) - len(sigma):
            fails.append(f"codim: {k - d} != |{sorted(tau)}| - |{sorted(sigma)}|")
    for p in euler_probes(S, lam):
        total = sum(
            (-1) ** (k - d) for cell, d in zip(S.cells, dims) if _closed_member(cell.labels, p)
        )
        if total != 1:
            fails.append(f"euler: sum {total} at {tuple(str(x) for x in p)}")
    return fails


@dataclass(frozen=True)
class EhrhartOut:
    labels: tuple  # labels of the polytope the counts are of
    qp: object
    rows: tuple
    beyond: tuple  # (m, closed count, interior count) past the fit window
    rr: tuple  # ((m, toric_rr(P, m)), ...)


class Ehrhart(Workload):
    """Reciprocity, toric characters and interior counts on small polytopes."""

    name = "ehrhart"
    why = "face lattices of every dilate and exact rank: Ehrhart fits, reciprocity, toric characters"
    M = 6  # reciprocity rows m = 1..M
    # past every fit window: a window is period*(dim+1)-1 <= 4*4-1 here
    BEYOND = (16, 17, 18)
    RR = (1, 2, -1, -2)

    def make(self):
        rng = _rng(self.name, self.seed)
        named = [cube(), simplex(1), simplex(2), simplex(3), pyramid(), weighted_triangle()]
        randoms = [
            random_simplex(rng, 2, "rsimplex2"),
            random_simplex(rng, 3, "rsimplex3"),
            random_parallelepiped(rng, 2, "rbox2"),
            random_parallelepiped(rng, 3, "rbox3"),
        ]
        self.polys = [moved(rng, P) for P in named] + randoms
        # the canonical desingularization of a moved pyramid is made in the pass
        self.polys.append(replace(moved(rng, pyramid()), name="desing-pyramid"))
        self.texts = [P.text() for P in self.polys]

    def load(self, lpoly):
        from lpoly import counting, desing

        self.lp = lpoly
        self.counting = counting
        self.desing = desing
        self.inputs = [lpoly.parse_lpoly(t) for t in self.texts]

    def ops(self):
        c = self.counting

        def one(P0, blow_up):
            P = _fresh(self.lp, P0)
            if blow_up:
                P = self.desing.canonical_desingularization(P).result
            qp, rows = c.reciprocity_check(P, self.M)
            beyond = tuple(
                (m, c.count_points(P, m), c.count_points(P, m, "interior")) for m in self.BEYOND
            )
            rr = tuple((m, c.toric_rr(P, m)) for m in self.RR)
            return EhrhartOut(P.labels, qp, tuple(rows), beyond, rr)

        return [
            Op((spec.name,), lambda P0=P0, b=spec.name.startswith("desing"): one(P0, b))
            for spec, P0 in zip(self.polys, self.inputs)
        ]

    def check(self, outputs):
        fails = []
        specs = {P.name: P for P in self.polys}
        for (name,), out in outputs.items():
            fails += [f"{name}: {f}" for f in check_ehrhart(self.lp, specs[name], out, self.M)]
        return fails


def check_ehrhart(lpoly, spec: Poly, out: EhrhartOut, M: int) -> list[str]:
    from lpoly.polyhedra import dilate

    fails = []
    d = spec.dim
    sign = (-1) ** d
    qp = out.qp
    if [r[0] for r in out.rows] != list(range(1, M + 1)):
        fails.append("reciprocity rows do not cover m = 1..M")
    for m, lhs, rhs, ok in out.rows:
        if lhs != qp(-m) or not ok or lhs != rhs:
            fails.append(f"reciprocity m={m}: p(-m)={qp(-m)} row=({lhs}, {rhs}, {ok})")
    for m, closed, interior in out.beyond:
        if qp(m) != closed:
            fails.append(f"extrapolation m={m}: p(m)={qp(m)} != count {closed}")
        if sign * qp(-m) != interior:
            fails.append(f"reciprocity m={m}: {sign}*p(-m)={sign * qp(-m)} != interior {interior}")
    # the blown-up pyramid keeps the input's labels and adds cuts, so the
    # input's vertex box still holds it
    if tuple((lab.v, lab.r) for lab in out.labels[: len(spec.labels)]) != tuple(
        (tuple(v), Fraction(r)) for v, r in spec.labels
    ):
        fails.append("labels: output polytope does not extend the input's labels")
        return fails
    P = lpoly.LabelledPolyhedron(d, out.labels)
    rr = dict(out.rr)
    for m in (1, 2):
        Q = dilate(P, m)
        pts = [tuple(Fraction(x) for x in p) for p in _box(spec.vertices, m)]
        closed = {tuple(int(x) for x in p) for p in pts if Q.contains(p, "closed")}
        inner = {tuple(int(x) for x in p) for p in pts if Q.contains(p, "interior")}
        if qp(m) != len(closed):
            fails.append(f"brute m={m}: p(m)={qp(m)} != {len(closed)}")
        if sign * qp(-m) != len(inner):
            fails.append(f"brute interior m={m}: {sign * qp(-m)} != {len(inner)}")
        if rr.get(m) != {p: 1 for p in closed}:
            fails.append(f"toric_rr(P, {m}) differs from the brute lattice points")
        if rr.get(-m) != {tuple(-x for x in p): sign for p in inner}:
            fails.append(f"toric_rr(P, {-m}) differs from the brute interior points")
    return fails


def closed_form(name: str, m: int, region: str) -> int:
    """Lattice points of m*P (closed) or of its interior, by formula."""
    if name == "cube":
        return (m + 1) ** 3 if region == "closed" else (m - 1) ** 3
    if name == "simplex3":
        return math.comb(m + 3, 3) if region == "closed" else math.comb(m - 1, 3)
    if name == "pyramid":
        # layer z of m*pyramid is the square [z, 2m - z]^2
        if region == "closed":
            return sum((2 * j + 1) ** 2 for j in range(m + 1))
        return sum((2 * j - 1) ** 2 for j in range(1, m))
    if name == "wtriangle":
        return (m + 1) ** 2 if region == "closed" else (m - 1) ** 2
    raise ValueError(name)


class CountDilates(Workload):
    """Closed and interior counts and point lists of large dilates."""

    name = "count-dilates"
    why = "the lattice scan on boxes of up to 2.4M points; few face lattices, peak memory"
    MS = (40, 80, 120)
    LIST_M = 40

    def make(self):
        rng = _rng(self.name, self.seed)
        self.polys = [moved(rng, P) for P in (cube(), simplex(3), pyramid(), weighted_triangle())]
        self.texts = [P.text() for P in self.polys]

    def load(self, lpoly):
        from lpoly import counting

        self.lp = lpoly
        self.counting = counting
        self.inputs = [lpoly.parse_lpoly(t) for t in self.texts]

    def ops(self):
        c = self.counting
        out = []
        for spec, P0 in zip(self.polys, self.inputs):
            for m in self.MS:
                for region in ("closed", "interior"):
                    out.append(Op(
                        (spec.name, "count", m, region),
                        lambda P0=P0, m=m, region=region: c.count_points(
                            _fresh(self.lp, P0), m, region
                        ),
                    ))
            out.append(Op(
                (spec.name, "list", self.LIST_M, "closed"),
                lambda P0=P0: c.lattice_points(_fresh(self.lp, P0), self.LIST_M),
            ))
        return out

    def check(self, outputs):
        fails = []
        specs = {P.name: P for P in self.polys}
        for (name, kind, m, region), got in outputs.items():
            want = closed_form(name, m, region)
            if kind == "count":
                if got != want:
                    fails.append(f"{name} m={m} {region}: {got} != {want}")
                continue
            if len(got) != want:
                fails.append(f"{name} m={m} list: {len(got)} points != {want}")
            if outputs.get((name, "count", m, region), want) != len(got):
                fails.append(f"{name} m={m}: len(lattice_points) != count_points")
            if len(set(got)) != len(got):
                fails.append(f"{name} m={m} list: repeated points")
            labels = specs[name].labels
            sample = got[:: max(1, len(got) // 1000)]
            outside = sum(1 for p in sample if any(_dot(v, p) < m * r for v, r in labels))
            if outside:
                fails.append(f"{name} m={m} list: {outside} sampled points outside m*P")
        return fails


def positive_coroots(cartan):
    """Positive coroots in simple-coroot coordinates.

    ``cartan[i][j]`` is <alpha_i^vee, alpha_j>.  The coroots are the roots of
    the dual system, whose Cartan matrix is the transpose; positive roots are
    reached from the simple ones by simple reflections that stay positive.
    """
    k = len(cartan)
    simple = [_unit(k, i) for i in range(k)]
    found = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for b in frontier:
            for i in range(k):
                pairing = sum(b[j] * cartan[j][i] for j in range(k))
                c = tuple(x - pairing if j == i else x for j, x in enumerate(b))
                if all(x >= 0 for x in c) and c not in found:
                    found.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(found)


def weyl_dimension(coroots, lam) -> int:
    """Weyl dimension formula: prod <lam + rho, a> / <rho, a> over positive coroots."""
    num = den = 1
    for a in coroots:
        num *= sum(c * (x + 1) for c, x in zip(a, lam))
        den *= sum(a)
    if num % den:
        raise ValueError(f"non-integral dimension {num}/{den}: bad coroots")
    return num // den


class TensorProducts(Workload):
    """Tensor products of irreducible characters over grids of dominant weights."""

    name = "tensor-products"
    why = "Weyl-character and induction arithmetic only: the characters/rootsys layers, no polyhedra"
    # (type, rank, largest coordinate): every ordered pair of grid weights
    GRIDS = (("A2", 2, 3), ("B2", 2, 3), ("G2", 2, 2), ("A3", 3, 1))
    POSITIVE = {"A2": 3, "B2": 4, "G2": 6, "A3": 6}

    def make(self):
        rng = _rng(self.name, self.seed)
        pairs = []
        for name, rank, top in self.GRIDS:
            grid = list(itertools.product(range(top + 1), repeat=rank))
            pairs += [(name, a, b) for a in grid for b in grid]
        rng.shuffle(pairs)
        self.texts = [f"{n} {' '.join(map(str, a))} {' '.join(map(str, b))}" for n, a, b in pairs]

    def load(self, lpoly):
        from lpoly import characters, rootsys

        self.characters = characters
        self.systems = {}
        self.inputs = []
        for line in self.texts:
            name, *coords = line.split()
            if name not in self.systems:
                self.systems[name] = rootsys.root_system(name)
            ints = tuple(int(x) for x in coords)
            half = len(ints) // 2
            self.inputs.append((name, ints[:half], ints[half:]))

    def ops(self):
        mult = self.characters.multiply_G
        return [
            Op((name, a, b), lambda R=self.systems[name], a=a, b=b: mult(R, {a: 1}, {b: 1}))
            for name, a, b in self.inputs
        ]

    def check(self, outputs):
        fails = []
        coroots = {}
        for name, R in self.systems.items():
            coroots[name] = positive_coroots(R.cartan)
            if len(coroots[name]) != self.POSITIVE[name]:
                fails.append(f"{name}: {len(coroots[name])} positive coroots")
        for (name, a, b), prod in outputs.items():
            cr = coroots[name]
            dim = sum(c * weyl_dimension(cr, mu) for mu, c in prod.items())
            want = weyl_dimension(cr, a) * weyl_dimension(cr, b)
            if dim != want:
                fails.append(f"{name} {a}x{b}: dimension {dim} != {want}")
            if any(c < 0 for c in prod.values()):
                fails.append(f"{name} {a}x{b}: negative multiplicity")
            top = tuple(x + y for x, y in zip(a, b))
            if prod.get(top) != 1:
                fails.append(f"{name} {a}x{b}: highest weight {top} has multiplicity {prod.get(top)}")
            swapped = outputs.get((name, b, a))
            if swapped is not None and swapped != prod:
                fails.append(f"{name} {a}x{b}: differs from {b}x{a}")
        return fails


WORKLOADS = {w.name: w for w in (DualSubdivision, Ehrhart, CountDilates, TensorProducts)}
