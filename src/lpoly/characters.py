"""Virtual characters of the torus and the group, and multiplicity checks.

Torus characters are finite weight -> integer maps; group characters are
supported on dominant weights.  The irreducible character oracle is exact
antisymmetrized-sum division in lexicographic term order, cross-checked
against the dimension formula on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import counting, linalg, rootsys
from .hull import hull_of_points
from .linalg import InvariantError
from .polyhedra import Label, LabelledPolyhedron, dilate
from .report import Report
from .rootsys import RootSystem, act, induce, root_system

TCharacter = dict  # weight tuple -> int
GCharacter = dict  # dominant weight tuple -> int


def clean(char: dict) -> dict:
    return {k: v for k, v in char.items() if v != 0}


def alternating_sum(R: RootSystem, nu) -> TCharacter:
    """Sum of sign(w) z^(w nu) over the Weyl group."""
    out: TCharacter = {}
    for w, l in zip(R.elements, R.lengths):
        e = act(w, nu)
        out[e] = out.get(e, 0) + (-1) ** l
    return clean(out)


def _laurent_divide(num: dict, den: dict) -> dict:
    """Exact division of finite Laurent sums in lexicographic term order."""
    num = dict(num)
    lead_d = max(den)
    c_d = den[lead_d]
    q: dict = {}
    steps = 0
    while num:
        steps += 1
        if steps >= 100000:
            raise InvariantError("laurent division diverged")
        lead_n = max(num)
        c_n = num[lead_n]
        if c_n % c_d:
            raise InvariantError("non-exact laurent division")
        coeff = c_n // c_d
        shift = tuple(a - b for a, b in zip(lead_n, lead_d))
        q[shift] = q.get(shift, 0) + coeff
        for e, c in den.items():
            key = tuple(a + b for a, b in zip(shift, e))
            val = num.get(key, 0) - coeff * c
            if val:
                num[key] = val
            else:
                num.pop(key, None)
    return q


@lru_cache(maxsize=None)
def _weyl_character_cached(name: str, mu: tuple) -> tuple:
    R = root_system(name)
    rho = R.rho
    shifted = tuple(m + r for m, r in zip(mu, rho))
    numerator = alternating_sum(R, shifted)
    denominator = alternating_sum(R, rho)
    quotient = _laurent_divide(numerator, denominator)
    total = sum(quotient.values())
    if total != rootsys.weyl_dimension(R, mu):
        raise InvariantError("dimension formula mismatch")
    return tuple(sorted(quotient.items()))


def weyl_character(R: RootSystem, mu) -> TCharacter:
    """Weight multiplicities of the irreducible character with highest weight mu."""
    mu = tuple(int(x) for x in mu)
    if not rootsys.is_dominant(mu):
        raise ValueError("highest weight must be dominant")
    return dict(_weyl_character_cached(R.name, mu))


def expand(R: RootSystem, gchar: GCharacter) -> TCharacter:
    out: TCharacter = {}
    for mu, c in gchar.items():
        for w, m in weyl_character(R, mu).items():
            out[w] = out.get(w, 0) + c * m
    return clean(out)


def decompose(R: RootSystem, tchar: TCharacter) -> GCharacter:
    """Push a torus character to the group through termwise induction."""
    out: GCharacter = {}
    for mu, c in tchar.items():
        sign, dom = induce(R, mu)
        if sign == 0:
            continue
        out[dom] = out.get(dom, 0) + sign * c
    return clean(out)


def multiply(c1: TCharacter, c2: TCharacter) -> TCharacter:
    out: TCharacter = {}
    for e1, a in c1.items():
        for e2, b in c2.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + a * b
    return clean(out)


def multiply_G(R: RootSystem, g1: GCharacter, g2: GCharacter) -> GCharacter:
    return decompose(R, multiply(expand(R, g1), expand(R, g2)))


# -- fixed point data ---------------------------------------------------------


@dataclass(frozen=True)
class FixedPointDatum:
    """Bundle orbiweight, normal orbiweights and local index of one fixed piece."""

    sigma: tuple
    normal_weights: tuple
    rr: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(Fraction(x) for x in self.sigma))
        ws = tuple(tuple(Fraction(x) for x in w) for w in self.normal_weights)
        if any(all(x == 0 for x in w) for w in ws):
            raise ValueError("normal weights must be nonzero")
        object.__setattr__(self, "normal_weights", ws)


def toric_moment_data(P: LabelledPolyhedron, dual: bool = False):
    """Fixed-point data of a toric polytope: vertices with inward edge weights.

    The bundle orbiweight at a vertex is the vertex itself (its negative for
    ``dual``); the normal orbiweights are the negatives of the edge
    directions.
    """
    data = []
    for f in P.face_lattice():
        if f.dim != 0:
            continue
        edges = counting.edge_directions(P, f)
        sigma = tuple(-x for x in f.sample) if dual else f.sample
        data.append(
            FixedPointDatum(sigma, tuple(tuple(-x for x in u) for u in edges), 1)
        )
    return data


def weight_polytope(ambient_dim: int, source):
    """(vertices, hull polytope) of a character's support or fixed-point data."""
    if isinstance(source, dict):
        pts = list(source.keys())
    else:
        pts = [d.sigma for d in source]
    if not pts:
        raise ValueError("empty input")
    P, verts = hull_of_points(ambient_dim, pts)
    return verts, P


def vertex_multiplicity(data, mu, xi) -> int:
    """Localized multiplicity at a vertex of the weight polytope.

    Sums the local indices of the fixed pieces sitting over mu whose dual
    cone contains xi.  xi must pair nonzero with every normal weight and
    strictly negatively with mu - sigma_F for the other pieces.
    """
    data = list(data)
    if not data:
        raise ValueError("empty input")
    k = len(data[0].sigma)
    mu = tuple(Fraction(x) for x in mu)
    xi = tuple(Fraction(x) for x in xi)
    verts, _ = weight_polytope(k, data)
    if mu not in set(verts):
        raise ValueError("not a vertex of the weight polytope")
    total = 0
    for d in data:
        for w in d.normal_weights:
            if linalg.dot(w, xi) == 0:
                raise ValueError("non-generic direction")
        if d.sigma != mu and linalg.dot(linalg.vsub(mu, d.sigma), xi) >= 0:
            raise ValueError("direction does not isolate the vertex")
        if d.sigma == mu and all(linalg.dot(w, xi) < 0 for w in d.normal_weights):
            total += d.rr
    return total


# -- multiplicity verifiers (toric and product-of-orbits cases) ----------------


def verify_decomposition_toric(P: LabelledPolyhedron, m: int) -> Report:
    """Multiplicities of the m-th toric character: support in m*P, all equal 1."""
    rep = Report(f"toric decomposition m={m}")
    char = counting.toric_rr(P, m)
    Q = dilate(P, m)
    rep.add(f"weights: {len(char)}")
    for mu, c in sorted(char.items()):
        if c != 1:
            rep.fail(f"multiplicity: {mu} -> {c} (expected 1)")
        if not Q.contains(tuple(Fraction(x) for x in mu), "closed"):
            rep.fail(f"outside-polytope: {mu}")
    expected = counting.count_points(P, m)
    if len(char) != expected:
        rep.fail(f"count-mismatch: {len(char)} != {expected}")
    return rep


def verify_dual_toric(P: LabelledPolyhedron, m: int) -> Report:
    """Dual character: sign (-1)^dim on the negated interior of m*P, only."""
    rep = Report(f"toric dual m={m}")
    char = counting.toric_rr(P, -m)
    sign = (-1) ** P.body_dim()
    expected = {
        tuple(-x for x in pt): sign for pt in counting.lattice_points(P, m, "interior")
    }
    if char != expected:
        rep.fail(f"character-mismatch: got {sorted(char.items())}, "
                 f"expected {sorted(expected.items())}")
    rep.add(f"terms: {len(char)}")
    rep.add(f"sign: {sign}")
    return rep


def verify_product_orbits(lam: int, nu: int) -> Report:
    """Tensor-product multiplicities for a pair of A1 orbits.

    Checks multiplicity-freeness, support inside the moment interval
    [|lam-nu|, lam+nu], and the exact parity ladder of the product.
    """
    if lam < 0 or nu < 0:
        raise ValueError("weights must be dominant")
    R = root_system("A1")
    rep = Report(f"product orbits lam={lam} nu={nu}")
    prod = multiply_G(R, {(lam,): 1}, {(nu,): 1})
    support = sorted(w[0] for w in prod)
    lo, hi = abs(lam - nu), lam + nu
    expected = list(range(lo, hi + 1, 2))
    if any(c != 1 for c in prod.values()):
        rep.fail(f"multiplicities: {sorted(prod.items())} not all 1")
    if support != expected:
        rep.fail(f"support: {support} != {expected}")
    if any(w < lo or w > hi for w in support):
        rep.fail("support outside the moment interval")
    rep.add(f"support: {' '.join(str(w) for w in support)}")
    return rep


def quantum_dh_check(P: LabelledPolyhedron, mu, m_max: int):
    """Diagonal-ray and full counting quasi-polynomials of a toric polytope.

    Returns (quasi-polynomial of m -> #(m*P lattice points), report).  The
    report covers the degree bound, the period divisor claim, agreement of
    the fit with the counts up to m_max, and the 0/1 ray values along m*mu.
    """
    rep = Report(f"quantum DH mmax={m_max}")
    mu = tuple(Fraction(x) for x in mu)
    if any(x.denominator != 1 for x in mu):
        raise ValueError("ray point must be a lattice point")
    if not P.contains(mu, "closed"):
        raise ValueError("ray point must lie in the polytope")
    d = P.body_dim()
    l = counting.vertex_denominator_lcm(P)
    qp = counting.ehrhart_fit(P, max(m_max, l * (d + 1) - 1))
    rep.add(f"degree: {qp.degree}")
    rep.add(f"period: {qp.period}")
    if qp.degree > d:
        rep.fail(f"degree-bound: {qp.degree} > {d}")
    if l % qp.period != 0:
        rep.fail(f"period-divisor: {qp.period} does not divide {l}")
    for m in range(m_max + 1):
        if qp(m) != counting.count_points(P, m):
            rep.fail(f"count-mismatch at m={m}")
    ray = []
    for m in range(m_max + 1):
        pt = tuple(m * x for x in mu)
        ray.append(1 if dilate(P, m).contains(pt, "closed") else 0)
    if any(v not in (0, 1) for v in ray):
        rep.fail("ray values not 0/1")
    rep.add(f"ray: {' '.join(str(v) for v in ray)}")
    return qp, rep


def verify_vergne() -> Report:
    """The doubled-form sphere with inverted bundle, two independent ways.

    The toric dual count on the interval [0,2] gives virtual dimension -1;
    the closed-form reflection at the top of the moment interval gives
    -chi_0 directly.  Both must land on the same one-term character.
    """
    R = root_system("A1")
    rep = Report("vergne example")
    seg = LabelledPolyhedron(1, [Label((1,), Fraction(0)), Label((-1,), Fraction(-2))])
    char = counting.toric_rr(seg, -1)
    total = sum(char.values())
    rep.add(f"toric-dual-character: {format_tcharacter(char) or '(empty)'}")
    rep.add(f"toric-dual-total: {total}")
    if char != {(-1,): -1} or total != -1:
        rep.fail("toric route expected the single term -1 * z^-1")

    # reflection route: moment interval is the single point {2rho};
    # the multiplicity formula contributes -chi_{mu - 2rho} at mu = 2rho
    sign, dom = rootsys.induce(R, (-2,))
    if (sign, dom) != (-1, (0,)):
        rep.fail(f"induction route gave ({sign}, {dom})")
    rep.add("formula-route: - chi 0")
    if not rootsys.dual_support_bound(R, _point_polytope((Fraction(2),)), (0,)):
        rep.fail("support bound excludes the trivial character")
    rep.add("conclusion: - chi 0")
    return rep


def _point_polytope(coords):
    k = len(coords)
    labs = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        labs.append(Label(e, Fraction(coords[i])))
        labs.append(Label(tuple(-x for x in e), -Fraction(coords[i])))
    return LabelledPolyhedron(k, labs)


def format_tcharacter(char: TCharacter) -> str:
    """One term per line: coeff TAB exponents, sorted lexicographically."""
    lines = []
    for e in sorted(char):
        lines.append(f"{char[e]}\t{' '.join(str(x) for x in e)}")
    return "\n".join(lines)
