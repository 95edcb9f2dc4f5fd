"""Root systems and Weyl group combinatorics in fundamental-weight coordinates.

Weights are integer vectors of pairings with the simple coroots, so
dominance is coordinatewise nonnegativity and every Weyl element is an
exact integer matrix.  Supported types are A1, A2, A3, B2 and G2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg

# cartan[i][j] = pairing of the j-th simple root with the i-th simple coroot;
# column j holds the fundamental coordinates of the j-th simple root
_CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -3), (-1, 2)),
}

_ORDER = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "G2": 12}

Matrix = tuple[tuple[int, ...], ...]
Weight = tuple[int, ...]


@dataclass(frozen=True)
class Root:
    coords: tuple[int, ...]        # fundamental coordinates
    coroot_pairing: tuple[int, ...]  # row functional giving <mu, coroot>


@dataclass(frozen=True)
class RootSystem:
    name: str
    rank: int
    cartan: Matrix
    elements: tuple[Matrix, ...]        # all Weyl elements, identity first
    lengths: tuple[int, ...]
    simple_reflections: tuple[Matrix, ...]
    positive_roots: tuple[Root, ...]
    w0_index: int

    @property
    def rho(self) -> Weight:
        return tuple(1 for _ in range(self.rank))

    @property
    def w0(self) -> Matrix:
        return self.elements[self.w0_index]

    @property
    def simple_roots(self) -> tuple[Weight, ...]:
        return tuple(
            tuple(self.cartan[i][j] for i in range(self.rank))
            for j in range(self.rank)
        )

    @property
    def fundamental_weights(self) -> tuple[Weight, ...]:
        return tuple(
            tuple(1 if j == i else 0 for j in range(self.rank))
            for i in range(self.rank)
        )

    def inverse(self, w: Matrix) -> Matrix:
        return _inverse_table(self)[w]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def act(w: Matrix, mu) -> tuple:
    return tuple(sum(row[j] * mu[j] for j in range(len(mu))) for row in w)


@lru_cache(maxsize=None)
def root_system(name: str) -> RootSystem:
    if name not in _CARTAN:
        raise ValueError(f"unsupported type {name!r}; choose from {sorted(_CARTAN)}")
    cartan = _CARTAN[name]
    k = len(cartan)
    simples = []
    for j in range(k):
        s = [[1 if i == l else 0 for l in range(k)] for i in range(k)]
        for i in range(k):
            s[i][j] -= cartan[i][j]
        simples.append(tuple(tuple(row) for row in s))
    simples = tuple(simples)

    ident = _identity(k)
    lengths = {ident: 0}
    frontier = [ident]
    order = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in simples:
                cand = _mat_mul(s, w)
                if cand not in lengths:
                    lengths[cand] = lengths[w] + 1
                    nxt.append(cand)
                    order.append(cand)
        frontier = nxt
    elements = tuple(sorted(order, key=lambda w: (lengths[w], w)))
    length_list = tuple(lengths[w] for w in elements)
    assert len(elements) == _ORDER[name]
    w0_index = max(range(len(elements)), key=lambda i: length_list[i])

    # positive roots with their coroot pairing functionals
    inv = {}
    for w in elements:
        for g in elements:
            if _mat_mul(w, g) == ident:
                inv[w] = g
                break
    roots = {}
    for w in elements:
        winv = inv[w]
        for j in range(k):
            alpha = tuple(cartan[i][j] for i in range(k))
            coords = act(w, alpha)
            if coords not in roots:
                roots[coords] = winv[j]
    cartan_cols = [[Fraction(cartan[i][j]) for j in range(k)] for i in range(k)]
    positive = []
    for coords, pairing in sorted(roots.items()):
        c = linalg.solve(cartan_cols, list(coords))
        assert c is not None
        if all(x >= 0 for x in c):
            positive.append(Root(coords, tuple(pairing)))
    assert len(positive) == max(length_list)

    return RootSystem(
        name,
        k,
        cartan,
        elements,
        length_list,
        simples,
        tuple(positive),
        w0_index,
    )


@lru_cache(maxsize=None)
def _inverse_table(R: RootSystem):
    ident = _identity(R.rank)
    return {
        w: next(g for g in R.elements if _mat_mul(w, g) == ident)
        for w in R.elements
    }


def weyl_group(R: RootSystem):
    """All elements with their lengths, identity first."""
    return list(zip(R.elements, R.lengths))


def is_dominant(mu) -> bool:
    return all(x >= 0 for x in mu)


def affine_action(R: RootSystem, w: Matrix, mu) -> tuple:
    shifted = tuple(m + r for m, r in zip(mu, R.rho))
    moved = act(w, shifted)
    return tuple(m - r for m, r in zip(moved, R.rho))


def coroot_pairing(root: Root, mu):
    """<mu, coroot>: an ``int`` for an integer weight, a ``Fraction`` when
    ``mu`` has ``Fraction`` entries."""
    return sum(p * m for p, m in zip(root.coroot_pairing, mu))


def is_regular(R: RootSystem, mu) -> bool:
    return all(coroot_pairing(a, mu) != 0 for a in R.positive_roots)


def induce(R: RootSystem, mu):
    """Signed dominant representative of the rho-shifted orbit, or None.

    Returns (sign, dominant weight) or (0, None) when mu + rho is singular.
    """
    nu = list(m + r for m, r in zip(mu, R.rho))
    if not is_regular(R, nu):
        return (0, None)
    flips = 0
    while True:
        j = next((i for i in range(R.rank) if nu[i] < 0), None)
        if j is None:
            break
        nu = list(act(R.simple_reflections[j], nu))
        flips += 1
    sign = -1 if flips % 2 else 1
    return (sign, tuple(n - r for n, r in zip(nu, R.rho)))


def star(R: RootSystem, mu) -> tuple:
    return tuple(-x for x in act(R.w0, mu))


def walls(R: RootSystem):
    """All open walls of the dominant chamber, as coordinate supports."""
    out = []
    for mask in range(1 << R.rank):
        out.append(frozenset(i for i in range(R.rank) if mask >> i & 1))
    return out


def wall_data(R: RootSystem, support):
    """(rho_sigma, w_sigma) of the wall: half-sum of centralizer positive
    roots and the longest element of its Weyl subgroup."""
    support = frozenset(support)
    # a positive root lies in the centralizer iff it vanishes on the wall,
    # i.e. its coroot pairing with every lambda_i (i in support) is zero
    sub = [a for a in R.positive_roots
           if all(a.coroot_pairing[i] == 0 for i in support)]
    rho_sigma = tuple(
        sum((Fraction(a.coords[c]) for a in sub), Fraction(0)) / 2
        for c in range(R.rank)
    )
    gens = [R.simple_reflections[j] for j in range(R.rank) if j not in support]
    ident = _identity(R.rank)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                cand = _mat_mul(s, w)
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    w_sigma = max(seen, key=lambda w: R.lengths[R.elements.index(w)])
    return rho_sigma, w_sigma


def support_of(mu) -> frozenset:
    return frozenset(i for i, x in enumerate(mu) if x > 0)


def reflect(R: RootSystem, lam):
    """Dominant reflection data of -lam under the rho-shifted action.

    None when lam - rho is singular; otherwise (w, w . (-lam)) with
    w = w0 w_sigma for sigma the wall containing lam.  The closed-form
    value star(lam - 2(rho - rho_sigma)) and the dominance criterion are
    verified internally.
    """
    if not is_dominant(lam):
        raise ValueError("weight must be dominant")
    sigma = support_of(lam)
    rho_sigma, w_sigma = wall_data(R, sigma)
    shifted = tuple(
        Fraction(l) - 2 * (1 - rs) for l, rs in zip(lam, rho_sigma)
    )
    lam_minus_rho = tuple(l - r for l, r in zip(lam, R.rho))
    if not is_regular(R, lam_minus_rho):
        # the dominance criterion must fail too (the conditions are equivalent)
        assert not is_dominant(shifted)
        return None
    w = _mat_mul(R.w0, w_sigma)
    result = affine_action(R, w, tuple(-x for x in lam))
    assert is_dominant(result)
    expected = star(R, shifted)
    assert tuple(Fraction(x) for x in result) == tuple(expected)
    assert is_dominant(shifted)
    return w, result


def principal_wall(R: RootSystem, points) -> frozenset:
    """Smallest wall whose closure contains every (dominant) point."""
    support = set()
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    for p in pts:
        if any(x < 0 for x in p):
            raise ValueError(f"point {tuple(p)} is not dominant")
        support |= {i for i, x in enumerate(p) if x > 0}
    return frozenset(support)


def weyl_dimension(R: RootSystem, mu) -> int:
    if not is_dominant(mu):
        raise ValueError("weight must be dominant")
    num = Fraction(1)
    shifted = tuple(m + r for m, r in zip(mu, R.rho))
    for a in R.positive_roots:
        num *= Fraction(coroot_pairing(a, shifted), coroot_pairing(a, R.rho))
    if num.denominator != 1:
        raise RuntimeError("Weyl dimension formula gave a non-integer")
    return int(num)


def dual_support_bound(R: RootSystem, delta, nu) -> bool:
    """Is nu inside star(relative interior of delta shifted by -2(rho-rho_sigma))?

    ``delta`` is a bounded labelled polytope of dominant points in
    fundamental coordinates; sigma is its principal wall.
    """
    verts = delta.vertices()
    if not verts:
        raise ValueError("empty moment polytope")
    sigma = principal_wall(R, verts)
    rho_sigma, _ = wall_data(R, sigma)
    shift = tuple(2 * (1 - rs) for rs in rho_sigma)
    probe = tuple(Fraction(x) + s for x, s in zip(star(R, nu), shift))
    return delta.contains(probe, "interior")
