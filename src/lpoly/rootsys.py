"""Root systems and Weyl group combinatorics in fundamental-weight coordinates.

Weights are integer vectors of pairings with the simple coroots, so
dominance is coordinatewise nonnegativity and every Weyl element is an
exact integer matrix.  Supported types are A1, A2, A3, B2 and G2.

Everything comes from the simple reflections s_j: nu -> nu - nu_j * (column
j of the Cartan matrix).  W and its parabolic subgroups are their closures
from the identity, breadth first, with lengths; the positive roots are the
simple roots' closure under the reflections that keep the coroot (the pairing
functional, in simple-coroot coordinates) nonnegative.  ``induce`` reflects
mu + rho in its first negative coordinate until it is dominant: it is singular
iff a coordinate is then 0, and the sign is the parity of the reflections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .linalg import InvariantError

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
    rho: Weight

    @property
    def w0(self) -> Matrix:
        return self.elements[self.w0_index]


def act(w: Matrix, mu) -> tuple:
    return tuple(sum(row[j] * mu[j] for j in range(len(mu))) for row in w)


def _generate(gens, k: int) -> dict:
    """{element: length} of the group the k x k matrices ``gens`` generate,
    breadth first from the identity."""
    ident = linalg.identity(k)
    lengths = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                cand = linalg.mat_mul(s, w)
                if cand not in lengths:
                    lengths[cand] = lengths[w] + 1
                    nxt.append(cand)
        frontier = nxt
    return lengths


def _positive_roots(cartan) -> tuple[Root, ...]:
    """The simple roots' closure under the simple reflections that keep the
    coroot f nonnegative: s_i takes coords b to b - b_i alpha_i and f to
    f - (sum_j f_j cartan[j][i]) e_i."""
    k = len(cartan)
    found = {tuple(row[j] for row in cartan): tuple(int(i == j) for i in range(k))
             for j in range(k)}
    frontier = list(found.items())
    while frontier:
        nxt = []
        for b, f in frontier:
            for i in range(k):
                c = sum(f[j] * cartan[j][i] for j in range(k))
                g = tuple(x - c if j == i else x for j, x in enumerate(f))
                root = tuple(x - b[i] * row[i] for x, row in zip(b, cartan))
                if min(g) >= 0 and root not in found:
                    found[root] = g
                    nxt.append((root, g))
        frontier = nxt
    return tuple(Root(b, f) for b, f in sorted(found.items()))


@lru_cache(maxsize=None)
def root_system(name: str) -> RootSystem:
    if name not in _CARTAN:
        raise ValueError(f"unsupported type {name!r}; choose from {sorted(_CARTAN)}")
    cartan = _CARTAN[name]
    k = len(cartan)
    # s_j is the identity minus the Cartan matrix's column j, put in column j
    simples = tuple(tuple(tuple(int(i == l) - (l == j) * cartan[i][j] for l in range(k))
                          for i in range(k)) for j in range(k))
    lengths = _generate(simples, k)
    elements = tuple(sorted(lengths, key=lambda w: (lengths[w], w)))
    length_list = tuple(lengths[w] for w in elements)
    if len(elements) != _ORDER[name]:
        raise InvariantError(f"Weyl group of {name} has the wrong order")
    positive = _positive_roots(cartan)
    if len(positive) != max(length_list):
        raise InvariantError("positive root count differs from the length of w0")
    return RootSystem(name, k, cartan, elements, length_list, simples, positive,
                      length_list.index(max(length_list)), (1,) * k)


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
    rho = R.rho
    nu = [m + r for m, r in zip(mu, rho)]
    flips = 0
    while True:
        j = next((i for i, x in enumerate(nu) if x < 0), None)
        if j is None:
            break
        c = nu[j]
        nu = [x - c * row[j] for x, row in zip(nu, R.cartan)]
        flips += 1
    if 0 in nu:
        return (0, None)
    return (-1 if flips % 2 else 1, tuple(n - r for n, r in zip(nu, rho)))


def star(R: RootSystem, mu) -> tuple:
    return tuple(-x for x in act(R.w0, mu))


def walls(R: RootSystem):
    """All open walls of the dominant chamber, as coordinate supports."""
    return [frozenset(i for i in range(R.rank) if mask >> i & 1) for mask in range(1 << R.rank)]


def wall_data(R: RootSystem, support):
    """(rho_sigma, w_sigma) of the wall: half-sum of centralizer positive
    roots and the longest element of its Weyl subgroup."""
    support = frozenset(support)
    # a positive root lies in the centralizer iff it vanishes on the wall,
    # i.e. its coroot pairing with every lambda_i (i in support) is zero
    sub = [a for a in R.positive_roots
           if all(a.coroot_pairing[i] == 0 for i in support)]
    rho_sigma = tuple(Fraction(sum(a.coords[c] for a in sub), 2) for c in range(R.rank))
    # the longest element: unique, and as long in the subgroup as in W
    lengths = _generate([R.simple_reflections[j] for j in range(R.rank) if j not in support],
                        R.rank)
    return rho_sigma, max(lengths, key=lengths.get)


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
    shifted = tuple(Fraction(l) - 2 * (1 - rs) for l, rs in zip(lam, rho_sigma))
    lam_minus_rho = tuple(l - r for l, r in zip(lam, R.rho))
    if not is_regular(R, lam_minus_rho):
        # the dominance criterion must fail too (the conditions are equivalent)
        if is_dominant(shifted):
            raise InvariantError("singular weight passes the dominance criterion")
        return None
    w = linalg.mat_mul(R.w0, w_sigma)
    result = affine_action(R, w, tuple(-x for x in lam))
    if not is_dominant(result):
        raise InvariantError("reflected weight is not dominant")
    expected = star(R, shifted)
    if tuple(Fraction(x) for x in result) != tuple(expected):
        raise InvariantError("reflected weight differs from the closed form")
    if not is_dominant(shifted):
        raise InvariantError("regular weight fails the dominance criterion")
    return w, result


def principal_wall(R: RootSystem, points) -> frozenset:
    """Smallest wall whose closure contains every (dominant) point."""
    pts = list(points)
    if not pts:
        raise ValueError("empty point set")
    for p in pts:
        if any(x < 0 for x in p):
            raise ValueError(f"point {tuple(p)} is not dominant")
    return frozenset().union(*map(support_of, pts))


def weyl_dimension(R: RootSystem, mu) -> int:
    if not is_dominant(mu):
        raise ValueError("weight must be dominant")
    num = den = 1
    shifted = tuple(m + r for m, r in zip(mu, R.rho))
    for a in R.positive_roots:
        num *= coroot_pairing(a, shifted)
        den *= coroot_pairing(a, R.rho)
    if num % den:
        raise InvariantError("Weyl dimension formula gave a non-integer")
    return num // den


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
