"""Exact integer and rational linear algebra.

Everything in this module (and downstream of it) is big-integer or
``fractions.Fraction`` arithmetic; no floating point anywhere.  Matrices are
plain sequences of row sequences, vectors are tuples.  Rank, kernels and
solving share one fraction-free Gauss-Jordan elimination (``_echelon``) on
integer rows; ``Fraction`` appears only in the solutions returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


class InvariantError(RuntimeError):
    """A check failed that no input can fail: a bug in lpoly.  Raised
    explicitly, never by ``assert``, so the checks also run under ``python
    -O``; errors an input can cause are ``ValueError``."""


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    v = tuple(int(x) for x in v)
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero label vector")
    return tuple(x // g for x in v)


def is_primitive(v) -> bool:
    return vec_gcd(v) == 1


def dot(a, b):
    """Exact dot product: an ``int`` for integer vectors, a ``Fraction``
    when either vector has ``Fraction`` entries."""
    return sum(x * y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _scaled(x) -> tuple[list[int], int]:
    """(X, d) with X = d*x integral, d the lcm of the denominators of x.

    Membership and elimination scale their points and rows here, and a
    float raises TypeError here.
    """
    try:
        d = lcm(*(t.denominator for t in x))
    except AttributeError:
        raise TypeError("exact arithmetic takes int or Fraction entries") from None
    return [t.numerator * (d // t.denominator) for t in x], d


def clear_denominators(v) -> IntVec:
    """Scale a nonzero rational vector to a primitive integer vector.

    The positive scaling factor is chosen so the result is integral with
    entry gcd 1; the direction is preserved.
    """
    return primitive(_scaled(v)[0])


def mat_mul(a, b):
    """The product of two matrices, as a tuple of tuple rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _echelon(m):
    """Fraction-free reduced row echelon form: (rows, pivot columns).

    Each row is scaled to integers and divided by the gcd of its entries
    once; then integer Gauss-Jordan makes each pivot positive, clears its
    column above and below, and divides every changed row by its gcd.
    Row i is a positive multiple of row i of the rational RREF, so the
    pivots are the same and RREF entry (i, j) is
    ``rows[i][j] / rows[i][pivots[i]]`` (Bareiss 1968 keeps entries small
    by exact division; the gcd does that here).
    """
    a = []
    for row in m:
        row = _scaled(row)[0]
        g = gcd(*row)
        a.append([x // g for x in row] if g > 1 else row)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r]
        if p[c] < 0:
            p = a[r] = [-x for x in p]
        pc = p[c]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                row = [pc * x - f * y for x, y in zip(a[i], p)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    return len(_echelon(m)[1])


def kernel_basis(m, cols: int | None = None) -> list[IntVec]:
    """Primitive integer basis of the rational null space of ``m``: one
    vector per free column f, the primitive positive multiple of the RREF
    solution with x_f = 1 and every other free variable 0.

    ``cols`` must be given when ``m`` has no rows.
    """
    if not m:
        if cols is None:
            raise ValueError("cols required for empty matrix")
        return [tuple(1 if j == i else 0 for j in range(cols)) for i in range(cols)]
    ncols = len(m[0])
    a, pivots = _echelon(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        # x_c = -a[r][f] / a[r][c] at pivot c of row r, scaled by the lcm of those pivots
        s = lcm(*(a[r][c] for r, c in enumerate(pivots) if a[r][f]))
        v = [0] * ncols
        v[f] = s
        for r, c in enumerate(pivots):
            v[c] = -a[r][f] * (s // a[r][c])
        basis.append(primitive(v))
    return basis


def solve(a, b) -> Vec | None:
    """One rational solution of ``a x = b``, or None if inconsistent."""
    if not a:
        return ()
    ncols = len(a[0])
    red, pivots = _echelon([list(row) + [bb] for row, bb in zip(a, b)])
    if pivots and pivots[-1] == ncols:  # a row reads 0 = nonzero
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = Fraction(red[r][-1], red[r][c])
    return tuple(x)


def solve_unique(a, b) -> Vec | None:
    """The solution of ``a x = b`` when there is exactly one, else None."""
    ncols = len(a[0])
    red, pivots = _echelon([list(row) + [bb] for row, bb in zip(a, b)])
    if pivots != list(range(ncols)):
        return None
    return tuple(Fraction(red[c][-1], red[c][c]) for c in range(ncols))


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with ``U @ m @ V == D``, U and V unimodular, D diagonal
    with nonnegative entries satisfying d1 | d2 | ...  Pivot selection always
    takes a smallest-magnitude nonzero entry, which keeps the intermediate
    numbers small at the sizes used here.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [[int(x) for x in row] for row in m]
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)]
    n = min(rows, cols)

    def diagonalize(t0):
        t = t0
        while t < n:
            # re-select the globally smallest nonzero entry before every
            # reduction pass; with the pivot minimal, every quotient is a
            # genuine Euclidean step and entries stay tame
            while True:
                best = None
                for i in range(t, rows):
                    for j in range(t, cols):
                        if d[i][j] != 0 and (
                            best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])
                        ):
                            best = (i, j)
                if best is None:
                    return
                bi, bj = best
                if bi != t:
                    _swap_rows(d, t, bi)
                    _swap_rows(u, t, bi)
                if bj != t:
                    _swap_cols(d, t, bj)
                    _swap_cols(v, t, bj)
                p = d[t][t]
                clean = True
                for i in range(t + 1, rows):
                    if d[i][t] != 0:
                        q = d[i][t] // p
                        if q:
                            d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                            u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                        if d[i][t] != 0:
                            clean = False
                for j in range(t + 1, cols):
                    if d[t][j] != 0:
                        q = d[t][j] // p
                        if q:
                            for row in d:
                                row[j] -= q * row[t]
                            for row in v:
                                row[j] -= q * row[t]
                        if d[t][j] != 0:
                            clean = False
                if clean:
                    break
            t += 1

    diagonalize(0)

    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a, b = d[i][i], d[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # pull column i+1 into column i, then re-diagonalize
                for row in d:
                    row[i] += row[i + 1]
                for row in v:
                    row[i] += row[i + 1]
                diagonalize(i)
                changed = True
                break

    for i in range(n):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return u, d, v


def elementary_divisors(m) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form."""
    _, d, _ = smith_normal_form(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0]
