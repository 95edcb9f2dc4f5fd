"""Exact integer and rational linear algebra.

Everything in this module (and downstream of it) is big-integer or
``fractions.Fraction`` arithmetic; no floating point anywhere.  Matrices are
plain sequences of row sequences, vectors are tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


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


def clear_denominators(v) -> IntVec:
    """Scale a nonzero rational vector to a primitive integer vector.

    The positive scaling factor is chosen so the result is integral with
    entry gcd 1; the direction is preserved.
    """
    fr = [Fraction(x) for x in v]
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fr]
    return primitive(ints)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det(m) -> Fraction:
    """Determinant over the rationals (fraction-free for integer input)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def _rref(m):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    return len(_rref(m)[1])


def kernel_basis(m, cols: int | None = None) -> list[IntVec]:
    """Primitive integer basis of the rational null space of ``m``.

    ``cols`` must be given when ``m`` has no rows.
    """
    if not m:
        if cols is None:
            raise ValueError("cols required for empty matrix")
        return [tuple(1 if j == i else 0 for j in range(cols)) for i in range(cols)]
    ncols = len(m[0])
    a, pivots = _rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(clear_denominators(v))
    return basis


def solve(a, b) -> Vec | None:
    """One rational solution of ``a x = b``, or None if inconsistent."""
    if not a:
        return ()
    ncols = len(a[0])
    aug = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(a, b)]
    red, pivots = _rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][-1]
    return tuple(x)


def solve_unique(a, b) -> Vec | None:
    """The solution of ``a x = b`` when there is exactly one, else None."""
    ncols = len(a[0])
    red, pivots = _rref([list(row) + [bb] for row, bb in zip(a, b)])
    if pivots != list(range(ncols)):
        return None
    return tuple(red[c][-1] for c in range(ncols))


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
    u = identity(rows)
    v = identity(cols)
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
