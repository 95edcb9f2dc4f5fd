"""Exact integer and rational linear algebra.

Everything in this module (and downstream of it) is big-integer or
``fractions.Fraction`` arithmetic; no floating point anywhere.  Matrices are
plain sequences of row sequences, vectors are tuples.  Rank, kernels and
solving share one fraction-free Gauss-Jordan elimination (``_echelon``) on
integer rows; ``Fraction`` appears only in ``solve``'s solutions, and
``solve_scaled`` returns integer numerators over one denominator.  Maximal
minors are fraction-free determinants (``_det``): signed, they span the
kernel of k-1 rows in k columns (``signed_minors``), and their gcd is a
lattice index (``lattice_index``), the order of a structure group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


class InvariantError(RuntimeError):
    """A check failed that no input can fail: a bug in lpoly.  Raised
    explicitly, never by ``assert``, so the checks also run under ``python
    -O``; errors an input can cause are ``ValueError``."""


def vec_gcd(v) -> int:
    return gcd(*v)


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

    Membership and the feasibility witness check scale their points here,
    elimination its matrix rows, and a float raises TypeError here.  No
    half-space row passes through here: ``Label.row`` is built integral and
    Fourier-Motzkin takes integer rows only.
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
        row = list(row) if all(type(t) is int for t in row) else _scaled(row)[0]
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


def solve_scaled(m) -> tuple[IntVec, int] | None:
    """The solution of a x = b when there is exactly one, as integers (X, d)
    with x = X/d and d > 0; ``m`` holds the rows of [a | b]."""
    red, pivots = _echelon(m)
    k = len(m[0]) - 1
    if pivots != list(range(k)):
        return None
    d = lcm(*(red[c][c] for c in range(k)))
    return tuple(red[c][-1] * (d // red[c][c]) for c in range(k)), d


def signed_minors(m, cols: int | None = None) -> IntVec:
    """Entry j is (-1)^j times the minor of the (k-1) x k integer matrix
    ``m`` without column j.  Each row of m pairs to zero with it, so it is
    zero exactly when m's rank is below k-1 and else spans m's kernel.
    ``cols`` must be given when ``m`` has no rows."""
    if any(type(t) is not int for row in m for t in row):
        raise TypeError("signed_minors takes int entries")
    k = len(m[0]) if m else cols
    return tuple((-1) ** j * _det([row[:j] + row[j + 1:] for row in m]) for j in range(k))


def _det(m) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): each division by the previous pivot is exact."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[-1][-1] if n else 1


def lattice_index(rows) -> int:
    """Index of the lattice spanned by r integer rows in its saturation
    (the integer points of their rational span): the gcd of the r x r
    minors, which is the product of the elementary divisors (Newman,
    *Integral Matrices*, 1972, ch. II).  0 when the rows are dependent;
    1 for no rows."""
    r = len(rows)
    k = len(rows[0]) if rows else 0
    return gcd(*(_det([[row[j] for j in cols] for row in rows])
                 for cols in combinations(range(k), r)))
