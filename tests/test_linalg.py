import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpoly import linalg


def det(m) -> Fraction:
    """Determinant over the rationals by Gaussian elimination."""
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


def test_primitive():
    assert linalg.primitive((2, 4)) == (1, 2)
    assert linalg.primitive((-3, 6, 9)) == (-1, 2, 3)
    with pytest.raises(ValueError):
        linalg.primitive((0, 0))
    v = linalg.primitive((6, -10))
    assert linalg.primitive(v) == v


def test_rank_and_kernel():
    assert linalg.rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert linalg.kernel_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []
    assert linalg.rank([[1, 1], [2, 2]]) == 1
    assert linalg.kernel_basis([[1, 1], [2, 2]]) == [(-1, 1)] or \
        linalg.kernel_basis([[1, 1], [2, 2]]) == [(1, -1)]
    assert linalg.rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert len(linalg.kernel_basis([[0, 0, 0], [0, 0, 0]])) == 3


def test_rank_transpose_random():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert linalg.rank(m) == linalg.rank([list(c) for c in zip(*m)])


def test_kernel_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        kern = linalg.kernel_basis(m)
        assert len(kern) == cols - linalg.rank(m)
        for kv in kern:
            assert all(linalg.dot(row, kv) == 0 for row in m)


def test_solve():
    x = linalg.solve([[2, 0], [0, 4]], [1, 2])
    assert x == (Fraction(1, 2), Fraction(1, 2))
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_clear_denominators():
    assert linalg.clear_denominators((Fraction(1, 2), Fraction(-1, 3))) == (3, -2)


# -- the fraction-free echelon against rational Gauss-Jordan -------------------


def rref(m):
    """Oracle: reduced row echelon form over Fraction, (rows, pivot columns)."""
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


def rref_kernel(m):
    ncols = len(m[0])
    a, pivots = rref(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(linalg.clear_denominators(v))
    return basis


def rref_solve(m, b):
    ncols = len(m[0])
    red, pivots = rref([list(row) + [bb] for row, bb in zip(m, b)])
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][-1]
    return tuple(x)


def rref_solve_unique(m, b):
    ncols = len(m[0])
    red, pivots = rref([list(row) + [bb] for row, bb in zip(m, b)])
    if pivots != list(range(ncols)):
        return None
    return tuple(red[c][-1] for c in range(ncols))


BIG = 2**63

entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(lambda n, s: s * (BIG + n), st.integers(0, 2**12), st.sampled_from((1, -1))),
    st.builds(Fraction, st.integers(BIG, 4 * BIG), st.integers(BIG, 4 * BIG)),
)


@st.composite
def systems(draw):
    """(m, b): wide, square or tall, with zeroed rows and columns, sometimes
    a dependent row, and b either in the column space or arbitrary."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        m[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in m:
            row[j] = 0
    if draw(st.booleans()):
        m.append([x - 2 * y for x, y in zip(m[0], m[-1])])
    if draw(st.booleans()):
        x0 = [draw(entries) for _ in range(cols)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in m]
    else:
        b = [draw(entries) for _ in m]
    return m, b


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(systems())
@example(([[1, 1], [1, 1]], [0, 1]))                    # inconsistent
@example(([[0, 0, 0], [0, 0, 0]], [0, 1]))              # zero matrix, inconsistent
@example(([[0, 0], [0, 0]], [0, 0]))                    # zero matrix
@example(([[1, 2, 3, 4, 5]], [Fraction(1, 2)]))         # wide
@example(([[1], [2], [3], [4]], [1, 2, 3, 4]))          # tall, consistent
@example(([[1], [2], [3], [4]], [1, 2, 3, 5]))          # tall, inconsistent
@example(([[BIG, BIG + 1], [BIG - 1, BIG]], [BIG, 1]))  # det 1, entries past 2^63
@example(([[Fraction(BIG, 3), 1], [BIG, 3]], [0, 0]))   # rank 1 with a Fraction
def test_echelon_matches_rational_rref(system):
    m, b = system
    red, pivots = rref(m)
    ech, ech_pivots = linalg._echelon(m)
    assert ech_pivots == pivots
    for r, c in enumerate(pivots):
        assert ech[r][c] > 0
        assert all(isinstance(x, int) for x in ech[r])
        assert gcd(*ech[r]) == 1
        assert [Fraction(x, ech[r][c]) for x in ech[r]] == red[r]
    assert linalg.rank(m) == len(pivots)
    assert linalg.kernel_basis(m) == rref_kernel(m)
    assert linalg.solve(m, b) == rref_solve(m, b)
    assert linalg.solve_unique(m, b) == rref_solve_unique(m, b)


# -- lattice indices against integer points of the parallelepiped --------------


def parallelepiped_points(rows):
    """Oracle: the number of integer points x = sum t_i a_i with every t_i in
    [0, 1), one per coset of (saturation of the row lattice) / (row lattice);
    0 when the rows are dependent.  On the pivot columns S of the rows they
    restrict to an invertible B, so t solves B^T t = x_S."""
    r = len(rows)
    _, pivots = rref(rows)
    if len(pivots) < r:
        return 0
    bt = [[row[c] for row in rows] for c in pivots]
    cols = [rref_solve_unique(bt, [int(i == j) for i in range(r)]) for j in range(r)]
    # t = x_S (B^T)^-1 = n / D with n an integer vector
    D = lcm(*(t.denominator for col in cols for t in col))
    inv = [[int(t * D) for t in col] for col in cols]
    box = [range(sum(min(0, row[c]) for row in rows), sum(max(0, row[c]) for row in rows) + 1)
           for c in pivots]
    count = 0
    for xs in itertools.product(*box):
        n = [sum(x * col[i] for x, col in zip(xs, inv)) for i in range(r)]
        if all(0 <= ni < D for ni in n) and all(
                sum(ni * row[c] for ni, row in zip(n, rows)) % D == 0
                for c in range(len(rows[0]))):
            count += 1
    return count


@st.composite
def lattice_rows(draw):
    """r <= k <= 4 integer rows with small entries; sometimes the last row
    is a combination of the others."""
    k = draw(st.integers(1, 4))
    r = draw(st.integers(1, k))
    rows = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows


def lattice_index_property(index):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lattice_rows())
    @example([[1, 0], [-1, -2]])
    @example([[2, 4, 6]])
    @example([[1, 2], [2, 4]])
    def prop(rows):
        assert index(rows) == parallelepiped_points(rows)
        if len(rows) == len(rows[0]):
            assert index(rows) == abs(det(rows))

    return prop


def test_lattice_index_counts_parallelepiped_points():
    lattice_index_property(linalg.lattice_index)()


def test_lattice_index_property_catches_first_minor():
    def first_nonzero_minor(rows):
        minors = (linalg._det([[row[j] for j in cols] for row in rows])
                  for cols in itertools.combinations(range(len(rows[0])), len(rows)))
        return abs(next((m for m in minors if m), 0))

    with pytest.raises(AssertionError):
        lattice_index_property(first_nonzero_minor)()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG)),
                                min_size=n, max_size=n), min_size=n, max_size=n)))
def test_lattice_index_of_square_rows_is_abs_det(m):
    assert linalg.lattice_index(m) == abs(det(m))


# rows of a 6 x 5 matrix whose Smith diagonal is 1, 1, 1, 1, 18
SIX_BY_FIVE = [[19, 17, -21, 8, 30],
               [-4, -23, -24, -23, -21],
               [-12, -19, -19, -4, -21],
               [29, -17, 26, 5, -10],
               [19, 1, 21, -16, 24],
               [-14, -23, 24, 22, -7]]


def test_lattice_index_fixed_cases():
    assert linalg.lattice_index([(1, 0), (-1, -2)]) == 2
    assert linalg.lattice_index([(0, 1), (-1, -2)]) == 1
    assert linalg.lattice_index([list(c) for c in zip(*SIX_BY_FIVE)]) == 18
    assert linalg.lattice_index(SIX_BY_FIVE) == 0  # more rows than columns
    assert linalg.lattice_index([]) == 1
