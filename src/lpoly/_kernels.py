"""Bounding-box lattice scans: the one hot loop in the package.

A point mu passes label j when ``den[j] * <mu, V[j]> OP num[j]`` with OP
chosen by ``ops[j]``: 0 means >=, 1 means >, 2 means ==.

Both sides are integers, so every label becomes rows ``<mu, c> >= b``:
``> n`` is ``>= n + 1`` and ``== n`` is ``>= n`` together with ``<= n``.
The box is swept line by line along one axis.  Every other coordinate is
enumerated; on a line each row bounds the swept coordinate x from one side
(floor or ceiling division), or tests the line as a whole when it does not
involve x, so the passing points form one integer interval of x.  Counting
sums interval lengths and stores no points.  All arithmetic is on Python
ints, so no input can overflow.
"""

from __future__ import annotations

OP_GE = 0
OP_GT = 1
OP_EQ = 2


def _rows(V, num, den, ops):
    """The labels as integer rows (c, b) meaning <mu, c> >= b."""
    rows = []
    for v, n, d, op in zip(V, num, den, ops):
        c = [d * x for x in v]
        rows.append((c, n + 1 if op == OP_GT else n))
        if op == OP_EQ:
            rows.append(([-x for x in c], -n))
    return rows


def _runs(lo, hi, rows):
    """Yield (prefix, first, last) for every line of the box along its last
    axis whose passing points are ``prefix + (x,)`` for first <= x <= last,
    in lexicographic order of the prefix."""
    k = len(lo)
    # lower bounds on x first, then upper bounds, then rows free of x; the
    # sweep keeps each row's b - <prefix, c> in that order
    rows = sorted(rows, key=lambda row: (row[0][-1] <= 0, row[0][-1] == 0))
    ups = [c[-1] for c, _ in rows if c[-1] < 0]
    lows = [c[-1] for c, _ in rows if c[-1] > 0]
    n_bounds = len(lows) + len(ups)
    cols = [[c[i] for c, _ in rows] for i in range(k - 1)]
    x_lo, x_hi = lo[-1], hi[-1]

    def sweep(i, prefix, b):
        if i < k - 1:
            col = cols[i]
            for x in range(lo[i], hi[i] + 1):
                yield from sweep(i + 1, prefix + (x,), [bj - cj * x for bj, cj in zip(b, col)])
            return
        if any(bj > 0 for bj in b[n_bounds:]):
            return
        first = max([x_lo, *(-(-bj // a) for a, bj in zip(lows, b))])
        last = min([x_hi, *(bj // a for a, bj in zip(ups, b[len(lows):]))])
        if first <= last:
            yield prefix, first, last

    return sweep(0, (), [b for _, b in rows])


def scan_box(lo, hi, V, num, den, ops) -> list[tuple[int, ...]]:
    """All integer points of the box satisfying every label constraint, as
    tuples in lexicographic order."""
    return [
        prefix + (x,)
        for prefix, first, last in _runs(lo, hi, _rows(V, num, den, ops))
        for x in range(first, last + 1)
    ]


def count_box(lo, hi, V, num, den, ops) -> int:
    """Count of integer box points satisfying every constraint (no points
    materialized).  The count does not depend on the order of the axes, so
    the sweep runs along the longest one: the fewest lines."""
    axes = sorted(range(len(lo)), key=lambda i: hi[i] - lo[i])
    rows = [([c[i] for i in axes], b) for c, b in _rows(V, num, den, ops)]
    runs = _runs([lo[i] for i in axes], [hi[i] for i in axes], rows)
    return sum(last - first + 1 for _, first, last in runs)
