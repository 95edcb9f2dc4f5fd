"""Bounding-box lattice scans: one counting kernel and one listing sweep.

Both take a box and the ``(c, k, strict)`` rows of ``polyhedra._rows``: a
point mu passes a row when ``<mu, c> + k >= 0``, or ``> 0`` when strict.
On integers a strict row is ``<mu, c> >= 1 - k``, so each row becomes
``<mu, c> >= b``.  Every axis but one (listing) or two (counting) is
enumerated, keeping each row's ``b - <prefix, c>``.

Listing (``scan_box``) sweeps the box line by line along the last axis: on
a line each row bounds the swept coordinate x from one side (floor or
ceiling division), or tests the line as a whole when it does not involve x,
so the passing points form one integer interval of x.

Counting (``count_box``) works on 2-D slices along the two longest axes
(y, x).  On a slice each row bounding x is a line in y, and the passing x
lie between the highest lower line and the lowest upper line.  Cutting the
y-range at the floors of the pairwise crossings leaves pieces on which one
lower and one upper line are active; on a piece the count is
``sum(floor(U(y)) - ceil(L(y)) + 1)`` over the y where U(y) >= L(y), a sum
of floors of linear functions taken in O(log) steps by ``_floor_sum``
(Beck & Robins, *Computing the Continuous Discretely*, ch. 1; AtCoder
Library ``floor_sum``).  Neither stores points.  All arithmetic is on
Python ints, so no input can overflow.
"""

from __future__ import annotations


def _prefixes(lo, hi, cols, b, prefix=()):
    """Yield (prefix, b - <prefix, c>) for every integer point prefix of the
    box over the first len(cols) axes, in lexicographic order; ``cols[i]``
    holds every row's coefficient of axis i."""
    i = len(prefix)
    if i == len(cols):
        yield prefix, b
        return
    col = cols[i]
    for x in range(lo[i], hi[i] + 1):
        yield from _prefixes(lo, hi, cols, [bj - cj * x for bj, cj in zip(b, col)], prefix + (x,))


def _runs(lo, hi, rows):
    """Yield (prefix, first, last) for every line of the box along its last
    axis whose passing points are ``prefix + (x,)`` for first <= x <= last,
    in lexicographic order of the prefix."""
    k = len(lo)
    # lower bounds on x first, then upper bounds, then rows free of x
    rows = sorted(rows, key=lambda row: (row[0][-1] <= 0, row[0][-1] == 0))
    ups = [c[-1] for c, _ in rows if c[-1] < 0]
    lows = [c[-1] for c, _ in rows if c[-1] > 0]
    n_bounds = len(lows) + len(ups)
    cols = [[c[i] for c, _ in rows] for i in range(k - 1)]
    x_lo, x_hi = lo[-1], hi[-1]
    for prefix, b in _prefixes(lo, hi, cols, [b for _, b in rows]):
        if any(bj > 0 for bj in b[n_bounds:]):
            continue
        first = max([x_lo, *(-(-bj // a) for a, bj in zip(lows, b))])
        last = min([x_hi, *(bj // a for a, bj in zip(ups, b[len(lows):]))])
        if first <= last:
            yield prefix, first, last


def scan_box(lo, hi, rows) -> list[tuple[int, ...]]:
    """All integer points of the box passing every row, as tuples in
    lexicographic order."""
    return [
        prefix + (x,)
        for prefix, first, last in _runs(lo, hi, [(c, strict - const) for c, const, strict in rows])
        for x in range(first, last + 1)
    ]


def _floor_sum(n, m, a, b):
    """sum(floor((a*i + b) / m) for i in range(n)) for n >= 0 and m > 0, in
    O(log) Euclid-like steps."""
    total = 0
    while n:
        total += (a // m) * (n * (n - 1) // 2) + (b // m) * n
        a %= m
        b %= m
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _active(lines, y):
    """The line (q, p, r) whose value (q + p*y) / r is highest at y."""
    best = lines[0]
    for line in lines[1:]:
        q, p, r = line
        if (q + p * y) * best[2] > (best[0] + best[1] * y) * r:
            best = line
    return best


def _count_slice(lows, ups, ys, b):
    """Count of integer (y, x) with x >= L(y) and -x >= L'(y) for every lower
    line L in ``lows`` and every negated upper line L' in ``ups``, and
    ``c_y * y >= b`` for the rows free of x.

    A line (p, r) with right-hand side q is (q + p*y) / r with r > 0; ``b``
    holds the right-hand sides of lows, ups and ys in that order.  The rows
    free of x must bound y from both sides.
    """
    n_low = len(lows)
    free = list(zip(ys, b[n_low + len(ups):]))
    if any(cy == 0 and bj > 0 for cy, bj in free):
        return 0
    first = max(-(-bj // cy) for cy, bj in free if cy > 0)
    last = min(bj // cy for cy, bj in free if cy < 0)
    if first > last:
        return 0
    groups = (
        [(q, p, r) for (p, r), q in zip(lows, b)],
        [(q, p, r) for (p, r), q in zip(ups, b[n_low:])],
    )
    # no two lines of a group cross in [s, t) for a piece [s, t] between cuts,
    # so the line highest at s stays highest on the whole piece
    cuts = set()
    for lines in groups:
        for i, (q1, p1, r1) in enumerate(lines):
            for q2, p2, r2 in lines[:i]:
                d = p1 * r2 - p2 * r1
                if d:
                    y = (q2 * r1 - q1 * r2) // d
                    if first <= y < last:
                        cuts.add(y)
    cuts = sorted(cuts)
    total = 0
    for s, t in zip([first, *(y + 1 for y in cuts)], [*cuts, last]):
        ql, pl, rl = _active(groups[0], s)
        qu, pu, ru = _active(groups[1], s)
        # some real x lies between the lines where L + L' <= 0, and there the
        # piece adds floor(-L') - ceil(L) + 1 >= 0 points; elsewhere it adds none
        a = pl * ru + pu * rl
        c = -(ql * ru + qu * rl)
        if a > 0:
            t = min(t, c // a)
        elif a < 0:
            s = max(s, -(-c // a))
        elif c < 0:
            continue
        n = t - s + 1
        if n > 0:
            total += n + _floor_sum(n, rl, -pl, -ql - pl * s)
            total += _floor_sum(n, ru, -pu, -qu - pu * s)
    return total


def count_box(lo, hi, rows) -> int:
    """Count of integer box points passing every row (no points
    materialized).  The count does not depend on the order of the axes, so
    slices run along the two longest ones: the fewest slices."""
    k = len(lo)
    rows = [(c, strict - const) for c, const, strict in rows]
    if k == 1:
        return sum(last - first + 1 for _, first, last in _runs(lo, hi, rows))
    *outer, y, x = sorted(range(k), key=lambda i: hi[i] - lo[i])
    # the slice's box bounds are rows too
    for i in (y, x):
        unit = [int(j == i) for j in range(k)]
        rows += [(unit, lo[i]), ([-u for u in unit], -hi[i])]
    # lower lines first, then upper lines, then rows free of x
    rows.sort(key=lambda row: (row[0][x] <= 0, row[0][x] == 0))
    lows = [(-c[y], c[x]) for c, _ in rows if c[x] > 0]
    ups = [(-c[y], -c[x]) for c, _ in rows if c[x] < 0]
    ys = [c[y] for c, _ in rows if c[x] == 0]
    cols = [[c[i] for c, _ in rows] for i in outer]
    slices = _prefixes([lo[i] for i in outer], [hi[i] for i in outer], cols, [b for _, b in rows])
    return sum(_count_slice(lows, ups, ys, b) for _, b in slices)
