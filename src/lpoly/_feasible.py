"""Exact feasibility of mixed strict/weak rational inequality systems.

A row ``(coeffs, const, strict)`` encodes ``coeffs . t + const >= 0`` (or
``> 0`` when strict) with ``int`` entries only, as ``polyhedra._rows`` gives
them; a ``Fraction`` or float entry raises TypeError.  On entry each row is
divided by the gcd of its entries, so Fourier-Motzkin elimination runs on
coprime integer rows and duplicate rows share one key.  ``Fraction``
appears only in back-substitution, which produces an exact rational
witness, and in the final check of that witness against the caller's rows.
The systems handled here are tiny (<= ~20 rows, <= 6 variables), so the
quadratic blowup of elimination never matters once duplicate and dominated
rows are pruned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import InvariantError, _scaled

Row = tuple[tuple[int, ...], int, bool]


def _normalize(coeffs: tuple[int, ...], const: int, strict: bool) -> Row:
    """Divide an integer row by the gcd of its entries; ``math.gcd`` raises
    TypeError on a ``Fraction`` or float entry."""
    g = gcd(*coeffs, const)
    if g > 1:
        return tuple(x // g for x in coeffs), const // g, strict
    return coeffs, const, strict


def _prune(rows: list[Row]) -> list[Row] | None:
    """Drop dominated rows; return None if a constant row is violated."""
    best: dict[tuple[int, ...], tuple[int, bool]] = {}
    for coeffs, const, strict in rows:
        if not any(coeffs):
            if const < 0 or (const == 0 and strict):
                return None
            continue
        cur = best.get(coeffs)
        # smaller constant = stronger; on ties strict wins
        if cur is None or const < cur[0] or (const == cur[0] and strict and not cur[1]):
            best[coeffs] = (const, strict)
    return [(k, c, s) for k, (c, s) in best.items()]


def _eliminate_last(rows: list[Row]) -> list[Row] | None:
    pos, neg, rest = [], [], []
    for coeffs, const, strict in rows:
        a = coeffs[-1]
        if a > 0:
            pos.append((coeffs, const, strict))
        elif a < 0:
            neg.append((coeffs, const, strict))
        else:
            rest.append((coeffs[:-1], const, strict))
    for cp, kp, sp in pos:
        ap = cp[-1]
        for cn, kn, sn in neg:
            an = -cn[-1]
            comb = tuple(an * x + ap * y for x, y in zip(cp[:-1], cn[:-1]))
            rest.append(_normalize(comb, an * kp + ap * kn, sp or sn))
    return _prune(rest)


def _back_substitute(levels: list[list[Row]]) -> tuple[Fraction, ...] | None:
    """Pick each variable inside the bounds its level leaves, innermost last."""
    point: list[Fraction] = []
    for level in reversed(levels):
        lo = hi = None         # (value, strict)
        for coeffs, const, strict in level:
            a = coeffs[-1]
            if a == 0:
                continue
            val = sum((c * t for c, t in zip(coeffs[:-1], point)), Fraction(const)) / -a
            if a > 0:
                if lo is None or val > lo[0] or (val == lo[0] and strict):
                    lo = (val, strict)
            else:
                if hi is None or val < hi[0] or (val == hi[0] and strict):
                    hi = (val, strict)
        if lo is None and hi is None:
            t = Fraction(0)
        elif hi is None:
            t = lo[0] + 1 if lo[1] else lo[0]
        elif lo is None:
            t = hi[0] - 1 if hi[1] else hi[0]
        else:
            if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1])):
                return None    # cannot happen after elimination succeeded
            t = lo[0] if lo[0] == hi[0] else (lo[0] + hi[0]) / 2
        point.append(t)
    return tuple(point)


def feasible_point(rows, nvars: int):
    """An exact rational point satisfying every row, or None.

    ``rows`` are (coeffs, const, strict) triples over ``nvars`` variables
    with ``int`` entries; any other entry raises TypeError.  Raises
    InvariantError if the witness fails the rows, which would be a bug in
    elimination.
    """
    levels = []
    cur = _prune([_normalize(c, k, s) for c, k, s in rows])
    if cur is None:
        return None
    for _ in range(nvars):
        levels.append(cur)
        cur = _eliminate_last(cur)
        if cur is None:
            return None
    point = _back_substitute(levels)
    if point is not None and not _satisfies(rows, point):
        raise InvariantError("back-substitution produced a bad witness")
    return point


def _satisfies(rows, point) -> bool:
    """Check every row at ``point``, both sides scaled by its common denominator."""
    scaled, d = _scaled(point)
    for coeffs, const, strict in rows:
        val = sum(c * x for c, x in zip(coeffs, scaled)) + const * d
        if val < 0 or (val == 0 and strict):
            return False
    return True
