"""Hulls on the polar cone against the affine-frame enumeration."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpoly.hull import hull_of_points
from lpoly.polyhedra import Label
from conftest import standard_simplex
from oracles import hull_by_frames

_coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))


@st.composite
def _point_sets(draw):
    """(k, points) in dimension 1-4 of affine dimension 3 at most: either
    free rational points or rational combinations of fewer integer
    directions from a base point, so lower-dimensional sets are common."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    vec = st.lists(_coord, min_size=k, max_size=k)
    if k <= 3 and draw(st.booleans()):
        return k, draw(st.lists(vec, min_size=n, max_size=n))
    base = draw(vec)
    dirs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                         max_size=min(k - 1, 3) if k > 1 else 0))
    pts = []
    for _ in range(n):
        c = draw(st.lists(_coord, min_size=len(dirs), max_size=len(dirs)))
        pts.append([b + sum(ci * d[j] for ci, d in zip(c, dirs)) for j, b in enumerate(base)])
    return k, pts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_point_sets())
@example((1, [(0,)]))
@example((2, [(0, 0), (2, 1), (Fraction(1, 2), Fraction(1, 4))]))  # a segment in the plane
@example((2, [(-2, 1), (1, 2)]))  # the polar cone's rays hold (8, 11) and (-13, 4)
@example((3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (Fraction(1, 3), Fraction(1, 3), 0)]))
def test_hull_matches_frame_oracle(case):
    """The same vertices and the same labels, equality pairs first: equal
    sets, not an equal order, since facets come in the polar cone's ray
    order.  On lower-dimensional hulls the facet normals are the frame's
    representatives, not the normals the polar cone's rays hold."""
    k, pts = case
    P, verts = hull_of_points(k, pts)
    Q, want = hull_by_frames(k, pts)
    assert verts == want
    assert len(P.labels) == len(Q.labels)
    assert set(P.labels) == set(Q.labels)
    eqs = 2 * (k - P.body_dim())
    assert P.labels[:eqs] == Q.labels[:eqs]


def test_hull_of_the_4_cube():
    P, verts = hull_of_points(4, list(itertools.product((0, 1), repeat=4)))
    assert len(verts) == 16
    assert set(P.labels) == {Label(e, 0) for e in itertools.permutations((1, 0, 0, 0))} | {
        Label(e, -1) for e in itertools.permutations((-1, 0, 0, 0))}
    assert len(P.labels) == 8
    assert sum(f.dim == 3 for f in P.face_lattice()) == 8


def test_hull_of_the_4_simplex():
    pts = [(0,) * 4] + [tuple(int(i == j) for j in range(4)) for i in range(4)]
    P, verts = hull_of_points(4, pts)
    assert verts == sorted(tuple(map(Fraction, p)) for p in pts)
    assert set(P.labels) == set(standard_simplex(4).labels)
    assert len(P.labels) == 5


def test_hull_of_a_4_dimensional_set_in_5_space():
    """Past the frame enumeration's affine dimension 3: the 4-cube on the
    hyperplane x5 = x1 + x2 + x3 + x4 of 5-space."""
    pts = [(*p, sum(p)) for p in itertools.product((0, 1), repeat=4)]
    with pytest.raises(ValueError, match="dimension <= 3"):
        hull_by_frames(5, pts)
    P, verts = hull_of_points(5, pts)
    assert verts == sorted(tuple(map(Fraction, p)) for p in pts)
    assert P.body_dim() == 4
    assert P.labels[:2] == (Label((-1, -1, -1, -1, 1), 0), Label((1, 1, 1, 1, -1), 0))
    assert set(P.labels[2:]) == {Label((*e, 0), 0) for e in itertools.permutations((1, 0, 0, 0))} | {
        Label((*e, 0), -1) for e in itertools.permutations((-1, 0, 0, 0))}


def test_hull_of_a_3_dimensional_set_in_5_space():
    pts = [(a, b, c, a + b, 1) for a, b, c in itertools.product((0, 1), repeat=3)]
    P, verts = hull_of_points(5, pts)
    Q, want = hull_by_frames(5, pts)
    assert verts == want and len(verts) == 8
    assert P.body_dim() == 3
    assert set(P.labels) == set(Q.labels) and len(P.labels) == 4 + 6


def test_hull_rejects_no_points():
    with pytest.raises(ValueError, match="empty point set"):
        hull_of_points(2, [])
