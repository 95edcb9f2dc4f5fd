from fractions import Fraction

import pytest

from lpoly.desing import (
    canonical_blowup_step,
    canonical_desingularization,
    depth,
    shift_desingularization,
)
from lpoly.polyhedra import (
    LabelledPolyhedron,
    excess,
    excess_decomposition,
    label,
)
from conftest import doubled_interval, egyptian_pyramid, unit_cube, unit_square


def square_cone():
    """Cone over a square: apex at the origin, four slant labels."""
    return LabelledPolyhedron(3, [
        label(1, 0, 1, 0), label(-1, 0, 1, 0), label(0, 1, 1, 0), label(0, -1, 1, 0),
    ])


def redundant_plane_cone():
    """First quadrant with the redundant diagonal label: apex excess 1."""
    return LabelledPolyhedron(2, [label(1, 0, 0), label(0, 1, 0), label(1, 1, 0)])


def constant_excess(P):
    faces = P.face_lattice()
    return len({excess(P, f) for f in faces}) == 1


def facet_normals(P):
    out = set()
    for f in P.face_lattice():
        if f.dim == P.body_dim() - 1 and len(f.tight) >= 1:
            for i in f.tight:
                out.add(P.labels[i].v)
    return out


def test_depth_examples(cube, pyramid):
    assert depth(cube) == 0
    assert depth(pyramid) == 1
    assert depth(square_cone()) == 1
    with pytest.raises(ValueError):
        depth(LabelledPolyhedron(1, [label(1, 1), label(-1, 0)]))


def test_blowup_pyramid(pyramid):
    dec = excess_decomposition(pyramid)
    apex_piece = next(p for p in dec.pieces if p.excess == 1)
    P2, lab, eps = canonical_blowup_step(pyramid, apex_piece)
    assert lab.v == (0, 0, -4)
    assert lab.r == Fraction(-4) + eps
    facets = [f for f in P2.face_lattice() if f.dim == 2]
    assert len(facets) == 6
    assert constant_excess(P2)


def test_blowup_doubled_interval():
    P = doubled_interval()
    dec = excess_decomposition(P)
    piece = next(p for p in dec.pieces if p.excess == 1)
    P2, lab, eps = canonical_blowup_step(P, piece)
    assert lab.v == (2,)
    assert lab.weighted
    assert constant_excess(P2)


def test_blowup_builds_one_face_lattice_per_offset(monkeypatch):
    # [0, 1/8] with the lower label doubled: the offsets 1, 1/2 and 1/4 cut
    # the interval to nothing or to a point, 1/8 is stable against 1/16
    P = LabelledPolyhedron(1, [label(1, 0), label(1, 0), label(-1, Fraction(-1, 8))])
    piece = next(p for p in excess_decomposition(P).pieces if p.excess == 1)
    offsets = []
    compute = LabelledPolyhedron._compute_faces
    monkeypatch.setattr(LabelledPolyhedron, "_compute_faces",
                        lambda self: offsets.append(self.labels[-1].r) or compute(self))
    P2, lab, eps = canonical_blowup_step(P, piece)
    assert (lab.v, lab.r, eps) == ((2,), Fraction(1, 8), Fraction(1, 8))
    assert offsets == [Fraction(1, 2 ** i) for i in range(5)]
    assert constant_excess(P2)


def test_blowup_errors(cube, pyramid):
    dec = excess_decomposition(cube)
    with pytest.raises(ValueError):
        canonical_blowup_step(cube, dec.pieces[0])
    dec = excess_decomposition(pyramid)
    shallow = next(p for p in dec.pieces if p.excess == 0)
    with pytest.raises(ValueError):
        canonical_blowup_step(pyramid, shallow)


def test_canonical_pyramid(pyramid):
    trace = canonical_desingularization(pyramid)
    assert len(trace.steps) == 1
    assert constant_excess(trace.result)
    assert len([f for f in trace.result.face_lattice() if f.dim == 2]) == 6


def test_canonical_cube_identity(cube):
    trace = canonical_desingularization(cube)
    assert trace.steps == []
    assert trace.result == cube


def test_canonical_redundant_cone():
    trace = canonical_desingularization(redundant_plane_cone())
    assert len(trace.steps) == 1
    assert trace.steps[0].added.v == (2, 2)
    assert constant_excess(trace.result)


def test_canonical_piece_count_decreases(pyramid):
    before = len(excess_decomposition(pyramid).pieces)
    trace = canonical_desingularization(pyramid)
    assert len(trace.steps) <= before
    assert len(excess_decomposition(trace.result).pieces) == 1


def test_shift_zero_on_simple(square):
    assert shift_desingularization(square, [0, 0, 0, 0]) == square


def test_shift_explicit_empty():
    P = LabelledPolyhedron(1, [label(1, 0), label(-1, 0)])  # the point {0}
    with pytest.raises(ValueError):
        shift_desingularization(P, [1, 1])


def test_shift_auto_inputs():
    for P in (
        egyptian_pyramid(),
        doubled_interval(),
        redundant_plane_cone(),
        square_cone(),
        LabelledPolyhedron(1, [label(1, 0), label(-1, 0)]),
    ):
        shifted = shift_desingularization(P)
        assert not shifted.is_empty()
        assert constant_excess(shifted)
        assert facet_normals(shifted) <= {lab.v for lab in P.labels}


def test_shift_auto_starts_at_the_offsets_denominator():
    """The first auto shift is -p_i / l, l the lcm of the offsets'
    denominators: on a simple triangle with offsets 1/2, 1/3, -5 it is taken."""
    P = LabelledPolyhedron(2, [label(1, 0, Fraction(1, 2)), label(0, 1, Fraction(1, 3)),
                               label(-1, -1, -5)])
    shifted = shift_desingularization(P)
    assert [lab.r for lab in shifted.labels] == [
        lab.r - Fraction(p, 6) for lab, p in zip(P.labels, (2, 3, 5))]


def test_shift_auto_pyramid_splits_apex():
    P = egyptian_pyramid()
    shifted = shift_desingularization(P)
    # the excess-1 apex is resolved: every vertex is simple now
    for f in shifted.face_lattice():
        assert excess(shifted, f) == 0
    assert shifted.is_bounded()


def test_shift_facet_directions_random():
    import random

    rng = random.Random(19)
    polys = [egyptian_pyramid(), unit_square(), doubled_interval(), unit_cube()]
    originals = {id(P): {lab.v for lab in P.labels} for P in polys}
    draws = 0
    while draws < 50:
        P = polys[draws % len(polys)]
        eta = [Fraction(-rng.randint(1, 5), 128) for _ in P.labels]
        shifted = shift_desingularization(P, eta)
        draws += 1
        top = shifted.body_dim()
        for f in shifted.face_lattice():
            if f.dim == top - 1:
                assert any(
                    shifted.labels[i].v in originals[id(P)] for i in f.tight
                )


def test_canonical_two_steps():
    # both endpoints of the interval carry a doubled label
    P = LabelledPolyhedron(1, [label(1, 0), label(1, 0), label(-1, -1), label(-1, -1)])
    pieces_before = excess_decomposition(P).pieces
    positive = sum(1 for p in pieces_before if p.excess > 0)
    trace = canonical_desingularization(P)
    assert len(trace.steps) == positive == 2
    assert constant_excess(trace.result)


def test_canonical_constant_positive_excess_is_terminal():
    # the point cut out by an opposite label pair has constant excess 1:
    # nothing to blow up, the trace is empty
    P = LabelledPolyhedron(1, [label(1, 0), label(-1, 0)])
    trace = canonical_desingularization(P)
    assert trace.steps == []
    assert trace.result == P
    assert constant_excess(P)


def test_canonical_empty_rejected():
    with pytest.raises(ValueError):
        canonical_desingularization(LabelledPolyhedron(1, [label(1, 1), label(-1, 0)]))
