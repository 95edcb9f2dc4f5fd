"""Two desingularizations of a labelled polyhedron.

Canonical: repeatedly append the summed tight label of a deepest excess
piece, with the offset shrunk until the combinatorial face lattice of the
result stabilizes.  Shift: perturb every r_i by a small generic vector.
Both terminate in a label set whose excess function is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polyhedra import (
    ExcessDecomposition,
    ExcessPiece,
    Label,
    LabelledPolyhedron,
    excess,
    excess_decomposition,
    below,
)
from . import linalg
from .linalg import InvariantError


@dataclass(frozen=True)
class DesingularizationStep:
    added: Label
    epsilon: Fraction
    piece_tight: tuple[int, ...]       # tight set of the blown-up piece's top face


@dataclass
class DesingularizationTrace:
    steps: list[DesingularizationStep]
    result: LabelledPolyhedron


def _closure_sets(P: LabelledPolyhedron, pieces: list[ExcessPiece]):
    faces = P.face_lattice()
    out = []
    for piece in pieces:
        cl = set()
        for i in piece.faces:
            for j in range(len(faces)):
                if below(faces[j], faces[i]):
                    cl.add(j)
        out.append(frozenset(cl))
    return out


def _piece_depths(P: LabelledPolyhedron, dec: ExcessDecomposition):
    """Longest strictly ascending closure chain starting at each of P's
    pieces ``dec``."""
    closures = _closure_sets(P, dec.pieces)
    n = len(dec.pieces)
    memo = [None] * n

    def depth_of(i):
        if memo[i] is not None:
            return memo[i]
        best = 0
        for j in range(n):
            if i != j and closures[i] < closures[j]:
                best = max(best, 1 + depth_of(j))
        memo[i] = best
        return best

    return [depth_of(i) for i in range(n)]


def depth(P: LabelledPolyhedron) -> int:
    if P.is_empty():
        raise ValueError("empty polyhedron")
    return max(_piece_depths(P, excess_decomposition(P)))


def _piece_top_face(P: LabelledPolyhedron, piece: ExcessPiece):
    """The face whose closure is the piece's closure: its member of highest
    dimension, since every other member is a proper face of it."""
    if not piece.closure_is_face:
        raise ValueError("piece closure is not the closure of a single face")
    faces = P.face_lattice()
    return max((faces[i] for i in piece.faces), key=lambda f: f.dim)


def _lattice_signature(P: LabelledPolyhedron):
    return frozenset(f.tight for f in P.face_lattice())


def canonical_blowup_step(P: LabelledPolyhedron, piece: ExcessPiece):
    """Append the summed label of the piece's face, offset by a stable epsilon."""
    dec = excess_decomposition(P)
    depths = _piece_depths(P, dec)
    if len(dec.pieces) == 1:
        raise ValueError("no positive-excess piece to blow up")
    idx = next((i for i, p in enumerate(dec.pieces) if p == piece), None)
    if idx is None:
        raise ValueError("piece does not belong to this polyhedron")
    if depths[idx] != max(depths):
        raise ValueError("piece is not of maximal depth")
    return _blowup(P, dec, piece)[:3]


def _blowup(P: LabelledPolyhedron, dec: ExcessDecomposition, piece: ExcessPiece):
    """``canonical_blowup_step`` on a valid piece of P's decomposition
    ``dec``; also returns the result's decomposition."""
    top = _piece_top_face(P, piece)
    tight = sorted(top.tight)
    vsum = tuple(sum(P.labels[i].v[c] for i in tight) for c in range(P.dim))
    if all(x == 0 for x in vsum):
        raise ValueError("zero summed label")
    rsum = sum((P.labels[i].r for i in tight), Fraction(0))

    def build(eps):
        lab = Label(vsum, rsum + eps, weighted=not linalg.is_primitive(vsum))
        return LabelledPolyhedron(P.dim, list(P.labels) + [lab]), lab

    eps = Fraction(1)
    cur, lab = build(eps)
    for _ in range(80):
        # the halved offset is the next one tried: one face lattice per offset
        nxt, nxt_lab = build(eps / 2)
        if not cur.is_empty() and _lattice_signature(cur) == _lattice_signature(nxt):
            # lattice stabilization is only a proxy for "below every critical
            # threshold": accept the offset once the piece count also drops
            cur_dec = excess_decomposition(cur)
            if len(cur_dec.pieces) < len(dec.pieces):
                return cur, lab, eps, cur_dec
        eps /= 2
        cur, lab = nxt, nxt_lab
    raise ValueError("no stable blowup offset found")


def canonical_desingularization(P: LabelledPolyhedron) -> DesingularizationTrace:
    """Blow up deepest pieces until the excess function is constant."""
    if P.is_empty():
        raise ValueError("empty polyhedron")
    steps: list[DesingularizationStep] = []
    cur = P
    dec = excess_decomposition(P)
    for _ in range(len(dec.pieces) + 1):
        if len(dec.pieces) == 1:
            break
        depths = _piece_depths(cur, dec)
        top_depth = max(depths)
        candidates = [p for p, d in zip(dec.pieces, depths) if d == top_depth]
        piece = min(
            candidates,
            key=lambda p: tuple(sorted(_piece_top_face(cur, p).tight)),
        )
        tight = tuple(sorted(_piece_top_face(cur, piece).tight))
        cur, lab, eps, dec = _blowup(cur, dec, piece)
        steps.append(DesingularizationStep(lab, eps, tight))
    if len(dec.pieces) != 1:
        raise InvariantError("desingularization must reach constant excess")

    # stabilization: halving every offset must not change the face lattice
    if steps:
        halved = list(P.labels)
        for s in steps:
            halved.append(Label(s.added.v, s.added.r - s.epsilon / 2, weighted=s.added.weighted))
        again = LabelledPolyhedron(P.dim, halved)
        if _lattice_signature(again) != _lattice_signature(cur):
            raise ValueError("halved blowup offsets change the face lattice")
    return DesingularizationTrace(steps, cur)


def _first_primes(n: int):
    primes = []
    x = 2
    while len(primes) < n:
        if all(x % p for p in primes):
            primes.append(x)
        x += 1
    return primes


def _constant_excess(P: LabelledPolyhedron) -> bool:
    faces = P.face_lattice()
    if not faces:
        return False
    values = {excess(P, f) for f in faces}
    return len(values) == 1


def shift_desingularization(P: LabelledPolyhedron, eta=None) -> LabelledPolyhedron:
    """Perturb every label offset; auto mode picks a constant-excess shift.

    Auto perturbations are -delta * p_i^t over the first primes p_i, with
    delta halved until the shifted polyhedron has constant excess and, when
    that ladder is exhausted at some t, the prime powers bumped (a fixed
    additive relation among the labels can kill a single power, never all).
    Facet directions of the result are always a subset of the input label
    vectors.
    """
    if P.is_empty():
        raise ValueError("empty polyhedron")
    n = len(P.labels)
    if eta is not None:
        if len(eta) != n:
            raise ValueError("eta must have one entry per label")
        shifted = LabelledPolyhedron(
            P.dim,
            [Label(l.v, l.r + Fraction(e), weighted=l.weighted) for l, e in zip(P.labels, eta)],
        )
        if shifted.is_empty():
            raise ValueError("empty shift")
        return shifted

    denom = math.lcm(*(lab.r.denominator for lab in P.labels))
    primes = _first_primes(n)
    for power in range(1, 9):
        delta = Fraction(1, denom)
        for _ in range(60):
            shifted = LabelledPolyhedron(
                P.dim,
                [
                    Label(l.v, l.r - delta * (p ** power), weighted=l.weighted)
                    for l, p in zip(P.labels, primes)
                ],
            )
            if not shifted.is_empty() and _constant_excess(shifted):
                return shifted
            delta /= 2
    raise ValueError("no constant-excess shift found")
