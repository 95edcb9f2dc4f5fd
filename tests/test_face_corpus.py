"""Regression corpus for face-lattice enumeration.

``data/face_corpus.txt`` holds face lattices recorded from the subset-scan
enumeration (every linearly independent label subset certified by an exact
feasibility probe), an algorithm independent of the generator closures that
build lattices now.  Tight sets, dimensions, affine bases and boundedness
must replay identically; samples are not recorded, since they are only
required to be relative-interior points.
"""

from pathlib import Path

from lpoly.polyhedra import LabelledPolyhedron, label, parse_lpoly

CORPUS = Path(__file__).parent / "data" / "face_corpus.txt"


def _vec(v):
    return ",".join(str(x) for x in v)


def load_corpus():
    """[(source, polyhedron, bounded, [face lines])] in file order."""
    out = []
    for block in CORPUS.read_text().split("\n\n"):
        lines = [ln for ln in block.splitlines() if ln and not ln.startswith("#")]
        if not lines:
            continue
        source = lines[0].split()[1]
        P = parse_lpoly("\n".join(ln for ln in lines if ln.startswith(("dim", "label"))))
        bounded = next(ln for ln in lines if ln.startswith("bounded")) == "bounded 1"
        out.append((source, P, bounded, [ln for ln in lines if ln.startswith("face")]))
    return out


CASES = load_corpus()


def _face_line(f):
    basis = ";".join(_vec(b) for b in f.affine_basis) or "-"
    return (f"face {_vec(sorted(f.tight)) or '-'} dim {f.dim} "
            f"bounded {int(f.is_bounded)} basis {basis}")


def test_corpus_covers_the_cases():
    assert len(CASES) >= 400
    sources = {s for s, _, _, _ in CASES}
    assert {"polytope", "mixed", "lines", "axis-split", "space", "empty"} <= sources
    assert any(s.startswith("dual-A3") for s in sources)
    assert any(not faces for _, _, _, faces in CASES)
    assert any(b for _, _, b, _ in CASES) and any(not b for _, _, b, _ in CASES)


def test_corpus_lattices_identical():
    for i, (source, P, bounded, want) in enumerate(CASES):
        assert [_face_line(f) for f in P.face_lattice()] == want, f"case {i} ({source})"
        assert P.is_bounded() == bounded, f"case {i} ({source})"


def test_corpus_samples_are_relative_interior():
    for i, (source, P, _, _) in enumerate(CASES):
        for f in P.face_lattice():
            assert P.contains(f.sample, "closed"), f"case {i} ({source})"
            assert P.tight_at(f.sample) == f.tight, f"case {i} ({source})"


def test_euler_poincare_on_bounded_polyhedra():
    """Sum of (-1)^dim F over the nonempty faces of a nonempty polytope is 1."""
    checked = 0
    for i, (source, P, bounded, _) in enumerate(CASES):
        if bounded and not P.is_empty():
            assert sum((-1) ** f.dim for f in P.face_lattice()) == 1, f"case {i} ({source})"
            checked += 1
    assert checked >= 100


def test_empty_system_with_nontrivial_recession_cone_is_unbounded():
    # x >= 1 and x <= 0 in the plane: no point, but y is free
    P = LabelledPolyhedron(2, [label(1, 0, 1), label(-1, 0, 0)])
    assert P.is_empty()
    assert not P.is_bounded()
    Q = LabelledPolyhedron(1, [label(1, 1), label(-1, 0)])
    assert Q.is_empty()
    assert Q.is_bounded()
