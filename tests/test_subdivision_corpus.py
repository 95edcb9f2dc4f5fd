"""Regression corpus for subdivision validation.

``data/subdivision_corpus.txt`` holds ``validate`` and ``euler_check``
reports recorded when coverage was probed on a grid of points.  Coverage is
now exact (facet pairing), so only ``uncovered`` lines may differ, and a
verdict may only turn from pass to FAIL where a gap the grid missed is
exhibited here as an explicit uncovered point of the region.
"""

from fractions import Fraction
from pathlib import Path

from lpoly._feasible import feasible_point
from lpoly.linalg import _scaled
from lpoly.polyhedra import _rows, parse_lpoly
from lpoly.subdivisions import Subdivision, _region, euler_check, validate

CORPUS = Path(__file__).parent / "data" / "subdivision_corpus.txt"

# cases the grid passed that have a gap: a k-cell dropped from the B2 and G2
# dual subdivisions next to the shift point, and the 1-D gap of width 1/10^6
NEWLY_UNCOVERED = {65: "B2-drop", 111: "G2-drop", 113: "G2-drop", 167: "1d-thin-gap"}


def load_corpus():
    """[(source, Subdivision, region, samples, seed, validate, euler)], each
    report as (ok, lines)."""
    out = []
    for block in CORPUS.read_text().split("\n\n"):
        lines = [ln for ln in block.splitlines() if ln and not ln.startswith("#")]
        if not lines:
            continue
        source = lines[0].split()[1]
        _, k, _, region, _, samples, seed = lines[1].split()
        cells, reports = [], {"v": [], "e": []}
        for ln in lines[2:]:
            if ln == "cell":
                cells.append([f"dim {k}"])
            elif ln.startswith("label"):
                cells[-1].append(ln)
            elif ln.startswith(("validate", "euler")):
                reports[ln[0] + "ok"] = ln.endswith("pass")
            else:
                reports[ln[0]].append(ln[2:])
        S = Subdivision(int(k), [parse_lpoly("\n".join(c)) for c in cells])
        out.append((source, S, region, int(samples), int(seed),
                    (reports["vok"], reports["v"]), (reports["eok"], reports["e"])))
    return out


CASES = load_corpus()


def uncovered_point(S: Subdivision, region: str, line: str):
    """A point of the open region in no cell, just outside the facet an
    ``uncovered: cell i facet [...]`` line names: from a relative-interior
    point of the facet, step against the facet's inward normal, halving the
    step until no cell holds the point."""
    _, _, ci, _, tight = line.split(" ", 4)
    cell = S.cells[int(ci)]
    tight = frozenset(int(t) for t in tight.strip("[]").split(", "))
    inside = _region(region, S.dim)
    p = feasible_point(_rows(cell, tight, strict=True) + _rows(inside, strict=True), S.dim)
    v = cell.labels[min(tight)].v
    step = Fraction(1)
    for _ in range(64):
        x = tuple(a - step * b for a, b in zip(p, v))
        X, d = _scaled(x)
        if inside.contains(x, "interior") and not any(c._holds(X, d) for c in S.cells):
            return x
        step /= 2
    return None


def test_corpus_covers_the_cases():
    assert len(CASES) == 234
    sources = {c[0] for c in CASES}
    assert {"criterion6-A3", "A2-swap", "G2-drop", "A3-drop", "1d-thin-gap", "grid-shifted",
            "hulls-with-faces"} <= sources
    assert 0 < sum(c[5][0] for c in CASES) < len(CASES)


def test_corpus_reports_replay():
    newly_failing = {}
    for i, (source, S, region, samples, seed, (was_ok, was), euler) in enumerate(CASES):
        e = euler_check(S, samples, seed=seed, region=region)
        assert (e.ok, e.lines) == euler, f"case {i} ({source})"
        rep = validate(S, region=region)
        kept = [ln for ln in rep.lines if not ln.startswith("uncovered")]
        assert kept == [ln for ln in was if not ln.startswith("uncovered")], f"case {i} ({source})"
        if rep.ok != was_ok:
            assert was_ok and not rep.ok, f"case {i} ({source})"
            facet = next(ln for ln in rep.lines if ln.startswith("uncovered: cell"))
            assert uncovered_point(S, region, facet) is not None, f"case {i} ({source})"
            newly_failing[i] = source
    assert newly_failing == NEWLY_UNCOVERED
