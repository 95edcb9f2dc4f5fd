"""Negative controls: each workload's check passes on real outputs and fails
when one wrong output is planted.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import lpoly  # noqa: E402
import workloads as wl  # noqa: E402
from lpoly.counting import QuasiPolynomial  # noqa: E402
from lpoly.subdivisions import Subdivision  # noqa: E402

SEED = 7


def run_ops(work, wanted):
    work.load(lpoly)
    return {op.key: op.run() for op in work.ops() if wanted(op.key)}


def test_count_off_by_one_fails():
    work = wl.CountDilates(SEED)
    outs = run_ops(work, lambda k: k[0] in ("wtriangle", "simplex3") and k[2] == 40)
    assert len(outs) == 6
    assert work.check(outs) == []
    for key in [k for k in outs if k[1] == "count"]:
        bad = dict(outs)
        bad[key] = outs[key] + 1
        assert any(f.startswith(f"{key[0]} m=40 {key[3]}") for f in work.check(bad))
    key = ("wtriangle", "list", 40, "closed")
    bad = dict(outs)
    bad[key] = outs[key][1:]
    assert any("list" in f for f in work.check(bad))


def test_subdivision_with_a_cell_dropped_fails_euler():
    work = wl.DualSubdivision(SEED)
    outs = run_ops(work, lambda k: k[0] in ("A2", "B2"))
    assert len(outs) == 2
    assert work.check(outs) == []
    for key, out in outs.items():
        S = out.S
        for i in range(len(S.cells)):
            dropped = Subdivision(
                S.dim, S.cells[:i] + S.cells[i + 1:], S.walls[:i] + S.walls[i + 1:]
            )
            fails = work.check({key: replace(out, S=dropped)})
            assert any(": euler: sum" in f for f in fails), (key, i, fails)


def test_changed_multiplicity_breaks_dimension_identity():
    work = wl.TensorProducts(SEED)
    pairs = {("A2", (1, 1), (2, 0)), ("A2", (2, 0), (1, 1)), ("G2", (1, 0), (0, 1))}
    outs = run_ops(work, lambda k: k in pairs)
    assert len(outs) == 3
    assert work.check(outs) == []
    key = ("A2", (1, 1), (2, 0))
    for mu in outs[key]:
        for delta in (1, -1):
            bad = dict(outs)
            bad[key] = {**outs[key], mu: outs[key][mu] + delta}
            assert any("dimension" in f for f in work.check(bad)), (mu, delta)


def test_nudged_quasi_polynomial_coefficient_fails():
    work = wl.Ehrhart(SEED)
    outs = run_ops(work, lambda k: k[0] in ("simplex2", "desing-pyramid"))
    assert len(outs) == 2
    assert work.check(outs) == []
    assert outs[("desing-pyramid",)].qp.period == 4
    for key, out in outs.items():
        qp = out.qp
        for s, cs in enumerate(qp.coeffs):
            for i in range(len(cs)):
                coeffs = [list(c) for c in qp.coeffs]
                coeffs[s][i] += wl.Fraction(1, 3)
                nudged = QuasiPolynomial(qp.degree, qp.period, tuple(map(tuple, coeffs)))
                fails = work.check({key: replace(out, qp=nudged)})
                assert any("reciprocity" in f or "extrapolation" in f for f in fails), (s, i)


def test_same_seed_same_inputs():
    for cls in wl.WORKLOADS.values():
        assert cls(3).texts == cls(3).texts
        assert cls(3).texts != cls(4).texts
