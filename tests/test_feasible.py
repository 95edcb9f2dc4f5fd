"""Regression corpus for the exact Fourier-Motzkin feasibility core.

``data/feasible_corpus.txt`` holds feasibility calls recorded from the
criterion-6 and criterion-7 workloads, each with the verdict and witness the
Fraction-row core returned.  The core takes integer rows only, so the loader
scales each recorded row by the lcm of its denominators; the core must
return the identical witness for every call, every witness must satisfy its
rows in exact arithmetic, and a Fraction or float entry raises TypeError.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from lpoly._feasible import feasible_point

CORPUS = Path(__file__).parent / "data" / "feasible_corpus.txt"


def load_corpus():
    """[(name, rows, nvars, expected witness or None)] in file order."""
    calls = []
    for block in CORPUS.read_text().split("\n\n"):
        lines = [ln for ln in block.splitlines() if ln and not ln.startswith("#")]
        if not lines:
            continue
        name = lines[0]
        nvars = int(lines[1].split()[1])
        rows = []
        for line in lines[2:-1]:
            op, *rest = line.split()
            semi = rest.index(";")
            entries = [Fraction(t) for t in rest[:semi] + [rest[semi + 1]]]
            d = lcm(*(x.denominator for x in entries))
            *coeffs, const = (int(x * d) for x in entries)
            rows.append((tuple(coeffs), const, op == ">"))
        point = lines[-1].split()[1:]
        expected = None if point == ["none"] else tuple(Fraction(t) for t in point)
        calls.append((name, rows, nvars, expected))
    return calls


CALLS = load_corpus()


def _exactly_satisfied(rows, point):
    for coeffs, const, strict in rows:
        val = Fraction(const)
        for c, t in zip(coeffs, point):
            val += Fraction(c) * Fraction(t)
        if val < 0 or (val == 0 and strict):
            return False
    return True


def test_corpus_covers_the_cases():
    assert len(CALLS) >= 300
    assert any(e is None for _, _, _, e in CALLS)
    assert any(e is not None for _, _, _, e in CALLS)
    rows = [r for _, rs, _, _ in CALLS for r in rs]
    assert any(s for _, _, s in rows) and any(not s for _, _, s in rows)
    assert "/" in CORPUS.read_text()  # rational rows, scaled by the loader
    assert all(type(x) is int for c, k, _ in rows for x in (*c, k))
    assert {n for _, _, n, _ in CALLS} == {0, 1, 2, 3}
    for name, rs, n, e in CALLS:
        assert all(len(c) == n for c, _, _ in rs), name
        assert e is None or len(e) == n, name


def test_corpus_verdicts_and_witnesses_identical():
    for i, (name, rows, nvars, expected) in enumerate(CALLS):
        got = feasible_point(rows, nvars)
        assert got == expected, f"call {i} ({name}): {got} != {expected}"
        if got is not None:
            assert all(type(t) is Fraction for t in got), f"call {i} ({name})"


def test_corpus_witnesses_satisfy_rows():
    for i, (name, rows, nvars, expected) in enumerate(CALLS):
        if expected is not None:
            assert _exactly_satisfied(rows, expected), f"call {i} ({name})"


def test_float_entries_rejected():
    """Rows are integers only: a float or a Fraction entry, even an integral
    one, raises TypeError."""
    for row in [((0.5,), 0, False), ((1,), 0.25, True), ((Fraction(1, 2),), 0, False),
                ((1,), Fraction(-3, 2), True), ((Fraction(2),), 0, False)]:
        with pytest.raises(TypeError):
            feasible_point([row], 1)


def test_witness_check_survives_optimize_flag():
    """A bad witness raises InvariantError even under ``python -O``."""
    code = textwrap.dedent("""
        from fractions import Fraction
        from lpoly import InvariantError, _feasible
        _feasible._back_substitute = lambda levels: (Fraction(-1),)
        try:
            _feasible.feasible_point([((1,), 0, False)], 1)
        except InvariantError:
            print("raised")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
