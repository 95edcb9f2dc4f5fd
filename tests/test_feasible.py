"""Regression corpus for the exact Fourier-Motzkin feasibility core.

``data/feasible_corpus.txt`` holds feasibility calls recorded from the
criterion-6 and criterion-7 workloads, each with the verdict and witness the
Fraction-row core returned.  The integer-row core must return the identical
witness for every call, whether the rows hold ints or Fractions, and every
witness must satisfy its rows in exact arithmetic.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from lpoly._feasible import feasible_point

CORPUS = Path(__file__).parent / "data" / "feasible_corpus.txt"


def _number(token):
    return Fraction(token) if "/" in token else int(token)


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
            coeffs = tuple(_number(t) for t in rest[:semi])
            rows.append((coeffs, _number(rest[semi + 1]), op == ">"))
        point = lines[-1].split()[1:]
        expected = None if point == ["none"] else tuple(Fraction(t) for t in point)
        calls.append((name, rows, nvars, expected))
    return calls


CALLS = load_corpus()


def _as_fractions(rows):
    return [(tuple(Fraction(x) for x in c), Fraction(k), s) for c, k, s in rows]


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
    assert any(isinstance(k, Fraction) for _, k, _ in rows)
    assert {n for _, _, n, _ in CALLS} == {0, 1, 2, 3}
    for name, rs, n, e in CALLS:
        assert all(len(c) == n for c, _, _ in rs), name
        assert e is None or len(e) == n, name


def test_corpus_verdicts_and_witnesses_identical():
    for i, (name, rows, nvars, expected) in enumerate(CALLS):
        for form in (rows, _as_fractions(rows)):
            got = feasible_point(form, nvars)
            assert got == expected, f"call {i} ({name}): {got} != {expected}"
            if got is not None:
                assert all(type(t) is Fraction for t in got), f"call {i} ({name})"


def test_corpus_witnesses_satisfy_rows():
    for i, (name, rows, nvars, expected) in enumerate(CALLS):
        if expected is not None:
            assert _exactly_satisfied(rows, expected), f"call {i} ({name})"


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        feasible_point([((0.5,), 0, False)], 1)
    with pytest.raises(TypeError):
        feasible_point([((1,), 0.25, True)], 1)


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
