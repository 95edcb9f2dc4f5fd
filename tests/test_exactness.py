"""No floats and no skippable invariants in the package: every module under
src/lpoly is parsed and checked for float literals, ``float(...)`` calls and
``math`` names that return floats, and for ``assert`` statements (gone under
``python -O``) and bare ``RuntimeError`` raises (an invariant raises
``InvariantError``, an input error ``ValueError``).  The integer-valued
``math`` functions stay allowed; ``math.floor``/``math.ceil`` of a
``Fraction`` are exact ints."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lpoly"
EXACT_MATH = {"ceil", "floor", "gcd", "lcm", "comb", "perm", "factorial", "isqrt", "prod"}


def float_uses(source: str) -> list[str]:
    """``line: what`` for each float literal, float() call or inexact math name."""
    tree = ast.parse(source)
    math_aliases = {"math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_aliases |= {a.asname for a in node.names if a.name == "math" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, node.col_offset, f"from math import {a.name}")
                      for a in node.names if a.name not in EXACT_MATH]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            what = "float() call"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_aliases and node.attr not in EXACT_MATH):
            what = f"{node.value.id}.{node.attr}"
        else:
            continue
        found.append((node.lineno, node.col_offset, what))
    return [f"{line}: {what}" for line, _, what in sorted(found)]


def invariant_uses(source: str) -> list[str]:
    """``line: what`` for each ``assert`` statement and ``raise RuntimeError``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                found.append((node.lineno, "raise RuntimeError"))
    return [f"{line}: {what}" for line, what in sorted(found)]


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_floats(path):
    assert float_uses(path.read_text()) == []


def test_guard_catches_floats():
    planted = (
        "import math\nimport math as m\nfrom math import sqrt, gcd\n"
        "x = 0.5\ny = float(3)\nz = math.pi + m.log(2) + math.isclose(1, 1)\n"
        "w = math.exp(1) + math.sqrt(2)\n"
        "ok = math.floor(x) + math.ceil(x) + math.gcd(4, 6)\n"
    )
    assert float_uses(planted) == [
        "3: from math import sqrt", "4: literal 0.5", "5: float() call",
        "6: math.pi", "6: m.log", "6: math.isclose", "7: math.exp", "7: math.sqrt",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_raises_invariants_explicitly(path):
    assert invariant_uses(path.read_text()) == []


def test_guard_catches_asserts_and_runtime_errors():
    planted = (
        "assert x > 0\n"
        "if x:\n    raise RuntimeError('bug')\n"
        "raise RuntimeError\n"
        "raise InvariantError('bug')\n"
        "raise ValueError('input')\n"
        "class InvariantError(RuntimeError):\n    pass\n"
        "try:\n    pass\nexcept RuntimeError:\n    raise\n"
    )
    assert invariant_uses(planted) == ["1: assert", "3: raise RuntimeError", "4: raise RuntimeError"]
