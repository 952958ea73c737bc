"""The arithmetic stays exact: no module of the package but the CLI uses floats.

cli.py is exempt; its only float is the wall-clock `--budget-seconds` limit.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eiscong"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "cli.py")

# math names that yield ints; math.inf is the documented padic_valuation(0).
EXACT_MATH = {"comb", "factorial", "gcd", "inf", "isqrt", "lcm", "perm"}


def float_uses(source: str) -> list[str]:
    """Float literals, float(...) calls and float-valued math names in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float(...)")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {alias.name}"
                      for alias in node.names if alias.name not in EXACT_MATH]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_is_float_free(module):
    assert float_uses((PACKAGE / module).read_text()) == []


def test_every_module_is_checked():
    assert "exact.py" in MODULES and "series.py" in MODULES and "cli.py" not in MODULES


@pytest.mark.parametrize("source", [
    "x = 0.5", "x = 1e9", "x = 2j", "x = float(n)", "x = math.log2(n)", "x = math.pi",
    "x = math.floor(n)", "from math import sqrt",
])
def test_guard_catches(source):
    assert len(float_uses(source)) == 1


@pytest.mark.parametrize("source", [
    "x = math.inf", "x = math.comb(n, k)", "x = math.factorial(n)", "x = 5 // 2",
    "from math import comb, gcd", "x: float = y", "'0.5 in a string'",
])
def test_guard_allows(source):
    assert float_uses(source) == []
