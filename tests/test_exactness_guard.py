"""No floating-point call may reach a result the package reports as exact.

The guard parses every module of the package and rejects calls to
``float``, ``math.log*``, ``math.sqrt``, ``math.exp`` and any ``.to_float``
method.  Float literals (the edge probabilities of the random generators
in ``verify.py``) are not calls and stay allowed.
"""

import ast
from pathlib import Path

import indpoly

PACKAGE = Path(indpoly.__file__).parent
MATH_CALLS = {"sqrt", "exp", "log", "log2", "log10", "log1p"}


def float_calls(tree):
    """(line, name) of every float-producing call in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(func, ast.Attribute):
            if func.attr == "to_float":
                found.append((node.lineno, ".to_float"))
            elif (
                isinstance(func.value, ast.Name)
                and func.value.id == "math"
                and func.attr in MATH_CALLS
            ):
                found.append((node.lineno, f"math.{func.attr}"))
    return found


def test_guard_catches_each_forbidden_call():
    source = "float(a)\nmath.log2(b)\nmath.sqrt(c)\nmath.exp(d)\nv.to_float()\nmath.isqrt(e)\nx = 0.5\n"
    assert [name for _, name in float_calls(ast.parse(source))] == [
        "float",
        "math.log2",
        "math.sqrt",
        "math.exp",
        ".to_float",
    ]


def test_package_makes_no_float_calls():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in float_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []
