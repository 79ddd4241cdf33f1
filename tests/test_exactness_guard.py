"""No floating-point call may reach a result the package reports as exact.

The guard parses every module of the package and rejects calls to
``float``, ``math.log*``, ``math.sqrt``, ``math.exp`` and any ``.to_float``
method.  Float literals (the edge probabilities of the random generators
in ``verify.py``) are not calls and stay allowed.

A second guard keeps the package free of dependencies: every import is
relative or names a standard-library module, so no numeric library can
come back in.

A third guard keeps the definitional evaluators in ``isp.py``
independent of the identities they are tested against: the module may
import only ``errors``, ``quadfield``, and ``Graph``, ``is_clique_cover``
and the integer-argument rule ``_is_int`` from ``graphs``.  So neither
``clonecalc``, ``interpolate`` or ``verify`` nor the gadget builders of
``graphs`` (``comb``, ``s_clone``, ``k_clone``, ``attach_path``) can
reach it.

A last check keeps the public surface honest: every name in
``indpoly.__all__`` is an attribute of the package, so deleting a function
cannot leave a stale export behind.
"""

import ast
import subprocess
import sys
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


def foreign_imports(tree):
    """(line, module) of every absolute import outside the standard library."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_import_guard_catches_third_party_modules():
    source = "import numpy as np\nfrom scipy.special import comb\nimport os.path\nfrom . import graphs\nfrom .isp import isp_eval\nfrom __future__ import annotations\n"
    assert foreign_imports(ast.parse(source)) == [(1, "numpy"), (2, "scipy.special")]


def test_package_imports_only_stdlib_and_itself():
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in foreign_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []


def test_cli_import_loads_no_numeric_library():
    probe = "import sys, indpoly.cli; assert 'numpy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


# module -> the names it may give, or None for any name
DEFINITIONAL_IMPORTS = {"errors": None, "quadfield": None, "graphs": {"Graph", "_is_int", "is_clique_cover"}}


def package_imports(tree):
    """(line, module, names) of every relative import in a parsed module;
    ``names`` is None for an import of the whole module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.append((node.lineno, node.module, {alias.name for alias in node.names}))
            else:
                found += [(node.lineno, alias.name, None) for alias in node.names]
    return found


def non_definitional_imports(tree):
    """(line, module) of every import outside ``DEFINITIONAL_IMPORTS``, and
    (line, "module.name") of every name a restricted module may not give."""
    found = []
    for line, module, names in package_imports(tree):
        if module not in DEFINITIONAL_IMPORTS:
            found.append((line, module))
            continue
        allowed = DEFINITIONAL_IMPORTS[module]
        if allowed is None:
            continue
        if names is None:
            found.append((line, module))
        else:
            found += [(line, f"{module}.{name}") for name in sorted(names - allowed)]
    return found


def test_definitional_guard_catches_identity_modules():
    source = (
        "from .clonecalc import path_weights\n"
        "from .graphs import Graph\n"
        "from . import interpolate\n"
        "from .verify import all_graphs\n"
        "from .errors import DomainError\n"
    )
    assert non_definitional_imports(ast.parse(source)) == [(1, "clonecalc"), (3, "interpolate"), (4, "verify")]


def test_definitional_guard_catches_gadget_builders():
    source = (
        "from .graphs import Graph, comb, is_clique_cover\n"
        "from .graphs import s_clone as clone, k_clone\n"
        "from .graphs import attach_path\n"
        "from . import graphs\n"
        "from .quadfield import as_rational\n"
    )
    assert non_definitional_imports(ast.parse(source)) == [
        (1, "graphs.comb"),
        (2, "graphs.k_clone"),
        (2, "graphs.s_clone"),
        (3, "graphs.attach_path"),
        (4, "graphs"),
    ]


def test_definitional_evaluators_import_no_identity_module():
    path = PACKAGE / "isp.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert package_imports(tree)
    assert non_definitional_imports(tree) == []


def test_every_export_resolves():
    assert indpoly.__all__
    assert [name for name in indpoly.__all__ if not hasattr(indpoly, name)] == []
