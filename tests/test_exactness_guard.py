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
import only ``errors``, ``rationals``, and ``Graph`` and the
clique-partition check ``_clique_partition`` from ``graphs``.  So neither ``clonecalc``, ``interpolate`` or ``verify`` nor
the gadget builders of ``graphs`` (``comb``, ``s_clone``, ``k_clone``,
``attach_path``) can reach it.

A fourth guard keeps one immutability mechanism: no class in the
package defines ``__setattr__``, ``__delattr__``, ``__eq__`` or
``__hash__``.  Value types are ``@dataclass(frozen=True)``, which
generates all four, so a hand-written copy cannot come back and miss
one (as a hand-written ``__setattr__`` once left ``del`` open).

A fifth guard keeps one integer rule: only ``rationals.py``, where
``_is_int`` lives, calls ``isinstance(..., bool)``, so no module can
spell its own copy of the rule.

A sixth guard keeps one record shape in ``verify.py``: only its
``_record`` builder sets a record's ``"status"``, in a dict literal or by
item assignment, so "pass" or "fail" is decided in one place and every
record carries its counterexample the same way.

A seventh guard keeps the oracle the only evaluator in the family solve:
the body of ``interpolate_family``, and of every function of its module
that it calls, calls no function that ``isp.py`` defines (under any name
a relative import gives it, bare or as an attribute), and no
``.evaluate`` but ``oracle.evaluate``.  The stated coefficients come from
the graph alone; a hidden kernel call could stand in for the oracle's
answers and leave the check on them vacuous.

An eighth guard keeps the one write of process-wide state in one place:
``sys.setrecursionlimit`` is called, or imported, only inside
``isp._recursion_depth``, which writes the limit only when a kernel's
depth bound does not fit under it and restores it on exit.

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


def test_cli_import_loads_only_what_every_command_needs():
    # The verify suites and the external oracle's process modules load
    # with the commands that use them, not with the CLI.
    probe = (
        "import sys, indpoly.cli; "
        "print(sorted({'indpoly.verify', 'subprocess', 'shlex'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# module -> the names it may give, or None for any name
DEFINITIONAL_IMPORTS = {"errors": None, "rationals": None, "graphs": {"Graph", "_clique_partition"}}


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
        "from .graphs import Graph, comb, _clique_partition\n"
        "from .graphs import s_clone as clone, k_clone\n"
        "from .graphs import attach_path\n"
        "from . import graphs\n"
        "from .rationals import as_rational\n"
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


VALUE_METHODS = {"__setattr__", "__delattr__", "__eq__", "__hash__"}


def hand_written_value_methods(tree):
    """(line, "Class.name") of every method in ``VALUE_METHODS`` that a
    class body defines or assigns."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(node.lineno, f"{cls.name}.{name}") for name in names if name in VALUE_METHODS]
    return found


def test_value_method_guard_catches_hand_written_methods():
    source = (
        "class A:\n"
        "    def __setattr__(self, name, value): pass\n"
        "    def __post_init__(self): pass\n"
        "    def __repr__(self): return 'A'\n"
        "class B:\n"
        "    __hash__ = None\n"
        "    class C:\n"
        "        def __eq__(self, other): return True\n"
        "    def __delattr__(self, name): pass\n"
        "def __eq__(a, b): return True\n"
    )
    assert sorted(hand_written_value_methods(ast.parse(source))) == [
        (2, "A.__setattr__"),
        (6, "B.__hash__"),
        (8, "C.__eq__"),
        (9, "B.__delattr__"),
    ]


def test_package_hand_writes_no_value_methods():
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in hand_written_value_methods(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []


def bool_checks(tree):
    """Line of every ``isinstance(..., bool)`` call, and of every call whose
    type tuple holds ``bool``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            continue
        if len(node.args) != 2:
            continue
        types = node.args[1]
        names = types.elts if isinstance(types, ast.Tuple) else [types]
        if any(isinstance(name, ast.Name) and name.id == "bool" for name in names):
            found.append(node.lineno)
    return found


def test_bool_guard_catches_copies_of_the_integer_rule():
    source = (
        "isinstance(v, int) and not isinstance(v, bool)\n"
        "isinstance(v, (bool, float))\n"
        "isinstance(v, int)\n"
        "_is_int(v)\n"
    )
    assert sorted(bool_checks(ast.parse(source))) == [1, 2]


def test_only_rationals_checks_for_bool():
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "rationals.py"
        for line in bool_checks(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []
    rationals = PACKAGE / "rationals.py"
    assert bool_checks(ast.parse(rationals.read_text(), filename=str(rationals)))


def status_settings(tree):
    """Line of every dict literal with a ``"status"`` key, and of every
    ``[...]["status"] = ...`` assignment, outside a function ``_record``."""
    builder = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_record":
            builder |= {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in builder:
            continue
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        else:
            continue
        if any(isinstance(key, ast.Constant) and key.value == "status" for key in keys):
            found.append(node.lineno)
    return found


def test_status_guard_catches_records_built_by_hand():
    source = (
        "def _record(case, ok):\n"
        "    return {'case': case, 'status': 'pass' if ok else 'fail'}\n"
        "def suite(seed):\n"
        "    yield {'case': 'c', 'status': 'pass'}\n"
        "    record = {'case': 'c', 'got': 1}\n"
        "    record['status'] = 'fail'\n"
        "    if record['status'] == 'pass':\n"
        "        yield {**record, 'expected': 1}\n"
    )
    assert sorted(status_settings(ast.parse(source))) == [4, 6]


def test_verify_sets_status_only_in_record_builder():
    path = PACKAGE / "verify.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert status_settings(tree) == []
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_record" for node in ast.walk(tree))


def kernel_calls(tree, kernel, root="interpolate_family"):
    """(line, call) of every call that can reach the kernel from the body
    of the module function ``root``, or of a module function it calls: a
    call of a name in ``kernel`` or of an alias a relative ``isp`` import
    gives one, a call of an attribute named in ``kernel``, and an
    ``.evaluate`` on anything but ``oracle``."""
    local = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = set(kernel) | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module == "isp"
        for alias in node.names
        if alias.name in kernel
    }
    found, seen, todo = [], set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(local[name]):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in names:
                    found.append((node.lineno, func.id))
                elif func.id in local:
                    todo.append(func.id)
            elif isinstance(func, ast.Attribute) and (
                func.attr in kernel
                or func.attr == "evaluate" and not (isinstance(func.value, ast.Name) and func.value.id == "oracle")
            ):
                found.append((node.lineno, ast.unparse(func)))
    return sorted(found)


def test_kernel_call_guard_catches_hidden_evaluations():
    source = (
        "from .isp import Polynomial, isp_eval as ev\n"
        "def interpolate_family(g, cover, x, oracle):\n"
        "    oracle.evaluate(g, x)\n"
        "    ev(g, x)\n"
        "    isp.isp_coeffs(g)\n"
        "    InternalOracle().evaluate(g, x)\n"
        "    helper(g)\n"
        "    return Polynomial([1])\n"
        "def helper(g):\n"
        "    helper(g)\n"
        "    return isp_eval(g, 2)\n"
        "def unused(g):\n"
        "    return isp_eval(g, 2)\n"
    )
    assert kernel_calls(ast.parse(source), {"isp_eval", "isp_coeffs"}) == [
        (4, "ev"),
        (5, "isp.isp_coeffs"),
        (6, "InternalOracle().evaluate"),
        (11, "isp_eval"),
    ]


def test_interpolate_family_evaluates_only_through_the_oracle():
    isp = PACKAGE / "isp.py"
    kernel = {node.name for node in ast.parse(isp.read_text()).body if isinstance(node, ast.FunctionDef)}
    assert {"isp_eval", "isp_coeffs"} <= kernel
    path = PACKAGE / "interpolate.py"
    assert kernel_calls(ast.parse(path.read_text(), filename=str(path)), kernel) == []


def recursion_limit_writes(tree):
    """(line, function) of every call or import of ``setrecursionlimit``,
    with the module function whose body holds it (None outside one)."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                hit = (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "setrecursionlimit"
            else:
                hit = isinstance(node, ast.ImportFrom) and any(a.name == "setrecursionlimit" for a in node.names)
            if hit:
                found.append((node.lineno, owner))
    return sorted(found)


def test_recursion_limit_guard_catches_writes_outside_the_helper():
    source = (
        "import sys\n"
        "from sys import setrecursionlimit as limit\n"
        "def _recursion_depth(frames):\n"
        "    sys.setrecursionlimit(frames)\n"
        "def kernel(g):\n"
        "    def inner():\n"
        "        sys.setrecursionlimit(10 ** 6)\n"
        "    sys.getrecursionlimit()\n"
        "sys.setrecursionlimit(5000)\n"
    )
    assert recursion_limit_writes(ast.parse(source)) == [(2, None), (4, "_recursion_depth"), (7, "kernel"), (9, None)]


def test_only_the_depth_helper_sets_the_recursion_limit():
    found = {
        path.name: recursion_limit_writes(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    offenders = [
        f"{name}:{line}"
        for name, writes in found.items()
        for line, owner in writes
        if (name, owner) != ("isp.py", "_recursion_depth")
    ]
    assert offenders == []
    assert found["isp.py"]
