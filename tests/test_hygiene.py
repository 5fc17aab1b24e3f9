"""Source hygiene that no installed linter covers."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "g2orbits"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    """Names a module imports but never references (__future__ exempt)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_sees_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom math import pi, tau\nprint(pi)\n"
    assert _unused_imports(src) == [(2, "os"), (3, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


# the rational-to-int clearing lives in linalg, the one module that crosses
# between rationals and integers
LCM_ALLOWED = {"linalg.py"}


def _lcm_uses(source: str):
    """Lines where a module imports lcm from math or refers to math.lcm."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            lines += [node.lineno for alias in node.names if alias.name == "lcm"]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "lcm"
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_detector_sees_lcm_imported_or_called():
    src = "import math\nfrom math import gcd, lcm as l\ndef f(a):\n    return math.lcm(*a)\n"
    assert _lcm_uses(src) == [2, 4]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name not in LCM_ALLOWED], ids=lambda p: p.name
)
def test_lcm_only_in_linalg_and_checks(path):
    assert _lcm_uses(path.read_text()) == []


# a Cartan element is built as an 8x8 rotation and read back off the basis
# only at the edges; inside the package ad(tau) comes from roots.cartan_adjoint
EDGE_ONLY = {"adjoint_matrix", "cartan_element"}


def _edge_calls(source: str, names=EDGE_ONLY):
    """(line, name) of every call of one of names (by default
    adjoint_matrix or cartan_element), by bare name or as an attribute;
    definitions and imports do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


def test_detector_sees_an_edge_call():
    src = (
        "from .derivations import adjoint_matrix\n"
        "def cartan_element(tau):\n"
        "    return tau\n"
        "ad = adjoint_matrix(cartan_element(tau), b)\n"
        "f = roots.cartan_element\n"
        "ad = derivations.adjoint_matrix(d, b)\n"
    )
    assert _edge_calls(src) == [(4, "adjoint_matrix"), (4, "cartan_element"), (6, "adjoint_matrix")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_cartan_rotation_only_at_the_edge(path):
    assert _edge_calls(path.read_text()) == []


# the 512x64 Leibniz system is the definition; derivation_basis() builds
# its eight graded blocks instead, so only check 1 eliminates the whole
def test_detector_sees_a_leibniz_system_call():
    src = (
        "from .derivations import leibniz_system\n"
        "def leibniz_system():\n"
        "    return rows\n"
        "m = leibniz_system()\n"
        "k = derivations.leibniz_system.__wrapped__\n"
        "n = derivations.leibniz_system()\n"
    )
    assert _edge_calls(src, {"leibniz_system"}) == [(4, "leibniz_system"), (6, "leibniz_system")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "checks.py"], ids=lambda p: p.name)
def test_only_check_1_calls_the_leibniz_system(path):
    assert _edge_calls(path.read_text(), {"leibniz_system"}) == []


# only derivations knows that a basis vector's pivot is the flat index
# 8p + q of a matrix entry; elsewhere the basis gives its degrees
def _attribute_reads(source: str, attr: str):
    """Lines that read the attribute attr off any object."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == attr)


def test_detector_sees_a_pivot_read():
    src = "b = derivation_basis()\np = b._pivots\nq = derivation_basis()._pivots[0]\n_pivots = 3\n"
    assert _attribute_reads(src, "_pivots") == [2, 3]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "derivations.py"], ids=lambda p: p.name)
def test_only_derivations_reads_pivots(path):
    assert _attribute_reads(path.read_text(), "_pivots") == []


# a dimension is a rank question: counting a canonical kernel basis builds
# every vector of it only to take len
KERNEL_BUILDERS = {"kernel_basis", "_kernel_of_images"}


def _kernel_builder(node):
    """The name of the kernel builder node calls, by bare name or as an
    attribute, or None."""
    if not isinstance(node, ast.Call):
        return None
    name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
    return name if name in KERNEL_BUILDERS else None


def _counted_kernels(source: str):
    """(line, name) of every len(kernel_basis(...)) or
    len(_kernel_of_images(...)), by bare name or as an attribute, and of
    every such kernel bound to a name whose only uses are len(name)."""
    tree = ast.parse(source)
    lens = [
        node.args[0] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len" and len(node.args) == 1
    ]
    found = [(arg.lineno, _kernel_builder(arg)) for arg in lens if _kernel_builder(arg)]
    counted = {id(arg) for arg in lens}
    loads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.setdefault(node.id, []).append(node)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            uses = loads.get(node.targets[0].id)
            if _kernel_builder(node.value) and uses and all(id(use) in counted for use in uses):
                found.append((node.lineno, _kernel_builder(node.value)))
    return sorted(found)


def test_detector_sees_a_counted_kernel():
    src = (
        "kern = kernel_basis(m)\n"
        "n = len(kern)\n"
        "d = len(kernel_basis(m))\n"
        "c = len(_kernel_of_images(images))\n"
        "z = len(linalg.kernel_basis(a))\n"
    )
    assert _counted_kernels(src) == [
        (1, "kernel_basis"), (3, "kernel_basis"), (4, "_kernel_of_images"), (5, "kernel_basis")
    ]


def test_detector_sees_a_kernel_bound_only_to_be_counted():
    # check 1's old form counts its kernel three times and reads no vector
    # of it; a kernel that is also indexed, or never used, is not counted
    src = (
        "def check():\n"
        "    kern = kernel_basis(system)\n"
        "    assert len(kern) == 14, f'nullity {len(kern)} != 14'\n"
        "    return system.cols - len(kern)\n"
        "basis = linalg.kernel_basis(m)\n"
        "n = len(basis)\n"
        "v = basis[0]\n"
        "rows = _kernel_of_images(images)\n"
    )
    assert _counted_kernels(src) == [(2, "kernel_basis")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dimensions_by_rank_not_by_counting_a_kernel(path):
    assert _counted_kernels(path.read_text()) == []


def _import_time_modules(source: str):
    """Top-level names of the modules a module imports when it is itself
    imported: every import outside a function body."""
    found = set()
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_detector_sees_a_module_level_import():
    src = "import numpy as np\nclass A:\n    from scipy import linalg\ndef f():\n    import sympy\n"
    assert _import_time_modules(src) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_not_imported_at_module_level(path):
    assert "numpy" not in _import_time_modules(path.read_text())


def _imported_modules(source: str):
    """Top-level names of every module a module imports anywhere, function
    bodies included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_detector_sees_an_import_in_a_function_body():
    src = "import os\ndef f():\n    import numpy as np\n    from numpy.linalg import norm\n"
    assert _imported_modules(src) == {"os", "numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_not_imported_anywhere(path):
    assert "numpy" not in _imported_modules(path.read_text())


def _numpy_loaded_after(code: str) -> bool:
    """Run code in a fresh interpreter with the package on the path and
    report whether numpy ended up in sys.modules."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = f"import sys\n{code}\nprint('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip() == "True"


def test_running_every_check_leaves_numpy_unloaded():
    code = "import g2orbits.checks\ng2orbits.checks.run_all(out=lambda line: None)"
    assert not _numpy_loaded_after(code)


def test_importing_the_package_leaves_numpy_unloaded():
    assert not _numpy_loaded_after("import g2orbits, g2orbits.cli, g2orbits.checks")


def test_every_export_resolves_once():
    import g2orbits

    missing = [name for name in g2orbits.__all__ if not hasattr(g2orbits, name)]
    doubled = sorted({name for name in g2orbits.__all__ if g2orbits.__all__.count(name) > 1})
    assert (missing, doubled) == ([], [])


# modules a cold CLI call must not load: dataclasses and typing, and what
# dataclasses pulls in
HEAVY = ("dataclasses", "typing", "inspect", "ast")


def _heavy_loaded_after(code: str) -> list:
    """Run code in a fresh ``python -S`` interpreter with the package on the
    path and list the HEAVY modules in sys.modules afterwards (the last
    line of stdout, so code may print)."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = f"import sys\n{code}\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_detector_sees_dataclasses_imported():
    assert "dataclasses" in _heavy_loaded_after("import dataclasses")


def test_a_cold_classify_loads_no_dataclasses_or_typing():
    code = 'import g2orbits.cli as cli\ncli.main(["classify", "--tau=1,0,-1", "--json"])'
    assert _heavy_loaded_after(code) == []


def _unbounded_caches(namespace) -> list:
    """Names in namespace bound to a function cached with no size bound:
    lru_cache(maxsize=None), or functools.cache, which is the same."""
    return sorted(
        name for name, obj in namespace.items()
        if hasattr(obj, "cache_parameters") and obj.cache_parameters()["maxsize"] is None
    )


def test_detector_sees_an_unbounded_cache():
    namespace = {
        "cache": functools.cache(abs),
        "none": functools.lru_cache(maxsize=None)(abs),
        "one": functools.lru_cache(maxsize=1)(abs),
        "bare": functools.lru_cache(abs),
    }
    assert _unbounded_caches(namespace) == ["cache", "none"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__main__.py"], ids=lambda p: p.name)
def test_no_unbounded_cache(path):
    # a cache keyed by its arguments with no bound grows with every distinct
    # call for the life of the process
    module = importlib.import_module(f"g2orbits.{path.stem}")
    classes = [c for c in vars(module).values() if isinstance(c, type) and c.__module__ == module.__name__]
    assert [n for ns in [vars(module), *map(vars, classes)] for n in _unbounded_caches(ns)] == []
