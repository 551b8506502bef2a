"""The public names each module declares resolve, and each subpackage
re-exports only what its submodules define.

A deletion that leaves a name behind in an ``__all__`` list, or a re-export
that hides a submodule behind a function of the same name, then fails here
rather than at import time in a demo or a benchmark pass. An exported name
that nothing under ``src/``, ``demos/`` or ``perfbench/`` references is dead
surface. The code picks each map's thread count, and the population guards
and the N-BBM caps are ``tolerances.py`` constants, so no exported callable
takes any of them as a parameter; nor does any take the deleted
path-discretization diagnostic's exponents.
The package's import graph leaves out scipy's heaviest subpackages, which
once made up most of the command line's start-up time. Only ``mc`` sets
numpy's BLAS thread count, so no other module reaches into its private names.
Every exception class the package defines is a ``ValueError``, which the
command line maps to exit 2, or one ``cli.main`` catches by name for exit 3,
so none can escape as a traceback with exit 1, the code of a failed check.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import levelsim
import levelsim.cli


def modules():
    names = ["levelsim"]
    names += [info.name for info in pkgutil.walk_packages(levelsim.__path__, "levelsim.")]
    return [importlib.import_module(name) for name in names]


def subpackages():
    return [module for module in modules()[1:] if hasattr(module, "__path__")]


def submodules(package):
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


def defines(sub, name, obj):
    """The submodule binds name to obj as its own: a function or class it
    declares, or a constant; not a module or a class it imported."""
    if vars(sub).get(name, defines) is not obj or isinstance(obj, types.ModuleType):
        return False
    if isinstance(obj, (type, types.FunctionType)):
        return obj.__module__ == sub.__name__
    return True


def test_every_exported_name_resolves():
    missing = [
        (module.__name__, name)
        for module in modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_subpackages_reexport_only_submodule_names():
    packages = subpackages()
    assert {"levelsim.bbm", "levelsim.gff"} <= {p.__name__ for p in packages}
    foreign = [
        (package.__name__, name)
        for package in packages
        for name in package.__all__
        if not any(
            defines(sub, name, getattr(package, name, None))
            for sub in submodules(package).values()
        )
    ]
    assert foreign == []


def test_no_reexport_shadows_a_submodule():
    shadowed = [
        (package.__name__, name)
        for package in subpackages()
        for name, sub in submodules(package).items()
        if getattr(package, name) is not sub
    ]
    assert shadowed == []


def parameters(obj):
    """Parameter names of a callable; builtin signatures (an exception class
    that keeps BaseException's __init__) have none to inspect."""
    try:
        return inspect.signature(obj).parameters
    except ValueError:
        return {}


@pytest.mark.parametrize(
    "keyword",
    [
        "max_concurrency",
        "particle_cap",
        "population_cap",
        "caps",
        "cutoff",
        "path_delta",
        "path_delta_prime",
    ],
)
def test_no_exported_callable_takes_a_removed_setting(keyword):
    takers = [
        (module.__name__, name)
        for module in modules()
        for name in getattr(module, "__all__", ())
        if callable(obj := getattr(module, name)) and keyword in parameters(obj)
    ]
    assert takers == []


ROOT = Path(levelsim.__file__).resolve().parents[2]


def referenced_names() -> set[str]:
    """Every name referenced under src/, demos/ and perfbench/, besides where
    it is defined, listed or re-exported.

    A reference is a variable loaded, an attribute looked up, a name imported
    outside a package's ``__init__``, or an identifier inside a string: the
    command line's registry and perfbench's trace sites look functions up by
    name, and a docstring may name the setting it documents. A def, a class,
    an assignment and an ``__all__`` entry only bind or list a name."""
    names = set()
    for top in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            listed = {
                id(element)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for element in ast.walk(node.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    if isinstance(node.ctx, ast.Load):
                        names.add(getattr(node, "id", None) or node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    if path.name != "__init__.py":
                        dotted = [getattr(node, "module", None) or ""]
                        dotted += [alias.name for alias in node.names]
                        names.update(part for d in dotted for part in d.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) not in listed:
                        names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_every_exported_name_is_referenced():
    referenced = referenced_names()
    unreferenced = [
        (module.__name__, name)
        for module in modules()
        for name in getattr(module, "__all__", ())
        if name not in referenced
    ]
    assert unreferenced == []


# scipy.stats pulls in the other two and alone made up about half the time of
# ``import levelsim.cli``; tests may import it, as an oracle, but not the package.
HEAVY_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.spatial")

IMPORT_EVERYTHING = f"""
import importlib, pkgutil, sys
import levelsim, levelsim.cli
for info in pkgutil.walk_packages(levelsim.__path__, "levelsim."):
    importlib.import_module(info.name)
print(*[name for name in {HEAVY_SCIPY!r} if name in sys.modules])
"""


def test_import_graph_leaves_out_heavy_scipy_subpackages():
    # A fresh interpreter: other test modules have imported scipy.stats here.
    src = str(Path(levelsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERYTHING],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def private_mc_reads(path: Path) -> list[str]:
    """Private names of levelsim.mc that the module at path imports or reads."""
    tree = ast.parse(path.read_text(), str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    bound = {
        alias.asname or alias.name
        for node in imports
        for alias in node.names
        if alias.name == "mc"
    }
    reads = [
        alias.name
        for node in imports
        if (node.module or "").rpartition(".")[2] == "mc"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    reads += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
        and node.attr.startswith("_")
    ]
    return reads


def test_only_mc_reads_its_private_names():
    package = Path(levelsim.__file__).parent
    readers = {
        str(path.relative_to(package)): reads
        for path in sorted(package.rglob("*.py"))
        if path.name != "mc.py" and (reads := private_mc_reads(path))
    }
    assert readers == {}


def caught_by_name(function) -> set[str]:
    """Names of the exception classes the function's except clauses list."""
    caught = set()
    for node in ast.walk(ast.parse(inspect.getsource(function))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types_ = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(getattr(t, "id", None) or t.attr for t in types_)
    return caught


def test_every_package_error_has_an_exit_code():
    caught = caught_by_name(levelsim.cli.main)
    uncaught = [
        f"{module.__name__}.{name}"
        for module in modules()
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
        and not issubclass(obj, ValueError)
        and name not in caught
    ]
    assert uncaught == []
