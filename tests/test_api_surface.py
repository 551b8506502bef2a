"""The public names each module declares resolve, and each subpackage
re-exports only what its submodules define.

A deletion that leaves a name behind in an ``__all__`` list, or a re-export
that hides a submodule behind a function of the same name, then fails here
rather than at import time in a demo or a benchmark pass. The worker count is
set only by ``mc.workers``, so no exported callable takes it as a parameter.
"""

import importlib
import inspect
import pkgutil
import types

import levelsim


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


def test_no_exported_callable_takes_a_worker_count():
    takers = [
        (module.__name__, name)
        for module in modules()
        for name in getattr(module, "__all__", ())
        if callable(obj := getattr(module, name))
        and "max_concurrency" in parameters(obj)
    ]
    assert takers == []
