"""API-surface integrity: every exported name resolves, everywhere.

Walks the whole package tree and asserts each module's ``__all__`` is
consistent with its attributes — the kind of drift (renamed function,
forgotten export) that otherwise only surfaces for downstream users.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import types
from pathlib import Path

import pytest

import repro


def _all_modules():
    names = ["repro"]
    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        names.append(module_info.name)
    return names


MODULES = _all_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", MODULES)
def test_dunder_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert list(exported) == sorted(exported), "__all__ should be sorted"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_package_count_sanity():
    """The tree should stay many-small-modules shaped."""
    assert len(MODULES) > 50


#: The packages that re-export their submodules' names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.engine",
    "repro.obs",
    "repro.serve",
)

#: Where the exports with no ``__module__`` (neither classes nor
#: functions) are defined.
_CONSTANT_HOMES = {
    "repro.__version__": "repro",
    "repro.analysis.Configuration": "repro.analysis.search",
    "repro.engine.EXECUTORS": "repro.engine.parallel",
    "repro.engine.POINT_METRICS": "repro.engine.knobs",
    "repro.obs.DEFAULT_OBJECTIVES": "repro.obs.slo",
    "repro.obs.LOG_SCHEMA": "repro.obs.log",
    "repro.obs.MANIFEST_SCHEMA": "repro.obs.manifest",
    "repro.obs.METRICS_SCHEMA": "repro.obs.metrics",
    "repro.obs.TIMING_FIELDS": "repro.obs.manifest",
    "repro.obs.TRACE_SCHEMA": "repro.obs.trace",
    "repro.serve.BATCHED_ENDPOINTS": "repro.serve.common",
    "repro.serve.BatchFunction": "repro.serve.batcher",
}


def _lazy_export_problems(package_name, constant_homes):
    """What is wrong with one package's lazy re-exports (empty if nothing).

    Every ``__all__`` name must be listed by ``dir()`` before it is
    read, must be the very object its defining module holds (a class's
    or function's ``__module__``, else ``constant_homes``), and must be
    bound by ``from package import *``. Self-contained, so a fresh
    interpreter can run its source.
    """
    import importlib
    import types

    package = importlib.import_module(package_name)
    listed = set(dir(package))
    problems = [
        f"{name}: not in dir()" for name in package.__all__ if name not in listed
    ]
    for name in package.__all__:
        value = getattr(package, name)
        if isinstance(value, (type, types.FunctionType)):
            home = value.__module__
        else:
            home = constant_homes.get(f"{package_name}.{name}")
        if home is None:
            problems.append(f"{name}: a {type(value).__name__} of no home")
        elif getattr(importlib.import_module(home), name) is not value:
            problems.append(f"{name}: not the object {home} holds")
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    problems.extend(
        f"{name}: not bound by import *"
        for name in package.__all__
        if namespace.get(name) is not getattr(package, name)
    )
    return problems


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_are_the_defining_objects(package_name):
    """In this interpreter, once submodules have been imported by their
    dotted paths: ``repro.engine.batch_split`` is a module and, as an
    export of ``repro.engine``, a function."""
    importlib.import_module("repro.engine.batch_split")
    assert _lazy_export_problems(package_name, _CONSTANT_HOMES) == []


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_in_a_fresh_interpreter(package_name, fresh_python):
    """Where nothing but the package has been imported when its names
    are first read."""
    code = (
        inspect.getsource(_lazy_export_problems)
        + "\nimport json\n"
        + f"print(json.dumps(_lazy_export_problems({package_name!r}, "
        + f"{_CONSTANT_HOMES!r})))"
    )
    assert json.loads(fresh_python(code)) == []


def test_subpackages_are_attributes_after_a_bare_import(fresh_python):
    """After a bare ``import repro``, subpackages are reachable as
    attributes, and a name that is neither export nor submodule is not."""
    fresh_python(
        "import repro\n"
        "assert repro.engine.evaluate is repro.engine.scenario.evaluate\n"
        "assert repro.serve.shard.routing_key is repro.serve.routing_key\n"
        "assert not hasattr(repro, 'no_such_module')\n"
    )


#: Names kept only because the benchmark's traced run wraps each of them
#: by name, by defining module. Each forwards to ``evaluate``.
FORWARDING_NAMES = {
    "repro.engine.batch": (
        "batch_cas",
        "batch_cost",
        "batch_ttm",
        "cas_over_capacity",
        "ttm_over_capacity",
    ),
    "repro.engine.portfolio": (
        "portfolio_cas",
        "portfolio_cas_over_capacity",
        "portfolio_cost",
        "portfolio_ttm",
        "portfolio_ttm_over_capacity",
    ),
    "repro.engine.scenario": ("scenario_evaluate",),
}


def test_no_module_references_the_forwarding_names():
    """Outside their definitions, no ``repro`` code names them: not a
    call, an attribute, an import nor an export."""
    names = {name for group in FORWARDING_NAMES.values() for name in group}
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value  # an ``__all__`` or lazy-export entry
            else:
                continue
            if name in names:
                found.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert found == []


def test_forwarding_names_are_eleven_distinct_functions():
    """The traced run rebinds each by identity, so no two may be one
    object."""
    functions = [
        getattr(importlib.import_module(module), name)
        for module, names in FORWARDING_NAMES.items()
        for name in names
    ]
    assert len(functions) == 11
    assert all(isinstance(f, types.FunctionType) for f in functions)
    assert len({id(f) for f in functions}) == 11
    for (module, name), function in zip(
        [(m, n) for m, names in FORWARDING_NAMES.items() for n in names],
        functions,
    ):
        assert (function.__module__, function.__name__) == (module, name)
