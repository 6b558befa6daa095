"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' names with ``from .x import
name`` runs every one of those submodules when it is imported, whether
or not the caller reads the names: a process that needs one NumPy-free
submodule (the CLI parser, the shard router) would load NumPy and the
engine kernels with it. :func:`lazy_exports` gives a package a module
``__getattr__`` and ``__dir__`` instead: a submodule is imported the
first time one of its names is read, and the name is then bound in the
package, so later reads are plain attribute lookups. ``__all__`` stays
an explicit list, so ``from package import *`` binds every name.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from types import ModuleType
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
)


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of one package.

    ``exports`` maps each relative submodule (``".portfolio"``) to the
    names the package re-exports from it. A name that is no export but
    names a submodule imports that submodule, so ``repro.engine`` works
    after a bare ``import repro``.
    """
    source: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    shadowed = frozenset(
        name for name, module in source.items() if module == f".{name}"
    )
    if shadowed:
        _SHADOWED[package] = shadowed
        sys.modules[package].__class__ = _ShadowingPackage

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif not name.startswith("__") and importlib.util.find_spec(
            f"{package}.{name}"
        ):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(vars(sys.modules[package]).keys() | source.keys())

    return __getattr__, __dir__


#: Per package, the exports that share a name with one of its submodules.
_SHADOWED: Dict[str, AbstractSet[str]] = {}


class _ShadowingPackage(ModuleType):
    """A package that exports a name one of its submodules also has
    (``repro.engine.batch_split``, function and module).

    Importing ``package.name`` binds the submodule on the package once
    it has run; the export keeps the name instead, so ``package.name``
    is the export whichever of the two was imported first.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, ModuleType) and name in _SHADOWED[self.__name__]:
            value = getattr(value, name)
        super().__setattr__(name, value)
