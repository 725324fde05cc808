"""Lazy re-exports for aggregator packages (PEP 562).

An aggregator ``__init__`` lists what it re-exports and from which
submodule, and :func:`attach` returns the module-level ``__getattr__``
and ``__dir__`` that import a submodule the first time one of its
names is read. ``import repro.analysis`` then costs one small module;
``repro.analysis.critical_path(...)`` imports what that call needs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def attach(
    package: str,
    names: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Lazy ``__getattr__`` and ``__dir__`` for *package*, which
    re-exports, for each submodule in *names*, the names listed for it,
    and the *submodules* themselves.

    A name that is also a submodule's name (``critical_path`` in
    :mod:`repro.analysis`) is bound at once: the import system sets a
    package attribute to each submodule it loads, so binding it later
    would let an earlier ``import`` of the submodule hide the callable.
    """
    submodules = frozenset(submodules)
    origin = {name: module for module, listed in names.items()
              for name in listed}

    def __getattr__(name: str) -> object:
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | submodules
                      | set(origin))

    for name in origin.keys() & (submodules | names.keys()):
        __getattr__(name)
    return __getattr__, __dir__
