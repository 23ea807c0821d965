"""Package namespaces that import their modules on first use (PEP 562).

A package ``__init__`` that imported every module it re-exports would
make importing any one module pay for the whole package: ``import
repro.semantics.inflationary`` runs ``repro/__init__.py`` and
``repro/semantics/__init__.py`` first.  Each package instead declares
which module provides each public name and lets :func:`lazy_exports`
resolve the name when it is first read.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]],
                 unlisted: dict[str, tuple[str, ...]] | None = None):
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each module (relative to ``package`` when it
    starts with a dot) to the public names it provides, in ``__all__``
    order; ``unlisted`` does the same for names that resolve but stay
    out of ``__all__``.  A name is imported from its module on first
    access and then kept in the package namespace, so later reads are
    plain attribute reads.  Any other public name that is a submodule
    of ``package`` (``repro.relational.algebra``) imports that
    submodule.

    A name may also be the name of a submodule (``repro.programs
    .closer`` is a function in module ``repro.programs.closer``).
    Importing that submodule makes the import system set the package
    attribute to the module, after which ``__getattr__`` is never asked
    for the name; the package's class therefore refuses to let a
    module replace a declared name, which keeps the name the function
    whichever is imported first.
    """
    where = {
        name: module
        for table in (exports, unlisted or {})
        for module, names in table.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = where.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    class Package(ModuleType):
        def __setattr__(self, name: str, value) -> None:
            if name in where and isinstance(value, ModuleType):
                return
            super().__setattr__(name, value)

    sys.modules[package].__class__ = Package
    listed = [name for names in exports.values() for name in names]
    return listed, __getattr__, __dir__
