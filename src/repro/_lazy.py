"""Package exports loaded on first use (PEP 562).

A package that re-exports names from its submodules lists each name with
the submodule that defines it and takes its module hooks from
:func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {"Name": "sub"})

Importing the package then loads none of those submodules; ``pkg.Name``
and ``from pkg import Name`` import ``pkg.sub`` on first use.  The
package keeps ``TYPE_CHECKING`` imports of the same names for type
checkers.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, sources: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of ``package``, which
    exports each name of ``sources`` from the submodule it maps to
    (dotted, relative to ``package``).

    A name is looked up in its submodule on every access rather than
    copied into the package, so it always reads the submodule's current
    binding.  ``__dir__`` lists the package's own globals and every
    exported name, loaded or not; ``__all__`` is the sorted names.
    """
    table = dict(sources)

    def __getattr__(name: str) -> Any:
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        return getattr(importlib.import_module(f"{package}.{submodule}"), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | table.keys())

    return __getattr__, __dir__, sorted(table)
