"""Every ``from repro... import name`` in the library resolves.

Imports inside functions run only when their code path does, and the
mypy gate covers a few modules only, so a name deleted from one module
can linger in another's rarely taken branch.  This walks every module's
AST, function bodies included, and resolves each imported name as an
attribute or a submodule.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _repro_imports():
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module is not None
                and node.module.split(".")[0] == "repro"
            ):
                for alias in node.names:
                    yield path.relative_to(SRC), node.lineno, node.module, alias.name


def _resolves(module_name: str, name: str) -> bool:
    if hasattr(importlib.import_module(module_name), name):
        return True
    submodule = f"{module_name}.{name}"
    try:
        importlib.import_module(submodule)
    except ModuleNotFoundError as exc:
        if exc.name != submodule:
            raise
        return False
    return True


def test_every_repro_import_resolves():
    imports = list(_repro_imports())
    assert imports
    unresolved = [
        f"{path}:{line}: from {module} import {name}"
        for path, line, module, name in imports
        if not _resolves(module, name)
    ]
    assert not unresolved, "\n".join(unresolved)
