"""Layering: no structsim module imports another module's private names.

A rule that two modules need belongs, public, in the module that owns it
(``grids`` for the survival factors and the transmission sample, ``kernels``
for the generation product).  Tests may still import private names.
"""

import ast
import pathlib

import structsim

SRC = pathlib.Path(structsim.__file__).parent


def _private_imports(path: pathlib.Path) -> list[str]:
    """``module.name`` for every ``_``-prefixed, non-dunder name that
    ``path`` imports from a structsim module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "structsim":
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append(f"{'.' * node.level}{module}.{alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    leaks = {path.name: names for path in modules if (names := _private_imports(path))}
    assert leaks == {}


def test_the_guard_sees_relative_and_absolute_private_imports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\n"
                    "from . import __version__\n"
                    "from .solver import StateFields, _entry\n"
                    "from structsim.r0 import _prefactor\n"
                    "from os import _exit\n")
    assert _private_imports(path) == [".solver._entry", "structsim.r0._prefactor"]
