"""Every cross-reference in the package's docstrings and comments resolves.

A ``:func:``, ``:class:`` or ``:data:`` reference in ``src/satkit/*.py``
must name an attribute of some ``satkit`` submodule, judged by the last
dotted part of its target. A call written in double backticks with no
arguments, such as ``x.name()``, must name an attribute of some submodule
or of one of its values. So a reference to a deleted name cannot outlive
it.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import satkit

SRC = Path(satkit.__file__).resolve().parent
MODULES = [importlib.import_module(f"satkit.{info.name}")
           for info in pkgutil.iter_modules(satkit.__path__)]
REFERENCE = re.compile(r":(?:func|class|data):`([^`]+)`")
CALL = re.compile(r"``((?:\w+\.)*\w+)\(\)``")


def _unresolved(pattern, known):
    found = {
        (path.name, target)
        for path in sorted(SRC.glob("*.py"))
        for target in pattern.findall(path.read_text(encoding="utf-8"))
    }
    assert found, "no cross-references found"
    return sorted((name, t) for name, t in found if t.rpartition(".")[2] not in known)


def test_docstring_references_name_package_attributes():
    known = {name for module in MODULES for name in vars(module)}
    assert _unresolved(REFERENCE, known) == []


def test_docstring_calls_name_attributes_of_package_values():
    known = {name for module in MODULES for value in (module, *vars(module).values())
             for name in dir(value)}
    assert _unresolved(CALL, known) == []
