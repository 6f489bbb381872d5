"""Every cross-reference in the package's docstrings and comments resolves.

A ``:func:``, ``:class:`` or ``:data:`` reference in ``src/satkit/*.py``
must name an attribute of some ``satkit`` submodule, judged by the last
dotted part of its target, so a reference to a deleted name cannot outlive
it.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import satkit

SRC = Path(satkit.__file__).resolve().parent
REFERENCE = re.compile(r":(?:func|class|data):`([^`]+)`")


def test_docstring_references_name_package_attributes():
    modules = [importlib.import_module(f"satkit.{info.name}")
               for info in pkgutil.iter_modules(satkit.__path__)]
    known = {name for module in modules for name in vars(module)}
    found = {
        (path.name, target)
        for path in sorted(SRC.glob("*.py"))
        for target in REFERENCE.findall(path.read_text(encoding="utf-8"))
    }
    assert found, "no cross-references found"
    unresolved = sorted((name, t) for name, t in found if t.rpartition(".")[2] not in known)
    assert unresolved == []
