"""Every cross-reference in the package's docstrings and comments resolves.

A ``:func:``, ``:class:`` or ``:data:`` reference in ``src/satkit/*.py``
must name an attribute of some ``satkit`` submodule, judged by the last
dotted part of its target. A call written in double backticks with no
arguments, such as ``x.name()``, must name an attribute of some submodule
or of one of its values. So a reference to a deleted name cannot outlive
it.

The README is held to the same rule: a call in single backticks, such as
`reduce_to_hamcycle(f, strict=True)`, must name an attribute of some
submodule or of one of its values, and each keyword it passes must be a
parameter of that attribute. So a README call cannot keep a removed
parameter either.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import satkit

SRC = Path(satkit.__file__).resolve().parent
MODULES = [importlib.import_module(f"satkit.{info.name}")
           for info in pkgutil.iter_modules(satkit.__path__)]
REFERENCE = re.compile(r":(?:func|class|data):`([^`]+)`")
CALL = re.compile(r"``((?:\w+\.)*\w+)\(\)``")
README = SRC.parents[1] / "README.md"
README_CALL = re.compile(r"`((?:\w+\.)*\w+)\(([^`]*)\)`")
KEYWORD = re.compile(r"(\w+)=")


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


def _accepts(target, keywords) -> bool:
    if not keywords:
        return True
    try:
        params = inspect.signature(target).parameters
    except (TypeError, ValueError):
        return False
    return set(keywords) <= set(params)


def test_readme_calls_name_attributes_and_their_parameters():
    calls = README_CALL.findall(README.read_text(encoding="utf-8"))
    assert calls, "no calls found in the README"
    bad = []
    for name, args in calls:
        last = name.rpartition(".")[2]
        targets = [getattr(value, last) for module in MODULES
                   for value in (module, *vars(module).values()) if last in dir(value)]
        if not any(_accepts(target, KEYWORD.findall(args)) for target in targets):
            bad.append(f"{name}({args})")
    assert bad == []
