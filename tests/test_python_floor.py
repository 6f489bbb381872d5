"""The package's source must parse under its oldest supported Python and
import nothing outside the standard library.

Tier-1 runs on a newer interpreter, which accepts newer syntax silently;
parsing with ``feature_version`` at the ``requires-python`` floor catches
what that run cannot see.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "satkit").rglob("*.py"))
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def _floor() -> tuple[int, int]:
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', PYPROJECT).groups()
    return int(major), int(minor)


def test_every_module_parses_at_the_python_floor():
    assert len(MODULES) >= 10
    floor = _floor()
    for path in MODULES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_package_imports_only_the_standard_library():
    # zero runtime dependencies: every absolute import, at any depth of a
    # module, names a standard-library package
    assert re.search(r"^dependencies\s*=\s*\[\]\s*$", PYPROJECT, re.MULTILINE)
    outside = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names}
    assert sorted(outside) == []
