"""The package's source must parse under its oldest supported Python.

Tier-1 runs on a newer interpreter, which accepts newer syntax silently;
parsing with ``feature_version`` at the ``requires-python`` floor catches
what that run cannot see.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_module_parses_at_the_python_floor():
    modules = sorted((ROOT / "src" / "satkit").rglob("*.py"))
    assert len(modules) >= 10
    floor = _floor()
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
