"""A record's fields are its own class annotations, and every record is checked.

``Record`` reads a subclass's fields from the ``__annotations__`` of its class
namespace. Class attributes without an annotation stay class attributes. The
behaviour checks in ``test_records.py`` must cover every record the package
defines, so a new one cannot skip them.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import satkit
from satkit._record import Record
from satkit.graph import Digraph, Graph
from satkit.reductions import KINDS
from test_records import CASES

SRC = Path(satkit.__file__).resolve().parent


def _record_classes() -> set[type]:
    for info in pkgutil.iter_modules(satkit.__path__):
        importlib.import_module(f"satkit.{info.name}")
    return {cls for cls in Record.__subclasses__() if cls.__module__.startswith("satkit.")}


class Point(Record):
    kind = "point"
    x: int
    y: int


def test_a_record_without_annotations_raises_type_error():
    with pytest.raises(TypeError, match="declares no fields"):
        class Empty(Record):
            size = 3


def test_unannotated_class_attributes_are_not_fields():
    assert Point._fields == ("x", "y")
    assert repr(Point(1, y=2)) == "Point(x=1, y=2)"
    with pytest.raises(TypeError):
        Point(1, 2, "point")
    for cls in (Graph, Digraph):
        assert cls._fields == ("vertices", "edges")
    for cls in KINDS.values():
        assert not {"kind", "json_extras", "summary_extras", "witness_key"} & set(cls._fields)


def test_every_record_class_is_in_the_record_cases():
    records = _record_classes()
    assert len(records) == 14
    assert records == {case[0] for case in CASES}


def test_modules_defining_records_import_annotations_from_future():
    # With the import, annotations are strings stored in the class namespace
    # on every supported Python. Without it, deferred annotations (PEP 649,
    # Python 3.14) may leave no __annotations__ there for Record to read.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Record" for base in node.bases)
        ]
        if not classes:
            continue
        found.update((path.stem, name) for name in classes)
        assert any(
            isinstance(node, ast.ImportFrom)
            and node.module == "__future__"
            and any(alias.name == "annotations" for alias in node.names)
            for node in tree.body
        ), f"{path.name} defines {classes} without 'from __future__ import annotations'"
    assert found == {(cls.__module__.rpartition(".")[2], cls.__name__) for cls in _record_classes()}
