"""The one size-guard refusal rule, and that every guard goes through it."""

import ast
from pathlib import Path

import pytest

import satkit
from satkit.cooklevin import _refusal
from satkit.errors import BudgetExceededError, refuse_over

SRC = Path(satkit.__file__).resolve().parent


def test_refuse_over_admits_its_budget_and_refuses_one_more():
    assert refuse_over(24, "variables", "exhaustive-search", 24) is None
    with pytest.raises(BudgetExceededError) as refused:
        refuse_over(25, "variables", "exhaustive-search", 24)
    assert str(refused.value) == "25 variables exceed the exhaustive-search budget of 24"


def budget_errors_built(path: Path) -> list[str]:
    """Where ``path`` names ``BudgetExceededError`` other than to catch it.

    Names inside ``cooklevin._refusal`` are left out: the encoder words its
    own refusal.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            allowed.update(map(id, ast.walk(node.type)))
        elif (path.name == "cooklevin.py" and isinstance(node, ast.FunctionDef)
              and node.name == "_refusal"):
            allowed.update(map(id, ast.walk(node)))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if "BudgetExceededError" in (getattr(node, "id", None), getattr(node, "attr", None))
        and id(node) not in allowed
    ]


def test_every_size_guard_refuses_through_refuse_over():
    paths = sorted(path for path in SRC.glob("*.py") if path.name != "errors.py")
    assert [where for path in paths for where in budget_errors_built(path)] == []
    # the exemption is not stale: the encoder still builds its own refusal
    assert isinstance(_refusal("1 clauses"), BudgetExceededError)
