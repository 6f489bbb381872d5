"""Exceptions shared across modules, and the one size-guard refusal rule.

A size guard refuses work past its budget and never truncates it. The
exhaustive oracle, the graph searches and ``satkit reduce`` all refuse
through :func:`refuse_over`, so each message reads "<count> <what> exceed
the <scope> budget of <budget>". The Cook–Levin encoder words its own
refusal (``cooklevin._refusal``): it counts clauses with thousands
separators, may give only a lower bound ("at least …"), and adds a hint.
"""


class BudgetExceededError(RuntimeError):
    """An exhaustive search was refused because the instance exceeds its size guard."""


def refuse_over(count: int, what: str, scope: str, budget: int) -> None:
    """Raise :class:`BudgetExceededError` when ``count`` exceeds ``budget``."""
    if count > budget:
        raise BudgetExceededError(f"{count} {what} exceed the {scope} budget of {budget}")
