"""Exhaustive-search ground truth for SAT, equisatisfiability, and MAX-SAT.

Everything here is deliberately brute force: no learning, no heuristics, no
propagation. One walk serves SAT and MAX-SAT: it visits the assignment tree
in lexicographic order (variable 1 most significant, false before true),
counts the clauses each path has falsified, and skips a subtree once that
count reaches the best total so far (one, for SAT), which cannot change the
outcome or the first witness found. That keeps tableau encodings with a few
hundred variables checkable while staying auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .formula import Assignment, CnfFormula

DEFAULT_MAX_VARS = 24


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Assignment | None

    def __post_init__(self):
        assert self.satisfiable == (self.witness is not None)


def _check_budget(f: CnfFormula, max_vars: int) -> None:
    if f.num_vars > max_vars:
        raise BudgetExceededError(
            f"{f.num_vars} variables exceed the exhaustive-search budget of {max_vars}"
        )


def _walk(f: CnfFormula, ceiling: int) -> tuple[int, Assignment | None]:
    """Fewest clauses a total assignment falsifies, and the first one that does.

    ``(ceiling, None)`` if none falsifies fewer than ``ceiling``; 0 ends the walk.
    """
    n = f.num_vars
    # A clause can only become falsified at the moment its highest variable
    # is assigned, and only if that variable's literal there has the losing
    # polarity. Bucket clauses accordingly so each branch looks at a clause
    # at most once; clauses containing both v and -v can never falsify.
    check_on_false: list[list] = [[] for _ in range(n + 1)]
    check_on_true: list[list] = [[] for _ in range(n + 1)]
    clauses = f.clauses
    empty = clauses.count(())
    if empty:  # max() and min() refuse an empty clause
        clauses = [clause for clause in clauses if clause]
    for clause, hi, lo in zip(clauses, map(max, clauses), map(min, clauses)):
        v = hi if hi > -lo else -lo
        if hi == v and lo == -v:
            continue
        (check_on_false if hi == v else check_on_true)[v].append(clause)
    if n == 0:
        return (empty, {}) if empty < ceiling else (ceiling, None)

    # falsified[v]: clauses this path falsifies before variable v is set
    falsified = [empty] * (n + 2)
    value = [False] * (n + 1)
    state = [0] * (n + 2)  # 0: try false next, 1: try true next, 2: exhausted
    best, witness = ceiling, None
    v = 1
    while v >= 1:
        s = state[v]
        if s == 2:
            state[v] = 0
            v -= 1
            continue
        state[v] = s + 1
        value[v] = s == 1
        got = falsified[v]
        for clause in check_on_true[v] if s else check_on_false[v]:
            for lit in clause:
                if value[lit] if lit > 0 else not value[-lit]:
                    break
            else:
                got += 1
                if got >= best:
                    break
        # Ties prune too, so the first optimal assignment stays the witness.
        if got >= best:
            continue
        if v < n:
            v += 1
            falsified[v] = got
            continue
        best, witness = got, {i: value[i] for i in range(1, n + 1)}
        if not got:
            break
    return best, witness


def brute_force_sat(f: CnfFormula, max_vars: int = DEFAULT_MAX_VARS) -> SatResult:
    """Exhaustive satisfiability check with deterministic witness.

    The witness, when present, is the lexicographically first satisfying
    total assignment (false < true, variable 1 most significant). Formulas
    larger than ``max_vars`` are refused, never truncated.
    """
    _check_budget(f, max_vars)
    _, witness = _walk(f, 1)
    return SatResult(witness is not None, witness)


def equisatisfiable(
    f1: CnfFormula, f2: CnfFormula, max_vars: int = DEFAULT_MAX_VARS
) -> bool:
    """True iff both formulas are satisfiable or both are unsatisfiable."""
    return (
        brute_force_sat(f1, max_vars).satisfiable
        == brute_force_sat(f2, max_vars).satisfiable
    )


def max_sat_optimum(
    f: CnfFormula, max_vars: int = DEFAULT_MAX_VARS
) -> tuple[int, Assignment]:
    """Maximum satisfiable clause count and its first witnessing assignment.

    Same walk as :func:`brute_force_sat`; the witness is the
    lexicographically first total assignment attaining the maximum.
    """
    _check_budget(f, max_vars)
    fewest, witness = _walk(f, len(f.clauses) + 1)
    return len(f.clauses) - fewest, witness


def max_sat_decide(f: CnfFormula, k: int, max_vars: int = DEFAULT_MAX_VARS) -> bool:
    """True iff some total assignment satisfies at least ``k`` clauses."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return True
    optimum, _ = max_sat_optimum(f, max_vars)
    return optimum >= k
