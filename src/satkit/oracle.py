"""Exhaustive-search ground truth for SAT, equisatisfiability, and MAX-SAT.

Everything here is deliberately brute force: no learning, no heuristics, no
propagation. One walk serves SAT and MAX-SAT: it visits the assignment tree
in lexicographic order (variable 1 most significant, false before true),
counts the clauses each path has falsified, and skips a subtree once that
count reaches the best total so far (one, for SAT), which cannot change the
outcome or the first witness found. That keeps tableau encodings with a few
hundred variables checkable while staying auditable.

The walk files each clause under its last literal and checks it when the
path makes that literal false. Variables the path has not reached are
unset, and a check that meets one before a true literal shows that the
clause reaches above the current variable; its bucket is then refiled under
the losing literal of each clause's highest variable, and the node is
checked again. This is sound: where the filing literal is true the clause
is satisfied, and where it is false the clause is checked, so it is either
satisfied by a literal that stays set in the whole subtree or moved higher
before the walk goes below. Encoders that end each clause with its
highest-variable literal (as ``cooklevin.encode`` does) never pay a refile.

Verdicts are :class:`satkit.formula.SatResult` records, the type the
tractable solvers return too, so the fast paths this module checks import
none of it.
"""

from __future__ import annotations

from .errors import refuse_over
from .formula import Assignment, CnfFormula, SatResult

DEFAULT_MAX_VARS = 24


class _Unreached(Exception):
    """A clause check met a variable the current path has not set."""


class _Unset:
    """Value of a variable the current path has not set; testing it raises."""

    __slots__ = ()

    def __bool__(self):
        raise _Unreached


_UNSET = _Unset()


def _refile(on_false, on_true, bucket: list) -> None:
    """Move each clause of ``bucket`` to the losing literal of its highest variable.

    A clause holding both polarities of that variable can never be falsified
    and is dropped.
    """
    clauses = bucket.copy()
    bucket.clear()
    for clause, hi, lo in zip(clauses, map(max, clauses), map(min, clauses)):
        v = hi if hi > -lo else -lo
        if hi == v and lo == -v:
            continue
        (on_false if hi == v else on_true)[v].append(clause)


def _walk(f: CnfFormula, ceiling: int, enough: int = 0) -> tuple[int, Assignment | None]:
    """Fewest clauses a total assignment falsifies, and the first one that does.

    ``(ceiling, None)`` if none falsifies fewer than ``ceiling``. The walk
    ends at the first assignment that falsifies at most ``enough`` clauses
    and returns it with its count: with ``enough = ceiling - 1`` that is the
    lexicographically first assignment under the ceiling.
    """
    n = f.num_vars
    clauses = f.clauses
    empty = clauses.count(())
    if n == 0:
        return (empty, {}) if empty < ceiling else (ceiling, None)
    if empty:  # an empty clause has no last literal
        clauses = [clause for clause in clauses if clause]
    # bucket[n + lit]: the clauses checked when lit is set false. on_false[v]
    # and on_true[v] are the same lists, checked when v is set false / true.
    bucket = [[] for _ in range(2 * n + 1)]
    for clause in clauses:
        bucket[n + clause[-1]].append(clause)
    on_false = bucket[n:]
    on_true = bucket[n::-1]

    # falsified[v]: clauses this path falsifies before variable v is set
    falsified = [empty] * (n + 2)
    value = [_UNSET] * (n + 1)
    state = [0] * (n + 2)  # 0: try false next, 1: try true next, 2: exhausted
    best, witness = ceiling, None
    v = 1
    while v >= 1:
        s = state[v]
        if s == 2:
            state[v] = 0
            value[v] = _UNSET
            v -= 1
            continue
        state[v] = s + 1
        value[v] = s == 1
        got = falsified[v]
        checks = on_true[v] if s else on_false[v]
        try:
            for clause in checks:
                for lit in clause:
                    if value[lit] if lit > 0 else not value[-lit]:
                        break
                else:
                    got += 1
                    if got >= best:
                        break
        except _Unreached:
            # A clause here reaches above v: refile the bucket and check v again.
            _refile(on_false, on_true, checks)
            state[v] = s
            continue
        # Ties prune too, so the first optimal assignment stays the witness.
        if got >= best:
            continue
        if v < n:
            v += 1
            falsified[v] = got
            continue
        best, witness = got, {i: value[i] for i in range(1, n + 1)}
        if got <= enough:
            break
    return best, witness


def brute_force_sat(f: CnfFormula, max_vars: int = DEFAULT_MAX_VARS) -> SatResult:
    """Exhaustive satisfiability check with deterministic witness.

    The witness, when present, is the lexicographically first satisfying
    total assignment (false < true, variable 1 most significant). Formulas
    larger than ``max_vars`` are refused, never truncated.
    """
    refuse_over(f.num_vars, "variables", "exhaustive-search", max_vars)
    _, witness = _walk(f, 1)
    return SatResult(witness is not None, witness)


def equisatisfiable(f1: CnfFormula, f2: CnfFormula) -> bool:
    """True iff both formulas are satisfiable or both are unsatisfiable."""
    return brute_force_sat(f1).satisfiable == brute_force_sat(f2).satisfiable


def max_sat_optimum(
    f: CnfFormula, max_vars: int = DEFAULT_MAX_VARS
) -> tuple[int, Assignment]:
    """Maximum satisfiable clause count and its first witnessing assignment.

    Same walk as :func:`brute_force_sat`; the witness is the
    lexicographically first total assignment attaining the maximum.
    """
    refuse_over(f.num_vars, "variables", "exhaustive-search", max_vars)
    fewest, witness = _walk(f, len(f.clauses) + 1)
    return len(f.clauses) - fewest, witness


def max_sat_decide(f: CnfFormula, k: int, max_vars: int = DEFAULT_MAX_VARS) -> bool:
    """True iff some total assignment satisfies at least ``k`` clauses."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return True
    refuse_over(f.num_vars, "variables", "exhaustive-search", max_vars)
    # k clauses hold iff some assignment falsifies at most m - k; the walk
    # prunes at that ceiling and stops at the first such assignment.
    m = len(f.clauses)
    return _walk(f, m - k + 1, m - k)[1] is not None
