"""The unit-propagation kernel behind :func:`satkit.tractable.unit_propagate`.

Each distinct literal has an occurrence list of the clauses it occurs in,
and each clause counts its distinct literals not yet assigned. A clause
whose count reaches one is a unit; a heap of clause indices hands the
lowest-indexed unit out first, which is the order the rescanning definition
processes units in. Propagation stops at the first clause whose count
reaches zero (the empty clause). Each processed literal visits its own and
its negation's occurrence list once, so the work is linear in the formula
size, plus O(log m) per unit for the heap.

This module imports only :mod:`satkit.formula`: a checker built on it must
share no code with the solvers whose answers it checks.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .formula import Assignment, CnfFormula


def propagate(f: CnfFormula) -> tuple[CnfFormula, Assignment, int]:
    """Unit propagation to fixpoint: ``(reduced, forced, visits)``.

    ``forced`` maps each variable a unit clause set to its value, in the
    order the units were processed; ``reduced`` drops every clause holding
    a forced-true literal and strips the forced-false literals from the
    rest, keeping clause order. ``visits`` counts the occurrence-list
    entries read. An empty clause in the input forces nothing.
    """
    n = f.num_vars
    clauses = f.clauses
    # occurs[lit] and is_true[lit] for lit in ±1..±n; -v lands at 2n+1-v
    # through Python's negative indexing.
    occurs: list[list[int]] = [[] for _ in range(2 * n + 1)]
    is_true = [False] * (2 * n + 1)
    left: list[int] = []  # distinct literals not yet assigned
    rest: list[int] = []  # their sum: the unit's literal once left is 1
    units: list[int] = []
    for i, clause in enumerate(clauses):
        distinct = set(clause)
        if not distinct:
            return f, {}, 0
        for lit in distinct:
            occurs[lit].append(i)
        left.append(len(distinct))
        rest.append(sum(distinct))
        if len(distinct) == 1:
            units.append(i)
    heapify(units)
    satisfied = [False] * len(clauses)
    forced: Assignment = {}
    visits = 0
    conflict = False
    while units and not conflict:
        i = heappop(units)
        if satisfied[i]:
            continue
        x = rest[i]
        forced[abs(x)] = x > 0
        is_true[x] = True
        for j in occurs[x]:
            satisfied[j] = True
        visits += len(occurs[x])
        for j in occurs[-x]:
            visits += 1
            if satisfied[j]:
                continue
            left[j] -= 1
            rest[j] += x
            if left[j] == 1:
                heappush(units, j)
            elif not left[j]:
                conflict = True
                break
    reduced = tuple(
        tuple(lit for lit in clause if not is_true[-lit])
        for clause, done in zip(clauses, satisfied)
        if not done
    )
    return CnfFormula._trusted(n, reduced), forced, visits
