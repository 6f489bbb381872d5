"""Polynomial-time solvers for the tractable SAT fragments.

2-SAT goes through the implication graph: each clause (x ∨ y) contributes
edges ¬x→y and ¬y→x, a unit clause (x) counts as (x ∨ x) and contributes
¬x→x. Unsatisfiability is a variable sharing a strongly connected component
with its negation; otherwise variable x is assigned false exactly when
comp[x] < comp[¬x] in topological order (Aspvall–Plass–Tarjan).
:func:`solve_2sat` builds the graph as int adjacency lists over literal
indices (v at 2(v-1), ¬v at 2(v-1)+1) and runs the shared Tarjan kernel
:func:`satkit.graph.tarjan_scc`. The witness depends on DFS order, so the
roots are tried 1, ¬1, 2, ¬2, ... and each vertex's successors in the
order of their string labels ``str(lit)``: the order of the labelled
reference graph that the tests check it against.

Horn satisfiability is counter-based forward chaining (Dowling–Gallier):
occurrence lists from each body variable to its clauses, a per-clause count
of body literals not yet true, and a queue of derived heads, so the work is
linear in the formula size. :func:`solve_horn` builds all of it and checks
that each clause has at most one distinct positive literal in one pass over
the literals. The formula is unsatisfiable iff some clause without a head
gets its whole body true (or is empty); otherwise the witness is the unique
minimal model.

:func:`unit_propagate` processes the lowest-indexed unit clause first and
stops at the first empty clause; its forced-true variables on a Horn
formula are exactly that model. It runs on the kernel in
``satkit._propagate`` (per-clause counts of unassigned literals and a heap
of unit clause indices), linear in the formula size plus O(log m) per unit,
and imported on first call, so no CLI command loads it.
"""

from __future__ import annotations

from ._record import Record
from .formula import Assignment, CnfFormula, DnfFormula, is_tautology, max_clause_width
from .graph import tarjan_scc
from .oracle import SatResult


# _label_rank[i] orders literal index i (literal v at 2(v-1), -v at
# 2(v-1)+1) by the string label str(lit), as the tests' labelled reference
# implication graph sorts successors. Relative order does not depend on
# how many variables are ranked, so one table, grown on demand and never
# mutated once published, serves every formula and every caller.
_label_rank: list[int] = []


def _label_ranks(num_vars: int) -> list[int]:
    global _label_rank
    rank = _label_rank
    if len(rank) < 2 * num_vars:
        # At least double the ranked variables, so regrowth stays rare.
        n = max(num_vars, len(rank))
        # "-a" < "-b" < "c" for any a, b, c; among one sign, str order.
        rank = [0] * (2 * n)
        for r, v in enumerate(sorted(range(1, n + 1), key=str)):
            rank[2 * v - 2] = n + r
            rank[2 * v - 1] = r
        _label_rank = rank
    return rank


def solve_2sat(f: CnfFormula) -> SatResult:
    """Deterministic 2-SAT decision plus witness extraction.

    Unsatisfiable iff some SCC contains a literal and its negation. The
    witness sets x false iff comp[x] < comp[¬x], which always satisfies the
    formula.
    """
    if max_clause_width(f) > 2:
        raise ValueError("solve_2sat requires clause width <= 2")
    if any(not c for c in f.clauses):
        return SatResult(False, None)
    n = f.num_vars
    # at[lit] is the index of lit, negative literals through Python's
    # negative indexing: at[v] = 2(v-1), at[-v] = at[2n+1-v] = 2(v-1)+1.
    at = [0] * (2 * n + 1)
    at[1 : n + 1] = range(0, 2 * n, 2)
    at[n + 1 :] = range(2 * n - 1, 0, -2)
    succ: list[list[int]] = [[] for _ in range(2 * n)]
    for clause in f.clauses:
        x, y = clause[0], clause[-1]
        if x != -y:
            succ[at[-x]].append(at[y])
            succ[at[-y]].append(at[x])
    rank = _label_ranks(n).__getitem__
    for targets in succ:
        if len(targets) > 1:
            targets.sort(key=rank)
    emitted, _ = tarjan_scc(succ)
    # Emission order is reverse topological: x is true iff its component
    # comes out before ¬x's, i.e. comp[x] > comp[¬x] in topological order.
    witness: Assignment = {}
    for v in range(1, n + 1):
        pos, neg = emitted[2 * v - 2], emitted[2 * v - 1]
        if pos == neg:
            return SatResult(False, None)
        witness[v] = pos < neg
    return SatResult(True, witness)


class UpResult(Record):
    """Fixpoint of unit propagation: the reduced formula plus forced values."""

    reduced: CnfFormula
    forced: Assignment


def unit_propagate(f: CnfFormula) -> UpResult:
    """Unit propagation to fixpoint, lowest-indexed unit clause first.

    A clause whose occurrences are all one literal, like (x or x), counts as
    the unit {x}. Processing a unit records x, deletes clauses containing x,
    and strips ¬x from the rest, possibly creating the empty clause, at
    which point propagation stops (the empty clause decides everything a
    caller needs); an empty clause in the input stops it before the first
    unit. The work is linear in the formula size plus O(log m) per unit:
    the kernel in ``satkit._propagate`` keeps per-clause counts of
    unassigned literals and a heap of unit clause indices instead of
    rescanning the clause list for each unit.
    """
    from . import _propagate

    reduced, forced, _ = _propagate.propagate(f)
    return UpResult(reduced, forced)


def solve_horn(f: CnfFormula) -> SatResult:
    """Horn satisfiability by counter-based forward chaining.

    One pass over the literals checks the Horn condition and builds the
    counters together: each clause counts its body (negative) literals,
    once per occurrence, and lists itself in each body variable's
    occurrence list; its positive literal is its head, and a second,
    different positive literal raises ``ValueError`` wherever it occurs,
    even after an empty clause. Deriving a variable decrements the counters
    of the clauses it occurs in, and a clause whose counter reaches zero
    derives its head. Reaching zero on a clause with no head, or an empty
    clause in the input, means unsatisfiable. Otherwise the witness is the
    unique minimal model: the derived variables true, every other false,
    which are exactly the values :func:`unit_propagate` forces true. Each
    literal occurrence is read once and its counter decremented at most
    once, so the work is linear in the formula size.
    """
    n = f.num_vars
    # The flat list first: a header too large to hold fails here, in one
    # allocation, before n + 1 occurrence lists are built one by one.
    true = [False] * (n + 1)
    occurs: list[list[int]] = [[] for _ in range(n + 1)]
    pending: list[int] = []
    heads: list[int] = []
    queue: list[int] = []
    unsat = False
    for i, clause in enumerate(f.clauses):
        head = body = 0
        for lit in clause:
            if lit < 0:
                occurs[-lit].append(i)
                body += 1
            elif lit != head:
                if head:
                    raise ValueError("solve_horn requires a Horn formula")
                head = lit
        pending.append(body)
        heads.append(head)
        if not body:
            if head:
                queue.append(head)
            else:
                unsat = True
    if unsat:
        return SatResult(False, None)
    while queue:
        v = queue.pop()
        if true[v]:
            continue
        true[v] = True
        for i in occurs[v]:
            pending[i] -= 1
            if not pending[i]:
                head = heads[i]
                if not head:
                    return SatResult(False, None)
                queue.append(head)
    return SatResult(True, dict(zip(range(1, n + 1), true[1:])))


def solve_dnf(f: DnfFormula) -> SatResult:
    """DNF satisfiability by scanning for a contradiction-free term.

    The witness makes the first such term's literals true and every other
    variable false. A DNF with no terms is unsatisfiable (empty
    disjunction).
    """
    for term in f.terms:
        if is_tautology(term):  # a term with x and not-x is contradictory
            continue
        n = f.num_vars
        # One flat allocation, so a header too large to hold fails at once.
        witness = dict(zip(range(1, n + 1), [False] * n))
        for lit in term:
            witness[abs(lit)] = lit > 0
        return SatResult(True, witness)
    return SatResult(False, None)
