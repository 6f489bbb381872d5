"""Polynomial-time solvers for the tractable SAT fragments.

2-SAT goes through the implication graph: each clause (x ∨ y) contributes
edges ¬x→y and ¬y→x, a unit clause (x) counts as (x ∨ x) and contributes
¬x→x. Unsatisfiability is a variable sharing a strongly connected component
with its negation; otherwise variable x is assigned false exactly when
comp[x] < comp[¬x] in topological order (Aspvall–Plass–Tarjan).
:func:`solve_2sat` builds the graph as int adjacency lists over literal
indices (v at 2(v-1), ¬v at 2(v-1)+1) and runs the shared Tarjan kernel
:func:`satkit.graph.tarjan_scc`. The witness depends on DFS order, so the
roots are tried 1, ¬1, 2, ¬2, ... and each vertex's successors in string
label order: the same order :func:`strongly_connected_components` uses on
the labelled reference graph from :func:`build_implication_graph`.

Horn satisfiability is counter-based forward chaining (Dowling–Gallier):
occurrence lists from each body variable to its clauses, a per-clause count
of body literals not yet true, and a queue of derived heads, so the work is
linear in the formula size. The formula is unsatisfiable iff some clause
without a head gets its whole body true (or is empty); otherwise the
witness is the unique minimal model. :func:`unit_propagate` is the
paper-literal reference: its forced-true variables are exactly that model.
"""

from __future__ import annotations

from ._record import Record
from .formula import Assignment, CnfFormula, DnfFormula, is_horn, max_clause_width
from .graph import Digraph, tarjan_scc
from .oracle import SatResult


class ImplicationGraph(Record):
    """Digraph over the 2·num_vars literal vertices of a 2-CNF formula."""

    _fields = ("num_vars", "digraph")
    num_vars: int
    digraph: Digraph

    def label(self, lit: int) -> str:
        if lit == 0 or abs(lit) > self.num_vars:
            raise ValueError(f"literal {lit} out of range")
        return str(lit)

    def lit(self, label: str) -> int:
        return int(label)


def build_implication_graph(f: CnfFormula) -> ImplicationGraph:
    """Implication graph of a formula of width <= 2 (no empty clauses).

    The labelled reference for :func:`solve_2sat`, which builds the same
    graph over int literal indices.
    """
    if max_clause_width(f) > 2:
        raise ValueError("implication graph requires clause width <= 2")
    if any(not c for c in f.clauses):
        raise ValueError("empty clause: formula is unsatisfiable as given")
    vertices = []
    for v in range(1, f.num_vars + 1):
        vertices.append(str(v))
        vertices.append(str(-v))
    edges = set()
    for clause in f.clauses:
        x = clause[0]
        y = clause[1] if len(clause) == 2 else clause[0]
        # A tautological clause (x or not-x) would yield self-loop
        # implications, which constrain nothing; skip them.
        if x != -y:
            edges.add((str(-x), str(y)))
            edges.add((str(-y), str(x)))
    return ImplicationGraph(f.num_vars, Digraph(vertices, edges))


# _label_rank[i] orders literal index i (literal v at 2(v-1), -v at
# 2(v-1)+1) by the string label str(lit), as the labelled implication
# graph sorts successors. Relative order does not depend on how many
# variables are ranked, so one table, grown on demand and never mutated
# once published, serves every formula and every caller.
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

    _fields = ("reduced", "forced")
    reduced: CnfFormula
    forced: Assignment

    def __init__(self, reduced: CnfFormula, forced: Assignment):
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "forced", forced)


def unit_propagate(f: CnfFormula) -> UpResult:
    """Unit propagation to fixpoint, lowest-indexed unit clause first.

    A clause whose occurrences are all one literal, like (x or x), counts as
    the unit {x}. Processing a unit records x, deletes clauses containing x,
    and strips ¬x from the rest, possibly creating the empty clause, at
    which point propagation stops (the empty clause decides everything a
    caller needs).
    """
    clauses: list[tuple[int, ...]] = list(f.clauses)
    forced: Assignment = {}
    while True:
        unit = next((c for c in clauses if c and len(set(c)) == 1), None)
        if unit is None or any(not c for c in clauses):
            break
        x = unit[0]
        forced[abs(x)] = x > 0
        reduced: list[tuple[int, ...]] = []
        for clause in clauses:
            if x in clause:
                continue
            if -x in clause:
                clause = tuple(lit for lit in clause if lit != -x)
            reduced.append(clause)
        clauses = reduced
    return UpResult(CnfFormula(f.num_vars, clauses), forced)


def solve_horn(f: CnfFormula) -> SatResult:
    """Horn satisfiability by counter-based forward chaining.

    Each clause counts its body (negative) literals whose variable is not
    yet derived true; a repeated literal is counted, and listed in the
    occurrence lists, once per occurrence. Deriving a variable decrements
    the counters of the clauses it occurs in, and a clause whose counter
    reaches zero derives its head. Reaching zero on a clause with no head,
    or an empty clause in the input, means unsatisfiable. Otherwise the
    witness is the unique minimal model: the derived variables true, every
    other false, which are exactly the values :func:`unit_propagate` forces
    true.
    """
    if not is_horn(f):
        raise ValueError("solve_horn requires a Horn formula")
    n = f.num_vars
    occurs: list[list[int]] = [[] for _ in range(n + 1)]
    pending: list[int] = []
    heads: list[int] = []
    queue: list[int] = []
    for i, clause in enumerate(f.clauses):
        body = [-lit for lit in clause if lit < 0]
        head = max(max(clause, default=0), 0)
        for v in body:
            occurs[v].append(i)
        pending.append(len(body))
        heads.append(head)
        if not body:
            if not head:
                return SatResult(False, None)
            queue.append(head)
    true = [False] * (n + 1)
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
        lits = set(term)
        if any(-lit in lits for lit in lits):
            continue
        witness = {v: False for v in range(1, f.num_vars + 1)}
        for lit in term:
            witness[abs(lit)] = lit > 0
        return SatResult(True, witness)
    return SatResult(False, None)
