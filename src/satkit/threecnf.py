"""Equisatisfiable CNF to 3-CNF transformation with a fresh-variable ledger.

Each clause is rewritten by width:

* 1 literal a: four clauses (a ∨ z1 ∨ z2), (a ∨ ¬z1 ∨ z2), (a ∨ z1 ∨ ¬z2),
  (a ∨ ¬z1 ∨ ¬z2) over two fresh variables.
* 2 literals: (a1 ∨ a2 ∨ z), (a1 ∨ a2 ∨ ¬z) over one fresh variable.
* 3 literals: copied unchanged.
* m > 3 literals: the chain (a1 ∨ a2 ∨ z1), (¬z1 ∨ a3 ∨ z2), ...,
  (¬z_{m-3} ∨ a_{m-1} ∨ a_m), giving m-2 clauses over m-3 fresh variables.

Fresh variables are allocated in clause order, left to right within each
chain, strictly above the original variable space.
"""

from __future__ import annotations

from ._record import Record
from .formula import Assignment, CnfFormula, evaluate


class ThreeCnfResult(Record):
    formula: CnfFormula
    fresh_vars: tuple[tuple[int, ...], ...]  # per original clause index
    original_num_vars: int

    def __init__(self, formula: CnfFormula, fresh_vars: tuple[tuple[int, ...], ...],
                 original_num_vars: int):
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "fresh_vars", fresh_vars)
        object.__setattr__(self, "original_num_vars", original_num_vars)


def to_3cnf(f: CnfFormula) -> ThreeCnfResult:
    """Rewrite ``f`` into an equisatisfiable formula of clause width <= 3."""
    if any(not c for c in f.clauses):
        raise ValueError("empty clause: input unsatisfiable as given")
    next_var = f.num_vars + 1
    out: list[tuple[int, ...]] = []
    fresh: list[tuple[int, ...]] = []
    for clause in f.clauses:
        m = len(clause)
        if m == 1:
            a = clause[0]
            z1, z2 = next_var, next_var + 1
            next_var += 2
            out += [(a, z1, z2), (a, -z1, z2), (a, z1, -z2), (a, -z1, -z2)]
            fresh.append((z1, z2))
        elif m == 2:
            a1, a2 = clause
            z = next_var
            next_var += 1
            out += [(a1, a2, z), (a1, a2, -z)]
            fresh.append((z,))
        elif m == 3:
            out.append(clause)
            fresh.append(())
        else:
            zs = tuple(range(next_var, next_var + m - 3))
            next_var += m - 3
            out.append((clause[0], clause[1], zs[0]))
            for i in range(m - 4):
                out.append((-zs[i], clause[i + 2], zs[i + 1]))
            out.append((-zs[-1], clause[m - 2], clause[m - 1]))
            fresh.append(zs)
    # Every literal is one of f's, already checked, or a fresh variable below next_var.
    return ThreeCnfResult(CnfFormula._trusted(next_var - 1, tuple(out)), tuple(fresh), f.num_vars)


def project_witness(r: ThreeCnfResult, a3: Assignment) -> Assignment:
    """Restrict a model of the 3-CNF output to the original variables."""
    if evaluate(r.formula, a3) is not True:
        raise ValueError("assignment does not satisfy the transformed formula")
    return {v: a3[v] for v in range(1, r.original_num_vars + 1) if v in a3}
