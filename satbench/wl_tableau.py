"""``tableau``: the Cook-Levin pipeline on the tableau battery machines.

Each op is one (machine, input, p) instance: ``legal_windows``, ``encode``,
``brute_force_sat`` and, on SAT, ``decode_tableau``. Verdicts are checked
against the benchmark's own space-bounded search, witnesses with its own
clause evaluator and tableau-row checker.
"""

from __future__ import annotations

import random

from satkit import brute_force_sat, decode_tableau, encode, legal_windows, parse_machine

import reference as ref
from harness import MACHINES, Op, add, expect

# A fixed stratified set from the battery pool (inputs of length <= 2,
# p in {|w|+3, |w|+4}): every machine, SAT and UNSAT verdicts, and one
# walker instance (|universe| = 9) at p = 5, which encodes to 6.37M clauses.
# Costs across the pool differ by two orders of magnitude, so the seed
# orders the set instead of drawing from it. Seven of the nine instances
# cost within 1.3x of each other, so the median op is one of them whatever
# the order.
FULL = [
    ("branching", "1", 4),
    ("one_step", "11", 5),
    ("branching", "11", 5),
    ("right_drifter", "1", 4),
    ("one_step", "1", 5),
    ("right_drifter", "", 4),
    ("prefix_11", "", 3),
    ("edge_bouncer", "1", 4),
    ("walker", "a", 5),
]
SMALL = [("one_step", "1", 4), ("right_drifter", "", 3)]


def _op(name: str, word: str, p: int) -> Op:
    text = (MACHINES / f"{name}.tm").read_text(encoding="utf-8")
    machine = parse_machine(text)
    local = ref.Machine(text)
    expected = ref.tableau_expected_sat(local, word, p)

    def run(tr):
        windows = tr.call("cooklevin.legal_windows", legal_windows, machine)
        formula, spec = tr.call("cooklevin.encode", encode, machine, word, p)
        result = tr.call(
            "oracle.brute_force_sat", brute_force_sat, formula, max_vars=formula.num_vars
        )
        rows = None
        if result.satisfiable:
            rows = tr.call("cooklevin.decode_tableau", decode_tableau, spec, result.witness)
        return len(windows), formula, result, rows

    def check(out, counts):
        windows, formula, result, rows = out
        clauses = formula.clauses
        expect(formula.num_vars == p * p * local.universe, "variable count")
        expect(result.satisfiable == expected, f"verdict {result.satisfiable}")
        add(counts, "cooklevin.legal_windows.count", windows)
        add(counts, "cooklevin.encode.clauses", len(clauses))
        add(counts, "cooklevin.encode.literals", sum(map(len, clauses)))
        add(counts, "oracle.brute_force_sat.clauses_in", len(clauses))
        if not result.satisfiable:
            return [name, word, p, False, len(clauses)]
        witness = result.witness
        expect(ref.satisfies(formula.num_vars, clauses, witness), "witness falsifies a clause")
        expect(ref.tableau_witness_cells_ok(local.universe, p, witness), "cell not one-hot")
        expect(ref.tableau_is_accepting_run(local, word, p, rows), "decoded rows")
        return [name, word, p, True, len(clauses), ["".join(r) for r in rows]]

    return Op(f"tableau.{name}", run, check)


def build(seed: int, small: bool, workdir) -> tuple[list[Op], list[Op]]:
    instances = list(SMALL if small else FULL)
    random.Random(seed).shuffle(instances)
    warmup = [_op("one_step", "", 3)]
    return [_op(*inst) for inst in instances], warmup
