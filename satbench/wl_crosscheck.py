"""``crosscheck``: a seeded stream of desk-scale instances through every
fast path and the brute-force oracle, as in acceptance criteria 02-09.

Each op is one tiny instance. The fast path and ``brute_force_sat`` must
agree with each other and with the benchmark's own exhaustive search, and
every witness must pass the benchmark's own checks.
"""

from __future__ import annotations

import random

from satkit import (
    CnfFormula,
    brute_force_sat,
    clique_witness_to_assignment,
    coloring_witness_to_assignment,
    equisatisfiable,
    find_clique,
    find_hamiltonian_cycle,
    find_k_coloring,
    hamcycle_witness_to_assignment,
    max_sat_optimum,
    parse_machine,
    reduce_to_3color,
    reduce_to_clique,
    reduce_to_hamcycle,
    run_dtm,
    run_ntm,
    solve_2sat,
    solve_horn,
    to_3cnf,
)

import reference as ref
from harness import MACHINES, Op, add, expect

# Ops per pass for each kind, chosen so that each kind takes a similar share
# of a pass; the small mode runs one of each.
MIX = {
    "2sat": 1500,
    "horn": 2000,
    "3cnf": 1500,
    "maxsat": 2,
    "clique": 500,
    "3color": 400,
    "hamcycle": 300,
    "dtm": 1500,
    "ntm": 40,
}


def _random_clause(rng, n, width):
    return tuple(rng.choice((v, -v)) for v in (rng.randint(1, n) for _ in range(width)))


def _horn_clause(rng, n):
    vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
    head = rng.randrange(len(vs) + 1)  # == len(vs): no positive literal
    return tuple(v if i == head else -v for i, v in enumerate(vs))


def _witness_ok(n, clauses, result, expected):
    expect(result.satisfiable == expected, f"verdict {result.satisfiable}")
    if expected:
        expect(ref.satisfies(n, clauses, result.witness), "witness falsifies a clause")
        return [v for v in range(1, n + 1) if result.witness[v]]
    return None


def _fast_path_op(kind, solver_name, solver, n, clauses):
    expected = ref.exhaustive_sat(n, clauses)

    def run(tr):
        f = tr.call("formula.CnfFormula", CnfFormula, n, clauses)
        fast = tr.call(solver_name, solver, f)
        return fast, tr.call("oracle.brute_force_sat", brute_force_sat, f)

    def check(out, counts):
        fast, brute = out
        add(counts, "oracle.brute_force_sat.clauses_in", len(clauses))
        return [kind, _witness_ok(n, clauses, fast, expected), _witness_ok(n, clauses, brute, expected)]

    return Op(kind, run, check)


def _three_cnf_op(n, clauses):
    model = ref.first_model(n, clauses)

    def run(tr):
        f = tr.call("formula.CnfFormula", CnfFormula, n, clauses)
        r = tr.call("threecnf.to_3cnf", to_3cnf, f)
        return r, tr.call("oracle.equisatisfiable", equisatisfiable, f, r.formula)

    def check(out, counts):
        r, same = out
        out_clauses = r.formula.clauses
        expect(same is True, "equisatisfiable")
        expect(all(len(c) <= 3 for c in out_clauses), "3-CNF width")
        expect(len(out_clauses) == ref.three_cnf_clause_count(clauses), "3-CNF clause count")
        if model is not None:
            extended = ref.three_cnf_extension(clauses, r.fresh_vars, model)
            expect(ref.satisfies(r.formula.num_vars, out_clauses, extended), "extension")
        expect(ref.exhaustive_sat(r.formula.num_vars, out_clauses) == (model is not None), "3-CNF verdict")
        add(counts, "threecnf.to_3cnf.clauses_out", len(out_clauses))
        return ["3cnf", r.formula.num_vars, len(out_clauses), model is not None]

    return Op("3cnf", run, check)


def _maxsat_op(n, clauses):
    optimum = ref.max_satisfied(n, clauses)

    def run(tr):
        f = tr.call("formula.CnfFormula", CnfFormula, n, clauses)
        return tr.call("oracle.max_sat_optimum", max_sat_optimum, f)

    def check(out, counts):
        best, witness = out
        expect(best == optimum, f"optimum {best} != {optimum}")
        expect(ref.count_satisfied(clauses, witness) == best, "witness count")
        return ["maxsat", best, [v for v in range(1, n + 1) if witness[v]]]

    return Op("maxsat", run, check)


def _graph_op(kind, n, clauses):
    expected = ref.exhaustive_sat(n, clauses)
    reduce_name, reduce, find_name, find, translate = {
        "clique": ("reductions.reduce_to_clique", reduce_to_clique, "graph.find_clique",
                   lambda inst: find_clique(inst.graph, inst.k), clique_witness_to_assignment),
        "3color": ("reductions.reduce_to_3color", reduce_to_3color, "graph.find_k_coloring",
                   lambda inst: find_k_coloring(inst.graph, 3), coloring_witness_to_assignment),
        "hamcycle": ("reductions.reduce_to_hamcycle",
                     lambda f: reduce_to_hamcycle(f, strict=True),
                     "graph.find_hamiltonian_cycle",
                     lambda inst: find_hamiltonian_cycle(inst.graph),
                     hamcycle_witness_to_assignment),
    }[kind]

    def run(tr):
        f = tr.call("formula.CnfFormula", CnfFormula, n, clauses)
        inst = tr.call(reduce_name, reduce, f)
        found = tr.call(find_name, find, inst)
        back = None
        if found is not None:
            back = tr.call("reductions.witness_to_assignment", translate, inst, found)
        return inst, found, back

    def check(out, counts):
        inst, found, back = out
        g = inst.graph
        add(counts, f"{reduce_name}.vertices", len(g.vertices))
        add(counts, f"{reduce_name}.edges", len(g.edges))
        expect((found is not None) == expected, f"verdict {found is not None}")
        if found is None:
            return [kind, len(g.vertices), len(g.edges), None]
        if kind == "clique":
            expect(ref.is_clique(g.edges, found, inst.k), "clique witness")
            shown = sorted(found)
        elif kind == "3color":
            expect(ref.is_proper_coloring(g.vertices, g.edges, found, 3), "coloring witness")
            shown = sorted(found.items())
        else:
            expect(ref.is_hamiltonian_cycle(g.vertices, g.edges, found), "cycle witness")
            shown = found
        expect(ref.satisfies(n, clauses, back), "translated assignment")
        return [kind, len(g.vertices), len(g.edges), shown]

    return Op(kind, run, check)


def _dtm_op(machine, local, word):
    expected = ref.run_deterministic(local, word, 2000)

    def run(tr):
        return tr.call("turing.run_dtm", run_dtm, machine, word, 2000)

    def check(out, counts):
        expect((out.verdict, out.steps_used) == expected, f"{out.verdict}/{out.steps_used}")
        add(counts, "turing.run_dtm.steps", out.steps_used)
        return ["dtm", word, out.verdict, out.steps_used]

    return Op("dtm", run, check)


def _ntm_op(machine, local, word, depth):
    expected = ref.ntm_verdict(local, word, depth)

    def run(tr):
        return tr.call("turing.run_ntm", run_ntm, machine, word, depth)

    def check(out, counts):
        outcome, choices = out
        expect(outcome.verdict == expected, f"verdict {outcome.verdict}")
        if expected == "accept":
            expect(ref.replay_accepts(local, word, choices), "choice string")
        add(counts, "turing.run_ntm.steps", outcome.steps_used)
        return ["ntm", word, depth, outcome.verdict, choices]

    return Op("ntm", run, check)


def _load(name):
    text = (MACHINES / f"{name}.tm").read_text(encoding="utf-8")
    return parse_machine(text), ref.Machine(text)


def _equality_word(rng):
    left = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
    kind = rng.randrange(3)
    if kind == 0:
        return f"{left}#{left}"
    if kind == 1:
        right = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        return f"{left}#{right}"
    return "".join(rng.choice("01#") for _ in range(rng.randint(0, 7)))


def _make(kind: str, i: int, rng, machines) -> Op:
    """The i-th op of ``kind``, drawn from ``rng``."""
    if kind == "2sat":
        n = rng.randint(1, 4)
        count = rng.randint(0, 6)
        clauses = [_random_clause(rng, n, rng.randint(1, 2)) for _ in range(count)]
        return _fast_path_op("2sat", "tractable.solve_2sat", solve_2sat, n, clauses)
    if kind == "horn":
        clauses = [_horn_clause(rng, 4) for _ in range(rng.randint(1, 5))]
        return _fast_path_op("horn", "tractable.solve_horn", solve_horn, 4, clauses)
    if kind == "3cnf":
        count = rng.randint(1, 3)
        return _three_cnf_op(4, [_random_clause(rng, 4, rng.randint(1, 5)) for _ in range(count)])
    if kind == "maxsat":
        n = 10 + i % 3
        return _maxsat_op(n, [_random_clause(rng, n, rng.randint(2, 3)) for _ in range(5 * n)])
    if kind in ("clique", "3color", "hamcycle"):
        # Graph searches are exponential: the clique search takes up to
        # 4 variables and 4 clauses, the others 3 and 2.
        n = rng.randint(1, 4 if kind == "clique" else 3)
        count = rng.randint(1, 4 if kind == "clique" else 2)
        return _graph_op(kind, n, [_random_clause(rng, n, 3) for _ in range(count)])
    if kind == "dtm":
        return _dtm_op(*machines["equality"], _equality_word(rng))
    machine, local = machines["branching" if i % 2 == 0 else "walker"]
    word = ("1" if i % 2 == 0 else "a") * rng.randint(3, 5)
    return _ntm_op(machine, local, word, 9)


def build(seed: int, small: bool, workdir) -> tuple[list[Op], list[Op]]:
    rng = random.Random(seed)
    machines = {name: _load(name) for name in ("equality", "branching", "walker")}
    ops = [
        _make(kind, i, rng, machines)
        for kind, count in MIX.items()
        for i in range(1 if small else count)
    ]
    rng.shuffle(ops)
    warmup = [_make(kind, 0, rng, machines) for kind in MIX if kind != "maxsat"]
    return ops, warmup
