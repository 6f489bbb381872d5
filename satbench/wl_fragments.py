"""``fragments``: the tractable fragments and 3-CNF rewriting at scale.

Each op is one generated instance: ``CnfFormula``, ``write_dimacs``,
``parse_dimacs``, then the solver (``solve_2sat``, ``solve_horn`` or
``to_3cnf``) and a witness check. Every instance's answer is known by
construction, so no exhaustive search is involved.
"""

from __future__ import annotations

import random

from satkit import CnfFormula, parse_dimacs, solve_2sat, solve_horn, to_3cnf, write_dimacs

import reference as ref
from harness import Op, add, expect

TWO_SAT_SIZES = (1024, 4096, 16384, 65536)
HORN_SIZES = (1024, 2048, 4096)
THREE_CNF_SIZES = (1024, 4096, 16384, 65536)
SMALL_SIZES = (64, 256)


def _planted_clause(rng, model, n, width):
    """``width`` distinct variables with random signs, one sign flipped if
    needed so that the clause holds under ``model``."""
    lits = []
    while len(lits) < width:
        v = int(rng.random() * n) + 1
        if v not in lits and -v not in lits:
            lits.append(v if rng.random() < 0.5 else -v)
    for lit in lits:
        if model[abs(lit)] == (lit > 0):
            return tuple(lits)
    lits[0] = -lits[0]
    return tuple(lits)


def two_sat(rng, n: int, sat: bool):
    """m = 2n two-literal clauses; SAT ones satisfy a hidden model, UNSAT
    ones contain the implication cycle x -> ... -> -x -> ... -> x."""
    model = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    clauses = []
    if not sat:
        length = max(2, n // 64)
        cycle = rng.sample(range(1, n + 1), 2 * length - 1)
        x, up, down = cycle[0], cycle[1:length], cycle[length:]
        chain = [x] + up
        clauses += [(-a, b) for a, b in zip(chain, chain[1:])] + [(-chain[-1], -x)]
        clauses += [(x, down[0])] + [(-a, b) for a, b in zip(down, down[1:])] + [(-down[-1], x)]
    cycle_clauses, clauses = clauses, []
    rand = rng.random
    while len(clauses) < 2 * n - len(cycle_clauses):
        a, b = int(rand() * n) + 1, int(rand() * n) + 1
        if a == b:
            continue
        la, lb = (a if rand() < 0.5 else -a), (b if rand() < 0.5 else -b)
        if model[a] != (la > 0) and model[b] != (lb > 0):
            la = -la
        clauses.append((la, lb))
    for clause in cycle_clauses:
        clauses.insert(rng.randrange(len(clauses) + 1), clause)
    return clauses


def horn_chain(rng, n: int, sat: bool):
    """(x1), (-x1 v x2), ..., (-x_{n-1} v x_n), plus (-x_n) when UNSAT;
    unit propagation must walk the whole chain."""
    xs = list(range(1, n + 1))
    rng.shuffle(xs)
    clauses = [(xs[0],)] + [(-a, b) for a, b in zip(xs, xs[1:])]
    if not sat:
        clauses.append((-xs[-1],))
    return clauses


def horn_random(rng, n: int, sat: bool):
    """n Horn clauses with a planted model: a random half of the variables
    is derived from a few units through definite clauses, the other
    clauses hold under the model. UNSAT adds (-a v -b) over the last two
    derived variables, which every model must make true."""
    derived = rng.sample(range(1, n + 1), n // 2)
    model = {v: False for v in range(1, n + 1)}
    for v in derived:
        model[v] = True
    roots = max(1, len(derived) // 32)
    clauses = [(v,) for v in derived[:roots]]
    for i in range(roots, len(derived)):
        body = rng.sample(derived[:i], min(i, rng.randint(1, 2)))
        clauses.append(tuple(-b for b in body) + (derived[i],))
    false_vars = [v for v in range(1, n + 1) if not model[v]]
    noise = []
    while len(clauses) + len(noise) < n:
        # A false body variable keeps the clause true under the model.
        body = set([rng.choice(false_vars)] + rng.sample(range(1, n + 1), rng.randint(0, 1)))
        head = rng.randint(1, n)
        tail = (head,) if rng.random() < 0.5 and head not in body else ()
        noise.append(tuple(-b for b in sorted(body)) + tail)
    for clause in noise:
        clauses.insert(rng.randrange(roots, len(clauses) + 1), clause)
    if not sat:
        clauses.append((-derived[-1], -derived[-2]))
    return clauses


def mixed_width(rng, n: int):
    """n clauses of width 1-8 satisfied by a hidden model."""
    model = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    return [_planted_clause(rng, model, n, rng.randint(1, 8)) for _ in range(n)], model


def _roundtrip(tr, n, clauses, tag):
    f = tr.call("formula.CnfFormula", CnfFormula, n, clauses, tag=tag)
    text = tr.call("formula.write_dimacs", write_dimacs, f, tag=tag)
    return text, tr.call("formula.parse_dimacs", parse_dimacs, text, tag=tag)


def _check_roundtrip(counts, n, clauses, text, g):
    expect(g.num_vars == n and list(g.clauses) == clauses, "DIMACS round trip")
    add(counts, "formula.parse_dimacs.bytes", len(text))


def solver_op(kind: str, n: int, clauses, sat: bool) -> Op:
    solver_name, solver = {
        "2sat": ("tractable.solve_2sat", solve_2sat),
        "horn": ("tractable.solve_horn", solve_horn),
    }[kind.split(".")[0]]
    tag = f"n{n}"

    def run(tr):
        text, g = _roundtrip(tr, n, clauses, tag)
        return text, g, tr.call(solver_name, solver, g, tag=tag)

    def check(out, counts):
        text, g, result = out
        _check_roundtrip(counts, n, clauses, text, g)
        expect(result.satisfiable == sat, f"verdict {result.satisfiable}")
        if sat:
            expect(ref.satisfies(n, clauses, result.witness), "witness falsifies a clause")
            return [kind, n, True, sorted(v for v, val in result.witness.items() if val)]
        return [kind, n, False]

    return Op(f"{kind}.{tag}", run, check)


def three_cnf_op(n: int, clauses, model) -> Op:
    tag = f"n{n}"

    def run(tr):
        text, g = _roundtrip(tr, n, clauses, tag)
        return text, g, tr.call("threecnf.to_3cnf", to_3cnf, g, tag=tag)

    def check(out, counts):
        text, g, result = out
        _check_roundtrip(counts, n, clauses, text, g)
        out_clauses = result.formula.clauses
        expect(len(out_clauses) == ref.three_cnf_clause_count(clauses), "3-CNF clause count")
        expect(all(len(c) <= 3 for c in out_clauses), "3-CNF width")
        extended = ref.three_cnf_extension(clauses, result.fresh_vars, model)
        expect(
            ref.satisfies(result.formula.num_vars, out_clauses, extended),
            "extended model falsifies the 3-CNF",
        )
        add(counts, "threecnf.to_3cnf.clauses_out", len(out_clauses))
        return ["3cnf", n, result.formula.num_vars, len(out_clauses)]

    return Op(f"3cnf.{tag}", run, check)


def sweep_ops(seed: int, two_sat_sizes, horn_sizes) -> list[Op]:
    """One planted-SAT 2-SAT instance and one SAT Horn chain per size."""
    rng = random.Random(seed)
    ops = [solver_op("2sat.sat", n, two_sat(rng, n, True), True) for n in two_sat_sizes]
    ops += [solver_op("horn.chain.sat", n, horn_chain(rng, n, True), True) for n in horn_sizes]
    return ops


def build(seed: int, small: bool, workdir) -> tuple[list[Op], list[Op]]:
    rng = random.Random(seed)
    two_sizes = SMALL_SIZES if small else TWO_SAT_SIZES
    horn_sizes = SMALL_SIZES if small else HORN_SIZES
    three_sizes = SMALL_SIZES if small else THREE_CNF_SIZES
    ops = []
    for n in two_sizes:
        for sat in (True, False):
            ops.append(solver_op(f"2sat.{'sat' if sat else 'unsat'}", n, two_sat(rng, n, sat), sat))
    for n in horn_sizes:
        for shape, gen in (("chain", horn_chain), ("random", horn_random)):
            for sat in (True, False):
                kind = f"horn.{shape}.{'sat' if sat else 'unsat'}"
                ops.append(solver_op(kind, n, gen(rng, n, sat), sat))
    for n in three_sizes:
        clauses, model = mixed_width(rng, n)
        ops.append(three_cnf_op(n, clauses, model))
    rng.shuffle(ops)
    return ops, sweep_ops(seed, (SMALL_SIZES[0],), (SMALL_SIZES[0],))
