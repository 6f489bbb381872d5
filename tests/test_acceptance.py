"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager

from satkit.cli import run_cli
from satkit.cooklevin import encode
from satkit.formula import (
    CnfFormula,
    assignment_from_json,
    evaluate,
    max_clause_width,
    parse_dimacs,
    write_dimacs,
)
from satkit.graph import (
    find_clique,
    find_hamiltonian_cycle,
    find_k_coloring,
    iter_hamiltonian_cycles,
    to_dot,
    verify_clique,
    verify_coloring,
)
from satkit.oracle import brute_force_sat, equisatisfiable, max_sat_decide, max_sat_optimum
from satkit.reductions import (
    NonCanonicalCycleError,
    assignment_to_clique,
    clique_witness_to_assignment,
    coloring_witness_to_assignment,
    hamcycle_witness_to_assignment,
    reduce_to_3color,
    reduce_to_clique,
    reduce_to_hamcycle,
)
from satkit.tractable import solve_2sat, solve_horn
from satkit.turing import run_dtm, run_ntm
from support import (
    accepting_space_profiles,
    build_equality_checker,
    check_dot,
    machine_inputs,
    random_3cnf,
    random_cnf,
    tableau_battery,
    tableau_expected_sat,
    paper_walker_wrapped,
)

EXAMPLE_31 = "p cnf 3 4\n1 -2 0\n-1 2 0\n-1 -2 0\n1 -3 0\n"
EXAMPLE_33 = CnfFormula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])


@contextmanager
def criterion(name, budget_seconds=None):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {name}] FAIL ({time.time() - started:.1f}s)")
        raise
    elapsed = time.time() - started
    note = f" ({elapsed:.1f}s" + (f" / budget {budget_seconds}s)" if budget_seconds else ")")
    print(f"[criterion {name}] PASS{note}")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"over time budget: {elapsed:.1f}s"


def test_criterion_01_example_2sat_reproduction(tmp_path, capsys):
    with criterion("01 example 2-SAT reproduction", budget_seconds=1.0):
        cnf = tmp_path / "example31.cnf"
        cnf.write_text(EXAMPLE_31)
        witness_path = tmp_path / "witness.json"
        code = run_cli(["solve", "--method", "2sat", "--witness", str(witness_path), str(cnf)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "SAT\n"
        assert assignment_from_json(witness_path.read_text()) == {
            1: False, 2: False, 3: False,
        }


def _two_cnf_clause_types(num_vars):
    lits = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    return [(l,) for l in lits] + [tuple(c) for c in itertools.combinations(lits, 2)]


def test_criterion_02_two_sat_oracle_equivalence():
    with criterion("02 2-SAT oracle equivalence", budget_seconds=60.0):
        checked = 0
        types3 = _two_cnf_clause_types(3)
        for k in range(7):
            for clauses in itertools.combinations(types3, k):
                f = CnfFormula(3, clauses)
                mine = solve_2sat(f)
                assert mine.satisfiable == brute_force_sat(f).satisfiable, clauses
                if mine.satisfiable:
                    assert evaluate(f, mine.witness) is True, clauses
                checked += 1
        exhaustive = checked

        rng = random.Random(202)
        types4 = _two_cnf_clause_types(4)
        for _ in range(100_000):
            f = CnfFormula(4, rng.sample(types4, rng.randint(0, 6)))
            mine = solve_2sat(f)
            assert mine.satisfiable == brute_force_sat(f).satisfiable, f.clauses
            if mine.satisfiable:
                assert evaluate(f, mine.witness) is True, f.clauses
            checked += 1
        assert exhaustive >= 82_160 and checked >= 100_000 + exhaustive
        print(f"  2-SAT: {checked} formulas, 0 mismatches", end=" ")


def _horn_clause_types(num_vars, max_width):
    lits = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    out = []
    for width in range(1, max_width + 1):
        for combo in itertools.combinations(lits, width):
            if len([l for l in combo if l > 0]) <= 1:
                out.append(combo)
    return out


def test_criterion_03_horn_matches_oracle():
    with criterion("03 Horn criterion vs oracle"):
        checked = 0
        for clauses_count in range(6):
            for clauses in itertools.combinations(_horn_clause_types(4, 2), clauses_count):
                f = CnfFormula(4, clauses)
                mine = solve_horn(f)
                assert mine.satisfiable == brute_force_sat(f).satisfiable, clauses
                if mine.satisfiable:
                    assert evaluate(f, mine.witness) is True, clauses
                checked += 1
        exhaustive = checked

        rng = random.Random(303)
        wide = _horn_clause_types(4, 3)
        for _ in range(10_000):
            f = CnfFormula(4, [rng.choice(wide) for _ in range(rng.randint(1, 5))])
            mine = solve_horn(f)
            assert mine.satisfiable == brute_force_sat(f).satisfiable, f.clauses
            if mine.satisfiable:
                assert evaluate(f, mine.witness) is True, f.clauses
            checked += 1
        print(f"  Horn: {checked} formulas ({exhaustive} exhaustive), 0 mismatches", end=" ")


def test_criterion_04_to_3cnf_equisatisfiable():
    from satkit.threecnf import to_3cnf

    with criterion("04 to_3cnf equisatisfiability"):
        rng = random.Random(404)
        for _ in range(10_000):
            f = random_cnf(rng, 4, rng.randint(1, 3), 5)
            r = to_3cnf(f)
            assert max_clause_width(r.formula) <= 3
            expected = sum({1: 4, 2: 2, 3: 1}.get(len(c), len(c) - 2) for c in f.clauses)
            assert len(r.formula.clauses) == expected
            assert equisatisfiable(f, r.formula), f.clauses


def test_criterion_05_max_sat_example():
    with criterion("05 MAX-SAT worked example"):
        best, _ = max_sat_optimum(EXAMPLE_33)
        assert best == 3
        assert not max_sat_decide(EXAMPLE_33, 4)
        assert max_sat_decide(EXAMPLE_33, 3)


def _curated_3cnf_corner_cases():
    return [
        CnfFormula(1, [(1, 1, 1)]),
        CnfFormula(1, [(-1, -1, -1)]),
        CnfFormula(1, [(1, 1, 1), (-1, -1, -1)]),
        CnfFormula(2, [(1, -1, 2)]),  # tautological clause
        CnfFormula(4, [(1, 2, 3), (-1, -2, -3), (4, 4, 4), (-4, 1, 2)]),
        CnfFormula(2, [(1, 2, 2), (-1, -2, -2), (1, -2, -2), (-1, 2, 2)]),  # unsat
    ]


def test_criterion_06_clique_reduction_iff():
    with criterion("06 CLIQUE reduction iff"):
        rng = random.Random(606)
        cases = _curated_3cnf_corner_cases() + [
            random_3cnf(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(1000)
        ]
        for f in cases:
            inst = reduce_to_clique(f)
            assert len(inst.graph.vertices) == 3 * inst.k
            truth = brute_force_sat(f)
            found = find_clique(inst.graph, inst.k)
            assert (found is not None) == truth.satisfiable, f.clauses
            if truth.satisfiable:
                back = clique_witness_to_assignment(inst, found)
                assert evaluate(f, back) is True, f.clauses
                forward = assignment_to_clique(inst, truth.witness)
                assert verify_clique(inst.graph, forward, inst.k), f.clauses


def _small_corner_cases():
    return [
        f for f in _curated_3cnf_corner_cases()
        if f.num_vars <= 3 and len(f.clauses) <= 2
    ]


def test_criterion_07_three_color_reduction_iff():
    with criterion("07 3-COLOR reduction iff"):
        rng = random.Random(707)
        cases = _small_corner_cases() + [
            random_3cnf(rng, rng.randint(1, 3), rng.randint(1, 2)) for _ in range(300)
        ]
        for f in cases:
            inst = reduce_to_3color(f)
            n, k = f.num_vars, len(f.clauses)
            assert len(inst.graph.vertices) == 2 * n + 3 + 6 * k
            sat = brute_force_sat(f).satisfiable
            coloring = find_k_coloring(inst.graph, 3)
            assert (coloring is not None) == sat, f.clauses
            if coloring is not None:
                a = coloring_witness_to_assignment(inst, coloring)
                assert evaluate(f, a) is True, f.clauses
                assert verify_coloring(inst.graph, coloring, 3)


def test_criterion_08_ham_cycle_soundness_audit_and_strict_iff():
    with criterion("08 HAM-CYCLE soundness + audit + strict iff"):
        rng = random.Random(808)
        cases = _small_corner_cases() + [
            random_3cnf(rng, rng.randint(1, 3), rng.randint(1, 2)) for _ in range(100)
        ]
        audit_failures = 0
        for f in cases:
            n, k = f.num_vars, len(f.clauses)
            inst = reduce_to_hamcycle(f)
            assert len(inst.graph.vertices) == 2 * n * k + k + 2
            sat = brute_force_sat(f).satisfiable
            if sat:  # soundness: a satisfiable formula always yields a cycle
                assert find_hamiltonian_cycle(inst.graph) is not None, f.clauses
            # completeness audit on the faithful construction
            for cycle in iter_hamiltonian_cycles(inst.graph):
                try:
                    a = hamcycle_witness_to_assignment(inst, cycle)
                except NonCanonicalCycleError:
                    audit_failures += 1
                    break
                if evaluate(f, a) is not True:
                    audit_failures += 1
                    break
        print(
            f"  audit outcome: {audit_failures}/{len(cases)} instances have cycles "
            f"that do not certify satisfiability -> strict mode engaged",
            end=" ",
        )
        assert audit_failures > 0  # the separator-free wiring is incomplete

        # strict mode must then deliver the full iff and clean translation
        for f in cases:
            inst = reduce_to_hamcycle(f, strict=True)
            sat = brute_force_sat(f).satisfiable
            found = False
            for cycle in iter_hamiltonian_cycles(inst.graph):
                found = True
                a = hamcycle_witness_to_assignment(inst, cycle)
                assert evaluate(f, a) is True, f.clauses
            assert found == sat, f.clauses


def test_criterion_09_turing_machines():
    with criterion("09 Turing machine battery"):
        m = build_equality_checker()
        alphabet = "01#"
        checked = 0
        for length in range(8):
            for combo in itertools.product(alphabet, repeat=length):
                w = "".join(combo)
                parts = w.split("#")
                expected = len(parts) == 2 and parts[0] == parts[1]
                got = run_dtm(m, w, 2000)
                assert got.verdict in ("accept", "reject")
                assert (got.verdict == "accept") == expected, w
                checked += 1
        assert checked == sum(3**i for i in range(8))

        assert run_dtm(m, "101#101", 2000).verdict == "accept"
        assert run_dtm(m, "101#100", 2000).verdict == "reject"
        assert run_dtm(m, "101101", 2000).verdict == "reject"

        # deterministic machines: the nondeterministic simulator agrees
        for w in ["", "#", "1#1", "0#1", "01#01"]:
            d = run_dtm(m, w, 300)
            nd, _ = run_ntm(m, w, d.steps_used + 1)
            assert (nd.verdict, nd.steps_used) == (d.verdict, d.steps_used), w
        for machine in tableau_battery():
            if not machine.is_deterministic():
                continue
            for w in machine_inputs(machine, 2):
                d = run_dtm(machine, w, 8)
                nd, _ = run_ntm(machine, w, 8)
                assert (nd.verdict, nd.steps_used) == (d.verdict, d.steps_used), w
        print(f"  equality checker exhaustive over {checked} inputs", end=" ")


def test_criterion_10_cook_levin_end_to_end():
    with criterion("10 Cook-Levin end-to-end", budget_seconds=300.0):
        battery = tableau_battery()
        assert len(battery) >= 5
        assert any(not m.is_deterministic() for m in battery)
        assert any(m.is_deterministic() for m in battery)
        # the invert/preserve walker delta rides along, wrapped in an acceptor
        assert paper_walker_wrapped().delta[("q3", "a")] == (
            ("q1", "a", "R"), ("q3", "b", "L"),
        )

        combos = space_limited = 0
        for m in battery:
            for w in machine_inputs(m, 2):
                for p in (len(w) + 3, len(w) + 4):
                    formula, spec = encode(m, w, p)
                    symbols = len(m.states) + len(m.tape_alphabet) + 1
                    assert formula.num_vars == p * p * symbols
                    sat = brute_force_sat(formula, max_vars=formula.num_vars).satisfiable

                    profiles = accepting_space_profiles(m, w, p - 1)
                    accepts = run_ntm(m, w, p - 1)[0].verdict == "accept"
                    assert accepts == bool(profiles), (m.q0, w, p)

                    # exact ground truth: acceptance within p-1 steps AND
                    # within the tableau's p-3 tape cells
                    expected = tableau_expected_sat(profiles, p)
                    assert sat == expected, (m.q0, w, p)

                    if accepts == expected:
                        # the criterion's literal comparison applies here
                        assert sat == accepts, (m.q0, w, p)
                        combos += 1
                    else:
                        # accepting run needs more tape than the tableau has;
                        # p must exceed the machine's space use (documented)
                        space_limited += 1
        assert combos >= 30
        print(
            f"  {combos} machine/input/p combos matched run_ntm; "
            f"{space_limited} space-limited combos checked against the "
            f"space-bounded oracle instead",
            end=" ",
        )


def test_criterion_11_formats_and_cli_contract(tmp_path, capsys):
    with criterion("11 formats and CLI contract"):
        rng = random.Random(111)
        for _ in range(1000):
            f = random_cnf(rng, rng.randint(1, 8), rng.randint(0, 10), 5)
            assert parse_dimacs(write_dimacs(f)) == f

        for f in [random_3cnf(rng, 3, 2) for _ in range(20)]:
            for inst, directed in (
                (reduce_to_clique(f), False),
                (reduce_to_hamcycle(f), True),
                (reduce_to_3color(f), False),
            ):
                check_dot(to_dot(inst.graph, inst.dot_styling()), directed=directed)

        sat_file = tmp_path / "sat.cnf"
        sat_file.write_text(EXAMPLE_31)
        unsat_file = tmp_path / "unsat.cnf"
        unsat_file.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        bogus_file = tmp_path / "bogus.cnf"
        bogus_file.write_text("p cnf\n")
        wide_file = tmp_path / "wide.cnf"
        wide_file.write_text("p cnf 3 1\n1 2 3 0\n")

        matrix = [
            (["solve", str(sat_file)], 0, "SAT"),
            (["solve", str(unsat_file)], 1, "UNSAT"),
            (["solve", str(bogus_file)], 2, None),
            (["solve", "--method", "2sat", str(sat_file)], 0, "SAT"),
            (["maxsat", "--k", "3", str(unsat_file)], 0, "YES"),
            (["maxsat", "--k", "4", str(unsat_file)], 1, "NO"),
            (["maxsat", "--k", "0", str(unsat_file)], 0, "YES"),
            (["nonsense"], 2, None),
            (["to3cnf", str(wide_file)], 0, None),
        ]
        for argv, expected_code, expected_out in matrix:
            code = run_cli(argv)
            out = capsys.readouterr().out
            assert code == expected_code, argv
            if expected_out is not None:
                assert out.splitlines()[0] == expected_out, argv

        import os

        os.environ["SATKIT_BUDGET_VARS"] = "2"
        try:
            assert run_cli(["solve", "--method", "brute", str(wide_file)]) == 3
        finally:
            del os.environ["SATKIT_BUDGET_VARS"]
        capsys.readouterr()
