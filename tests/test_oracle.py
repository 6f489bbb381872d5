import random

import pytest
from hypothesis import given, settings, strategies as st

from satkit import oracle
from satkit.cooklevin import encode
from satkit.errors import BudgetExceededError
from satkit.formula import CnfFormula, evaluate, parse_dimacs
from satkit.oracle import (
    SatResult,
    brute_force_sat,
    equisatisfiable,
    max_sat_decide,
    max_sat_optimum,
)
from support import (
    all_assignments,
    branching_acceptor,
    count_satisfied,
    edge_bouncer,
    first_satisfying,
    max_sat_optimum_reference,
    one_step_acceptor,
    paper_walker_wrapped,
    prefix_11_acceptor,
    random_3cnf,
    random_cnf,
    right_drifter,
    walk_reference,
)

EXAMPLE_31 = parse_dimacs("p cnf 3 4\n1 -2 0\n-1 2 0\n-1 -2 0\n1 -3 0\n")
EXAMPLE_33 = CnfFormula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])


def test_example_sat_with_lex_first_witness():
    r = brute_force_sat(EXAMPLE_31)
    assert r.satisfiable
    assert r.witness == {1: False, 2: False, 3: False}
    # the stated witness really is the enumeration-order first
    assert r.witness == first_satisfying(EXAMPLE_31)


def test_example_33_unsat():
    r = brute_force_sat(EXAMPLE_33)
    assert not r.satisfiable and r.witness is None


def test_empty_formula():
    r = brute_force_sat(CnfFormula(0, []))
    assert r.satisfiable and r.witness == {}


def test_empty_clause_unsat():
    assert not brute_force_sat(CnfFormula(3, [(1,), ()])).satisfiable


def test_budget_guard():
    f = CnfFormula(25, [(1,)])
    with pytest.raises(BudgetExceededError):
        brute_force_sat(f)
    assert brute_force_sat(f, max_vars=25).satisfiable


def test_witness_matches_raw_enumeration():
    rng = random.Random(3)
    for _ in range(300):
        f = random_cnf(rng, rng.randint(1, 5), rng.randint(0, 6), 3)
        r = brute_force_sat(f)
        expected = first_satisfying(f)
        if expected is None:
            assert not r.satisfiable
        else:
            assert r.witness == expected
            assert evaluate(f, r.witness) is True


def test_witness_determinism():
    rng = random.Random(4)
    for _ in range(50):
        f = random_cnf(rng, 4, 4, 3)
        assert brute_force_sat(f) == brute_force_sat(f)


def test_witness_satisfies_up_to_twelve_vars():
    rng = random.Random(44)
    for _ in range(150):
        f = random_cnf(rng, rng.randint(6, 12), rng.randint(2, 14), 3)
        r = brute_force_sat(f)
        if r.satisfiable:
            assert evaluate(f, r.witness) is True
            assert set(r.witness) == set(range(1, f.num_vars + 1))


def test_equisatisfiable():
    f = EXAMPLE_31
    extended = CnfFormula(4, list(f.clauses) + [(4,)])
    assert equisatisfiable(f, extended)
    assert not equisatisfiable(f, CnfFormula(3, [()]))
    assert equisatisfiable(f, f)


def test_max_sat_example():
    best, witness = max_sat_optimum(EXAMPLE_33)
    assert best == 3
    from satkit.formula import count_satisfied

    assert count_satisfied(EXAMPLE_33, witness) == 3
    assert max_sat_decide(EXAMPLE_33, 3)
    assert not max_sat_decide(EXAMPLE_33, 4)
    assert max_sat_decide(EXAMPLE_33, 0)


def test_max_sat_edges():
    assert max_sat_optimum(CnfFormula(0, []))[0] == 0
    assert max_sat_optimum(EXAMPLE_31)[0] == 4
    with pytest.raises(ValueError):
        max_sat_decide(EXAMPLE_33, -1)


def test_max_sat_consistency_with_sat():
    rng = random.Random(9)
    for _ in range(200):
        f = random_cnf(rng, 3, rng.randint(1, 5), 3)
        best, witness = max_sat_optimum(f)
        sat = brute_force_sat(f).satisfiable
        assert (best == len(f.clauses)) == sat
        assert max_sat_decide(f, best)
        assert not max_sat_decide(f, best + 1)


@st.composite
def walk_formulas(draw):
    n = draw(st.integers(0, 8))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v))) if n else st.nothing()
    # empty clauses, repeated literals and tautologies all occur
    clause = st.lists(lit, max_size=5 if n else 0).map(tuple)
    return CnfFormula(n, draw(st.lists(clause, max_size=14)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(walk_formulas())
def test_walk_matches_enumeration(f):
    reference = max_sat_optimum_reference(f)
    assert max_sat_optimum(f) == reference
    for k in range(len(f.clauses) + 2):
        assert max_sat_decide(f, k) == (reference[0] >= k), k
    witness = first_satisfying(f)
    assert brute_force_sat(f) == SatResult(witness is not None, witness)
    # stopping early: the first assignment under each ceiling, with its count
    m = len(f.clauses)
    counted = [(m - count_satisfied(f, a), a) for a in all_assignments(f.num_vars)]
    for c in range(m + 2):
        first = next(((got, a) for got, a in counted if got < c), (c, None))
        assert oracle._walk(f, c, c - 1) == first, c


def test_max_sat_optimum_at_twenty_variables():
    # Two over-constrained halves on disjoint variables: the optimum is the
    # sum of the halves' optima and the lexicographically first witness is
    # the union of theirs, so the n=10 reference checks the n=20 walk.
    rng = random.Random(20)
    g = random_3cnf(rng, 10, 60)
    h = random_3cnf(rng, 10, 60)
    shifted = [tuple(lit + 10 if lit > 0 else lit - 10 for lit in c) for c in h.clauses]
    f = CnfFormula(20, list(g.clauses) + shifted)
    best_g, witness_g = max_sat_optimum_reference(g)
    best_h, witness_h = max_sat_optimum_reference(h)
    assert best_g < len(g.clauses) and best_h < len(h.clauses)
    witness = {**witness_g, **{v + 10: b for v, b in witness_h.items()}}
    assert max_sat_optimum(f) == (best_g + best_h, witness)


def _shuffled_cnf(rng, n):
    """A CNF with every clause shape the walk's filing must survive.

    Clause literals come in random order (so the last literal is often not
    the highest variable) or sorted by variable with a few clauses left
    unsorted; repeated literals, tautologies, duplicate clauses and empty
    clauses all occur.
    """
    lits = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
    clauses = []
    for _ in range(rng.randint(0, 5 * n + 3)):
        r = rng.random()
        if r < 0.01 or not n:
            clause = []
        elif r < 0.15 and clauses:
            clause = list(rng.choice(clauses))
        else:
            clause = [rng.choice(lits) for _ in range(rng.randint(1, 4))]
            if r < 0.25:
                v = rng.randint(1, n)
                clause += [v, -v]
            if r < 0.35:
                clause.append(rng.choice(clause))
            rng.shuffle(clause)
        clauses.append(tuple(clause))
    if rng.random() < 0.5:
        clauses = [
            c if rng.random() < 0.1 else tuple(sorted(c, key=abs)) for c in clauses
        ]
    return CnfFormula(n, clauses)


@pytest.fixture
def refiles(monkeypatch):
    """Sizes of the buckets ``oracle._walk`` refiles, in order."""
    sizes = []
    refile = oracle._refile
    monkeypatch.setattr(oracle, "_refile", lambda *args: sizes.append(len(args[2])) or refile(*args))
    return sizes


def test_walk_matches_reference_with_refiles(refiles):
    rng = random.Random(1214)
    for _ in range(1000):
        f = _shuffled_cnf(rng, rng.choice((0, 1, 2, 3, 5, 8, 11, 14)))
        for ceiling in (1, 2, len(f.clauses) + 1):
            assert oracle._walk(f, ceiling) == walk_reference(f, ceiling), (f, ceiling)
    # the refile path ran, on buckets of one clause and of several
    assert len(refiles) > 100
    assert min(refiles) == 1 and max(refiles) > 3


def test_clause_filed_under_negative_literal_reaching_above(refiles):
    # (3, -1) sits under -1, so it is first checked when 1 turns true, after
    # the whole 1 = false subtree; it must move to 3 before the walk goes on.
    f = CnfFormula(3, [(1,), (3, -1), (2,)])
    assert oracle._walk(f, 1) == walk_reference(f, 1) == (0, {1: True, 2: True, 3: True})
    assert refiles == [1]
    assert brute_force_sat(f).witness == first_satisfying(f)
    assert max_sat_optimum(f) == max_sat_optimum_reference(f) == (3, first_satisfying(f))


def test_misplaced_clause_repeated_three_times_under_max_sat(refiles):
    # Losing any copy of (2, -1) ties 1=T,2=F with the optimum 1=T,2=T and
    # makes the earlier assignment the witness.
    f = CnfFormula(2, [(2, -1)] * 3 + [(1,)] * 3 + [(-2,)] * 2)
    assert oracle._walk(f, 9) == walk_reference(f, 9) == (2, {1: True, 2: True})
    assert refiles == [3]
    assert max_sat_optimum(f) == max_sat_optimum_reference(f) == (6, {1: True, 2: True})


def test_misplaced_tautology_is_dropped(refiles):
    # (3, -3, 1) sits under 1 and meets unset 3 when 1 turns false; refiling
    # drops it, since no assignment falsifies it.
    f = CnfFormula(3, [(3, -3, 1), (-1,), (2, -3), (-2,)])
    assert oracle._walk(f, 1) == walk_reference(f, 1) == (0, {1: False, 2: False, 3: False})
    assert refiles == [1]
    assert max_sat_optimum(f) == max_sat_optimum_reference(f)


# the satbench `tableau` instances: (machine, input, p)
TABLEAU_INSTANCES = [
    (branching_acceptor, "1", 4),
    (one_step_acceptor, "11", 5),
    (branching_acceptor, "11", 5),
    (right_drifter, "1", 4),
    (one_step_acceptor, "1", 5),
    (right_drifter, "", 4),
    (prefix_11_acceptor, "", 3),
    (edge_bouncer, "1", 4),
    (paper_walker_wrapped, "a", 5),
]


@pytest.mark.parametrize("machine, word, p", TABLEAU_INSTANCES)
def test_walk_matches_reference_on_tableau_encodings(machine, word, p):
    f, _ = encode(machine(), word, p)
    for ceiling in (1, 2):
        assert oracle._walk(f, ceiling) == walk_reference(f, ceiling)
