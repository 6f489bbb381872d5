import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from satkit.formula import CnfFormula, evaluate, max_clause_width
from satkit.oracle import brute_force_sat, equisatisfiable
from satkit.threecnf import project_witness, to_3cnf
from support import all_assignments, random_cnf


def test_case_1_single_literal():
    r = to_3cnf(CnfFormula(1, [(1,)]))
    assert r.formula.clauses == ((1, 2, 3), (1, -2, 3), (1, 2, -3), (1, -2, -3))
    assert r.fresh_vars == ((2, 3),)
    assert r.original_num_vars == 1
    assert r.formula.num_vars == 3


def test_case_2_two_literals():
    r = to_3cnf(CnfFormula(2, [(1, -2)]))
    assert r.formula.clauses == ((1, -2, 3), (1, -2, -3))
    assert r.fresh_vars == ((3,),)


def test_case_3_three_literals():
    f = CnfFormula(3, [(1, -2, 3)])
    r = to_3cnf(f)
    assert r.formula == f
    assert r.fresh_vars == ((),)


def test_case_4_five_literals():
    r = to_3cnf(CnfFormula(5, [(1, 2, 3, 4, 5)]))
    assert r.formula.clauses == ((1, 2, 6), (-6, 3, 7), (-7, 4, 5))
    assert r.fresh_vars == ((6, 7),)


def test_case_4_four_literals():
    r = to_3cnf(CnfFormula(4, [(1, 2, 3, 4)]))
    assert r.formula.clauses == ((1, 2, 5), (-5, 3, 4))


def test_empty_clause_rejected():
    with pytest.raises(ValueError, match="unsatisfiable as given"):
        to_3cnf(CnfFormula(1, [()]))


def test_mixed_formula_clause_counts():
    f = CnfFormula(6, [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4, 5, 6)])
    r = to_3cnf(f)
    # per-case counts: 4, 2, 1, m-2
    assert len(r.formula.clauses) == 4 + 2 + 1 + 4
    assert max_clause_width(r.formula) <= 3
    # fresh variables sit strictly above the original space, in clause order
    flat = [z for zs in r.fresh_vars for z in zs]
    assert flat == list(range(7, 7 + len(flat)))


def test_width_and_size_bounds_random():
    rng = random.Random(31)
    for _ in range(300):
        f = random_cnf(rng, 4, rng.randint(1, 4), 5)
        r = to_3cnf(f)
        assert max_clause_width(r.formula) <= 3
        expected_total = sum(
            {1: 4, 2: 2, 3: 1}.get(len(c), len(c) - 2) for c in f.clauses
        )
        assert len(r.formula.clauses) == expected_total
        bound = 4 * len(f.clauses) + sum(max(0, len(c) - 2) for c in f.clauses)
        assert len(r.formula.clauses) <= bound


def test_output_equals_the_validated_construction():
    # to_3cnf builds its formula without re-validating it, so the validated
    # constructor must accept the same clauses and build the same record.
    rng = random.Random(41)
    for _ in range(300):
        f = random_cnf(rng, rng.randint(1, 6), rng.randint(0, 6), 7)
        r = to_3cnf(f)
        assert r.formula == CnfFormula(r.formula.num_vars, r.formula.clauses)


def test_equisatisfiable_random():
    rng = random.Random(37)
    for _ in range(500):
        f = random_cnf(rng, 4, rng.randint(1, 3), 5)
        r = to_3cnf(f)
        assert equisatisfiable(f, r.formula), f.clauses


def test_equisatisfiable_exhaustive_single_clauses():
    lits = [1, -1, 2, -2, 3, -3, 4, -4]
    for width in (1, 2, 3, 4):
        for clause in itertools.product(lits, repeat=width):
            f = CnfFormula(4, [clause])
            assert equisatisfiable(f, to_3cnf(f).formula)


def test_project_witness_case2():
    f = CnfFormula(2, [(1, 2)])
    r = to_3cnf(f)
    full = {1: True, 2: False, 3: False}
    projected = project_witness(r, full)
    assert projected == {1: True, 2: False}
    assert evaluate(f, projected) is True


def test_project_witness_case1_forces_literal():
    r = to_3cnf(CnfFormula(1, [(1,)]))
    # every model of the four expanded clauses sets the original literal true
    models = [a for a in all_assignments(3) if evaluate(r.formula, a) is True]
    assert models, "expansion should be satisfiable"
    for a in models:
        assert project_witness(r, a) == {1: True}


def test_project_witness_identity_on_3cnf():
    f = CnfFormula(3, [(1, -2, 3)])
    r = to_3cnf(f)
    a = {1: False, 2: False, 3: True}
    assert project_witness(r, a) == a


def test_project_witness_rejects_non_model():
    r = to_3cnf(CnfFormula(1, [(1,)]))
    with pytest.raises(ValueError, match="does not satisfy"):
        project_witness(r, {1: False, 2: False, 3: False})


def test_projection_satisfies_source():
    rng = random.Random(41)
    for _ in range(300):
        f = random_cnf(rng, 4, rng.randint(1, 3), 5)
        r = to_3cnf(f)
        model = brute_force_sat(r.formula)
        if model.satisfiable:
            assert evaluate(f, project_witness(r, model.witness)) is True


def test_deterministic():
    f = CnfFormula(4, [(1, 2, 3, 4), (2,)])
    assert to_3cnf(f) == to_3cnf(f)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_to_3cnf_project_witness_property(data):
    n = data.draw(st.integers(1, 6))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    f = CnfFormula(n, data.draw(st.lists(st.lists(lit, min_size=1, max_size=6), max_size=6)))
    r = to_3cnf(f)
    assert max_clause_width(r.formula) <= 3
    expected = brute_force_sat(f)
    got = brute_force_sat(r.formula, max_vars=r.formula.num_vars)
    assert got.satisfiable == expected.satisfiable
    if got.satisfiable:
        projected = project_witness(r, got.witness)
        assert set(projected) == set(range(1, n + 1))
        assert evaluate(f, projected) is True
