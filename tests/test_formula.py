import random

import pytest
from hypothesis import given, settings, strategies as st

from satkit.formula import (
    CnfFormula,
    DimacsError,
    DnfFormula,
    assignment_from_json,
    assignment_to_json,
    canonical,
    canonical_clause,
    count_satisfied,
    evaluate,
    evaluate_dnf,
    is_horn,
    is_tautology,
    max_clause_width,
    parse_dimacs,
    write_dimacs,
)
from support import all_assignments, negate_cnf_to_dnf, random_cnf

EXAMPLE_31 = "p cnf 3 4\n1 -2 0\n-1 2 0\n-1 -2 0\n1 -3 0\n"
EXAMPLE_33 = CnfFormula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])


def test_parse_example_formula():
    f = parse_dimacs(EXAMPLE_31)
    assert f.num_vars == 3
    assert f.clauses == ((1, -2), (-1, 2), (-1, -2), (1, -3))


def test_parse_empty_formula():
    f = parse_dimacs("p cnf 1 0\n")
    assert f.num_vars == 1
    assert f.clauses == ()


def test_parse_variable_out_of_range():
    with pytest.raises(DimacsError, match="line 2.*variable 3"):
        parse_dimacs("p cnf 2 1\n1 3 0")


def test_parse_missing_terminator():
    with pytest.raises(DimacsError, match="not terminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_parse_malformed_header():
    with pytest.raises(DimacsError, match="line 1"):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(DimacsError, match="header"):
        parse_dimacs("1 0\n")


def test_parse_clause_count_mismatch():
    with pytest.raises(DimacsError, match="declares 2"):
        parse_dimacs("p cnf 2 2\n1 0\n")


def test_parse_comments_and_multiline_clauses():
    f = parse_dimacs("c comment\np cnf 2 1\nc another\n1\n-2 0\n")
    assert f.clauses == ((1, -2),)


def test_parse_satlib_percent_trailer():
    assert parse_dimacs("p cnf 1 1\n1 0\n%\n0\n") == CnfFormula(1, [(1,)])
    # everything after the trailer is ignored, however malformed
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n  %  junk\n0\nx y z\n")
    assert f.clauses == ((1, -2), (2, 3))
    # the clause count and the terminator are checked before the trailer
    with pytest.raises(DimacsError, match="declares 2 clauses, found 1"):
        parse_dimacs("p cnf 1 2\n1 0\n%\n1 0\n")
    with pytest.raises(DimacsError, match="not terminated"):
        parse_dimacs("p cnf 1 1\n1\n%\n0\n")


def test_parse_percent_elsewhere_is_a_bad_token():
    for text in ("p cnf 1 1\n1 % 0\n", "p cnf 1 1\n1 0 %\n", "p cnf 1 1\n1 0\n%0\n"):
        with pytest.raises(DimacsError, match="bad token"):
            parse_dimacs(text)
    with pytest.raises(DimacsError, match="before header"):
        parse_dimacs("%\np cnf 1 0\n")


@st.composite
def cnf_formulas(draw, max_vars=6, max_width=6):
    n = draw(st.integers(0, max_vars))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v))) if n else st.nothing()
    clause = st.lists(lit, max_size=max_width if n else 0).map(tuple)
    return CnfFormula(n, draw(st.lists(clause, max_size=8)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cnf_formulas())
def test_dimacs_round_trip_property(f):
    # empty clauses, repeated literals and clause-free formulas included
    assert parse_dimacs(write_dimacs(f)) == f


def test_write_empty():
    assert write_dimacs(CnfFormula(0, [])) == "p cnf 0 0\n"


def test_write_unit():
    assert write_dimacs(CnfFormula(1, [(1,)])) == "p cnf 1 1\n1 0\n"


def test_write_empty_clause_round_trips():
    f = CnfFormula(1, [()])
    assert parse_dimacs(write_dimacs(f)) == f


def test_round_trip_example():
    f = parse_dimacs(EXAMPLE_31)
    assert parse_dimacs(write_dimacs(f)) == f


def test_round_trip_random():
    rng = random.Random(42)
    for _ in range(200):
        f = random_cnf(rng, rng.randint(1, 6), rng.randint(0, 8), 4)
        back = parse_dimacs(write_dimacs(f))
        assert canonical(back) == canonical(f)


def test_evaluate_unit_conjunction():
    f = CnfFormula(3, [(1,), (2,), (-3,)])
    assert evaluate(f, {1: True, 2: True, 3: False}) is True


def test_evaluate_empty_clause_false():
    f = CnfFormula(2, [(), (1,)])
    assert evaluate(f, {1: True, 2: True}) is False
    assert evaluate(f, {}) is False


def test_evaluate_example_all_false():
    f = parse_dimacs(EXAMPLE_31)
    assert evaluate(f, {1: False, 2: False, 3: False}) is True


def test_evaluate_undetermined():
    f = CnfFormula(2, [(1, 2)])
    assert evaluate(f, {1: False}) is None
    assert evaluate(f, {1: True}) is True
    assert evaluate(f, {}) is None


def test_evaluate_monotone_under_extension():
    rng = random.Random(7)
    for _ in range(300):
        f = random_cnf(rng, 4, rng.randint(0, 5), 3)
        partial = {v: rng.random() < 0.5 for v in range(1, 5) if rng.random() < 0.5}
        before = evaluate(f, partial)
        extended = dict(partial)
        for v in range(1, 5):
            extended.setdefault(v, rng.random() < 0.5)
        after = evaluate(f, extended)
        if before is not None:
            assert after == before


def test_count_satisfied_example():
    assert count_satisfied(EXAMPLE_33, {1: True, 2: True}) == 3
    assert count_satisfied(EXAMPLE_33, {1: False, 2: False}) == 3


def test_count_satisfied_empty():
    assert count_satisfied(CnfFormula(0, []), {}) == 0


def test_count_satisfied_rejects_partial():
    with pytest.raises(ValueError, match="partial"):
        count_satisfied(EXAMPLE_33, {1: True})


def test_count_satisfied_full_iff_evaluate_true():
    rng = random.Random(5)
    for _ in range(200):
        f = random_cnf(rng, 3, rng.randint(0, 4), 3)
        for a in all_assignments(3):
            assert (count_satisfied(f, a) == len(f.clauses)) == (evaluate(f, a) is True)


def test_evaluate_dnf():
    contradiction = DnfFormula(1, [(1, -1)])
    assert evaluate_dnf(contradiction, {1: True}) is False
    assert evaluate_dnf(contradiction, {1: False}) is False
    assert evaluate_dnf(DnfFormula(2, [(1, 2)]), {1: True, 2: True}) is True
    f = DnfFormula(2, [(1, -1), (2,)])
    assert evaluate_dnf(f, {1: False, 2: True}) is True
    with pytest.raises(ValueError, match="partial"):
        evaluate_dnf(f, {1: False})


def test_de_morgan_duality():
    rng = random.Random(13)
    for _ in range(100):
        f = random_cnf(rng, 3, rng.randint(0, 4), 3)
        negated = negate_cnf_to_dnf(f)
        for a in all_assignments(3):
            assert evaluate_dnf(negated, a) == (evaluate(f, a) is False)


def test_is_horn():
    assert is_horn(CnfFormula(3, [(-1, -2, 3)]))
    assert not is_horn(CnfFormula(2, [(1, 2)]))
    assert is_horn(CnfFormula(0, []))
    assert is_horn(CnfFormula(2, [(), (-1,), (2,)]))


def test_max_clause_width():
    assert max_clause_width(parse_dimacs(EXAMPLE_31)) == 2
    assert max_clause_width(CnfFormula(0, [])) == 0
    assert max_clause_width(CnfFormula(4, [(1,), (1, 2, 3, 4)])) == 4


def test_canonical_dedupes():
    f = CnfFormula(2, [(1, 1, -2), (-2, 1), (2,)])
    c = canonical(f)
    assert c.clauses == ((2,), (1, -2))


def test_tautology_detection():
    assert is_tautology((1, -1, 2))
    assert not is_tautology((1, 2))
    assert canonical_clause((2, 1, 2)) == (1, 2)


def test_literal_zero_rejected():
    with pytest.raises(ValueError):
        CnfFormula(2, [(1, 0)])


def test_witness_json_round_trip():
    a = {1: True, 3: False}
    assert assignment_from_json(assignment_to_json(a)) == a
    assert assignment_to_json(a) == '{"vars": {"1": true, "3": false}}'
    with pytest.raises(ValueError):
        assignment_from_json('{"wrong": {}}')
