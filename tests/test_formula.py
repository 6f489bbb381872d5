import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from satkit import formula
from satkit.formula import (
    CnfFormula,
    DimacsError,
    DnfFormula,
    assignment_from_json,
    assignment_to_json,
    count_satisfied,
    evaluate,
    evaluate_dnf,
    is_horn,
    is_tautology,
    max_clause_width,
    parse_dimacs,
    write_dimacs,
)
from support import (
    DIMACS_NEAR_MISSES,
    all_assignments,
    dimacs_near_miss,
    negate_cnf_to_dnf,
    random_cnf,
    write_dimacs_reference,
)

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


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("p cnf 10 1\n1_0 0\n", 2),
        ("p cnf 10 1\n\u0661\u0660 0\n", 2),  # Arabic-Indic digits for 10
        ("p cnf 1_0 1\n10 0\n", 1),
    ],
    ids=["underscore", "arabic", "header"],
)
def test_parse_rejects_integers_int_reads_but_dimacs_does_not(text, lineno):
    with pytest.raises(DimacsError, match=f"line {lineno}: underscore or non-ASCII"):
        parse_dimacs(text)


def test_parse_leaves_comments_and_trailer_unchecked():
    text = "c caf\u00e9 snake_case\np cnf 10 1\n+10 0\n%\n\u0661_\n"
    assert parse_dimacs(text) == CnfFormula(10, [(10,)])


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



@settings(max_examples=200, deadline=None, derandomize=True)
@given(cnf_formulas(max_vars=120))
def test_write_dimacs_matches_generator_form(f):
    # multi-digit literals, empty clauses and clause-free formulas included
    assert write_dimacs(f) == write_dimacs_reference(f)


# The shape the C JSON path reads and writes: at least one clause, none empty.
canonical_formulas = cnf_formulas(max_vars=12).filter(lambda f: f.clauses and all(f.clauses))


def _refuse(arg):
    raise AssertionError("the line parser or line writer was called")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(canonical_formulas)
def test_canonical_text_skips_the_line_parser_and_writer(f):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formula, "_parse_lines", _refuse)
        mp.setattr(formula, "_write_lines", _refuse)
        assert parse_dimacs(write_dimacs(f)) == f


@pytest.mark.parametrize(
    "text",
    [
        "c note\np cnf 2 2\n1 -2 0\n2 0\n",
        "p cnf 2 2\r\n1 -2 0\r\n2 0\r\n",
        "p cnf 2 2\n1 -2 0\n2 0\n%\n0\n",
        "p cnf 2 2\n1 -2 0 2 0\n",
        "p cnf 2 2\n1 -2 0\n\n2 0\n",
    ],
    ids=["comment", "crlf", "percent", "two-per-line", "blank-line"],
)
def test_other_texts_reach_the_line_parser(text, monkeypatch):
    calls = []
    parse_lines = formula._parse_lines
    monkeypatch.setattr(formula, "_parse_lines", lambda t: calls.append(t) or parse_lines(t))
    assert parse_dimacs(text) == CnfFormula(2, [(1, -2), (2,)])
    assert calls == [text]


def _outcome(parse, text):
    try:
        return parse(text)
    except DimacsError as e:
        return f"DimacsError: {e}"


@pytest.mark.parametrize("kind", DIMACS_NEAR_MISSES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=canonical_formulas, at=st.integers(0, 20))
def test_near_miss_text_parses_as_the_line_parser_does(kind, f, at):
    text = dimacs_near_miss(write_dimacs(f), kind, at)
    assert _outcome(parse_dimacs, text) == _outcome(formula._parse_lines, text)

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
        assert parse_dimacs(write_dimacs(f)) == f


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


def test_tautology_detection():
    assert is_tautology((1, -1, 2))
    assert not is_tautology((1, 2))


def test_literal_zero_rejected():
    with pytest.raises(ValueError, match="^literal 0 is not allowed inside a clause$"):
        CnfFormula(2, [(1, 0)])


@pytest.mark.parametrize("cls", [CnfFormula, DnfFormula])
@pytest.mark.parametrize("lit", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_literal_that_is_not_an_int_rejected(cls, lit):
    with pytest.raises(ValueError, match=f"^literal {re.escape(repr(lit))} is not an int$"):
        cls(2, [(lit, -2)])


def test_literal_beyond_num_vars_rejected():
    with pytest.raises(ValueError, match="^literal -3 exceeds declared variable count 2$"):
        CnfFormula(2, [(1, -3)])
    with pytest.raises(ValueError, match="^literal 3 exceeds declared variable count 2$"):
        DnfFormula(2, [(3,)])


@pytest.mark.parametrize("cls", [CnfFormula, DnfFormula])
def test_negative_num_vars_rejected(cls):
    with pytest.raises(ValueError, match="^num_vars must be non-negative$"):
        cls(-1)


def test_witness_json_round_trip():
    a = {1: True, 3: False}
    assert assignment_from_json(assignment_to_json(a)) == a
    assert assignment_to_json(a) == '{"vars": {"1": true, "3": false}}'
    with pytest.raises(ValueError):
        assignment_from_json('{"wrong": {}}')


# Characters str.splitlines() ends a line at, besides \n and \r.
NOT_LINE_ENDS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("ch", NOT_LINE_ENDS)
def test_parse_comment_cannot_hold_a_clause(ch):
    text = f"p cnf 1 1\nc note{ch}-1 0\n1 0\n"
    assert parse_dimacs(text) == CnfFormula(1, [(1,)])


def test_parse_line_ends():
    for end in ("\n", "\r\n", "\r"):
        text = end.join(["c x", "p cnf 2 2", "1 -2", "0", "2 0", ""])
        assert parse_dimacs(text) == CnfFormula(2, [(1, -2), (2,)])
    with pytest.raises(DimacsError, match="line 3: bad token"):
        parse_dimacs("p cnf 1 1\r\nc\rx 0\n")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cnf_formulas(), st.data())
def test_inserted_comment_line_changes_nothing(f, data):
    lines = write_dimacs(f).split("\n")
    at = data.draw(st.integers(0, len(lines) - 1))
    note = data.draw(st.text(st.sampled_from(NOT_LINE_ENDS) | st.characters(
        blacklist_characters="\n\r")))
    lines.insert(at, "c" + note)
    assert parse_dimacs("\n".join(lines)) == f
