import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from satkit.formula import CnfFormula, DnfFormula, evaluate, evaluate_dnf, is_horn, parse_dimacs
from satkit.oracle import SatResult, brute_force_sat, equisatisfiable
from satkit._propagate import propagate
from satkit.tractable import (
    solve_2sat,
    solve_dnf,
    solve_horn,
    unit_propagate,
)
from support import (
    implication_graph_reference,
    random_cnf,
    scc_reference,
    unit_propagate_reference,
)

MAX_VARS = 6

EXAMPLE_31 = parse_dimacs("p cnf 3 4\n1 -2 0\n-1 2 0\n-1 -2 0\n1 -3 0\n")


def _edges(f):
    return {(int(u), int(v)) for u, v in implication_graph_reference(f).edges}


def test_implication_graph_binary_clause():
    assert _edges(CnfFormula(2, [(1, 2)])) == {(-1, 2), (-2, 1)}


def test_implication_graph_unit_clause():
    assert _edges(CnfFormula(1, [(1,)])) == {(-1, 1)}


def test_implication_graph_example():
    assert _edges(EXAMPLE_31) == {
        (-1, -2), (2, 1),
        (1, 2), (-2, -1),
        (1, -2), (2, -1),
        (-1, -3), (3, 1),
    }


def test_implication_graph_skew_symmetry():
    rng = random.Random(8)
    for _ in range(200):
        f = random_cnf(rng, rng.randint(1, 4), rng.randint(0, 6), 2)
        es = _edges(f)
        assert all((-v, -u) in es for u, v in es)


def test_solve_2sat_example():
    r = solve_2sat(EXAMPLE_31)
    assert r.satisfiable
    assert r.witness == {1: False, 2: False, 3: False}
    assert evaluate(EXAMPLE_31, r.witness) is True


def test_solve_2sat_unsat():
    f = CnfFormula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
    assert not solve_2sat(f).satisfiable
    assert not brute_force_sat(f).satisfiable


def test_solve_2sat_unit():
    r = solve_2sat(CnfFormula(1, [(1,)]))
    assert r.satisfiable and r.witness == {1: True}


def test_solve_2sat_empty_clause():
    assert not solve_2sat(CnfFormula(1, [()])).satisfiable


def test_solve_2sat_width_guard():
    with pytest.raises(ValueError):
        solve_2sat(CnfFormula(3, [(1, 2, 3)]))


def test_solve_2sat_exhaustive_small():
    lits = [1, -1, 2, -2, 3, -3]
    clause_types = [(l,) for l in lits] + [tuple(c) for c in itertools.combinations(lits, 2)]
    for k in range(3):
        for clauses in itertools.combinations(clause_types, k):
            f = CnfFormula(3, clauses)
            mine = solve_2sat(f)
            truth = brute_force_sat(f)
            assert mine.satisfiable == truth.satisfiable, clauses
            if mine.satisfiable:
                assert evaluate(f, mine.witness) is True


def reference_2sat(f):
    """The labelled route: implication graph, label-level SCCs, comp rule."""
    if any(not c for c in f.clauses):
        return SatResult(False, None)
    _, comp = scc_reference(implication_graph_reference(f))
    witness = {}
    for v in range(1, f.num_vars + 1):
        pos, neg = comp[str(v)], comp[str(-v)]
        if pos == neg:
            return SatResult(False, None)
        witness[v] = pos > neg
    return SatResult(True, witness)


@st.composite
def two_cnfs(draw):
    n = draw(st.integers(1, MAX_VARS))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=2), max_size=12))
    if draw(st.integers(0, 19)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    return CnfFormula(n, clauses)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(two_cnfs())
def test_solve_2sat_matches_labelled_reference(f):
    result = solve_2sat(f)
    assert result == reference_2sat(f)
    assert result.satisfiable == brute_force_sat(f).satisfiable


@pytest.mark.parametrize(
    "num_vars, clauses, false_vars",
    [
        # Roots are tried 1, -1, 2, -2, ...: an unconstrained x comes out true.
        (1, [], set()),
        # Successors are tried in string-label order: "-3" < "-4" < "3" < "7".
        (7, [(4, 7), (-3, -7), (-4, -3)], {3, 4}),
        # ... and "11" < "9" within one sign.
        (12, [(6, 9), (6, 11), (-11, -9)], {9}),
    ],
)
def test_solve_2sat_witness_follows_labelled_dfs_order(num_vars, clauses, false_vars):
    result = solve_2sat(CnfFormula(num_vars, clauses))
    assert result.witness == {v: v not in false_vars for v in range(1, num_vars + 1)}


@st.composite
def horn_cnfs(draw):
    """Horn clauses with repeated body literals, repeated heads, tautologies
    (a head that also occurs negated), units and the odd empty clause, each
    clause in a drawn literal order."""
    n = draw(st.integers(1, MAX_VARS))
    var = st.integers(1, n)
    clauses = []
    for _ in range(draw(st.integers(0, 10))):
        lits = [-v for v in draw(st.lists(var, max_size=3))]
        if draw(st.booleans()):
            head = draw(var)
            lits += [head] * draw(st.integers(1, 2))
        if lits or draw(st.integers(0, 9)) == 0:
            clauses.append(draw(st.permutations(lits)))
    return CnfFormula(n, clauses)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(horn_cnfs())
def test_solve_horn_is_the_minimal_model(f):
    result = solve_horn(f)
    assert result.satisfiable == brute_force_sat(f).satisfiable
    if result.satisfiable:
        forced = unit_propagate(f).forced
        assert result.witness == {v: forced.get(v, False) for v in range(1, f.num_vars + 1)}
        assert evaluate(f, result.witness) is True


@pytest.mark.parametrize("sat", [True, False])
def test_solve_horn_long_shuffled_chain(sat):
    n = 16_384
    xs = list(range(1, n + 1))
    random.Random(31).shuffle(xs)
    clauses = [(xs[0],)] + [(-a, b) for a, b in zip(xs, xs[1:])]
    if not sat:
        clauses.append((-xs[-1],))
    random.Random(37).shuffle(clauses)
    result = solve_horn(CnfFormula(n, clauses))
    assert result.satisfiable == sat
    if sat:
        assert result.witness == {v: True for v in range(1, n + 1)}


@st.composite
def small_cnfs(draw):
    """Any CNF over a few variables, Horn or not, empty clauses included."""
    n = draw(st.integers(1, MAX_VARS))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    return CnfFormula(n, draw(st.lists(st.lists(lit, max_size=4), max_size=8)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_cnfs())
def test_solve_horn_checks_horn_in_its_one_pass(f):
    if not is_horn(f):
        with pytest.raises(ValueError, match="^solve_horn requires a Horn formula$"):
            solve_horn(f)
        return
    # The minimal model is below every model, so it is also the oracle's
    # lexicographically first one.
    assert solve_horn(f) == brute_force_sat(f)


def test_solve_horn_non_horn_clause_wins_over_an_earlier_empty_clause():
    with pytest.raises(ValueError, match="Horn"):
        solve_horn(CnfFormula(2, [(), (1, 2)]))
    assert solve_horn(CnfFormula(2, [(), (-1, 2)])) == SatResult(False, None)


def test_unit_propagate_matches_rescanning_reference():
    # Widths 0-5 over at most 8 variables: duplicates, tautologies, units,
    # conflicts and the odd empty clause. forced is compared as a list, so
    # the order units are processed in is checked too.
    rng = random.Random(43)
    conflicts = propagated = 0
    for _ in range(2_000):
        n = rng.randint(1, 8)
        lits = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
        clauses = [
            tuple(rng.choice(lits) for _ in range(rng.choices(range(6), (1, 20, 15, 10, 5, 3))[0]))
            for _ in range(rng.randint(0, 12))
        ]
        f = CnfFormula(n, clauses)
        mine, ref = unit_propagate(f), unit_propagate_reference(f)
        assert mine.reduced == ref.reduced, clauses
        assert list(mine.forced.items()) == list(ref.forced.items()), clauses
        propagated += bool(ref.forced)
        conflicts += bool(ref.forced) and () in ref.reduced.clauses
    assert propagated > 1_000 and conflicts > 300


@pytest.mark.parametrize("sat", [True, False])
def test_propagation_kernel_reads_each_chain_occurrence_once(sat):
    # (x1), (-x1 v x2), ..., (-x_{n-1} v x_n), plus (-x_n) when UNSAT: every
    # literal occurrence is read once, 2n - 1 of them, or 2n with (-x_n).
    n = 65_536
    clauses = [(1,)] + [(-v, v + 1) for v in range(1, n)] + ([] if sat else [(-n,)])
    reduced, forced, visits = propagate(CnfFormula(n, clauses))
    assert visits == (2 * n - 1 if sat else 2 * n)
    assert list(forced.items()) == [(v, True) for v in range(1, n + 1)]
    assert reduced.clauses == (() if sat else ((),))


def test_unit_propagation_chain():
    f = CnfFormula(3, [(1,), (-1, 2), (-2, 3)])
    up = unit_propagate(f)
    assert up.reduced.clauses == ()
    assert up.forced == {1: True, 2: True, 3: True}


def test_unit_propagation_contradiction():
    up = unit_propagate(CnfFormula(1, [(1,), (-1,)]))
    assert () in up.reduced.clauses


def test_unit_propagation_fixpoint_immediately():
    f = CnfFormula(3, [(1, 2), (-1, 3, 2)])
    up = unit_propagate(f)
    assert up.reduced == f
    assert up.forced == {}


def test_unit_propagation_sound():
    rng = random.Random(17)
    for _ in range(300):
        f = random_cnf(rng, 4, rng.randint(1, 6), 3)
        up = unit_propagate(f)
        rebuilt = CnfFormula(
            f.num_vars,
            list(up.reduced.clauses)
            + [((v,) if val else (-v,)) for v, val in up.forced.items()],
        )
        assert equisatisfiable(f, rebuilt)


def test_unit_propagation_preserves_horn():
    rng = random.Random(19)
    count = 0
    while count < 200:
        f = random_cnf(rng, 4, rng.randint(1, 5), 3)
        if not is_horn(f):
            continue
        count += 1
        assert is_horn(unit_propagate(f).reduced)


def test_solve_horn_all_negative():
    r = solve_horn(CnfFormula(2, [(-1, -2)]))
    assert r.satisfiable and r.witness == {1: False, 2: False}


def test_solve_horn_contradiction():
    assert not solve_horn(CnfFormula(1, [(1,), (-1,)])).satisfiable


def test_solve_horn_chain():
    r = solve_horn(CnfFormula(3, [(1,), (-1, 2), (-2, 3)]))
    assert r.satisfiable and r.witness == {1: True, 2: True, 3: True}


def test_solve_horn_rejects_non_horn():
    with pytest.raises(ValueError, match="Horn"):
        solve_horn(CnfFormula(2, [(1, 2)]))


def test_solve_horn_matches_oracle():
    rng = random.Random(23)
    count = 0
    while count < 400:
        f = random_cnf(rng, 4, rng.randint(1, 5), 3)
        if not is_horn(f):
            continue
        count += 1
        mine = solve_horn(f)
        truth = brute_force_sat(f)
        assert mine.satisfiable == truth.satisfiable, f.clauses
        if mine.satisfiable:
            assert evaluate(f, mine.witness) is True


def test_solve_dnf():
    assert not solve_dnf(DnfFormula(1, [(1, -1)])).satisfiable
    r = solve_dnf(DnfFormula(3, [(1, -1), (2, 3)]))
    assert r.satisfiable
    assert r.witness == {1: False, 2: True, 3: True}
    assert evaluate_dnf(DnfFormula(3, [(1, -1), (2, 3)]), r.witness)
    assert not solve_dnf(DnfFormula(2, [])).satisfiable


def test_solve_dnf_witness_always_satisfies():
    rng = random.Random(29)
    for _ in range(200):
        lits = [v for v in range(1, 4)] + [-v for v in range(1, 4)]
        terms = [
            tuple(rng.choice(lits) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4))
        ]
        f = DnfFormula(3, terms)
        r = solve_dnf(f)
        brute = any(
            evaluate_dnf(f, {1: a, 2: b, 3: c})
            for a in (False, True)
            for b in (False, True)
            for c in (False, True)
        )
        assert r.satisfiable == brute
        if r.satisfiable:
            assert evaluate_dnf(f, r.witness)
