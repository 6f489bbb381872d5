import hashlib
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from satkit import reductions
from satkit.formula import CnfFormula, evaluate
from satkit.graph import (
    find_clique,
    find_hamiltonian_cycle,
    find_k_coloring,
    iter_hamiltonian_cycles,
    to_dot,
    verify_clique,
    verify_hamiltonian_cycle,
)
from satkit.oracle import brute_force_sat
from satkit.reductions import (
    CliqueInstance,
    NonCanonicalCycleError,
    assignment_to_clique,
    clique_witness_to_assignment,
    coloring_witness_to_assignment,
    hamcycle_witness_to_assignment,
    instance_from_json,
    instance_to_json,
    pad_clause,
    reduce_to_3color,
    reduce_to_clique,
    reduce_to_hamcycle,
)
from support import adjacency_reference, check_dot, random_3cnf

FIG_EXAMPLE = CnfFormula(3, [(1, 2, 3), (1, -2, 3), (-1, 2, -3)])


@st.composite
def small_3cnf(draw):
    """3-CNF formulas of width 1-3 (short clauses get padded), repeats allowed,
    small enough for the graph searches' budgets."""
    n = draw(st.integers(1, 3))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, min_size=1, max_size=3).map(tuple)
    return CnfFormula(n, draw(st.lists(clause, min_size=1, max_size=2)))


def test_pad_clause():
    assert pad_clause((1,)) == (1, 1, 1)
    assert pad_clause((1, -2)) == (1, -2, -2)
    assert pad_clause((1, 2, 3)) == (1, 2, 3)
    with pytest.raises(ValueError):
        pad_clause(())
    with pytest.raises(ValueError):
        pad_clause((1, 2, 3, 4))


# ---------------------------------------------------------------------------
# CLIQUE


def test_clique_fig_example():
    inst = reduce_to_clique(FIG_EXAMPLE)
    assert len(inst.graph.vertices) == 9
    assert inst.k == 3
    clique = {"v:1:1:+:1", "v:1:2:+:1", "v:2:3:+:2"}
    assert verify_clique(inst.graph, clique, 3)
    found = find_clique(inst.graph, 3)
    assert found is not None


def test_clique_repeated_literal():
    inst = reduce_to_clique(CnfFormula(1, [(1, 1, 1)]))
    assert len(inst.graph.vertices) == 3
    assert len(inst.graph.edges) == 0
    assert inst.k == 1
    assert find_clique(inst.graph, 1) is not None


def test_clique_contradictory_clauses():
    inst = reduce_to_clique(CnfFormula(1, [(1, 1, 1), (-1, -1, -1)]))
    assert len(inst.graph.vertices) == 6
    assert len(inst.graph.edges) == 0
    assert find_clique(inst.graph, 2) is None
    assert not brute_force_sat(inst.formula).satisfiable


def test_clique_size_always_3k():
    rng = random.Random(1)
    for _ in range(50):
        f = random_3cnf(rng, rng.randint(1, 4), rng.randint(1, 4))
        inst = reduce_to_clique(f)
        assert len(inst.graph.vertices) == 3 * inst.k


def test_clique_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty formula"):
        reduce_to_clique(CnfFormula(1, []))
    with pytest.raises(ValueError, match="3-CNF"):
        reduce_to_clique(CnfFormula(4, [(1, 2, 3, 4)]))
    with pytest.raises(ValueError, match="empty clause"):
        reduce_to_clique(CnfFormula(1, [()]))


def test_clique_witness_to_assignment_fig():
    inst = reduce_to_clique(FIG_EXAMPLE)
    a = clique_witness_to_assignment(inst, {"v:1:1:+:1", "v:1:2:+:1", "v:2:3:+:2"})
    assert a == {1: True, 2: True, 3: False}
    assert evaluate(FIG_EXAMPLE, a) is True


def test_clique_witness_single():
    inst = reduce_to_clique(CnfFormula(1, [(1, 1, 1)]))
    a = clique_witness_to_assignment(inst, {"v:1:1:+:1"})
    assert a == {1: True}


def test_clique_witness_rejects_invalid():
    inst = reduce_to_clique(FIG_EXAMPLE)
    with pytest.raises(ValueError, match="clique"):
        clique_witness_to_assignment(inst, {"v:1:1:+:1"})


def test_assignment_to_clique():
    inst = reduce_to_clique(FIG_EXAMPLE)
    s = assignment_to_clique(inst, {1: True, 2: True, 3: True})
    assert verify_clique(inst.graph, s, inst.k)
    single = reduce_to_clique(CnfFormula(1, [(1, 1, 1)]))
    assert assignment_to_clique(single, {1: True}) == {"v:1:1:+:1"}
    with pytest.raises(ValueError, match="satisfy"):
        assignment_to_clique(single, {1: False})


def test_clique_round_trip_property():
    rng = random.Random(2)
    for _ in range(150):
        f = random_3cnf(rng, rng.randint(1, 4), rng.randint(1, 4))
        inst = reduce_to_clique(f)
        truth = brute_force_sat(f)
        if truth.satisfiable:
            s = assignment_to_clique(inst, truth.witness)
            assert verify_clique(inst.graph, s, inst.k)
            back = clique_witness_to_assignment(inst, s)
            assert evaluate(f, back) is True


def test_clique_iff_small():
    rng = random.Random(3)
    for _ in range(120):
        f = random_3cnf(rng, rng.randint(1, 3), rng.randint(1, 3))
        inst = reduce_to_clique(f)
        sat = brute_force_sat(f).satisfiable
        assert (find_clique(inst.graph, inst.k) is not None) == sat


# ---------------------------------------------------------------------------
# HAM-CYCLE


def test_hamcycle_vertex_counts():
    f = random_3cnf(random.Random(4), 4, 3)
    inst = reduce_to_hamcycle(f)
    assert len(inst.graph.vertices) == 2 * 4 * 3 + 3 + 2 == 29

    strict = reduce_to_hamcycle(f, strict=True)
    assert len(strict.graph.vertices) == 4 * (3 * 3 + 3) + 3 + 2


def test_hamcycle_positive_single_variable():
    f = CnfFormula(1, [(1, 1, 1)])
    inst = reduce_to_hamcycle(f)
    assert len(inst.graph.vertices) == 5
    cycle = find_hamiltonian_cycle(inst.graph)
    assert cycle is not None
    assert hamcycle_witness_to_assignment(inst, cycle) == {1: True}


def test_hamcycle_negative_single_variable():
    f = CnfFormula(1, [(-1, -1, -1)])
    inst = reduce_to_hamcycle(f)
    for cycle in iter_hamiltonian_cycles(inst.graph):
        assert hamcycle_witness_to_assignment(inst, cycle) == {1: False}


def test_hamcycle_unsat_has_no_cycle():
    f = CnfFormula(1, [(1, 1, 1), (-1, -1, -1)])
    for strict in (False, True):
        inst = reduce_to_hamcycle(f, strict=strict)
        assert find_hamiltonian_cycle(inst.graph) is None


def test_hamcycle_rejects_bad_inputs():
    with pytest.raises(ValueError):
        reduce_to_hamcycle(CnfFormula(0, []))
    with pytest.raises(ValueError):
        reduce_to_hamcycle(CnfFormula(2, []))


def test_hamcycle_witness_rejects_invalid_cycle():
    inst = reduce_to_hamcycle(CnfFormula(1, [(1, 1, 1)]))
    with pytest.raises(ValueError, match="Hamiltonian"):
        hamcycle_witness_to_assignment(inst, list(inst.graph.vertices))


def test_default_construction_admits_bad_cycles():
    # Documented defect of the separator-free wiring: this cycle is
    # Hamiltonian yet reads back as the all-false assignment, which does
    # not satisfy (x1 or x2). Strict mode exists because of this.
    f = CnfFormula(2, [(1, 2, 2)])
    inst = reduce_to_hamcycle(f)
    bad = ["s", "p:1:2", "p:1:1", "C:1", "p:2:2", "p:2:1", "t"]
    assert verify_hamiltonian_cycle(inst.graph, bad)
    a = hamcycle_witness_to_assignment(inst, bad)
    assert a == {1: False, 2: False}
    assert evaluate(f, a) is False


def test_default_construction_non_canonical_cycle_detected():
    rng = random.Random(5)
    hits = 0
    for _ in range(200):
        f = random_3cnf(rng, rng.randint(2, 3), 2)
        inst = reduce_to_hamcycle(f)
        for cycle in iter_hamiltonian_cycles(inst.graph):
            try:
                hamcycle_witness_to_assignment(inst, cycle)
            except NonCanonicalCycleError:
                hits += 1
                break
        if hits:
            break
    assert hits, "expected at least one inconsistently-traversed cycle"


def test_hamcycle_soundness_default():
    rng = random.Random(6)
    for _ in range(80):
        f = random_3cnf(rng, rng.randint(1, 3), rng.randint(1, 2))
        inst = reduce_to_hamcycle(f)
        if brute_force_sat(f).satisfiable:
            assert find_hamiltonian_cycle(inst.graph) is not None


def test_hamcycle_strict_full_iff_and_audit():
    rng = random.Random(7)
    for _ in range(80):
        f = random_3cnf(rng, rng.randint(1, 3), rng.randint(1, 2))
        inst = reduce_to_hamcycle(f, strict=True)
        sat = brute_force_sat(f).satisfiable
        found = False
        for cycle in iter_hamiltonian_cycles(inst.graph):
            found = True
            a = hamcycle_witness_to_assignment(inst, cycle)
            assert evaluate(f, a) is True
        assert found == sat


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_3cnf())
def test_hamcycle_strict_witness_round_trip_property(f):
    inst = reduce_to_hamcycle(f, strict=True)
    assert instance_from_json(instance_to_json(inst)).graph == inst.graph
    cycle = find_hamiltonian_cycle(inst.graph)
    assert (cycle is not None) == brute_force_sat(f).satisfiable
    if cycle is not None:
        assert evaluate(f, hamcycle_witness_to_assignment(inst, cycle)) is True


def _hamcycle_pin_corpus():
    """200 seeded 3-CNFs with clauses of width 1-3 drawn from few variables,
    so short clauses (padded by repetition) and repeated literals are common."""
    rng = random.Random(1972)
    corpus = []
    for _ in range(200):
        n = rng.randint(1, 5)
        lits = [v for v in range(1, n + 1)] + [-v for v in range(1, n + 1)]
        clauses = [
            tuple(rng.choice(lits) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 5))
        ]
        corpus.append(CnfFormula(n, clauses))
    return corpus


def _hamcycle_strict(f):
    return reduce_to_hamcycle(f, strict=True)


def _dot(inst):
    return to_dot(inst.graph, inst.dot_styling())


@pytest.mark.parametrize(
    "reduce, render, digest",
    [
        (reduce_to_hamcycle, instance_to_json, "938bef1d322f4f787a87404735491101f49babd7"),
        (_hamcycle_strict, instance_to_json, "023a76c7add1e0e9904e6afeeee51389ff25a60a"),
        (reduce_to_clique, instance_to_json, "0c195af87f45e75331a196eaecc30867d879b584"),
        (reduce_to_3color, instance_to_json, "4e2c2b071b9df8bbfbf70680a9badb9143a255f1"),
        (reduce_to_clique, _dot, "0426fd46d717acfcc3aec060707091d2884a873e"),
        (reduce_to_hamcycle, _dot, "10ec27ec77ab3aa9598f3ec6da6ca034fb6a4f6a"),
        (_hamcycle_strict, _dot, "659118bb17a158a19298122a672a7c46cc7bff83"),
        (reduce_to_3color, _dot, "284c014b3da32463fe49cc16a72a4919c5448693"),
    ],
    ids=["default", "strict", "clique", "3color",
         "dot-clique", "dot-default", "dot-strict", "dot-3color"],
)
def test_hamcycle_instances_are_pinned(reduce, render, digest):
    # The JSON dump (vertex order, edge set, index maps) and the styled DOT
    # text of every instance of the corpus, in all four kinds and modes.
    h = hashlib.sha1()
    for f in _hamcycle_pin_corpus():
        h.update(render(reduce(f)).encode())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# 3-COLOR


def test_3color_no_clauses():
    inst = reduce_to_3color(CnfFormula(3, []))
    assert len(inst.graph.vertices) == 9
    assert find_k_coloring(inst.graph, 3) is not None


def test_3color_single_clause():
    f = CnfFormula(1, [(1, 1, 1)])
    inst = reduce_to_3color(f)
    assert len(inst.graph.vertices) == 2 + 3 + 6
    coloring = find_k_coloring(inst.graph, 3)
    assert coloring is not None
    assert coloring_witness_to_assignment(inst, coloring) == {1: True}


def test_3color_every_coloring_forces_true():
    # all-false colorings of the clause gadget are impossible, so every
    # valid 3-coloring of the (x or x or x) instance sets x true
    f = CnfFormula(1, [(1, 1, 1)])
    inst = reduce_to_3color(f)
    g = inst.graph
    order = list(g.vertices)
    adj = adjacency_reference(g)
    count = 0

    def extend(i, colors):
        nonlocal count
        if i == len(order):
            count += 1
            a = coloring_witness_to_assignment(inst, dict(colors))
            assert a == {1: True}
            return
        v = order[i]
        for c in (1, 2, 3):
            if all(colors.get(w) != c for w in adj[v]):
                colors[v] = c
                extend(i + 1, colors)
                del colors[v]

    extend(0, {})
    assert count > 0


def test_3color_unsat():
    inst = reduce_to_3color(CnfFormula(1, [(1, 1, 1), (-1, -1, -1)]))
    assert find_k_coloring(inst.graph, 3) is None


def test_3color_size_formula():
    rng = random.Random(8)
    for _ in range(50):
        n, k = rng.randint(1, 4), rng.randint(0, 3)
        f = random_3cnf(rng, n, k)
        inst = reduce_to_3color(f)
        assert len(inst.graph.vertices) == 2 * n + 3 + 6 * k


def test_3color_iff_small():
    rng = random.Random(9)
    for _ in range(60):
        f = random_3cnf(rng, rng.randint(1, 3), rng.randint(1, 2))
        inst = reduce_to_3color(f)
        sat = brute_force_sat(f).satisfiable
        coloring = find_k_coloring(inst.graph, 3)
        assert (coloring is not None) == sat
        if coloring:
            a = coloring_witness_to_assignment(inst, coloring)
            assert evaluate(f, a) is True


def test_3color_witness_rejects_invalid():
    inst = reduce_to_3color(CnfFormula(1, [(1, 1, 1)]))
    with pytest.raises(ValueError, match="coloring"):
        coloring_witness_to_assignment(inst, {v: 1 for v in inst.graph.vertices})


def test_3color_rejects_no_variables():
    with pytest.raises(ValueError):
        reduce_to_3color(CnfFormula(0, []))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_3cnf())
def test_3color_witness_round_trip_property(f):
    inst = reduce_to_3color(f)
    assert instance_from_json(instance_to_json(inst)).graph == inst.graph
    coloring = find_k_coloring(inst.graph, 3)
    assert (coloring is not None) == brute_force_sat(f).satisfiable
    if coloring is not None:
        assert evaluate(f, coloring_witness_to_assignment(inst, coloring)) is True


# ---------------------------------------------------------------------------
# interchange


def test_instance_json_round_trip():
    f = FIG_EXAMPLE
    for inst in (
        reduce_to_clique(f),
        reduce_to_hamcycle(f),
        reduce_to_hamcycle(f, strict=True),
        reduce_to_3color(f),
    ):
        back = instance_from_json(instance_to_json(inst))
        assert type(back) is type(inst)
        assert back.graph == inst.graph
        assert back.formula == inst.formula
    # a look-alike with the fields and the kind of an instance is not one
    inst = reduce_to_clique(f)
    fake = SimpleNamespace(formula=inst.formula, graph=inst.graph, kind=inst.kind)
    with pytest.raises(TypeError, match="not a reduction instance"):
        instance_to_json(fake)


def test_instance_json_rejects_tampering():
    inst = reduce_to_clique(FIG_EXAMPLE)
    text = instance_to_json(inst).replace('"v:1:1:+:1"', '"v:9:9:+:9"')
    with pytest.raises(ValueError):
        instance_from_json(text)


@pytest.mark.parametrize(
    "field, value",
    [
        (None, None),
        ("formula", None),
        ("formula", {"num_vars": "3", "clauses": []}),
        ("formula", {"num_vars": 3, "clauses": [[1, "2"]]}),
        ("formula", {"num_vars": 3, "clauses": [[1, True]]}),
        ("kind", "matching"),
        ("vertices", [1, 2]),
        ("edges", [["v:1:1:+:1"]]),
        ("edges", None),
    ],
)
def test_instance_json_rejects_malformed_shapes(field, value):
    data = json.loads(instance_to_json(reduce_to_clique(FIG_EXAMPLE)))
    if field is None:
        data = []
    elif value is None:
        del data[field]
    else:
        data[field] = value
    with pytest.raises(ValueError, match="malformed instance file"):
        instance_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "inst",
    [
        reduce_to_clique(FIG_EXAMPLE),
        reduce_to_hamcycle(FIG_EXAMPLE),
        reduce_to_hamcycle(FIG_EXAMPLE, strict=True),
        reduce_to_3color(FIG_EXAMPLE),
    ],
    ids=["clique", "hamcycle", "hamcycle-strict", "3color"],
)
def test_instance_json_checks_size_before_reducing(inst, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("the reduction ran on a mis-sized file")

    data = json.loads(instance_to_json(inst))
    for name in ("reduce_to_clique", "reduce_to_hamcycle", "reduce_to_3color"):
        monkeypatch.setattr(reductions, name, unexpected)
    data["vertices"].pop()
    with pytest.raises(ValueError, match="does not match"):
        instance_from_json(json.dumps(data))
    # a tiny file claiming a huge formula is refused without building its graph
    data["formula"] = {"num_vars": 50_000, "clauses": []}
    with pytest.raises(ValueError, match="does not match"):
        instance_from_json(json.dumps(data))


def test_dot_styling_round():
    from satkit.reductions import HamCycleInstance

    for inst in (
        reduce_to_clique(FIG_EXAMPLE),
        reduce_to_hamcycle(FIG_EXAMPLE, strict=True),
        reduce_to_3color(FIG_EXAMPLE),
    ):
        text = to_dot(inst.graph, inst.dot_styling())
        check_dot(text, directed=isinstance(inst, HamCycleInstance))


def test_instance_json_checks_clique_edge_count_before_reducing(monkeypatch):
    class Reduced(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reduced

    good = instance_to_json(reduce_to_clique(FIG_EXAMPLE))
    rng = random.Random(15)
    f = random_3cnf(rng, 20, 800)
    data = {
        "formula": {"num_vars": f.num_vars, "clauses": [list(c) for c in f.clauses]},
        "vertices": [f"v{i}" for i in range(3 * len(f.clauses))],
        "edges": [],
        "kind": "clique",
    }
    monkeypatch.setattr(reductions, "reduce_to_clique", reached)
    with pytest.raises(ValueError, match="does not match"):
        instance_from_json(json.dumps(data))
    # control: the loader does call the patched reduction once the counts fit
    with pytest.raises(Reduced):
        instance_from_json(good)


def test_clique_edge_count_matches_built_graph():
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(1, 4)
        lits = [*range(1, n + 1), *range(-n, 0)]
        clauses = [
            tuple(rng.choice(lits) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 6))
        ]
        f = CnfFormula(n, clauses)
        want = len(reduce_to_clique(f).graph.edges)
        assert CliqueInstance.num_edges(f) == want, f


@pytest.mark.parametrize(
    "inst",
    [reduce_to_clique(FIG_EXAMPLE), reduce_to_hamcycle(FIG_EXAMPLE), reduce_to_3color(FIG_EXAMPLE)],
    ids=["clique", "hamcycle", "3color"],
)
def test_instance_json_refuses_a_repeated_edge(inst):
    data = json.loads(instance_to_json(inst))
    data["edges"].append(data["edges"][0])
    with pytest.raises(ValueError, match="does not match"):
        instance_from_json(json.dumps(data))
