import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from satkit.errors import BudgetExceededError
from satkit.formula import CnfFormula
from satkit.graph import (
    Digraph,
    Graph,
    find_clique,
    find_hamiltonian_cycle,
    find_k_coloring,
    iter_hamiltonian_cycles,
    to_dot,
    verify_clique,
    verify_coloring,
    verify_hamiltonian_cycle,
)
from satkit.reductions import reduce_to_clique
from support import (
    check_dot,
    find_clique_reference,
    find_k_coloring_reference,
    is_bipartite_reference,
    iter_hamiltonian_cycles_reference,
    scc_by_closure,
    scc_reference,
)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(["a"], [("a", "a")])
    with pytest.raises(ValueError, match="unknown vertex"):
        Digraph(["a"], [("a", "b")])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(["a", "a"], [])


def test_scc_single_vertex():
    comps, comp = scc_reference(Digraph(["v"], []))
    assert comps == [frozenset({"v"})]
    assert comp == {"v": 0}


def test_scc_two_cycle():
    comps, _ = scc_reference(Digraph(["u", "v"], [("u", "v"), ("v", "u")]))
    assert comps == [frozenset({"u", "v"})]


def test_scc_example_implication_graph():
    # literals a, b, c and negations wired per the four binary clauses
    vs = ["a", "-a", "b", "-b", "c", "-c"]
    es = [
        ("-a", "-b"), ("b", "a"),
        ("a", "b"), ("-b", "-a"),
        ("a", "-b"), ("b", "-a"),
        ("-a", "-c"), ("c", "a"),
    ]
    _, comp = scc_reference(Digraph(vs, es))
    assert comp["a"] < comp["-a"]
    assert comp["b"] < comp["-b"]
    assert comp["c"] < comp["-c"]


def _exhaustive_digraphs(n):
    vs = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for a in vs for b in vs if a != b]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        yield Digraph(vs, [p for p, b in zip(pairs, bits) if b])


def test_scc_matches_reachability_oracle_exhaustive():
    for g in _exhaustive_digraphs(3):
        comps, comp = scc_reference(g)
        assert set(comps) == scc_by_closure(g.vertices, g.edges)
        for u, v in g.edges:
            assert comp[u] <= comp[v]
        # returned list is the reverse of the comp order
        position = {c: i for i, c in enumerate(comps)}
        for u in g.vertices:
            assert comp[u] == len(comps) - 1 - position[next(c for c in comps if u in c)]


def test_scc_matches_reachability_oracle_random():
    rng = random.Random(12)
    for trial in range(300):
        n = rng.randint(4, 6)
        vs = [f"v{i}" for i in range(n)]
        es = {
            (rng.choice(vs), rng.choice(vs))
            for _ in range(rng.randint(0, n * n))
        }
        es = {(a, b) for a, b in es if a != b}
        g = Digraph(vs, es)
        comps, comp = scc_reference(g)
        assert set(comps) == scc_by_closure(vs, es)
        reach = {v: {v} for v in vs}
        for _ in vs:
            for a, b in es:
                reach[a] |= reach[b]
        for u in vs:
            for v in reach[u]:
                assert comp[u] <= comp[v]


def test_scc_partition_covers_vertices():
    g = Digraph(["a", "b", "c"], [("a", "b")])
    comps, comp = scc_reference(g)
    assert sorted(v for s in comps for v in s) == ["a", "b", "c"]
    assert set(comp) == {"a", "b", "c"}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    vs = [f"v{i}" for i in draw(st.permutations(range(n)))]
    pairs = list(itertools.combinations(vs, 2))
    return Graph(vs, draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else [])


def _bfs_colors_plus_one(g):
    # The first 2-coloring in vertex order gives each component's first
    # vertex color 1, and every other vertex is forced.
    ref = is_bipartite_reference(g)
    return None if ref is None else {v: c + 1 for v, c in ref.items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_graphs())
def test_bipartite_matches_reference(g):
    assert find_k_coloring(g, 2) == _bfs_colors_plus_one(g)


def test_bipartite_agrees_with_two_coloring_search():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(2, 7)
        vs = [f"v{i}" for i in range(n)]
        es = {tuple(sorted(rng.sample(vs, 2))) for _ in range(rng.randint(0, 2 * n))}
        g = Graph(vs, es)
        two = _bfs_colors_plus_one(g)
        brute = find_k_coloring(g, 2)
        assert (two is None) == (brute is None)
        if two is not None:
            assert verify_coloring(g, two, 2)
            assert verify_coloring(g, brute, 2)


def test_two_coloring_search_on_components_listed_out_of_order():
    # a path a-b-c, an edge d-e, an isolated f, and a square w-x-y-z
    vs = ["e", "z", "b", "a", "f", "x", "d", "w", "c", "y"]
    es = [("a", "b"), ("b", "c"), ("d", "e"), ("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")]
    g = Graph(vs, es)
    want = {"e": 1, "z": 1, "b": 1, "a": 2, "f": 1, "x": 1, "d": 2, "w": 2, "c": 2, "y": 2}
    assert find_k_coloring(g, 2) == _bfs_colors_plus_one(g) == want
    # a triangle in any one component leaves no 2-coloring
    triangle = Graph([*vs, "t"], [*es, ("t", "a"), ("t", "b")])
    assert find_k_coloring(triangle, 2) is None
    assert _bfs_colors_plus_one(triangle) is None


def _k(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(a, b) for a, b in itertools.combinations(vs, 2)])


def test_clique_verify_and_find():
    k3 = _k(3)
    assert verify_clique(k3, set(k3.vertices), 3)
    assert not verify_clique(k3, set(k3.vertices), 4)
    assert find_clique(_k(4), 4) == set(_k(4).vertices)
    square = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert find_clique(square, 3) is None
    assert verify_clique(k3, set(), 0)
    assert not verify_clique(k3, {"v0", "nope"}, 1)


@st.composite
def clique_search_cases(draw):
    n = draw(st.integers(0, 12))
    vs = [f"v{i}" for i in draw(st.permutations(range(n)))]
    pairs = list(itertools.combinations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(vs, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(clique_search_cases())
def test_find_clique_matches_the_exhaustive_reference(g):
    for k in range(-1, len(g.vertices) + 2):
        assert find_clique(g, k) == find_clique_reference(g, k), k


def _sign_patterns_clique(num_clauses):
    """CLIQUE instance of the eight sign patterns of (x1, x2, x3), which no
    assignment satisfies, padded to ``num_clauses`` clauses by repeats."""
    patterns = [tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                for signs in itertools.product((1, -1), repeat=3)]
    f = CnfFormula(3, (patterns * 2)[:num_clauses])
    return reduce_to_clique(f)


@pytest.mark.parametrize("num_clauses", [9, 13])
def test_find_clique_finishes_unsatisfiable_in_budget_instances(num_clauses):
    inst = _sign_patterns_clique(num_clauses)
    assert (inst.k, len(inst.graph.vertices)) == (num_clauses, 3 * num_clauses)
    assert find_clique(inst.graph, inst.k) is None
    assert verify_clique(inst.graph, find_clique(inst.graph, 8), 8)


def test_clique_budget():
    vs = [f"v{i}" for i in range(41)]
    with pytest.raises(BudgetExceededError):
        find_clique(Graph(vs, []), 2)


def test_hamiltonian_verify():
    tri = Digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert verify_hamiltonian_cycle(tri, ["a", "b", "c"])
    assert not verify_hamiltonian_cycle(tri, ["a", "c", "b"])
    assert not verify_hamiltonian_cycle(tri, ["a", "b", "b"])
    assert not verify_hamiltonian_cycle(tri, ["a", "b"])
    # no self-loops, so a lone vertex has no cycle through it
    assert not verify_hamiltonian_cycle(Digraph("a", []), ["a"])


def test_hamiltonian_find():
    tri = Digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert find_hamiltonian_cycle(tri) == ["a", "b", "c"]
    assert find_hamiltonian_cycle(Digraph("ab", [])) is None
    for vertices in ("", "a"):
        assert list(iter_hamiltonian_cycles(Digraph(vertices, []))) == []
        assert find_hamiltonian_cycle(Digraph(vertices, [])) is None
    both = Digraph("ab", [("a", "b"), ("b", "a")])
    assert find_hamiltonian_cycle(both) == ["a", "b"]
    with pytest.raises(BudgetExceededError):
        find_hamiltonian_cycle(Digraph([f"v{i}" for i in range(33)], []))


def test_hamiltonian_enumeration_is_rotation_free():
    square = Digraph(
        "abcd",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"), ("c", "a")],
    )
    cycles = list(iter_hamiltonian_cycles(square))
    assert cycles == [["a", "b", "c", "d"]]
    for c in cycles:
        assert verify_hamiltonian_cycle(square, c)


@st.composite
def coloring_search_cases(draw):
    n = draw(st.integers(0, 10))
    vs = [f"v{i}" for i in draw(st.permutations(range(n)))]
    pairs = list(itertools.combinations(vs, 2))
    return Graph(vs, draw(st.lists(st.sampled_from(pairs), max_size=18)) if pairs else [])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(coloring_search_cases())
def test_find_k_coloring_matches_the_whole_graph_reference(g):
    # Labels are drawn in shuffled order, so components interleave in
    # vertex order, and sparse draws leave isolated vertices.
    for k in range(1, 5):
        got, want = find_k_coloring(g, k), find_k_coloring_reference(g, k)
        assert got == want, k
        if got is not None:
            assert list(got) == list(want) == list(g.vertices)


@st.composite
def cycle_search_cases(draw):
    n = draw(st.integers(0, 7))
    vs = [f"v{i}" for i in draw(st.permutations(range(n)))]
    pairs = list(itertools.permutations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    if vs and draw(st.booleans()):
        # one vertex loses its out-edges (side 0) or its in-edges (side 1)
        cut, side = draw(st.sampled_from(vs)), draw(st.integers(0, 1))
        edges = [e for e in edges if e[side] != cut]
    if n > 3 and draw(st.booleans()):
        # two parts, each on a cycle, joined by edges in one direction only:
        # every vertex keeps a successor and a predecessor
        cut = draw(st.integers(2, n - 2))
        source, sink = vs[:cut], vs[cut:]
        if draw(st.booleans()):
            source, sink = sink, source
        edges = [(u, v) for u, v in edges if not (u in sink and v in source)]
        for part in (source, sink):
            edges += zip(part, part[1:] + part[:1])
    if n > 2 and draw(st.booleans()):
        # two vertices keep one out-edge (side 0) or one in-edge (side 1),
        # both to or from the same third vertex
        hub, a, b = draw(st.permutations(vs))[:3]
        side = draw(st.integers(0, 1))
        edges = [e for e in edges if e[side] not in (a, b)]
        edges += [(a, hub), (b, hub)] if side == 0 else [(hub, a), (hub, b)]
    return Digraph(vs, edges)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cycle_search_cases())
def test_iter_hamiltonian_cycles_matches_the_recursive_reference(g):
    want = list(iter_hamiltonian_cycles_reference(g))
    assert list(iter_hamiltonian_cycles(g)) == want
    assert find_hamiltonian_cycle(g) == (want[0] if want else None)


def test_coloring_search_ends_on_isolated_vertices_listed_before_a_k4():
    vs = [f"i{n:02d}" for n in range(20)] + ["k0", "k1", "k2", "k3"]
    g = Graph(vs, itertools.combinations(vs[20:], 2))
    assert len(g.vertices) == 24
    assert find_k_coloring(g, 3) is None


def _interleaved_diamond(isolated: int) -> Graph:
    # The diamond a1-p-q-w forces w = a1, and w-a2 then forces a2 != a1, so
    # a2's first colour is wrong; the isolated vertices sit between a2 and
    # the diamond in vertex order.
    vs = ["a1", "a2", *(f"i{n:02d}" for n in range(isolated)), "p", "q", "w"]
    edges = [("a1", "p"), ("a1", "q"), ("p", "q"), ("p", "w"), ("q", "w"), ("w", "a2")]
    return Graph(vs, edges)


def test_coloring_search_splits_components_so_a_late_conflict_skips_isolated_vertices():
    # Searched as one graph, the wrong colour of a2 is found only after
    # trying every colouring of the 19 isolated vertices: hours, not ms.
    g = _interleaved_diamond(19)
    assert len(g.vertices) == 24
    want = {"a1": 1, "a2": 2, "p": 2, "q": 3, "w": 1}
    assert find_k_coloring(g, 3) == {v: want.get(v, 1) for v in g.vertices}
    small = _interleaved_diamond(8)
    assert find_k_coloring(small, 3) == find_k_coloring_reference(small, 3)


@pytest.mark.parametrize("side", ["no successor", "no predecessor"])
def test_cycle_search_ends_on_a_complete_digraph_with_a_dead_end_vertex(side):
    vs = [f"v{i:02d}" for i in range(31)]
    dead_end = [(v, "x") for v in vs] if side == "no successor" else [("x", v) for v in vs]
    g = Digraph([*vs, "x"], [*itertools.permutations(vs, 2), *dead_end])
    assert len(g.vertices) == 32
    assert find_hamiltonian_cycle(g) is None
    assert list(iter_hamiltonian_cycles(g)) == []


@pytest.mark.parametrize("side", ["sole successor", "sole predecessor"])
def test_cycle_search_ends_on_two_vertices_sharing_a_sole_neighbour(side):
    # strongly connected, but x and y can only leave to (or enter from) v00
    vs = [f"v{i:02d}" for i in range(30)]
    edges = list(itertools.permutations(vs, 2))
    for extra in ("x", "y"):
        if side == "sole successor":
            edges += [(extra, "v00"), *((v, extra) for v in vs)]
        else:
            edges += [("v00", extra), *((extra, v) for v in vs)]
    g = Digraph([*vs, "x", "y"], edges)
    assert len(g.vertices) == 32
    assert find_hamiltonian_cycle(g) is None
    assert list(iter_hamiltonian_cycles(g)) == []


def test_cycle_search_ends_on_two_complete_digraphs_joined_one_way():
    a, b = ([f"{side}{i:02d}" for i in range(15)] for side in "ab")
    edges = [*itertools.permutations(a, 2), *itertools.permutations(b, 2), ("a00", "b00")]
    g = Digraph([*a, *b], edges)
    assert len(g.vertices) == 30
    assert find_hamiltonian_cycle(g) is None
    assert list(iter_hamiltonian_cycles(g)) == []


def test_coloring_verify_and_find():
    k3 = _k(3)
    assert verify_coloring(k3, {"v0": 1, "v1": 2, "v2": 3}, 3)
    assert not verify_coloring(k3, {"v0": 1, "v1": 1, "v2": 2}, 3)
    edge = Graph("ab", [("a", "b")])
    assert not verify_coloring(edge, {"a": 1, "b": 1}, 2)
    assert not verify_coloring(edge, {"a": 1}, 2)
    assert not verify_coloring(edge, {"a": 1, "b": 5}, 2)
    assert find_k_coloring(k3, 3) is not None
    assert find_k_coloring(_k(4), 3) is None
    assert find_k_coloring(k3, 2) is None
    with pytest.raises(BudgetExceededError):
        find_k_coloring(Graph([f"v{i}" for i in range(25)], []), 3)


def test_finders_pass_their_verifiers():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 7)
        vs = [f"v{i}" for i in range(n)]
        es = {tuple(sorted(rng.sample(vs, 2))) for _ in range(rng.randint(0, 2 * n))}
        g = Graph(vs, es)
        got = find_clique(g, 2)
        if got is not None:
            assert verify_clique(g, got, 2)
        coloring = find_k_coloring(g, 3)
        if coloring is not None:
            assert verify_coloring(g, coloring, 3)
        des = {(a, b) for a, b in es} | {(b, a) for a, b in es}
        cycle = find_hamiltonian_cycle(Digraph(vs, des))
        if cycle is not None:
            assert verify_hamiltonian_cycle(Digraph(vs, des), cycle)


def test_to_dot():
    single = Graph(["v"], [])
    text = to_dot(single)
    assert '"v";' in text
    check_dot(text, directed=False)

    pair = Graph("ab", [("a", "b")])
    text = to_dot(pair)
    assert '"a" -- "b";' in text
    check_dot(text, directed=False)

    arrow = Digraph("ab", [("a", "b")])
    text = to_dot(arrow)
    assert '"a" -> "b";' in text
    check_dot(text, directed=True)

    styled = to_dot(pair, {"a": {"shape": "box", "fillcolor": "red"}})
    assert '"a" [fillcolor="red", shape="box"];' in styled
    check_dot(styled, directed=False)


def test_searches_run_at_their_budgets():
    vs = [f"v{i}" for i in range(40)]
    assert find_clique(Graph(vs), 2) is None
    assert find_hamiltonian_cycle(Digraph(vs[:32])) is None
    assert find_k_coloring(Graph(vs[:24]), 3) == dict.fromkeys(vs[:24], 1)


@pytest.mark.parametrize("search, g, message", [
    (lambda g: find_clique(g, 2), Graph([f"v{i}" for i in range(41)]),
     "41 vertices exceed the clique-search budget of 40"),
    (find_hamiltonian_cycle, Digraph([f"v{i}" for i in range(33)]),
     "33 vertices exceed the cycle-search budget of 32"),
    (lambda g: find_k_coloring(g, 3), Graph([f"v{i}" for i in range(25)]),
     "25 vertices exceed the coloring-search budget of 24"),
])
def test_searches_refuse_one_vertex_past_their_budgets(search, g, message):
    with pytest.raises(BudgetExceededError) as refused:
        search(g)
    assert str(refused.value) == message


@pytest.mark.parametrize("cls", [Graph, Digraph])
def test_graph_validation_messages(cls):
    for vertices, edges, message in [
        ("aa", [], "duplicate vertex labels"),
        ("ab", [("b", "b")], "self-loop on 'b'"),
        ("ab", [("a", "c")], "edge ('a', 'c') references unknown vertex"),
    ]:
        with pytest.raises(ValueError) as refused:
            cls(vertices, edges)
        assert str(refused.value) == message


def test_graph_and_digraph_identity():
    g, h = Graph("ab", [("b", "a")]), Graph("ab", [("a", "b")])
    assert g == h and hash(g) == hash(h)
    assert repr(g) == "Graph(vertices=('a', 'b'), edges=frozenset({('a', 'b')}))"
    d, e = Digraph("ab", [("b", "a")]), Digraph("ab", [("b", "a")])
    assert d == e and hash(d) == hash(e)
    assert repr(d) == "Digraph(vertices=('a', 'b'), edges=frozenset({('b', 'a')}))"
    assert Graph("ab", [("a", "b")]) != Digraph("ab", [("a", "b")])
    assert Graph("ab") != Digraph("ab")
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert d.has_edge("b", "a") and not d.has_edge("a", "b")


def test_direction_is_a_class_attribute_not_a_field():
    assert (Graph.directed, Digraph.directed) == (False, True)
    for cls in (Graph, Digraph):
        assert cls._fields == ("vertices", "edges")
