"""The reduction graphs, their exhaustive ground-truth searches, and DOT export.

Vertices are opaque string labels. :class:`Graph` is undirected with set
semantics on edges, :class:`Digraph` is directed; parallel edges collapse
and self-loops are rejected. The two share one constructor and differ in
how an edge is stored and in the class attribute ``directed``. The
exhaustive finders (`find_clique`, `find_hamiltonian_cycle`,
`find_k_coloring`) are desk-scale oracles with fixed vertex budgets of 40,
32 and 24, past which they raise `BudgetExceededError`, and
deterministic, first-in-canonical-order results.

Each finder converts its graph to vertex indices once, searches on integer
state, and converts only its result back to labels. A digraph that is not
strongly connected, or in which two vertices have the same sole successor
or the same sole predecessor, has no Hamiltonian cycle and gets no search,
and colourings are searched one connected component at a time; none of
this changes the first witness.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Mapping

from ._record import Record
from .errors import refuse_over

Coloring = dict[str, int]


def _freeze(g, vertices, edges: frozenset[tuple[str, str]]) -> None:
    """Check and set the fields of ``g``; ``edges`` are already normalised."""
    vertices = tuple(vertices)
    vs = set(vertices)
    if len(vs) != len(vertices):
        raise ValueError("duplicate vertex labels")
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        if u not in vs or v not in vs:
            raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertex")
    object.__setattr__(g, "vertices", vertices)
    object.__setattr__(g, "edges", edges)


class Graph(Record):
    directed = False  # a class attribute, not a field
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # stored with endpoints sorted

    def __init__(self, vertices, edges=()):
        _freeze(self, vertices, frozenset(tuple(sorted(e)) for e in edges))

    def has_edge(self, u: str, v: str) -> bool:
        return tuple(sorted((u, v))) in self.edges


class Digraph(Record):
    directed = True
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, vertices, edges=()):
        _freeze(self, vertices, frozenset(tuple(e) for e in edges))

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges


def _reach(heads: list[list[int]], start: int, seen: list[bool]) -> list[int]:
    """Breadth-first, ``start`` first: the vertices not yet ``seen`` that ``heads``
    lead to from ``start``, each marked ``seen`` as it is reached."""
    seen[start] = True
    reached = [start]
    for i in reached:  # grows while it is walked
        for j in heads[i]:
            if not seen[j]:
                seen[j] = True
                reached.append(j)
    return reached


def verify_clique(g: Graph, s: set[str], k: int) -> bool:
    s = set(s)
    if len(s) < k:
        return False
    if not s <= set(g.vertices):
        return False
    return all(g.has_edge(u, v) for u, v in combinations(sorted(s), 2))


def find_clique(g: Graph, k: int) -> set[str] | None:
    """First k-subset (in sorted vertex order) forming a clique, if any.

    Backtracks over the sorted vertices, extending a partial clique only by
    later vertices adjacent to all of it, and gives up on a branch once
    fewer candidates remain than vertices are still needed. Cliques come
    out in ``combinations`` order, so the first one is the first k-subset
    that is a clique. Vertex sets are bitmasks over the sorted order.
    """
    refuse_over(len(g.vertices), "vertices", "clique-search", 40)
    if k <= 0:
        return set()
    order = sorted(g.vertices)
    at = {v: i for i, v in enumerate(order)}
    neighbours = [0] * len(order)
    for u, v in g.edges:
        neighbours[at[u]] |= 1 << at[v]
        neighbours[at[v]] |= 1 << at[u]
    chosen: list[int] = []

    def extend(candidates: int) -> bool:
        need = k - len(chosen)
        if need == 0:
            return True
        while candidates.bit_count() >= need:
            lowest = candidates & -candidates
            candidates ^= lowest  # what is left lies after the vertex taken
            i = lowest.bit_length() - 1
            chosen.append(i)
            if extend(candidates & neighbours[i]):
                return True
            chosen.pop()
        return False

    return {order[i] for i in chosen} if extend((1 << len(order)) - 1) else None


def verify_hamiltonian_cycle(g: Digraph, cycle: list[str]) -> bool:
    if len(cycle) != len(g.vertices) or set(cycle) != set(g.vertices):
        return False
    if len(cycle) <= 1:
        return False  # no self-loops, so a single vertex has no cycle
    return all(
        g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


def iter_hamiltonian_cycles(g: Digraph) -> Iterator[list[str]]:
    """All Hamiltonian cycles anchored at the first vertex, backtracking order.

    Anchoring at one fixed start vertex enumerates each cycle once up to
    rotation (reversals of a directed cycle are distinct cycles). A path
    grows by its last vertex's successors in sorted label order, so the
    cycles come out in depth-first order over each vertex's successors
    sorted by label. Two pre-checks yield none without a search: a digraph
    that is not strongly connected (one walk forward and one backward from
    the start vertex must each reach every vertex), and one where two
    vertices have the same sole successor or the same sole predecessor
    (that vertex's one cycle edge in or out cannot serve both). The search
    runs on indices in sorted label order, with an explicit stack of
    successor iterators, ``used`` flags, and a flag per vertex for an edge
    back to the start.
    """
    n = len(g.vertices)
    if n == 0 or n == 1:
        return
    order = sorted(g.vertices)
    at = {v: i for i, v in enumerate(order)}
    start = at[g.vertices[0]]
    succ: list[list[int]] = [[] for _ in order]
    pred: list[list[int]] = [[] for _ in order]
    for u, v in g.edges:
        i, j = at[u], at[v]
        succ[i].append(j)
        pred[j].append(i)
    for heads in (succ, pred):
        # A vertex with one successor (predecessor) must use that edge, and
        # two such vertices cannot share the vertex it leads to (comes from).
        sole = [h[0] for h in heads if len(h) == 1]
        if len(set(sole)) < len(sole) or len(_reach(heads, start, [False] * n)) < n:
            return
    closes = [False] * n  # has an edge to the start
    for i in pred[start]:
        closes[i] = True
    for heads in succ:
        heads.sort()
    path = [start]
    used = [False] * n
    used[start] = True
    stack = [iter(succ[start])]
    last = n - 1  # the path length at which a vertex closes the cycle
    while stack:
        for w in stack[-1]:
            if used[w]:
                continue
            if len(path) == last:
                if closes[w]:
                    yield [order[i] for i in path] + [order[w]]
                continue
            used[w] = True
            path.append(w)
            stack.append(iter(succ[w]))
            break
        else:
            stack.pop()
            used[path.pop()] = False


def find_hamiltonian_cycle(g: Digraph) -> list[str] | None:
    """The first cycle of :func:`iter_hamiltonian_cycles`, or None.

    It comes from the same integer search and the same pre-checks, so a
    digraph that is not strongly connected, or whose vertices share a sole
    successor or a sole predecessor, gives None with no search.
    """
    refuse_over(len(g.vertices), "vertices", "cycle-search", 32)
    return next(iter_hamiltonian_cycles(g), None)


def verify_coloring(g: Graph, c: Mapping[str, int], k: int) -> bool:
    if set(c) != set(g.vertices):
        return False
    if not all(1 <= c[v] <= k for v in g.vertices):
        return False
    return all(c[u] != c[v] for u, v in g.edges)


def find_k_coloring(g: Graph, k: int) -> Coloring | None:
    """First valid k-coloring in vertex order, colors tried ascending.

    That is the coloring whose color sequence, read in ``g.vertices``
    order, is lexicographically first. Components share no edge, so each
    connected component is searched on its own, in vertex order, and the
    first colorings of the components merge into the first coloring of
    the graph; if any component has none, neither has the graph. The
    search backtracks over vertex indices with one flat list of colors
    (0 for none), and a vertex checks only its earlier neighbours, the
    only ones colored when it is tried.
    """
    refuse_over(len(g.vertices), "vertices", "coloring-search", 24)
    vertices = g.vertices
    n = len(vertices)
    at = {v: i for i, v in enumerate(vertices)}
    neighbours: list[list[int]] = [[] for _ in vertices]
    earlier: list[list[int]] = [[] for _ in vertices]
    for u, v in g.edges:
        i, j = at[u], at[v]
        if i > j:
            i, j = j, i
        neighbours[i].append(j)
        neighbours[j].append(i)
        earlier[j].append(i)
    color = [0] * n
    color_of = color.__getitem__
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        component = sorted(_reach(neighbours, root, seen))
        pos, size = 0, len(component)
        while pos < size:
            i = component[pos]
            taken = set(map(color_of, earlier[i]))
            c = color[i] + 1
            while c in taken:
                c += 1
            if c <= k:
                color[i] = c
                pos += 1
            elif pos:
                color[i] = 0
                pos -= 1
            else:  # the component's first vertex has run out of colors
                return None
    return dict(zip(vertices, color))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph | Digraph, styling: Mapping[str, Mapping[str, str]] | None = None) -> str:
    """DOT text for the graph; ``styling`` maps labels to attribute dicts."""
    lines = ["digraph G {" if g.directed else "graph G {"]
    styling = styling or {}
    for v in g.vertices:
        attrs = styling.get(v)
        if attrs:
            body = ", ".join(f"{key}={_dot_quote(str(val))}" for key, val in sorted(attrs.items()))
            lines.append(f"  {_dot_quote(v)} [{body}];")
        else:
            lines.append(f"  {_dot_quote(v)};")
    arrow = "->" if g.directed else "--"
    for u, v in sorted(g.edges):
        lines.append(f"  {_dot_quote(u)} {arrow} {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
