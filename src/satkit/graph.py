"""The reduction graphs, their exhaustive ground-truth searches, and DOT export.

Vertices are opaque string labels. :class:`Graph` is undirected with set
semantics on edges, :class:`Digraph` is directed; parallel edges collapse
and self-loops are rejected. The two share one constructor and one
neighbour-list builder and differ in how an edge is stored and in the
class attribute ``directed``. The exhaustive finders (`find_clique`,
`find_hamiltonian_cycle`, `find_k_coloring`) are desk-scale oracles with
fixed vertex budgets of 40, 32 and 24, past which they raise
`BudgetExceededError`, and deterministic, first-in-canonical-order results.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Mapping

from ._record import Record
from .errors import BudgetExceededError

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


def _sorted_neighbours(g: Graph | Digraph) -> dict[str, list[str]]:
    """Each vertex's neighbours in sorted order, keyed in vertex order."""
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for u, v in g.edges:
        adj[u].append(v)
    if not g.directed:
        for u, v in g.edges:
            adj[v].append(u)
    for heads in adj.values():
        heads.sort()
    return adj


class Graph(Record):
    directed = False  # a class attribute, not a field
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # stored with endpoints sorted

    def __init__(self, vertices, edges=()):
        _freeze(self, vertices, frozenset(tuple(sorted(e)) for e in edges))

    def has_edge(self, u: str, v: str) -> bool:
        return tuple(sorted((u, v))) in self.edges

    def adjacency(self) -> dict[str, list[str]]:
        """Each vertex's neighbours in sorted order, keyed in vertex order."""
        return _sorted_neighbours(self)


class Digraph(Record):
    directed = True
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, vertices, edges=()):
        _freeze(self, vertices, frozenset(tuple(e) for e in edges))

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges

    def successors(self) -> dict[str, list[str]]:
        """Each vertex's successors in sorted order, keyed in vertex order."""
        return _sorted_neighbours(self)


def _within_budget(g: Graph | Digraph, budget: int, search: str) -> None:
    if len(g.vertices) > budget:
        raise BudgetExceededError(
            f"{len(g.vertices)} vertices exceed the {search}-search budget of {budget}"
        )


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
    _within_budget(g, 40, "clique")
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
    rotation (reversals of a directed cycle are distinct cycles).
    """
    n = len(g.vertices)
    if n == 0 or n == 1:
        return
    adj = g.successors()
    start = g.vertices[0]
    path = [start]
    used = {start}

    def extend() -> Iterator[list[str]]:
        if len(path) == n:
            if g.has_edge(path[-1], start):
                yield list(path)
            return
        for w in adj[path[-1]]:
            if w not in used:
                used.add(w)
                path.append(w)
                yield from extend()
                path.pop()
                used.discard(w)

    yield from extend()


def find_hamiltonian_cycle(g: Digraph) -> list[str] | None:
    _within_budget(g, 32, "cycle")
    return next(iter_hamiltonian_cycles(g), None)


def verify_coloring(g: Graph, c: Mapping[str, int], k: int) -> bool:
    if set(c) != set(g.vertices):
        return False
    if not all(1 <= c[v] <= k for v in g.vertices):
        return False
    return all(c[u] != c[v] for u, v in g.edges)


def find_k_coloring(g: Graph, k: int) -> Coloring | None:
    """First valid k-coloring in vertex order, colors tried ascending."""
    _within_budget(g, 24, "coloring")
    adj = g.adjacency()
    order = list(g.vertices)
    color: Coloring = {}

    def assign(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for col in range(1, k + 1):
            if all(color.get(w) != col for w in adj[v]):
                color[v] = col
                if assign(i + 1):
                    return True
                del color[v]
        return False

    return dict(color) if assign(0) else None


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
