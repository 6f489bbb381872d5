"""3-CNF to CLIQUE / HAM-CYCLE / 3-COLOR reductions with witness translation.

Inputs are CNF formulas of clause width <= 3 with no empty clauses; shorter
clauses are padded by repeating their last literal, which changes nothing
semantically. Vertex labels encode structure with colon separators (clique
occurrences get a slot suffix so repeated literals stay distinct vertices);
the typed index maps on each instance are authoritative, labels exist for
DOT output and JSON interchange.

Each instance class holds what is specific to its kind: the reduction that
builds it, its documented vertex count, its witness format, verifier and
back-translation, its DOT styling and the fields its JSON dump adds.
:data:`KINDS` maps each ``kind`` to its class, and the JSON loader and
writer and the CLI read that table instead of branching on kind; DOT output
asks the instance itself, through its ``dot_styling`` method.

The Hamiltonian-cycle construction comes in two flavours. The default wires
each clause vertex straight between positions 2j-1 and 2j of its variables'
sub-paths and connects sub-path ends directly in sequence. That version is
sound (satisfiable formulas always yield a cycle) but admits stray cycles
that hop between different variables' paths through a clause vertex, so
cycle witnesses do not always translate back to satisfying assignments.
``strict=True`` hardens the graph: separator vertices go between
consecutive position pairs and at both ends of every sub-path, and each
sub-path gets entry/exit tip vertices so a cycle must actually traverse the
chain instead of slipping past an end. Use strict instances when the cycle
itself must certify satisfiability.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations

from ._record import Record
from .formula import Assignment, Clause, CnfFormula, evaluate, max_clause_width
from .graph import (
    Digraph,
    Graph,
    verify_clique,
    verify_coloring,
    verify_hamiltonian_cycle,
)


class NonCanonicalCycleError(ValueError):
    """A Hamiltonian cycle that traverses some sub-path inconsistently."""


def pad_clause(clause: Clause) -> Clause:
    """Pad to exactly three literal slots by repeating the last literal."""
    if not clause:
        raise ValueError("empty clause cannot be reduced")
    if len(clause) > 3:
        raise ValueError("clause wider than 3: transform with to_3cnf first")
    return clause + clause[-1:] * (3 - len(clause))


def _padded(f: CnfFormula) -> tuple[Clause, ...]:
    if max_clause_width(f) > 3:
        raise ValueError("formula is not 3-CNF: transform with to_3cnf first")
    return tuple(pad_clause(c) for c in f.clauses)


# ---------------------------------------------------------------------------
# CLIQUE


class CliqueInstance(Record):
    # Class attributes, not fields: the kind, the fields the JSON dump adds
    # (in order), the fields the CLI's summary line adds, and the witness
    # file's key, its JSON container and the type of its entries. Each
    # class's ``reduce`` looks the module-level reduction up when called,
    # so a stand-in patched over ``reduce_to_*`` is what the loader runs.
    kind = "clique"
    json_extras = ("k", "vertex_index", "clause_slots")
    summary_extras = ("k",)
    witness_key, witness_container, witness_entry = "vertices", list, str
    graph: Graph
    k: int
    vertex_index: dict[str, tuple[int, int, int]]  # label -> (var, clause, sign)
    clause_slots: tuple[tuple[str, str, str], ...]
    formula: CnfFormula
    padded: tuple[Clause, ...]

    @staticmethod
    def reduce(f: CnfFormula, strict: bool) -> CliqueInstance:
        return reduce_to_clique(f)  # only HAM-CYCLE has a strict mode

    @staticmethod
    def num_vertices(n: int, k: int, strict: bool) -> int:
        return 3 * k

    @staticmethod
    def num_edges(f: CnfFormula) -> int:
        """|E| as the clauses fix it, without building the graph: all pairs
        of the 3k occurrences, less the 3k pairs inside one clause and the
        complementary pairs across clauses. Only CLIQUE has this hook: its
        |E| grows with |V|^2, the other two graphs' with |V|."""
        padded = _padded(f)
        count = Counter(lit for clause in padded for lit in clause)
        complementary = sum(count[lit] * count[-lit] for lit in count if lit > 0)
        within = sum(a == -b for clause in padded for a, b in combinations(clause, 2))
        m = 3 * len(padded)
        return m * (m - 1) // 2 - m - (complementary - within)

    def verify(self, s: set[str]) -> bool:
        return verify_clique(self.graph, s, self.k)

    def to_assignment(self, s: set[str]) -> Assignment:
        """Read variable values off a verified k-clique; leftovers default false."""
        if not self.verify(s):
            raise ValueError("not a valid clique of the required size")
        witness: Assignment = {}
        for label in s:
            i, _, h = self.vertex_index[label]
            want = h > 0
            assert witness.get(i, want) == want, "edge rule admitted a contradiction"
            witness[i] = want
        for v in range(1, self.formula.num_vars + 1):
            witness.setdefault(v, False)
        return witness

    def dot_styling(self) -> dict[str, dict[str, str]]:
        palette = ["lightblue", "lightyellow", "lightpink", "lightgreen", "lavender", "wheat"]
        return {
            label: {"style": "filled", "fillcolor": palette[(j - 1) % len(palette)]}
            for label, (_, j, _) in self.vertex_index.items()
        }


def reduce_to_clique(f: CnfFormula) -> CliqueInstance:
    """One vertex per literal occurrence; edges join occurrences from
    different clauses that are not complementary literals of one variable.
    The target clique size k is the clause count."""
    if not f.clauses:
        raise ValueError("empty formula: nothing to reduce")
    padded = _padded(f)
    k = len(padded)
    vertex_index: dict[str, tuple[int, int, int]] = {}
    clause_slots = []
    for j, clause in enumerate(padded, start=1):
        slots = []
        for slot, lit in enumerate(clause, start=1):
            h = "+" if lit > 0 else "-"
            label = f"v:{abs(lit)}:{j}:{h}:{slot}"
            vertex_index[label] = (abs(lit), j, 1 if lit > 0 else -1)
            slots.append(label)
        clause_slots.append(tuple(slots))
    vertices = list(vertex_index)
    edges = set()
    labels = list(vertex_index.items())
    for a in range(len(labels)):
        la, (ia, ja, ha) = labels[a]
        for b in range(a + 1, len(labels)):
            lb, (ib, jb, hb) = labels[b]
            if ja != jb and not (ia == ib and ha != hb):
                edges.add((la, lb))
    return CliqueInstance(
        Graph(vertices, edges), k, vertex_index, tuple(clause_slots), f, padded
    )


clique_witness_to_assignment = CliqueInstance.to_assignment


def assignment_to_clique(inst: CliqueInstance, a: Assignment) -> set[str]:
    """Pick, per clause, the first literal occurrence the assignment makes true."""
    if evaluate(inst.formula, a) is not True:
        raise ValueError("assignment does not satisfy the source formula")
    chosen = set()
    for j, clause in enumerate(inst.padded):
        for slot, lit in enumerate(clause):
            if a.get(abs(lit)) == (lit > 0):
                chosen.add(inst.clause_slots[j][slot])
                break
    return chosen


# ---------------------------------------------------------------------------
# HAM-CYCLE


class HamCycleInstance(Record):
    kind = "hamcycle"
    json_extras = ("strict", "subpath_index", "clause_vertices", "source", "target")
    summary_extras = ()
    witness_key, witness_container, witness_entry = "cycle", list, str
    graph: Digraph
    subpath_index: dict[tuple[int, int], str]  # (var, position 1..2k) -> label
    clause_vertices: dict[int, str]
    source: str
    target: str
    strict: bool
    formula: CnfFormula
    padded: tuple[Clause, ...]

    @property
    def num_vars(self) -> int:
        return self.formula.num_vars

    @property
    def k(self) -> int:
        return len(self.padded)

    @staticmethod
    def reduce(f: CnfFormula, strict: bool) -> HamCycleInstance:
        return reduce_to_hamcycle(f, strict)

    @staticmethod
    def num_vertices(n: int, k: int, strict: bool) -> int:
        return n * (3 * k + 3) + k + 2 if strict else 2 * n * k + k + 2

    def verify(self, cycle: list[str]) -> bool:
        return verify_hamiltonian_cycle(self.graph, cycle)

    def to_assignment(self, cycle: list[str]) -> Assignment:
        """Read each variable's truth value off its sub-path traversal direction.

        The cycle is rotated to start at s; a variable is true when position 1
        of its sub-path precedes position 2k. A sub-path whose positions are not
        visited in strictly increasing or strictly decreasing order raises
        :class:`NonCanonicalCycleError` (possible on non-strict instances).
        """
        if not self.verify(cycle):
            raise ValueError("not a Hamiltonian cycle of the instance graph")
        at = cycle.index(self.source)
        rotated = cycle[at:] + cycle[:at]
        order = {label: idx for idx, label in enumerate(rotated)}
        witness: Assignment = {}
        span = 2 * self.k
        for i in range(1, self.num_vars + 1):
            ranked = sorted(range(1, span + 1), key=lambda pos: order[self.subpath_index[(i, pos)]])
            if ranked == list(range(1, span + 1)):
                witness[i] = True
            elif ranked == list(range(span, 0, -1)):
                witness[i] = False
            else:
                raise NonCanonicalCycleError(
                    f"sub-path of variable {i} is traversed inconsistently"
                )
        return witness

    def dot_styling(self) -> dict[str, dict[str, str]]:
        style: dict[str, dict[str, str]] = {}
        for label in self.clause_vertices.values():
            style[label] = {"shape": "box", "style": "filled", "fillcolor": "lightblue"}
        style[self.source] = {"shape": "doublecircle", "style": "filled", "fillcolor": "palegreen"}
        style[self.target] = {"shape": "doublecircle", "style": "filled", "fillcolor": "salmon"}
        for label in self.graph.vertices:
            if label.startswith("sep:"):
                style[label] = {"style": "filled", "fillcolor": "gray85"}
        return style


def _chain(i: int, k: int, strict: bool) -> list[str]:
    if not strict:
        return [f"p:{i}:{pos}" for pos in range(1, 2 * k + 1)]
    chain = [f"sep:{i}:0"]
    for j in range(1, k + 1):
        chain += [f"p:{i}:{2 * j - 1}", f"p:{i}:{2 * j}"]
        chain.append(f"sep:{i}:{j}")
    return chain


def reduce_to_hamcycle(f: CnfFormula, strict: bool = False) -> HamCycleInstance:
    """Directed graph with a Hamiltonian cycle tracking satisfying assignments.

    Each variable gets a bidirectional sub-path of 2k vertices; left-to-right
    traversal means true. Every exit of one variable feeds every entry of the
    next, from s to t, and t closes back to s; both are the sub-path's two
    ends, or in strict mode its entry and exit tip. Clause vertex C_j hangs
    off positions 2j-1 and 2j of each constituent variable, oriented
    left-to-right for positive literals and right-to-left for negative ones.
    With ``strict`` separators and tips are inserted (see module docstring);
    |V| is 2nk+k+2 by default and n(3k+3)+k+2 in strict mode.
    """
    if f.num_vars < 1 or not f.clauses:
        raise ValueError("reduction needs at least one variable and one clause")
    padded = _padded(f)
    n, k = f.num_vars, len(padded)
    vertices: list[str] = ["s"]
    edges: set[tuple[str, str]] = {("t", "s")}
    subpath_index = {
        (i, pos): f"p:{i}:{pos}" for i in range(1, n + 1) for pos in range(1, 2 * k + 1)
    }
    exits: tuple[str, ...] = ("s",)
    for i in range(1, n + 1):
        chain = _chain(i, k, strict)
        edges.update(zip(chain, chain[1:]))
        edges.update(zip(chain[1:], chain))
        entries = ends = (chain[0], chain[-1])
        if strict:
            # Entry/exit tips force every cycle to cross the chain: a tip's
            # only successors are the chain ends, so a path cannot use an
            # end vertex as a corridor and cover the interior through a
            # clause vertex later.
            tip_in, tip_out = f"in:{i}", f"out:{i}"
            edges.update((tip_in, end) for end in ends)
            edges.update((end, tip_out) for end in ends)
            chain = [tip_in, *chain, tip_out]
            entries, ends = (tip_in,), (tip_out,)
        vertices += chain
        edges.update((a, b) for a in exits for b in entries)
        exits = ends
    edges.update((a, "t") for a in exits)
    clause_vertices = {j: f"C:{j}" for j in range(1, k + 1)}
    vertices += clause_vertices.values()
    vertices.append("t")

    for j, clause in enumerate(padded, start=1):
        for lit in set(clause):
            i = abs(lit)
            left = subpath_index[(i, 2 * j - 1)]
            right = subpath_index[(i, 2 * j)]
            if lit > 0:
                edges.add((left, clause_vertices[j]))
                edges.add((clause_vertices[j], right))
            else:
                edges.add((right, clause_vertices[j]))
                edges.add((clause_vertices[j], left))

    return HamCycleInstance(
        Digraph(vertices, edges), subpath_index, clause_vertices, "s", "t", strict, f, padded
    )


hamcycle_witness_to_assignment = HamCycleInstance.to_assignment


# ---------------------------------------------------------------------------
# 3-COLOR


class ColoringInstance(Record):
    kind = "3color"
    json_extras = ("special", "literal_vertices", "gadget_vertices")
    summary_extras = ()
    witness_key, witness_container, witness_entry = "coloring", dict, int
    graph: Graph
    special: tuple[str, str, str]  # (T, F, B)
    literal_vertices: dict[int, str]
    gadget_vertices: dict[int, tuple[str, ...]]
    formula: CnfFormula
    padded: tuple[Clause, ...]

    @staticmethod
    def reduce(f: CnfFormula, strict: bool) -> ColoringInstance:
        return reduce_to_3color(f)

    @staticmethod
    def num_vertices(n: int, k: int, strict: bool) -> int:
        return 2 * n + 3 + 6 * k

    def verify(self, c: dict[str, int]) -> bool:
        return verify_coloring(self.graph, c, 3)

    def to_assignment(self, c: dict[str, int]) -> Assignment:
        """Variables take the truth value of whichever of T/F shares their color."""
        if not self.verify(c):
            raise ValueError("not a valid 3-coloring of the instance graph")
        t_color = c[self.special[0]]
        return {
            i: c[self.literal_vertices[i]] == t_color
            for i in range(1, self.formula.num_vars + 1)
        }

    def dot_styling(self) -> dict[str, dict[str, str]]:
        t, f, b = self.special
        return {
            t: {"style": "filled", "fillcolor": "palegreen"},
            f: {"style": "filled", "fillcolor": "salmon"},
            b: {"style": "filled", "fillcolor": "lightblue"},
        }


def reduce_to_3color(f: CnfFormula) -> ColoringInstance:
    """Palette triangle T/F/B, a literal pair per variable, and a six-vertex
    gadget per clause that is 3-colorable exactly when the clause is
    satisfied. |V| = 2n + 3 + 6k."""
    if f.num_vars < 1:
        raise ValueError("reduction needs at least one variable")
    padded = _padded(f)
    n, k = f.num_vars, len(padded)
    vertices = ["T", "F", "B"]
    edges = {("T", "F"), ("F", "B"), ("B", "T")}
    literal_vertices: dict[int, str] = {}
    for i in range(1, n + 1):
        pos, neg = f"v:{i}:+", f"v:{i}:-"
        literal_vertices[i], literal_vertices[-i] = pos, neg
        vertices += [pos, neg]
        edges |= {(pos, neg), (pos, "B"), (neg, "B")}
    gadget_vertices: dict[int, tuple[str, ...]] = {}
    for j, clause in enumerate(padded, start=1):
        g = tuple(f"g:{j}:{m}" for m in range(1, 7))
        gadget_vertices[j] = g
        vertices += list(g)
        t1, t2, t3 = (literal_vertices[lit] for lit in clause)
        g1, g2, g3, g4, g5, g6 = g
        edges |= {
            (g1, g6), (g2, g4), (g2, g6), (g3, g6), (g3, g5),
            (g1, "T"), (g3, "T"), (g4, "T"), (g5, "T"),
            (g2, "F"),
            (g5, t1), (g4, t2), (g1, t3),
        }
    return ColoringInstance(
        Graph(vertices, edges), ("T", "F", "B"), literal_vertices, gadget_vertices, f, padded
    )


coloring_witness_to_assignment = ColoringInstance.to_assignment


# ---------------------------------------------------------------------------
# The kind table and JSON interchange

KINDS = {cls.kind: cls for cls in (CliqueInstance, HamCycleInstance, ColoringInstance)}


def _json_key(key):
    # json.dumps writes int keys as strings itself; (i, pos) keys become "i:pos"
    return ":".join(map(str, key)) if isinstance(key, tuple) else key


def instance_to_json(inst) -> str:
    if type(inst) not in KINDS.values():
        raise TypeError(f"not a reduction instance: {inst!r}")
    base = {
        "formula": {
            "num_vars": inst.formula.num_vars,
            "clauses": [list(c) for c in inst.formula.clauses],
        },
        "vertices": list(inst.graph.vertices),
        "edges": sorted(list(e) for e in inst.graph.edges),
        "kind": inst.kind,
    }
    for name in inst.json_extras:
        value = getattr(inst, name)
        if isinstance(value, dict):
            value = {_json_key(key): v for key, v in value.items()}
        base[name] = value
    return json.dumps(base, indent=1)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_instance_shape(data) -> None:
    """Raise ValueError unless ``data`` has the fields ``instance_from_json`` reads."""

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"malformed instance file: {what}")

    require(isinstance(data, dict), "expected a JSON object")
    formula = data.get("formula")
    require(isinstance(formula, dict), 'missing "formula" object')
    require(_is_int(formula.get("num_vars")), '"formula.num_vars" must be an integer')
    clauses = formula.get("clauses")
    require(
        isinstance(clauses, list)
        and all(isinstance(c, list) and all(_is_int(lit) for lit in c) for c in clauses),
        '"formula.clauses" must be a list of integer lists',
    )
    kind = data.get("kind")
    # a JSON list or object is unhashable, so test the type before the lookup
    require(isinstance(kind, str) and kind in KINDS, f"unknown instance kind {kind!r}")
    require(isinstance(data.get("strict", False), bool), '"strict" must be a boolean')
    vertices = data.get("vertices")
    require(
        isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
        '"vertices" must be a list of strings',
    )
    edges = data.get("edges")
    require(
        isinstance(edges, list)
        and all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)
            for e in edges
        ),
        '"edges" must be a list of string pairs',
    )


def instance_from_json(text: str):
    """Rebuild an instance from its JSON dump.

    The graph is reconstructed by re-running the reduction on the embedded
    formula and cross-checked against the stored vertex and edge lists, so a
    tampered or mislabeled file is rejected rather than trusted. A vertex
    list whose length differs from the reduction's documented size, or a
    CLIQUE edge list whose length differs from the count the clauses fix,
    is rejected before the reduction runs, so a small file cannot make it
    build a large graph.
    """
    data = json.loads(text)
    _check_instance_shape(data)
    f = CnfFormula(
        data["formula"]["num_vars"], [tuple(c) for c in data["formula"]["clauses"]]
    )
    cls, strict = KINDS[data["kind"]], data.get("strict", False)
    num_edges = getattr(cls, "num_edges", None)
    if len(data["vertices"]) != cls.num_vertices(f.num_vars, len(f.clauses), strict) or (
        num_edges is not None and len(data["edges"]) != num_edges(f)
    ):
        raise ValueError("instance file does not match its own formula")
    inst = cls.reduce(f, strict)
    stored = {tuple(e) if inst.graph.directed else tuple(sorted(e)) for e in data["edges"]}
    same_vertices = sorted(inst.graph.vertices) == sorted(data["vertices"])
    same_edges = len(stored) == len(data["edges"]) and stored == inst.graph.edges
    if not (same_vertices and same_edges):
        raise ValueError("instance file does not match its own formula")
    return inst
