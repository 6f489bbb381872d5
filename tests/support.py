"""Shared test helpers: independent oracles and generators.

Everything here is deliberately separate from the library so the tests
check implementations against a second, dumber route.
"""

from __future__ import annotations

import itertools
import random
import re
from pathlib import Path

from satkit.cooklevin import BOUNDARY, WindowTemplate, state_symbol, tape_symbol
from satkit.formula import CnfFormula, DnfFormula, count_satisfied
from satkit.graph import Digraph
from satkit.tractable import UpResult, tarjan_scc
from satkit.turing import (
    BLANK,
    Configuration,
    MachineSpec,
    RunOutcome,
    initial_configuration,
    parse_machine,
    step,
)

DEMO = Path(__file__).resolve().parents[1] / "demo"


def all_assignments(num_vars):
    """Total assignments in lexicographic order (false < true, var 1 first)."""
    for bits in itertools.product((False, True), repeat=num_vars):
        yield {i + 1: bits[i] for i in range(num_vars)}


def satisfies(f: CnfFormula, a) -> bool:
    return all(any((a[abs(l)] if l > 0 else not a[abs(l)]) for l in c) for c in f.clauses)


def first_satisfying(f: CnfFormula):
    """Lexicographically first model by raw enumeration; None if unsat."""
    for a in all_assignments(f.num_vars):
        if satisfies(f, a):
            return a
    return None


def negate_cnf_to_dnf(f: CnfFormula) -> DnfFormula:
    """De Morgan: not(AND of ORs) = OR of ANDs of negated literals."""
    return DnfFormula(f.num_vars, [tuple(-l for l in c) for c in f.clauses])


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int, max_width: int,
               min_width: int = 1) -> CnfFormula:
    lits = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    clauses = [
        tuple(rng.choice(lits) for _ in range(rng.randint(min_width, max_width)))
        for _ in range(num_clauses)
    ]
    return CnfFormula(num_vars, clauses)


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    lits = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    clauses = [tuple(rng.choice(lits) for _ in range(3)) for _ in range(num_clauses)]
    return CnfFormula(num_vars, clauses)


def reachability(vertices, edges):
    """Transitive closure by repeated squaring-free propagation."""
    reach = {v: {v} for v in vertices}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            before = len(reach[u])
            reach[u] |= reach[v]
            if len(reach[u]) != before:
                changed = True
    return reach


def scc_by_closure(vertices, edges):
    """SCC partition from mutual reachability; the test-side SCC oracle."""
    reach = reachability(vertices, edges)
    seen = set()
    parts = []
    for v in vertices:
        if v in seen:
            continue
        part = frozenset(u for u in vertices if u in reach[v] and v in reach[u])
        seen |= part
        parts.append(part)
    return set(parts)


def scc_reference(g: Digraph):
    """Tarjan SCCs of a labelled digraph plus a topological index map.

    Returns ``(components, comp)``: the partition in reverse topological
    order of the condensation, and ``comp[u] <= comp[v]`` whenever a path
    u→v exists (equal exactly within one component). A label view over
    ``tractable.tarjan_scc``: vertices are visited in ``g.vertices`` order,
    successors in sorted label order.
    """
    at = {v: i for i, v in enumerate(g.vertices)}
    succ = [[at[w] for w in heads] for heads in g.successors().values()]
    emitted, count = tarjan_scc(succ)
    members = [[] for _ in range(count)]
    for v, c in zip(g.vertices, emitted):
        members[c].append(v)
    last = count - 1
    comp = {v: last - c for v, c in zip(g.vertices, emitted)}
    return [frozenset(m) for m in members], comp


def implication_graph_reference(f: CnfFormula) -> Digraph:
    """The 2-SAT implication graph over literal labels ``str(lit)``, vertices
    1, -1, 2, -2, ...: clause (x or y) gives -x -> y and -y -> x, a unit
    clause (x) counts as (x or x). A tautology (x or -x) constrains nothing
    and adds no edge. The formula has width <= 2 and no empty clause."""
    vertices = [str(lit) for v in range(1, f.num_vars + 1) for lit in (v, -v)]
    edges = set()
    for clause in f.clauses:
        x, y = clause[0], clause[-1]
        if x != -y:
            edges.add((str(-x), str(y)))
            edges.add((str(-y), str(x)))
    return Digraph(vertices, edges)


def adjacency_reference(g):
    """``Graph.adjacency`` as first written: one pass over the sorted edge
    set, endpoints stored sorted, so each list comes out in sorted order."""
    adj = {v: [] for v in g.vertices}
    for u, v in sorted(g.edges):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def successors_reference(g):
    """``Digraph.successors`` as first written, over the sorted edge set."""
    adj = {v: [] for v in g.vertices}
    for u, v in sorted(g.edges):
        adj[u].append(v)
    return adj


def find_clique_reference(g, k):
    """``find_clique`` as first written: every k-subset of the sorted
    vertices in ``combinations`` order, each pair tested with ``has_edge``."""
    if k <= 0:
        return set()
    for cand in itertools.combinations(sorted(g.vertices), k):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(cand, 2)):
            return set(cand)
    return None


def is_bipartite_reference(g):
    """BFS 2-coloring with colors {0, 1}, or None: roots in vertex order get
    color 0, and the queue is a list popped from the front. Shifted by one,
    it is the coloring ``graph.find_k_coloring(g, 2)`` must return."""
    adj = g.adjacency()
    color = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def bfs_ntm_accepts(m: MachineSpec, input_symbols, depth_limit: int) -> bool:
    """Breadth-first search over the configuration graph, the independent
    check for run_ntm."""
    frontier = [initial_configuration(m, input_symbols)]
    seen = set(frontier)
    for _ in range(depth_limit + 1):
        nxt = []
        for c in frontier:
            if c.state == m.q_accept:
                return True
            if m.is_halting(c.state):
                continue
            for idx in range(len(m.options(c.state, c.read()))):
                child = step(m, c, idx)
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return False


def max_sat_optimum_reference(f: CnfFormula):
    """MAX-SAT by enumerating every total assignment in lexicographic order.

    The enumeration ``oracle.max_sat_optimum`` replaced, kept as its
    reference (without the variable budget): the witness is the first
    assignment attaining the maximum.
    """
    n = f.num_vars
    best = -1
    best_assignment = {}
    for bits in itertools.product((False, True), repeat=n):
        a = {i + 1: bits[i] for i in range(n)}
        got = count_satisfied(f, a)
        if got > best:
            best = got
            best_assignment = a
            if best == len(f.clauses):
                break
    return best, best_assignment


def unit_propagate_reference(f: CnfFormula) -> UpResult:
    """``tractable.unit_propagate`` before its linear kernel.

    Kept as its reference: each round rescans the clause list for the first
    unit clause and rebuilds the list, so the work is quadratic.
    """
    clauses: list[tuple[int, ...]] = list(f.clauses)
    forced = {}
    while True:
        unit = next((c for c in clauses if c and len(set(c)) == 1), None)
        if unit is None or any(not c for c in clauses):
            break
        x = unit[0]
        forced[abs(x)] = x > 0
        reduced: list[tuple[int, ...]] = []
        for clause in clauses:
            if x in clause:
                continue
            if -x in clause:
                clause = tuple(lit for lit in clause if lit != -x)
            reduced.append(clause)
        clauses = reduced
    return UpResult(CnfFormula(f.num_vars, clauses), forced)


def walk_reference(f: CnfFormula, ceiling: int):
    """``oracle._walk`` before it filed clauses under their last literal.

    Kept as its reference: every clause is bucketed up front by its highest
    variable (one ``max`` and one ``min`` per clause) and the walk never meets
    an unset variable.
    """
    n = f.num_vars
    # A clause can only become falsified at the moment its highest variable
    # is assigned, and only if that variable's literal there has the losing
    # polarity. Bucket clauses accordingly so each branch looks at a clause
    # at most once; clauses containing both v and -v can never falsify.
    check_on_false: list[list] = [[] for _ in range(n + 1)]
    check_on_true: list[list] = [[] for _ in range(n + 1)]
    clauses = f.clauses
    empty = clauses.count(())
    if empty:  # max() and min() refuse an empty clause
        clauses = [clause for clause in clauses if clause]
    for clause, hi, lo in zip(clauses, map(max, clauses), map(min, clauses)):
        v = hi if hi > -lo else -lo
        if hi == v and lo == -v:
            continue
        (check_on_false if hi == v else check_on_true)[v].append(clause)
    if n == 0:
        return (empty, {}) if empty < ceiling else (ceiling, None)

    # falsified[v]: clauses this path falsifies before variable v is set
    falsified = [empty] * (n + 2)
    value = [False] * (n + 1)
    state = [0] * (n + 2)  # 0: try false next, 1: try true next, 2: exhausted
    best, witness = ceiling, None
    v = 1
    while v >= 1:
        s = state[v]
        if s == 2:
            state[v] = 0
            v -= 1
            continue
        state[v] = s + 1
        value[v] = s == 1
        got = falsified[v]
        for clause in check_on_true[v] if s else check_on_false[v]:
            for lit in clause:
                if value[lit] if lit > 0 else not value[-lit]:
                    break
            else:
                got += 1
                if got >= best:
                    break
        # Ties prune too, so the first optimal assignment stays the witness.
        if got >= best:
            continue
        if v < n:
            v += 1
            falsified[v] = got
            continue
        best, witness = got, {i: value[i] for i in range(1, n + 1)}
        if not got:
            break
    return best, witness


def write_dimacs_reference(f: CnfFormula) -> str:
    """``formula.write_dimacs`` with its per-literal generator, kept as its reference."""
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + (" 0" if clause else "0"))
    return "\n".join(lines) + "\n"


def run_ntm_reference(m: MachineSpec, input_symbols, depth_limit: int):
    """NTM search by replaying every choice string from the start.

    The replay ``turing.run_ntm`` replaced, kept as its reference: choice
    strings over {1..b} (b the maximum branching factor) in
    length-lexicographic order, each replayed from the initial
    configuration.
    """
    start = initial_configuration(m, input_symbols)
    b = max((len(o) for o in m.delta.values()), default=1)
    last_halted = None
    last_halted_steps = 0
    last_live = start
    for length in range(depth_limit + 1):
        any_live = False
        for choices in itertools.product(range(1, b + 1), repeat=length):
            c = start
            consumed = 0
            aborted = False
            for choice in choices:
                if m.is_halting(c.state):
                    break
                options = m.options(c.state, c.read())
                if choice > len(options):
                    aborted = True
                    break
                c = step(m, c, choice - 1)
                consumed += 1
            if aborted:
                continue
            if c.state == m.q_accept:
                outcome = RunOutcome("accept", consumed, c)
                return outcome, tuple(choices[:consumed])
            if m.is_halting(c.state):
                last_halted = c
                last_halted_steps = consumed
            elif consumed == length:
                any_live = True
                last_live = c
        if not any_live:
            final = last_halted if last_halted is not None else start
            return RunOutcome("reject", last_halted_steps, final), None
    return RunOutcome("step_limit_exceeded", depth_limit, last_live), None


def row_successors(m: MachineSpec, row: list[str]) -> list[list[str]]:
    """All legal successor rows of a rendered tableau row (or halt repeats)."""
    inner = row[1:-1]
    state_pos = [i for i, s in enumerate(inner) if s in m.states]
    assert len(state_pos) == 1, row
    sp = state_pos[0]
    state = inner[sp]
    if m.is_halting(state):
        return [list(row)]
    # Only the two border cells are boundaries; a "#" inside the row is a
    # tape symbol (the equality checker's separator).
    if sp + 1 == len(inner):
        return []
    head_sym = inner[sp + 1]
    if head_sym not in m.tape_alphabet:
        return []
    out = []
    for target, written, direction in m.options(state, head_sym):
        nxt = list(inner)
        if direction == "R":
            nxt[sp] = written
            nxt[sp + 1] = target
        elif sp == 0:
            nxt[sp] = target
            nxt[sp + 1] = written
        else:
            nxt[sp - 1], nxt[sp], nxt[sp + 1] = target, nxt[sp - 1], written
        out.append(["#"] + nxt + ["#"])
    return out


def blocked_patterns_reference(legal, domains):
    """Minimal blocked window patterns by testing every domain value.

    The straightforward search that ``cooklevin.blocked_patterns`` must
    reproduce list for list: each pattern matched on ``cells[:-1]`` (heads
    in sorted order) is extended by every value of the last cell in domain
    order and kept when no legal window matches it while every one-cell
    drop does.
    """
    proj = {(): {()}}
    patterns = []
    for size in range(1, 7):
        for cells in itertools.combinations(range(6), size):
            matched = proj[cells] = {tuple(w[c] for c in cells) for w in legal}
            drops = [(i, cells[:i] + cells[i + 1 :]) for i in range(size - 1)]
            for head in sorted(proj[cells[:-1]]):
                for v in domains[cells[-1]]:
                    cand = head + (v,)
                    if cand not in matched and all(
                        cand[:i] + cand[i + 1 :] in proj[sub] for i, sub in drops
                    ):
                        patterns.append((cells, cand))
    return patterns


def legal_windows_reference(m: MachineSpec) -> set[WindowTemplate]:
    """``cooklevin.legal_windows`` by the older hand-built formulation: a
    copy family, three halted-state families, and right-move, left-move and
    left-edge windows with their own offset arithmetic. Kept as a reference
    independent of ``turing.step``, from which the generator derives its
    move windows; rebuilt on every call, with no memo."""
    gam = [tape_symbol(s) for s in sorted(m.tape_alphabet)]
    ctx = gam + [BOUNDARY]
    legal: set[WindowTemplate] = set()

    def add(top, bottom) -> None:
        # A boundary can never sit mid-window in a real tableau; keeping
        # such windows illegal is what pins # to the border columns.
        if top[1] == BOUNDARY or bottom[1] == BOUNDARY:
            return
        legal.add(WindowTemplate(tuple(top), tuple(bottom)))

    # Content far from the head is copied verbatim.
    for t1 in ctx:
        for t2 in gam:
            for t3 in ctx:
                add((t1, t2, t3), (t1, t2, t3))

    # Halted configurations repeat verbatim; the head may be parked facing
    # the right boundary after a final right move.
    for halted in (m.q_accept, m.q_reject):
        q = state_symbol(halted)
        for a in ctx:
            for w in ctx:
                add((w, q, a), (w, q, a))
            for y in ctx:
                add((q, a, y), (q, a, y))
        for v in ctx:
            for w in gam:
                add((v, w, q), (v, w, q))

    # Windows overlapping a transition's neighbourhood. The strip spans
    # relative cells -3..+3 around the state cell (rel 0, head symbol at
    # rel +1); cells outside rel -1..+1 are hidden context.
    for state in sorted(m.states):
        if m.is_halting(state):
            continue
        for sym in sorted(m.tape_alphabet):
            q, a = state_symbol(state), tape_symbol(sym)
            for target, written, direction in m.options(state, sym):
                r, b = state_symbol(target), tape_symbol(written)
                situations = []
                if direction == "R":
                    for x in ctx:
                        situations.append(((x, q, a), (x, b, r), range(-3, 2)))
                else:
                    for x in gam:
                        situations.append(((x, q, a), (r, x, b), range(-3, 2)))
                    # At the left edge the head stays put.
                    situations.append(
                        ((BOUNDARY, q, a), (BOUNDARY, r, b), range(-1, 2))
                    )
                for top3, bot3, offsets in situations:
                    for off in offsets:
                        rels = range(off, off + 3)
                        free = [idx for idx, rel in enumerate(rels) if not -1 <= rel <= 1]
                        top = [None if idx in free else top3[rel + 1] for idx, rel in enumerate(rels)]
                        bottom = [None if idx in free else bot3[rel + 1] for idx, rel in enumerate(rels)]
                        for combo in itertools.product(ctx, repeat=len(free)):
                            for idx, val in zip(free, combo):
                                top[idx] = val
                                bottom[idx] = val
                            add(top, bottom)
    return legal


def one_step_acceptor() -> MachineSpec:
    """Accepts any input starting with 1, in a single step."""
    return MachineSpec(
        states={"q0", "acc", "rej"},
        input_alphabet={"1"},
        tape_alphabet={"1", BLANK},
        delta={("q0", "1"): [("acc", "1", "R")], ("q0", BLANK): [("rej", BLANK, "R")]},
        q0="q0",
        q_accept="acc",
        q_reject="rej",
    )


def right_drifter() -> MachineSpec:
    """Never halts: marches right forever."""
    return MachineSpec(
        states={"q0", "acc", "rej"},
        input_alphabet={"1"},
        tape_alphabet={"1", BLANK},
        delta={("q0", "1"): [("q0", "1", "R")], ("q0", BLANK): [("q0", BLANK, "R")]},
        q0="q0",
        q_accept="acc",
        q_reject="rej",
    )


def branching_acceptor() -> MachineSpec:
    """Nondeterministic: on 1 either accept now or keep walking right."""
    return MachineSpec(
        states={"q0", "acc", "rej"},
        input_alphabet={"1"},
        tape_alphabet={"1", BLANK},
        delta={
            ("q0", "1"): [("acc", "1", "R"), ("q0", "1", "R")],
            ("q0", BLANK): [("rej", BLANK, "R")],
        },
        q0="q0",
        q_accept="acc",
        q_reject="rej",
    )


def prefix_11_acceptor() -> MachineSpec:
    """Accepts inputs whose first two symbols are 1, without leaving them."""
    return MachineSpec(
        states={"q0", "q1", "acc", "rej"},
        input_alphabet={"1"},
        tape_alphabet={"1", BLANK},
        delta={
            ("q0", "1"): [("q1", "1", "R")],
            ("q1", "1"): [("acc", "1", "R")],
            ("q0", BLANK): [("rej", BLANK, "R")],
            ("q1", BLANK): [("rej", BLANK, "R")],
        },
        q0="q0",
        q_accept="acc",
        q_reject="rej",
    )


def edge_bouncer() -> MachineSpec:
    """Bounces off the left tape edge before accepting; exercises the
    stay-at-zero rule."""
    return MachineSpec(
        states={"q0", "q1", "acc", "rej"},
        input_alphabet={"1"},
        tape_alphabet={"1", BLANK},
        delta={
            ("q0", "1"): [("q1", "1", "L")],
            ("q1", "1"): [("acc", "1", "R")],
            ("q0", BLANK): [("rej", BLANK, "R")],
            ("q1", BLANK): [("rej", BLANK, "R")],
        },
        q0="q0",
        q_accept="acc",
        q_reject="rej",
    )


def paper_walker_wrapped() -> MachineSpec:
    """The invert/preserve walker delta (states q1-q3 over {a, b}) embedded
    in an acceptor: blanks reject from q1/q3 and accept from q2."""
    return MachineSpec(
        states={"q1", "q2", "q3", "acc", "rej"},
        input_alphabet={"a"},
        tape_alphabet={"a", "b", BLANK},
        delta={
            ("q1", "a"): [("q2", "b", "R")],
            ("q1", "b"): [("q2", "a", "R")],
            ("q2", "a"): [("q3", "a", "L")],
            ("q2", "b"): [("q3", "b", "L")],
            ("q3", "a"): [("q1", "a", "R"), ("q3", "b", "L")],
            ("q3", "b"): [("q1", "b", "R"), ("q3", "a", "L")],
            ("q1", BLANK): [("rej", BLANK, "R")],
            ("q2", BLANK): [("acc", BLANK, "R")],
            ("q3", BLANK): [("rej", BLANK, "R")],
        },
        q0="q1",
        q_accept="acc",
        q_reject="rej",
    )


TABLEAU_BATTERY = (
    one_step_acceptor,
    right_drifter,
    branching_acceptor,
    prefix_11_acceptor,
    edge_bouncer,
    paper_walker_wrapped,
)


def tableau_battery() -> list[MachineSpec]:
    return [build() for build in TABLEAU_BATTERY]


def build_equality_checker() -> MachineSpec:
    """The README's equality checker, as ``demo/equality.tm`` states it."""
    return parse_machine((DEMO / "equality.tm").read_text(encoding="utf-8"))


def machine_inputs(m: MachineSpec, max_len: int) -> list[str]:
    syms = sorted(m.input_alphabet)
    out = []
    for length in range(max_len + 1):
        for combo in itertools.product(syms, repeat=length):
            out.append("".join(combo))
    return out


def accepting_space_profiles(m: MachineSpec, input_symbols, depth: int) -> set:
    """Head-excursion profiles of accepting branches within ``depth`` steps.

    Each profile is (max head over reading configurations, accepting head).
    A reading configuration must keep its head strictly inside a tableau's
    tape area while a halted head may sit parked on the right boundary, so
    the two bounds differ by one; see :func:`tableau_expected_sat`.
    """
    start = initial_configuration(m, input_symbols)
    profiles: set[tuple[int, int]] = set()

    def note_accept(c: Configuration, hi: int) -> None:
        profiles.add((hi, c.head))

    if start.state == m.q_accept:
        note_accept(start, -1)
    frontier = {(start, start.head if not m.is_halting(start.state) else -1)}
    seen = set(frontier)
    for _ in range(depth):
        nxt = set()
        for c, hi in frontier:
            if m.is_halting(c.state):
                continue
            for idx in range(len(m.options(c.state, c.read()))):
                child = step(m, c, idx)
                if child.state == m.q_accept:
                    note_accept(child, hi)
                    continue
                key = (child, hi if m.is_halting(child.state) else max(hi, child.head))
                if key not in seen:
                    seen.add(key)
                    nxt.add(key)
        frontier = nxt
    return profiles


def tableau_expected_sat(profiles: set, p: int) -> bool:
    """Whether some accepting branch fits a p-column tableau: every read
    head at cell <= p-4 and the final accepting head at cell <= p-3 (a
    halted head may face the boundary column)."""
    return any(hi <= p - 4 and ha <= p - 3 for hi, ha in profiles)


_DOT_ID = re.compile(r'^("([^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*)$')


def check_dot(text: str, directed: bool) -> None:
    """Tiny structural validator for the DOT subset we emit."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    head = "digraph G {" if directed else "graph G {"
    assert lines[0] == head, lines[0]
    assert lines[-1] == "}"
    edge_op = "->" if directed else "--"
    for ln in lines[1:-1]:
        assert ln.endswith(";"), ln
        body = ln[:-1]
        attrs = None
        if "[" in body:
            body, _, attr_part = body.partition("[")
            attrs = attr_part.strip()
            assert attrs.endswith("]")
        parts = body.split(f" {edge_op} ")
        assert len(parts) in (1, 2), ln
        for p in parts:
            assert _DOT_ID.match(p.strip()), f"bad identifier {p!r}"
