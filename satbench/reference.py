"""Reference checks owned by the benchmark.

Nothing here imports satkit: verdicts and witnesses are checked against
this second, independent route (a clause evaluator, an exhaustive bitmask
search, and a small Turing machine simulator with its own file parser).
"""

from __future__ import annotations

from pathlib import Path

BLANK = "_"


# ---------------------------------------------------------------------------
# CNF


def satisfies(num_vars: int, clauses, assignment) -> bool:
    """True iff the total assignment (dict var -> bool) makes every clause true."""
    # val[lit] is the truth of literal lit; negative indices wrap to the
    # upper half, so val[-v] sits at 2n+1-v.
    val = [False] * (2 * num_vars + 1)
    for v in range(1, num_vars + 1):
        if assignment[v]:
            val[v] = True
        else:
            val[-v] = True
    for clause in clauses:
        for lit in clause:
            if val[lit]:
                break
        else:
            return False
    return True


def _masks(clauses):
    out = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        out.append((pos, neg))
    return out


def first_model(num_vars: int, clauses) -> dict | None:
    """Some model found by enumerating all 2^n bitmask assignments, or None."""
    masks = _masks(clauses)
    full = (1 << num_vars) - 1
    for a in range(1 << num_vars):
        na = full ^ a
        if all((a & pos) or (na & neg) for pos, neg in masks):
            return {v: bool(a >> (v - 1) & 1) for v in range(1, num_vars + 1)}
    return None


def exhaustive_sat(num_vars: int, clauses) -> bool:
    return first_model(num_vars, clauses) is not None


def max_satisfied(num_vars: int, clauses) -> int:
    """Largest number of clauses any total assignment satisfies."""
    masks = _masks(clauses)
    full = (1 << num_vars) - 1
    best = 0
    for a in range(1 << num_vars):
        na = full ^ a
        got = sum(1 for pos, neg in masks if (a & pos) or (na & neg))
        if got > best:
            best = got
    return best


def count_satisfied(clauses, assignment) -> int:
    return sum(
        1 for c in clauses if any(assignment[abs(l)] == (l > 0) for l in c)
    )


def three_cnf_clause_count(clauses) -> int:
    """Clauses the width-capped rewrite emits: 4, 2, 1 and m-2 for widths
    1, 2, 3 and m > 3."""
    return sum({1: 4, 2: 2, 3: 1}.get(len(c), len(c) - 2) for c in clauses)


def three_cnf_extension(clauses, fresh, assignment) -> dict:
    """Extend a model of the source CNF to the to_3cnf fresh variables.

    ``fresh`` lists each source clause's fresh variables in ledger order.
    Short-clause padding variables are free (set false); the chain variable
    z_i of a wide clause is true exactly while none of its first i+1
    literals is true.
    """
    out = dict(assignment)
    for clause, zs in zip(clauses, fresh):
        if len(clause) <= 3:
            for z in zs:
                out[z] = False
            continue
        seen_true = False
        for i, z in enumerate(zs):
            for lit in clause[: i + 2] if i == 0 else clause[i + 1 : i + 2]:
                seen_true = seen_true or assignment[abs(lit)] == (lit > 0)
            out[z] = not seen_true
    return out


# ---------------------------------------------------------------------------
# Graphs


def is_clique(edges, vertices, k: int) -> bool:
    vs = sorted(vertices)
    if len(vs) < k:
        return False
    return all(
        (u, v) in edges or (v, u) in edges
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
    )


def is_proper_coloring(vertices, edges, coloring, k: int) -> bool:
    if set(coloring) != set(vertices):
        return False
    if any(not 1 <= coloring[v] <= k for v in vertices):
        return False
    return all(coloring[u] != coloring[v] for u, v in edges)


def is_hamiltonian_cycle(vertices, edges, cycle) -> bool:
    if len(cycle) != len(vertices) or set(cycle) != set(vertices) or len(cycle) < 2:
        return False
    return all((cycle[i], cycle[(i + 1) % len(cycle)]) in edges for i in range(len(cycle)))


# ---------------------------------------------------------------------------
# Turing machines


class Machine:
    """A machine description file, parsed without satkit.

    Option lists are kept sorted by (target, written, direction), the
    canonical order that choice indices refer to; a missing transition
    moves to the reject state writing the read symbol and moving right.
    """

    def __init__(self, text: str):
        head: dict[str, list[str]] = {}
        delta: dict[tuple[str, str], set] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(":")
            tokens = rest.split()
            if key == "delta":
                q, a, _, r, b, d = tokens
                delta.setdefault((q, a), set()).add((r, b, d))
            else:
                head[key] = tokens
        self.states = set(head["states"])
        self.tape_alphabet = set(head["tape"])
        self.q0 = head["start"][0]
        self.accept = head["accept"][0]
        self.reject = head["reject"][0]
        self.delta = {key: sorted(opts) for key, opts in delta.items()}

    @classmethod
    def load(cls, path: Path) -> "Machine":
        return cls(path.read_text(encoding="utf-8"))

    @property
    def universe(self) -> int:
        return len(self.states) + len(self.tape_alphabet) + 1

    def halting(self, state: str) -> bool:
        return state in (self.accept, self.reject)

    def options(self, state: str, symbol: str):
        return self.delta.get((state, symbol), [(self.reject, symbol, "R")])

    def start(self, word: str):
        return _canon(tuple(word) or (BLANK,), 0, self.q0)

    def step(self, config, choice: int = 0):
        tape, head, state = config
        target, written, direction = self.options(state, tape[head])[choice]
        cells = list(tape)
        cells[head] = written
        head = max(0, head - 1) if direction == "L" else head + 1
        if head == len(cells):
            cells.append(BLANK)
        return _canon(tuple(cells), head, target)


def _canon(tape, head, state):
    end = len(tape)
    while end > head + 1 and tape[end - 1] == BLANK:
        end -= 1
    return tape[:end], head, state


def run_deterministic(m: Machine, word: str, limit: int) -> tuple[str, int]:
    """(verdict, steps) of a deterministic run capped at ``limit`` steps."""
    c = m.start(word)
    steps = 0
    while not m.halting(c[2]) and steps < limit:
        c = m.step(c)
        steps += 1
    if c[2] == m.accept:
        return "accept", steps
    if c[2] == m.reject:
        return "reject", steps
    return "step_limit_exceeded", steps


def ntm_verdict(m: Machine, word: str, depth: int) -> str:
    """Breadth-first verdict with the semantics of a choice-string replay.

    accept: some branch accepts within ``depth`` steps; reject: every
    branch has halted by some level <= depth; otherwise the step limit.
    """
    frontier = {m.start(word)}
    for level in range(depth + 1):
        if any(c[2] == m.accept for c in frontier):
            return "accept"
        live = {c for c in frontier if not m.halting(c[2])}
        if not live:
            return "reject"
        if level == depth:
            return "step_limit_exceeded"
        frontier = {
            m.step(c, i) for c in live for i in range(len(m.options(c[2], c[0][c[1]])))
        }
    return "step_limit_exceeded"


def replay_accepts(m: Machine, word: str, choices) -> bool:
    """True iff following 1-based ``choices`` from the start reaches accept."""
    c = m.start(word)
    for choice in choices:
        if m.halting(c[2]) or not 1 <= choice <= len(m.options(c[2], c[0][c[1]])):
            return False
        c = m.step(c, choice - 1)
    return c[2] == m.accept


def tableau_expected_sat(m: Machine, word: str, p: int) -> bool:
    """Whether an accepting branch fits a p x p tableau.

    The branch takes at most p-1 steps, every reading configuration keeps
    its head at cell <= p-4, and the accepting head sits at cell <= p-3 (a
    halted head may face the right boundary column).
    """
    start = m.start(word)
    frontier = {(start, start[1])}
    seen = set(frontier)
    for _ in range(p - 1):
        nxt = set()
        for c, hi in frontier:
            if m.halting(c[2]):
                continue
            for i in range(len(m.options(c[2], c[0][c[1]]))):
                child = m.step(c, i)
                if child[2] == m.accept:
                    if hi <= p - 4 and child[1] <= p - 3:
                        return True
                    continue
                key = (child, hi if m.halting(child[2]) else max(hi, child[1]))
                if key not in seen:
                    seen.add(key)
                    nxt.add(key)
        frontier = nxt
    return False


def _row_successors(m: Machine, row):
    inner = row[1:-1]
    at = [i for i, s in enumerate(inner) if s in m.states]
    if len(at) != 1:
        return []
    sp = at[0]
    state = inner[sp]
    if m.halting(state):
        return [list(row)]
    if sp + 1 >= len(inner) or inner[sp + 1] not in m.tape_alphabet:
        return []
    out = []
    for target, written, direction in m.options(state, inner[sp + 1]):
        nxt = list(inner)
        if direction == "R":
            nxt[sp], nxt[sp + 1] = written, target
        elif sp == 0:
            nxt[sp], nxt[sp + 1] = target, written
        else:
            nxt[sp - 1], nxt[sp], nxt[sp + 1] = target, nxt[sp - 1], written
        out.append(["#"] + nxt + ["#"])
    return out


def tableau_is_accepting_run(m: Machine, word: str, p: int, rows) -> bool:
    """Rows start at ``# q0 word blanks #``, each follows its predecessor by
    one legal move (halted rows repeat), and the accept state appears."""
    first = ["#", m.q0] + list(word) + [BLANK] * (p - 3 - len(word)) + ["#"]
    if len(rows) != p or [list(r) for r in rows[:1]] != [first]:
        return False
    for above, below in zip(rows, rows[1:]):
        if list(below) not in _row_successors(m, list(above)):
            return False
    return any(m.accept in row for row in rows)


def tableau_witness_cells_ok(num_symbols: int, p: int, assignment) -> bool:
    """Every tableau cell has exactly one asserted symbol variable."""
    for cell in range(p * p):
        base = cell * num_symbols
        if sum(1 for s in range(1, num_symbols + 1) if assignment[base + s]) != 1:
            return False
    return True
