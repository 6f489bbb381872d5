"""Tableau encoding of bounded machine acceptance into CNF.

``encode(m, input, p)`` builds a formula that is satisfiable exactly when
the machine has an accepting branch of at most p-1 steps that fits in p-3
tape cells. The tableau is a p x p grid of cells; row 1 is pinned to the
initial configuration ``# q0 input blanks #``, each later row follows from
its predecessor through the machine's transitions (halting rows repeat
verbatim), and acceptance means the accept state appears somewhere.

Cell contents range over the symbol universe: machine states, tape symbols,
and the row-boundary marker. The three kinds are namespaced as tagged
tuples (``("q", state)``, ``("g", symbol)``, ``BOUNDARY``) so state and
tape names can never collide.

The per-variable meaning is "cell (row, col) holds symbol s". Constraints:

* every cell holds exactly one symbol (at-least-one clause plus pairwise
  exclusions),
* row 1 is pinned by unit clauses,
* some cell holds the accept state (one wide clause),
* every 2x3 window of two consecutive rows is legal. By default each window
  position gets one clause per *minimal blocked pattern*: an assignment of
  symbols to 1-6 of the window's cells that no legal window matches, while
  every pattern obtained by dropping one of its cells does occur in some
  legal window. These are the prime implicants of "the window is illegal";
  together with the at-least-one cell clauses they are equivalent to the
  paper-literal constraint, which ``windows="full"`` still emits: one
  6-literal clause per illegal window content per position.

Legal windows are generated machine-locally: sliding a window over every
transition's neighbourhood with one enumerated cell of hidden context on
each side, plus content-preserving windows away from the head and verbatim
repeats around halted states. The head never legally steps onto a boundary
column, so runs needing more than p-3 cells have no satisfying tableau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetExceededError
from .formula import Assignment, CnfFormula
from .turing import BLANK, MachineSpec

BOUNDARY = ("#",)


def state_symbol(name: str) -> tuple[str, str]:
    return ("q", name)


def tape_symbol(name: str) -> tuple[str, str]:
    return ("g", name)


def render_symbol(sym) -> str:
    return "#" if sym == BOUNDARY else sym[1]


class WindowTemplate(NamedTuple):
    top: tuple
    bottom: tuple


def legal_windows(m: MachineSpec) -> set[WindowTemplate]:
    """All 2x3 window contents consistent with some legal row transition."""
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
                        for combo in product(ctx, repeat=len(free)):
                            for idx, val in zip(free, combo):
                                top[idx] = val
                                bottom[idx] = val
                            add(top, bottom)
    return legal


@dataclass(frozen=True)
class TableauSpec:
    """Variable bookkeeping for one encoding: bijection (row, col, symbol) -> var."""

    p: int
    symbols: tuple
    machine: MachineSpec
    input_symbols: tuple[str, ...]
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.symbols)})

    @property
    def num_symbols(self) -> int:
        return len(self.symbols)

    @property
    def num_vars(self) -> int:
        return self.p * self.p * self.num_symbols

    def sym_index(self, sym) -> int:
        try:
            return self.index[sym]
        except KeyError:
            raise ValueError(f"{sym!r} is not in the symbol universe") from None

    def var(self, row: int, col: int, sym) -> int:
        if not (1 <= row <= self.p and 1 <= col <= self.p):
            raise ValueError(f"cell ({row}, {col}) outside the {self.p}x{self.p} tableau")
        return self.cell_base(row, col) + self.sym_index(sym) + 1

    def cell_base(self, row: int, col: int) -> int:
        return ((row - 1) * self.p + (col - 1)) * self.num_symbols

    def cell_of(self, var: int) -> tuple[int, int, object]:
        idx = var - 1
        sym = self.symbols[idx % self.num_symbols]
        cell = idx // self.num_symbols
        return cell // self.p + 1, cell % self.p + 1, sym

    def var_map_entries(self) -> list[dict]:
        """JSON-ready variable map: one entry per tableau variable."""
        out = []
        for var in range(1, self.num_vars + 1):
            row, col, sym = self.cell_of(var)
            kind = "boundary" if sym == BOUNDARY else ("state" if sym[0] == "q" else "symbol")
            out.append(
                {"var": var, "row": row, "col": col, "kind": kind, "label": render_symbol(sym)}
            )
        return out


def _tableau_symbols(m: MachineSpec) -> tuple:
    return (
        tuple(state_symbol(s) for s in sorted(m.states))
        + tuple(tape_symbol(s) for s in sorted(m.tape_alphabet))
        + (BOUNDARY,)
    )


def blocked_patterns(legal, domains) -> list[tuple[tuple[int, ...], tuple]]:
    """Minimal blocked patterns of a set of legal 2x3 windows.

    ``legal`` holds windows as 6-tuples, cells ordered top row then bottom
    row, left to right; ``domains[c]`` lists the values cell c can take. A
    pattern ``(cells, vals)`` fixes the listed cells (ascending indices) to
    ``vals``. It is blocked when no legal window matches it and minimal
    when dropping any one of its cells leaves a pattern that some legal
    window matches. Every illegal window contains a minimal blocked
    pattern, and no legal window contains one.

    Candidates of two or more cells come from a join of projections of the
    legal set: a minimal pattern matches legal windows on ``cells[:-1]`` and
    on ``cells[1:]``, so it is some ``head + (v,)`` with ``head`` in the
    projection on ``cells[:-1]`` and ``v`` among the last-cell values that
    follow ``head[1:]`` in the projection on ``cells[1:]``. Candidates that
    occur are dropped, the inner one-cell drops are checked by set lookup,
    and the survivors are listed by head, then by the last value's position
    in its domain. One-cell patterns are the domain values that never
    occur in their cell.
    """
    proj = {(): {()}}
    # ext[cells][prefix]: values of cells[-1] that follow prefix on cells[:-1]
    # in some legal window. Only subsets without cell 0 are ever a tail.
    ext = {}
    patterns = []
    for size in range(1, 7):
        for cells in combinations(range(6), size):
            if size == 1:
                # zip over one iterable wraps each value in a 1-tuple
                matched = proj[cells] = set(zip(map(itemgetter(cells[0]), legal)))
                cands = [(v,) for v in domains[cells[0]] if (v,) not in matched]
            else:
                matched = proj[cells] = set(map(itemgetter(*cells), legal))
                index = ext[cells[1:]]
                found = {
                    head + (v,) for head in proj[cells[:-1]] for v in index[head[1:]]
                } - matched
                for i in range(1, size - 1):
                    drop = itemgetter(*(j for j in range(size) if j != i))
                    sub = proj[cells[:i] + cells[i + 1 :]]
                    found = [cand for cand in found if drop(cand) in sub]
                rank = {v: r for r, v in enumerate(domains[cells[-1]])}
                cands = sorted(found, key=lambda cand: (cand[:-1], rank[cand[-1]]))
            patterns.extend([(cells, cand) for cand in cands])
            if cells[0] != 0:
                tails = ext[cells] = {}
                for vals in matched:
                    tails.setdefault(vals[:-1], []).append(vals[-1])
    return patterns


def _single_getter(offset: int):
    # itemgetter with one index returns the item itself, not a 1-tuple.
    return lambda lits: (lits[offset],)


def encode(
    m: MachineSpec,
    input_symbols: str | list[str],
    p: int,
    max_clauses: int = 20_000_000,
    windows: str = "compact",
) -> tuple[CnfFormula, TableauSpec]:
    """CNF formula satisfiable iff ``m`` accepts the input within the tableau.

    Requires p >= len(input) + 3 (boundaries, the state cell, and the
    input). Variable count is exactly p^2 * |symbol universe|.

    ``windows`` selects the move constraints emitted at each of the
    (p-1)(p-2) window positions:

    * ``"compact"`` (default): one clause per minimal blocked pattern (see
      :func:`blocked_patterns`), at most 6 literals each. The formula is
      logically equivalent to the full one over the same variables, so it
      has the same models and the same lexicographically first witness.
      ``max_clauses`` bounds the exact number of clauses emitted, checked
      before any clause is built.
    * ``"full"``: the paper-literal encoding, one 6-literal clause per
      illegal window content, about |universe|^6 per position.
      ``max_clauses`` bounds (p-1)(p-2) * |universe|^6.

    Encodings over the budget are refused, never truncated.
    """
    if windows not in ("compact", "full"):
        raise ValueError(f"unknown windows mode {windows!r}: use 'compact' or 'full'")
    symbols = tuple(input_symbols)
    bad = [s for s in symbols if s not in m.input_alphabet]
    if bad:
        raise ValueError(f"input symbols {bad!r} not in the input alphabet")
    if p < len(symbols) + 3:
        raise ValueError(f"p={p} too small: need at least {len(symbols) + 3}")
    spec = TableauSpec(p, _tableau_symbols(m), m, symbols)
    msz = spec.num_symbols
    positions = (p - 1) * (p - 2)

    # Window cells and the patterns over them are written as variable
    # offsets from the window's top-left cell base: a window position turns
    # offset o into the literal -(base + o).
    cell_offset = [spec.cell_base(1 + c // 3, 1 + c % 3) + 1 for c in range(6)]
    domains = [range(off, off + msz) for off in cell_offset]
    index = spec.index
    legal = {
        tuple(off + index[s] for off, s in zip(cell_offset, w.top + w.bottom))
        for w in legal_windows(m)
    }
    if windows == "full":
        move_clause_bound = positions * msz**6
        if move_clause_bound > max_clauses:
            raise BudgetExceededError(
                f"about {move_clause_bound:,} move clauses exceed the encoding "
                f"budget of {max_clauses:,}; shrink the machine or p"
            )
        patterns = [w for w in product(*domains) if w not in legal]
    else:
        patterns = [vals for _, vals in blocked_patterns(legal, domains)]
        total = p * p * (1 + msz * (msz - 1) // 2) + p + 1 + positions * len(patterns)
        if total > max_clauses:
            raise BudgetExceededError(
                f"{total:,} clauses exceed the encoding budget of {max_clauses:,}; "
                f"shrink the machine or p"
            )

    clauses: list[tuple[int, ...]] = []

    # Interned literal objects keep the big move-clause tuples compact.
    pos = list(range(spec.num_vars + 1))
    neg = [-v for v in range(spec.num_vars + 1)]

    for row in range(1, p + 1):
        for col in range(1, p + 1):
            base = spec.cell_base(row, col)
            clauses.append(tuple(pos[base + s] for s in range(1, msz + 1)))
            for s in range(1, msz + 1):
                for t in range(s + 1, msz + 1):
                    clauses.append((neg[base + s], neg[base + t]))

    row1 = (
        [BOUNDARY, state_symbol(m.q0)]
        + [tape_symbol(s) for s in symbols]
        + [tape_symbol(BLANK)] * (p - 3 - len(symbols))
        + [BOUNDARY]
    )
    for col, sym in enumerate(row1, start=1):
        clauses.append((pos[spec.var(1, col, sym)],))

    accept = state_symbol(m.q_accept)
    clauses.append(
        tuple(
            pos[spec.var(row, col, accept)]
            for row in range(1, p + 1)
            for col in range(1, p + 1)
        )
    )

    # Each pattern's getter picks its clause out of the negated literals
    # from the window's base on.
    getters = [
        itemgetter(*offs) if len(offs) > 1 else _single_getter(offs[0]) for offs in patterns
    ]
    for row in range(1, p):
        for col in range(1, p - 1):
            shifted = neg[spec.cell_base(row, col) :]
            clauses.extend([get(shifted) for get in getters])

    return CnfFormula._trusted(spec.num_vars, tuple(clauses)), spec


def decode_tableau(spec: TableauSpec, a: Assignment) -> list[list[str]]:
    """Rows of the tableau selected by a satisfying assignment.

    Each cell must have exactly one asserted symbol (guaranteed for models
    of the encoding); anything else is rejected.
    """
    rows = []
    for row in range(1, spec.p + 1):
        cells = []
        for col in range(1, spec.p + 1):
            base = spec.cell_base(row, col)
            chosen = [
                spec.symbols[s - 1] for s in range(1, spec.num_symbols + 1) if a.get(base + s)
            ]
            if len(chosen) != 1:
                raise ValueError(
                    f"cell ({row}, {col}) has {len(chosen)} asserted symbols"
                )
            cells.append(render_symbol(chosen[0]))
        rows.append(cells)
    return rows
