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

from itertools import chain, combinations, groupby, product
from operator import itemgetter
from typing import NamedTuple

from ._record import Record
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
    """All 2x3 window contents consistent with some legal row transition.

    The windows depend on the machine alone, so they are served from the
    bounded per-machine memo of :func:`_window_constraints`; each call
    returns a fresh set, which the caller may change freely.
    """
    return set(_window_constraints(m)[0])


def _legal_windows(m: MachineSpec) -> set[WindowTemplate]:
    # Uncached generation; _window_constraints runs it once per machine.
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


class TableauSpec(Record):
    """Variable bookkeeping for one encoding: bijection (row, col, symbol) -> var."""

    _fields = ("p", "symbols", "machine", "input_symbols")
    p: int
    symbols: tuple
    machine: MachineSpec
    input_symbols: tuple[str, ...]
    index: dict  # derived from symbols; not a field, so not in repr or ==

    def __init__(self, p: int, symbols: tuple, machine: MachineSpec,
                 input_symbols: tuple[str, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "machine", machine)
        object.__setattr__(self, "input_symbols", input_symbols)
        object.__setattr__(self, "index", {s: i for i, s in enumerate(symbols)})

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


def _window_domains(msz: int) -> list[range]:
    # Window cell c holding symbol index v is offset c * msz + v: the
    # position of its literal in the window's two 3-cell row slices.
    return [range(c * msz, (c + 1) * msz) for c in range(6)]


# Window constraints per machine content; a small bound keeps a long run over
# many machines from holding every machine's patterns.
_WINDOW_MEMO_SIZE = 32
_window_memo: dict = {}


def _window_constraints(m: MachineSpec) -> tuple[frozenset, tuple]:
    """Legal windows and minimal blocked patterns of ``m``.

    Both depend on the machine alone, not on the input or p, so they are
    computed once per machine content and kept in a bounded memo; this memo
    is the only place :func:`legal_windows` and :func:`encode` get them
    from. The key is the machine's full content, so separately built equal
    machines share an entry. The windows are a frozenset of
    :class:`WindowTemplate`; the patterns are the value tuples of
    :func:`blocked_patterns` over :func:`_window_domains`, as window offsets.
    """
    key = (
        m.states,
        m.input_alphabet,
        m.tape_alphabet,
        tuple(sorted(m.delta.items())),
        m.q0,
        m.q_accept,
        m.q_reject,
    )
    got = _window_memo.get(key)
    if got is None:
        windows = frozenset(_legal_windows(m))
        symbols = _tableau_symbols(m)
        msz = len(symbols)
        legal = _window_offsets(windows, symbols)
        patterns = tuple(vals for _, vals in blocked_patterns(legal, _window_domains(msz)))
        if len(_window_memo) >= _WINDOW_MEMO_SIZE:
            _window_memo.pop(next(iter(_window_memo)), None)
        got = _window_memo[key] = (windows, patterns)
    return got


def _window_offsets(windows, symbols) -> frozenset:
    # Each window as the 6-tuple of its cells' offsets (see _window_domains).
    msz = len(symbols)
    index = {s: i for i, s in enumerate(symbols)}
    return frozenset(
        tuple(c * msz + index[s] for c, s in enumerate(w.top + w.bottom)) for w in windows
    )


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

    The legal windows and the blocked patterns depend on the machine alone.
    They are computed once per machine content and reused across inputs and
    values of p (see :func:`_window_constraints`). The compact mode only
    picks each pattern's literals out of each window position's cells; the
    full mode writes the legal windows over symbol indices on each call.
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

    if windows == "full":
        move_clause_bound = positions * msz**6
        if move_clause_bound > max_clauses:
            raise BudgetExceededError(
                f"about {move_clause_bound:,} move clauses exceed the encoding "
                f"budget of {max_clauses:,}; shrink the machine or p"
            )
        legal = _window_offsets(_window_constraints(m)[0], spec.symbols)
        patterns = [w for w in product(*_window_domains(msz)) if w not in legal]
    else:
        _, patterns = _window_constraints(m)
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

    # Cell by cell: at least one symbol, then every pair excluded.
    for first in range(1, spec.num_vars + 1, msz):
        clauses.append(tuple(pos[first : first + msz]))
        clauses.extend(combinations(neg[first : first + msz], 2))

    row1 = (
        [BOUNDARY, state_symbol(m.q0)]
        + [tape_symbol(s) for s in symbols]
        + [tape_symbol(BLANK)] * (p - 3 - len(symbols))
        + [BOUNDARY]
    )
    for col, sym in enumerate(row1, start=1):
        clauses.append((pos[spec.var(1, col, sym)],))

    # The accept state's variable in every cell, cell by cell.
    clauses.append(tuple(pos[spec.var(1, 1, state_symbol(m.q_accept)) :: msz]))

    # Patterns come in runs of one length (the compact ones by size). Each
    # run's getter picks the literals of all its clauses, as one flat tuple,
    # out of the negated literals of a window's top row cells followed by its
    # bottom row cells; zip cuts the tuple back into clauses.
    runs = []
    for width, run in groupby(patterns, key=len):
        offsets = list(chain.from_iterable(run))
        get = itemgetter(*offsets) if len(offsets) > 1 else _single_getter(offsets[0])
        runs.append((width, get))
    span = 3 * msz
    for row in range(1, p):
        for col in range(1, p - 1):
            top = spec.cell_base(row, col) + 1
            bottom = top + p * msz
            window = neg[top : top + span] + neg[bottom : bottom + span]
            for width, get in runs:
                clauses.extend(zip(*[iter(get(window))] * width))

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
