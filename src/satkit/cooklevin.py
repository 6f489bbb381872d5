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
* every 2x3 window of two consecutive rows is legal. Each window position
  gets one clause per pattern of an irredundant subset of the *minimal
  blocked patterns*: assignments of symbols to 1-6 of the window's cells
  that no legal window matches, while every pattern obtained by dropping
  one of its cells does occur in some legal window. These are the prime
  implicants of "the window is illegal"; together with the at-least-one
  cell clauses they are equivalent to the paper-literal constraint, one
  6-literal clause per illegal window content per position. A prime is
  left out when resolving a cell's at-least-one clause with kept
  patterns' clauses gives a clause that subsumes its own, so the
  equivalence holds.

Legal windows are generated machine-locally by two rules. Copies: a window
of tape symbols, boundaries and at most one halted state may repeat
verbatim. Moves: the cells around a live head sit over the cells of each
configuration ``turing.step`` makes of them, with hidden context on both
sides, so the tableau and the simulators share one definition of a move,
the left edge included. The head never legally steps onto a boundary
column, so runs needing more than p-3 cells have no satisfying tableau.
The windows and patterns depend on the machine alone; see
:func:`_window_constraints` for how they are cached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, groupby, product
from operator import itemgetter
from typing import NamedTuple

from ._record import Record
from .errors import BudgetExceededError
from .formula import Assignment, CnfFormula
from .turing import BLANK, Configuration, MachineSpec, initial_configuration, step

BOUNDARY = ("#",)

# Encodings with more clauses than this are refused, never truncated.
MAX_CLAUSES = 20_000_000


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

    The windows come from :func:`_window_constraints`; each call returns a
    fresh set, which the caller may change freely.
    """
    return set(_window_constraints(m)[0])


def _legal_windows(m: MachineSpec) -> set[WindowTemplate]:
    # Uncached generation; _window_constraints runs it once per machine.
    tape = sorted(m.tape_alphabet)
    ctx = [tape_symbol(s) for s in tape] + [BOUNDARY]
    halted = [state_symbol(m.q_accept), state_symbol(m.q_reject)]
    legal: set[WindowTemplate] = set()

    def add(top, bottom) -> None:
        # A boundary can never sit mid-window in a real tableau; keeping
        # such windows illegal is what pins # to the border columns.
        if top[1] == BOUNDARY or bottom[1] == BOUNDARY:
            return
        legal.add(WindowTemplate(top, bottom))

    # Copies: content away from a live head, and halted configurations,
    # repeat verbatim.
    for cells in product(ctx + halted, repeat=3):
        if sum(c in halted for c in cells) <= 1:
            add(cells, cells)

    # Moves: the cells (x, q, a) of a live head reading a, with x its left
    # neighbour, over the first three cells of each configuration
    # turing.step makes of them. Hidden context, copied unchanged, fills a
    # 7-cell strip around them, and every strip window is legal; each strip
    # cell lists the (top, bottom) pairs it may hold. An empty left tape puts
    # the boundary at x, and the strip starts there.
    hidden = [(c, c) for c in ctx]
    for q in sorted(m.states - {m.q_accept, m.q_reject}):
        for a in tape:
            for left in [(), *((x,) for x in tape)]:
                config = Configuration(left + (a,), len(left), q)
                edge, before = ((), [hidden] * 2) if left else ((BOUNDARY,), [])
                width = 3 - len(edge)
                top = edge + _cells(config, width)
                for i in range(len(m.options(q, a))):
                    bottom = edge + _cells(step(m, config, i), width)
                    strip = before + [[pair] for pair in zip(top, bottom)] + [hidden] * 2
                    for start in range(len(strip) - 2):
                        for cells in product(*strip[start : start + 3]):
                            add(*zip(*cells))
    return legal


def _cells(c: Configuration, width: int) -> tuple:
    """The first ``width`` tableau cells of a configuration: its tape with the
    state symbol just left of the head, padded with blanks (a configuration
    drops the blanks past its head). The window rules take three cells;
    :func:`encode` takes row 1, the start configuration, as p-2 cells."""
    cells = [tape_symbol(s) for s in c.tape]
    cells.insert(c.head, state_symbol(c.state))
    return tuple(cells[:width] + [tape_symbol(BLANK)] * (width - len(cells)))


class TableauSpec(Record):
    """Variable bookkeeping for one encoding: bijection (row, col, symbol) -> var."""

    p: int
    symbols: tuple

    @property
    def num_symbols(self) -> int:
        return len(self.symbols)

    @property
    def num_vars(self) -> int:
        return self.p * self.p * self.num_symbols

    def sym_index(self, sym) -> int:
        try:
            return self.symbols.index(sym)
        except ValueError:
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


def _irredundant(patterns, msz: int) -> tuple:
    """The patterns left after dropping each one that the others imply.

    ``patterns`` are ascending window offsets (c * msz + v: cell c holds v).
    Walking from the last (widest) pattern to the first, P is dropped when
    some cell c outside P has, for each of its ``msz`` values v, a kept
    pattern R + {c: v} with R a proper sub-pattern of P: resolving c's
    at-least-one clause with those patterns' clauses yields a clause that
    subsumes P's, so the formula keeps its models. A drop only shrinks what
    covers a pattern, so one pass leaves nothing more to drop. The kept
    patterns keep their order.
    """
    # follows[(cell, rest)]: kept patterns' offsets in that cell, rest the
    # pattern's other offsets.
    follows: dict = {}
    for pat in patterns:
        for i, o in enumerate(pat):
            follows.setdefault((o // msz, pat[:i] + pat[i + 1 :]), set()).add(o)
    kept = []
    for pat in reversed(patterns):
        cells = {o // msz for o in pat}
        subs = [rest for size in range(len(pat)) for rest in combinations(pat, size)]
        for c in range(6):
            if c in cells:
                continue
            if len(set().union(*[follows.get((c, rest), ()) for rest in subs])) == msz:
                for i, o in enumerate(pat):
                    follows[o // msz, pat[:i] + pat[i + 1 :]].discard(o)
                break
        else:
            kept.append(pat)
    return tuple(reversed(kept))


@lru_cache(maxsize=32)
def _window_constraints(m: MachineSpec) -> tuple[frozenset, tuple]:
    """Legal windows and the window patterns that :func:`encode` emits.

    Both depend on the machine alone, not on the input or p, so they are
    computed once per machine and kept in an LRU cache of 32 machines; this
    cache is the only place :func:`legal_windows` and :func:`encode` get
    them from. The cache is keyed by the machine, so separately built equal
    machines share an entry, and ``cache_info()`` counts its hits and
    misses. The windows are a frozenset of :class:`WindowTemplate`; the
    patterns are the :func:`_irredundant` subset of the value tuples of
    :func:`blocked_patterns` over window offsets, in their original order.
    """
    windows = frozenset(_legal_windows(m))
    symbols = _tableau_symbols(m)
    msz = len(symbols)
    # Window cell c holding symbol index v is offset c * msz + v: the
    # position of its literal in the window's two 3-cell row slices.
    index = {s: i for i, s in enumerate(symbols)}
    legal = {tuple(c * msz + index[s] for c, s in enumerate(w.top + w.bottom)) for w in windows}
    domains = [range(c * msz, (c + 1) * msz) for c in range(6)]
    primes = [vals for _, vals in blocked_patterns(legal, domains)]
    return windows, _irredundant(primes, msz)


def _refusal(count: str) -> BudgetExceededError:
    return BudgetExceededError(
        f"{count} exceed the encoding budget of {MAX_CLAUSES:,}; shrink the machine or p"
    )


def encode(
    m: MachineSpec, input_symbols: str | list[str], p: int
) -> tuple[CnfFormula, TableauSpec]:
    """CNF formula satisfiable iff ``m`` accepts the input within the tableau.

    Requires p >= len(input) + 3 (boundaries, the state cell, and the
    input). Variable count is exactly p^2 * |symbol universe|. Row 1 is
    ``turing.initial_configuration`` (which also checks the input alphabet)
    rendered by :func:`_cells` as p-2 cells between two boundaries.

    Each of the (p-1)(p-2) window positions gets one clause per pattern of
    an irredundant subset of the minimal blocked patterns (see
    :func:`blocked_patterns`), at most 6 literals each; each prime left out
    is a resolvent of a cell's at-least-one clause with kept patterns'
    clauses. The formula is logically equivalent to the paper-literal one
    over the same variables, one 6-literal clause per illegal window
    content, so it has the same models and the same lexicographically
    first witness.

    :data:`MAX_CLAUSES` bounds the exact number of clauses emitted, checked
    before any clause is built; encodings over it are refused, never
    truncated. The clauses that need no pattern are counted first, so a
    tableau they already put over the budget is refused before a new
    machine's patterns are computed.

    The patterns come from :func:`_window_constraints`; each call only
    picks each pattern's literals out of each window position's cells.
    """
    symbols = tuple(input_symbols)
    start = initial_configuration(m, symbols)
    if p < len(symbols) + 3:
        raise ValueError(f"p={p} too small: need at least {len(symbols) + 3}")
    spec = TableauSpec(p, _tableau_symbols(m))
    msz = spec.num_symbols

    # exactly-one per cell, row 1 and the accept clause: no pattern needed
    fixed = p * p * (1 + msz * (msz - 1) // 2) + p + 1
    if fixed > MAX_CLAUSES:
        raise _refusal(f"at least {fixed:,} clauses")
    _, patterns = _window_constraints(m)
    total = fixed + (p - 1) * (p - 2) * len(patterns)
    if total > MAX_CLAUSES:
        raise _refusal(f"{total:,} clauses")

    clauses: list[tuple[int, ...]] = []

    # One int object per negative literal, shared by every move clause that
    # holds it, keeps the big move-clause tuples compact.
    neg = [-v for v in range(spec.num_vars + 1)]

    # Cell by cell: at least one symbol, then every pair excluded.
    for first in range(1, spec.num_vars + 1, msz):
        clauses.append(tuple(range(first, first + msz)))
        clauses.extend(combinations(neg[first : first + msz], 2))

    # Row 1 is the start configuration between boundaries. At p-2 cells it
    # loses only the blank an empty input's configuration holds when p=3.
    for col, sym in enumerate((BOUNDARY, *_cells(start, p - 2), BOUNDARY), start=1):
        clauses.append((spec.var(1, col, sym),))

    # The accept state's variable in every cell, cell by cell.
    accept_var = spec.var(1, 1, state_symbol(m.q_accept))
    clauses.append(tuple(range(accept_var, spec.num_vars + 1, msz)))

    # Patterns come in runs of one size. Each run's getter picks the literals
    # of all its clauses, as one flat tuple, out of the negated literals of a
    # window's top row cells followed by its bottom row cells; zip cuts the
    # tuple back into clauses. Every run holds at least two offsets, so
    # itemgetter always returns a tuple: the one-cell run keeps both patterns
    # with the boundary in a row's middle cell (cells 1 and 4).
    runs = []
    for width, run in groupby(patterns, key=len):
        runs.append((width, itemgetter(*chain.from_iterable(run))))
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
