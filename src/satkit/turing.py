"""Turing machine model, simulators, and the multitape snapshot encoding.

Conventions: the blank symbol is ``_``; a left move at cell 0 keeps the
head at cell 0; a missing transition is an implicit move to the reject
state (writing the read symbol, moving right), so every machine is total.
Nondeterministic transition sets are kept in a canonical order (target
state, written symbol, then L before R) so choice indices are stable.

The machine description file format is line oriented::

    states: q0 q1 accept reject
    input: 0 1
    tape: 0 1 _
    start: q0
    accept: accept
    reject: reject
    delta: q0 1 -> q1 0 R

Repeated ``delta`` lines with the same state/symbol pair form a
nondeterministic option set. Lines starting with ``#`` are comments.
"""

from __future__ import annotations

from typing import Literal

from ._record import Record

BLANK = "_"
DOT_MARK = "̇"  # combining dot above; marks head positions in snapshots
SEPARATOR = "#"

Direction = Literal["L", "R"]
Option = tuple[str, str, Direction]
Verdict = Literal["accept", "reject", "step_limit_exceeded"]


class MachineSpec(Record):
    _fields = ("states", "input_alphabet", "tape_alphabet", "delta", "q0", "q_accept", "q_reject")
    states: frozenset[str]
    input_alphabet: frozenset[str]
    tape_alphabet: frozenset[str]
    delta: dict[tuple[str, str], tuple[Option, ...]]
    q0: str
    q_accept: str
    q_reject: str

    def __init__(self, states, input_alphabet, tape_alphabet, delta, q0, q_accept, q_reject):
        states = frozenset(states)
        input_alphabet = frozenset(input_alphabet)
        tape_alphabet = frozenset(tape_alphabet)
        norm: dict[tuple[str, str], tuple[Option, ...]] = {}
        for key, options in delta.items():
            opts = sorted({(r, b, d) for (r, b, d) in options}, key=lambda o: (o[0], o[1], o[2]))
            norm[key] = tuple(opts)

        if q_accept == q_reject:
            raise ValueError("accept and reject states must differ")
        for q in (q0, q_accept, q_reject):
            if q not in states:
                raise ValueError(f"state {q!r} not in state set")
        if BLANK in input_alphabet:
            raise ValueError("blank symbol cannot be an input symbol")
        if BLANK not in tape_alphabet or not input_alphabet <= tape_alphabet:
            raise ValueError("tape alphabet must contain blank and the input alphabet")
        for (q, a), options in norm.items():
            if q in (q_accept, q_reject):
                raise ValueError(f"halting state {q!r} cannot have transitions")
            if q not in states or a not in tape_alphabet:
                raise ValueError(f"transition key ({q!r}, {a!r}) out of range")
            if not options:
                raise ValueError(f"transition ({q!r}, {a!r}) has an empty option set")
            for r, b, d in options:
                if r not in states or b not in tape_alphabet or d not in ("L", "R"):
                    raise ValueError(f"bad transition option ({r!r}, {b!r}, {d!r})")

        object.__setattr__(self, "states", states)
        object.__setattr__(self, "input_alphabet", input_alphabet)
        object.__setattr__(self, "tape_alphabet", tape_alphabet)
        object.__setattr__(self, "delta", norm)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q_accept", q_accept)
        object.__setattr__(self, "q_reject", q_reject)

    def is_deterministic(self) -> bool:
        return all(len(opts) == 1 for opts in self.delta.values())

    def is_halting(self, state: str) -> bool:
        return state in (self.q_accept, self.q_reject)

    def options(self, state: str, symbol: str) -> tuple[Option, ...]:
        """Transition options, totalized: missing entries implicitly reject."""
        got = self.delta.get((state, symbol))
        if got is None:
            return ((self.q_reject, symbol, "R"),)
        return got


def _canon_tape(cells: tuple[str, ...], head: int) -> tuple[str, ...]:
    cells = list(cells)
    while len(cells) > head + 1 and cells[-1] == BLANK:
        cells.pop()
    return tuple(cells)


class Configuration(Record):
    _fields = ("tape", "head", "state")
    tape: tuple[str, ...]
    head: int
    state: str

    def __init__(self, tape, head: int, state: str):
        tape = tuple(tape)
        if head < 0 or head > len(tape):
            raise ValueError("head must sit on the tape or one cell past it")
        if head == len(tape):
            tape = tape + (BLANK,)
        object.__setattr__(self, "tape", _canon_tape(tape, head))
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "state", state)

    def read(self) -> str:
        return self.tape[self.head]

    def render(self) -> str:
        """``left-tape [state] head-symbol right-tape`` trace line."""
        left = " ".join(self.tape[: self.head])
        right = " ".join(self.tape[self.head + 1 :])
        middle = f"[{self.state}] {self.tape[self.head]}"
        return " ".join(part for part in (left, middle, right) if part)


class RunOutcome(Record):
    _fields = ("verdict", "steps_used", "final", "trace")
    _compared = ("verdict", "steps_used", "final")  # trace shows in repr only
    verdict: Verdict
    steps_used: int
    final: Configuration
    trace: tuple[Configuration, ...] | None

    def __init__(self, verdict: Verdict, steps_used: int, final: Configuration,
                 trace: tuple[Configuration, ...] | None = None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "steps_used", steps_used)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "trace", trace)


def initial_configuration(m: MachineSpec, input_symbols: str | list[str]) -> Configuration:
    symbols = tuple(input_symbols)
    bad = [s for s in symbols if s not in m.input_alphabet]
    if bad:
        raise ValueError(f"input symbols {bad!r} not in the input alphabet")
    return Configuration(symbols, 0, m.q0)


def step(m: MachineSpec, c: Configuration, choice: int = 0) -> Configuration:
    """Apply one transition; ``choice`` indexes the canonical option order."""
    if m.is_halting(c.state):
        raise ValueError("cannot step a halting configuration")
    options = m.options(c.state, c.read())
    if not 0 <= choice < len(options):
        raise ValueError(f"choice {choice} out of range for {len(options)} options")
    new_state, written, direction = options[choice]
    tape = list(c.tape)
    tape[c.head] = written
    head = max(0, c.head - 1) if direction == "L" else c.head + 1
    return Configuration(tape, head, new_state)


def _verdict_for(m: MachineSpec, state: str) -> Verdict:
    return "accept" if state == m.q_accept else "reject"


def run_dtm(
    m: MachineSpec,
    input_symbols: str | list[str],
    step_limit: int,
    collect_trace: bool = False,
) -> RunOutcome:
    """Run a deterministic machine up to ``step_limit`` steps."""
    if not m.is_deterministic():
        raise ValueError("run_dtm requires a deterministic machine")
    c = initial_configuration(m, input_symbols)
    trace = [c] if collect_trace else None
    steps = 0
    while not m.is_halting(c.state) and steps < step_limit:
        c = step(m, c)
        steps += 1
        if trace is not None:
            trace.append(c)
    if m.is_halting(c.state):
        verdict: Verdict = _verdict_for(m, c.state)
    else:
        verdict = "step_limit_exceeded"
    return RunOutcome(verdict, steps, c, tuple(trace) if trace is not None else None)


def run_ntm(
    m: MachineSpec, input_symbols: str | list[str], depth_limit: int
) -> tuple[RunOutcome, tuple[int, ...] | None]:
    """Deterministic simulation of a nondeterministic machine.

    Iterative deepening: for each length 0..``depth_limit`` the choice tree
    is walked depth first on an explicit stack, branches in lexicographic
    order of their choice strings. The first accepting branch wins and its
    choice string is returned. If no branch is live at some length the
    verdict is reject, with the last halted branch; if one is still live at
    ``depth_limit`` it is step_limit_exceeded, with the last live branch.
    """
    start = initial_configuration(m, input_symbols)
    last_live = start
    for length in range(depth_limit + 1):
        last_halted, halted_steps, any_live = start, 0, False
        path: list[int] = []
        stack = [(0, 0, start)]
        while stack:
            depth, choice, c = stack.pop()
            if depth:
                path[depth - 1 :] = (choice,)
            if c.state == m.q_accept:
                return RunOutcome("accept", depth, c), tuple(path)
            if c.state == m.q_reject:
                last_halted, halted_steps = c, depth
            elif depth == length:
                any_live, last_live = True, c
            else:
                # Last choice pushed first, so the first choice pops first.
                for i in reversed(range(len(m.options(c.state, c.read())))):
                    stack.append((depth + 1, i + 1, step(m, c, i)))
        if not any_live:
            return RunOutcome("reject", halted_steps, last_halted), None
    return RunOutcome("step_limit_exceeded", depth_limit, last_live), None


# ---------------------------------------------------------------------------
# Multitape snapshot encoding


def _reserved(symbol: str) -> bool:
    return symbol == SEPARATOR or DOT_MARK in symbol


def encode_multitape(tapes: list[list[str]], heads: list[int]) -> list[str]:
    """Single-tape snapshot ``# t1 # t2 # ... #`` with dotted head symbols.

    An empty tape is shown as one blank cell carrying the head dot; heads
    must lie within their tape (or at 0 for an empty tape).
    """
    if len(tapes) != len(heads):
        raise ValueError("one head position per tape required")
    out = [SEPARATOR]
    for tape, head in zip(tapes, heads):
        cells = list(tape) if tape else [BLANK]
        for s in cells:
            if _reserved(s):
                raise ValueError(f"symbol {s!r} is reserved for the encoding")
        if not 0 <= head < len(cells):
            raise ValueError(f"head {head} outside tape of length {len(cells)}")
        cells[head] = cells[head] + DOT_MARK
        out += cells
        out.append(SEPARATOR)
    return out


def decode_multitape(encoded: list[str]) -> tuple[list[list[str]], list[int]]:
    """Exact inverse of :func:`encode_multitape` on canonical snapshots."""
    if not encoded or encoded[0] != SEPARATOR or encoded[-1] != SEPARATOR:
        raise ValueError("snapshot must start and end with the separator")
    tapes: list[list[str]] = []
    heads: list[int] = []
    segment: list[str] = []
    for symbol in encoded[1:]:
        if symbol == SEPARATOR:
            if not segment:
                raise ValueError("empty segment between separators")
            dotted = [i for i, s in enumerate(segment) if s.endswith(DOT_MARK)]
            if len(dotted) != 1:
                raise ValueError("each tape segment needs exactly one head dot")
            head = dotted[0]
            segment[head] = segment[head][: -len(DOT_MARK)]
            if any(_reserved(s) for s in segment):
                raise ValueError("stray reserved symbol inside a segment")
            tapes.append(segment)
            heads.append(head)
            segment = []
        else:
            segment.append(symbol)
    if segment:
        raise ValueError("snapshot does not end at a separator")
    return tapes, heads


# ---------------------------------------------------------------------------
# Machine description files


def parse_machine(text: str) -> MachineSpec:
    headers: dict[str, list[str]] = {}
    delta: dict[tuple[str, str], set[Option]] = {}
    # Lines end only at \n, \r\n or \r: str.splitlines() would also end one
    # at U+2028, \x0c and others, so a comment could hide a live line.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        tokens = rest.split()
        if key in ("states", "input", "tape", "start", "accept", "reject"):
            if key in headers:
                raise ValueError(f"line {lineno}: duplicate {key!r} header")
            headers[key] = tokens
        elif key == "delta":
            if len(tokens) != 6 or tokens[2] != "->":
                raise ValueError(
                    f"line {lineno}: expected 'delta: q a -> r b L|R', got {rest.strip()!r}"
                )
            q, a, _, r, bsym, d = tokens
            if d not in ("L", "R"):
                raise ValueError(f"line {lineno}: direction must be L or R")
            delta.setdefault((q, a), set()).add((r, bsym, d))
        else:
            raise ValueError(f"line {lineno}: unknown directive {key!r}")
    for key in ("states", "input", "tape", "start", "accept", "reject"):
        if key not in headers:
            raise ValueError(f"missing {key!r} header")
    for key in ("start", "accept", "reject"):
        if len(headers[key]) != 1:
            raise ValueError(f"{key!r} header must name exactly one state")
    return MachineSpec(
        states=headers["states"],
        input_alphabet=headers["input"],
        tape_alphabet=headers["tape"],
        delta={k: tuple(v) for k, v in delta.items()},
        q0=headers["start"][0],
        q_accept=headers["accept"][0],
        q_reject=headers["reject"][0],
    )


def format_machine(m: MachineSpec) -> str:
    lines = [
        "states: " + " ".join(sorted(m.states)),
        "input: " + " ".join(sorted(m.input_alphabet)),
        "tape: " + " ".join(sorted(m.tape_alphabet)),
        f"start: {m.q0}",
        f"accept: {m.q_accept}",
        f"reject: {m.q_reject}",
    ]
    for (q, a) in sorted(m.delta):
        for r, b, d in m.delta[(q, a)]:
            lines.append(f"delta: {q} {a} -> {r} {b} {d}")
    return "\n".join(lines) + "\n"


def build_equality_checker() -> MachineSpec:
    """Decider for the language of two identical strings split by ``#``.

    Crosses off matching symbols on both sides of the separator with ``x``
    until the left side is exhausted, then accepts iff nothing but crosses
    remains on the right. Unlisted state/symbol pairs fall through to the
    implicit reject transition.
    """
    delta = {
        ("A", "1"): [("F1", "x", "R")],
        ("A", "0"): [("F0", "x", "R")],
        ("A", "#"): [("C#", "#", "R")],
        ("F1", "0"): [("F1", "0", "R")],
        ("F1", "1"): [("F1", "1", "R")],
        ("F1", "#"): [("C1", "#", "R")],
        ("F1", BLANK): [("reject", BLANK, "R")],
        ("F0", "0"): [("F0", "0", "R")],
        ("F0", "1"): [("F0", "1", "R")],
        ("F0", "#"): [("C0", "#", "R")],
        ("F0", BLANK): [("reject", BLANK, "R")],
        ("C1", "x"): [("C1", "x", "R")],
        ("C1", "1"): [("B", "x", "L")],
        ("C1", "0"): [("reject", "0", "L")],
        ("C0", "x"): [("C0", "x", "R")],
        ("C0", "0"): [("B", "x", "L")],
        ("C0", "1"): [("reject", "1", "L")],
        ("C#", "x"): [("C#", "x", "R")],
        ("C#", BLANK): [("accept", BLANK, "L")],
        ("C#", "#"): [("reject", "#", "L")],
        ("C#", "0"): [("reject", "0", "L")],
        ("C#", "1"): [("reject", "1", "L")],
        ("B", "x"): [("B", "x", "L")],
        ("B", "#"): [("D", "#", "L")],
        ("D", "1"): [("D", "1", "L")],
        ("D", "0"): [("D", "0", "L")],
        ("D", "x"): [("A", "x", "R")],
    }
    return MachineSpec(
        states={"A", "B", "D", "F0", "F1", "C0", "C1", "C#", "accept", "reject"},
        input_alphabet={"0", "1", "#"},
        tape_alphabet={"0", "1", "#", "x", BLANK},
        delta=delta,
        q0="A",
        q_accept="accept",
        q_reject="reject",
    )
