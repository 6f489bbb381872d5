"""Turing machine model, simulators, and machine description files.

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

Direction = Literal["L", "R"]
Option = tuple[str, str, Direction]
Verdict = Literal["accept", "reject", "step_limit_exceeded"]


class MachineSpec(Record):
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
        norm: dict[tuple[str, str], tuple[Option, ...]] = {
            key: tuple(sorted({(r, b, d) for r, b, d in options}))
            for key, options in delta.items()
        }

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
        # Not a field: run_dtm asks on every call, and the machine never changes.
        object.__setattr__(self, "_deterministic", all(len(o) == 1 for o in norm.values()))

    def __hash__(self) -> int:
        # A dict has no hash; equal machines have equal states and transitions.
        return hash((self.states, frozenset(self.delta.items())))

    def is_deterministic(self) -> bool:
        return self._deterministic

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


def _apply(tape: list[str], head: int, option: Option) -> int:
    """Write and move for one transition option, on ``tape`` in place.

    Returns the new head. A left move at cell 0 keeps the head there, and a
    right move past the last cell appends a blank, so the head always sits
    on the tape.
    """
    tape[head] = option[1]
    if option[2] == "L":
        return head - 1 if head else 0
    head += 1
    if head == len(tape):
        tape.append(BLANK)
    return head


def step(m: MachineSpec, c: Configuration, choice: int = 0) -> Configuration:
    """Apply one transition; ``choice`` indexes the canonical option order."""
    if m.is_halting(c.state):
        raise ValueError("cannot step a halting configuration")
    options = m.options(c.state, c.read())
    if not 0 <= choice < len(options):
        raise ValueError(f"choice {choice} out of range for {len(options)} options")
    option = options[choice]
    tape = list(c.tape)
    head = _apply(tape, c.head, option)
    return Configuration(tape, head, option[0])


def _check_limit(name: str, limit: int) -> None:
    if limit < 0:
        raise ValueError(f"{name} must be non-negative, got {limit}")


def _verdict_for(m: MachineSpec, state: str) -> Verdict:
    return "accept" if state == m.q_accept else "reject"


def _run_forced(
    m: MachineSpec,
    tape: list[str],
    head: int,
    state: str,
    limit: int,
    trace: list[Configuration] | None,
) -> tuple[int, str, int]:
    """Step ``tape`` in place while the run is forced.

    A step is taken while the state is live, fewer than ``limit`` steps are
    taken, and the state and read symbol have exactly one option. Each step
    appends its configuration to ``trace`` unless that is None. Returns the
    head, the state and the number of steps taken.
    """
    options = m.options
    halting = (m.q_accept, m.q_reject)
    steps = 0
    while state not in halting and steps < limit:
        opts = options(state, tape[head])
        if len(opts) != 1:
            break
        option = opts[0]
        head = _apply(tape, head, option)
        state = option[0]
        steps += 1
        if trace is not None:
            trace.append(Configuration(tape, head, state))
    return head, state, steps


def run_dtm(
    m: MachineSpec,
    input_symbols: str | list[str],
    step_limit: int,
    collect_trace: bool = False,
) -> RunOutcome:
    """Run a deterministic machine up to ``step_limit`` steps.

    The run steps a raw tape list, head and state through the transition
    helper that :func:`step` uses, in the loop that takes
    :func:`run_ntm`'s forced prefix. Without a trace it builds two
    :class:`Configuration` records, the initial and the final one, however
    many steps it takes; with a trace it adds one per step. Raises
    ``ValueError`` on a nondeterministic machine or a negative limit.
    """
    _check_limit("step_limit", step_limit)
    if not m.is_deterministic():
        raise ValueError("run_dtm requires a deterministic machine")
    c = initial_configuration(m, input_symbols)
    trace = [c] if collect_trace else None
    tape = list(c.tape)
    head, state, steps = _run_forced(m, tape, c.head, c.state, step_limit, trace)
    if m.is_halting(state):
        verdict: Verdict = _verdict_for(m, state)
    else:
        verdict = "step_limit_exceeded"
    final = Configuration(tape, head, state)
    return RunOutcome(verdict, steps, final, None if trace is None else tuple(trace))


def run_ntm(
    m: MachineSpec, input_symbols: str | list[str], depth_limit: int
) -> tuple[RunOutcome, tuple[int, ...] | None]:
    """Deterministic simulation of a nondeterministic machine.

    The run first takes its forced prefix once: the steps from the start
    while the state is live and has a single option, up to
    ``depth_limit``. Then iterative deepening: for each length from the
    prefix's to ``depth_limit`` the choice tree below the prefix is walked
    depth first on an explicit stack, branches in lexicographic order of
    their choice strings. The first accepting branch wins and its choice
    string, the prefix's 1s included, is returned. If no branch is live at
    some length the verdict is reject, with the last halted branch; if one
    is still live at ``depth_limit`` it is step_limit_exceeded, with the
    last live branch. This is what a walk of every length from 0 would
    give: below the prefix's length the prefix is the only branch, and it
    is live.

    Branches are raw (tape list, head, state) triples stepped through the
    transition helper that :func:`step` uses; only the initial and the
    returned configuration are built as :class:`Configuration` records.
    Raises ``ValueError`` on a negative limit.
    """
    _check_limit("depth_limit", depth_limit)
    c = initial_configuration(m, input_symbols)
    tape = list(c.tape)
    head, state, forced = _run_forced(m, tape, c.head, c.state, depth_limit, None)
    start = (tape, head, state)
    options = m.options
    last_live = start
    for length in range(forced, depth_limit + 1):
        last_halted, halted_steps, any_live = start, forced, False
        path = [1] * forced
        stack = [(forced, 0, start)]
        while stack:
            depth, choice, branch = stack.pop()
            if depth > forced:
                path[depth - 1 :] = (choice,)
            tape, head, state = branch
            if state == m.q_accept:
                return RunOutcome("accept", depth, Configuration(*branch)), tuple(path)
            if state == m.q_reject:
                last_halted, halted_steps = branch, depth
            elif depth == length:
                any_live, last_live = True, branch
            else:
                # Last choice pushed first, so the first choice pops first.
                opts = options(state, tape[head])
                for i in reversed(range(len(opts))):
                    child = list(tape)
                    moved = _apply(child, head, opts[i])
                    stack.append((depth + 1, i + 1, (child, moved, opts[i][0])))
        if not any_live:
            return RunOutcome("reject", halted_steps, Configuration(*last_halted)), None
    return RunOutcome("step_limit_exceeded", depth_limit, Configuration(*last_live)), None


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
        delta=delta,
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
