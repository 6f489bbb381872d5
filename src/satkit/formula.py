"""Propositional formula data model, evaluation, and DIMACS I/O.

Literals are nonzero DIMACS-style integers: variable ``v`` is the literal
``v``, its negation is ``-v``. Variables are 1-based; human-readable names
belong to callers. A clause is a tuple of literals, disjunctive in a
:class:`CnfFormula` and conjunctive in a :class:`DnfFormula`. The empty
clause is representable and unsatisfiable; a CNF with no clauses is
trivially satisfiable.

Assignments are plain ``dict[int, bool]`` keyed by variable index and may
be partial. A :class:`SatResult` is the verdict every SAT solver returns,
the oracle and the tractable fast paths alike, so they share only this
module.
"""

from __future__ import annotations

import json

from ._record import Record

Clause = tuple[int, ...]
Assignment = dict[int, bool]


class SatResult(Record):
    """A satisfiability verdict, with a witness exactly when satisfiable."""

    satisfiable: bool
    witness: Assignment | None

    def __init__(self, satisfiable: bool, witness: Assignment | None):
        assert satisfiable == (witness is not None)
        object.__setattr__(self, "satisfiable", satisfiable)
        object.__setattr__(self, "witness", witness)


class DimacsError(ValueError):
    """Malformed DIMACS input; message carries the offending line number."""


def _check_clauses(clauses, num_vars: int) -> None:
    for clause in clauses:
        for lit in clause:
            # bool is an int subclass: True would pass as 1 yet print as "True".
            if type(lit) is not int:
                raise ValueError(f"literal {lit!r} is not an int")
            if lit == 0:
                raise ValueError("literal 0 is not allowed inside a clause")
            if abs(lit) > num_vars:
                raise ValueError(
                    f"literal {lit} exceeds declared variable count {num_vars}"
                )


class CnfFormula(Record):
    """Conjunction of disjunctive clauses over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __init__(self, num_vars: int, clauses=()):
        clauses = tuple(map(tuple, clauses))
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        _check_clauses(clauses, num_vars)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", clauses)

    @classmethod
    def _trusted(cls, num_vars: int, clauses: tuple[Clause, ...]) -> "CnfFormula":
        # Validation-free path for callers that emit or parse many clauses
        # they have already checked (tableau encodings, DIMACS, to_3cnf).
        obj = object.__new__(cls)
        object.__setattr__(obj, "num_vars", num_vars)
        object.__setattr__(obj, "clauses", clauses)
        return obj


class DnfFormula(Record):
    """Disjunction of conjunctive terms; same literal conventions as CNF."""

    num_vars: int
    terms: tuple[Clause, ...]

    def __init__(self, num_vars: int, terms=()):
        terms = tuple(map(tuple, terms))
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        _check_clauses(terms, num_vars)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", terms)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text into a :class:`CnfFormula`.

    Comment lines start with ``c``; the header is ``p cnf <vars> <clauses>``;
    clauses are 0-terminated signed integers and may span lines. Literal
    duplicates within a clause are preserved.

    A line whose first token is ``%`` ends the clause section, as in the
    SATLIB benchmark files; everything after it is ignored and the header's
    clause count applies to the clauses before it. A ``%`` anywhere else is
    a bad token. The header and clause lines are ASCII without underscores;
    comments and the ``%`` trailer may hold anything.

    Text in the canonical shape that :func:`write_dimacs` emits is read by
    the C JSON decoder: the header ``p cnf N M`` as the first line, then one
    ``lit ... lit 0`` line per clause, with single spaces, only ASCII digits,
    ``-``, space and ``\n``, and a final newline. Every other text goes to
    the line parser, and so does canonical-looking text that any check
    rejects (``-0`` or ``01``, a literal past N, a clause count that differs
    from M, an empty clause); the line parser raises every error, so the
    result and each message do not depend on the path taken.
    """
    f = _parse_canonical(text)
    return _parse_lines(text) if f is None else f


# Deletes each character the canonical clause lines may hold.
_CANONICAL_CHARS = str.maketrans("", "", "0123456789- \n")


def _parse_canonical(text: str) -> CnfFormula | None:
    """The formula canonical ``text`` holds, or None for any other text."""
    header, _, body = text.partition("\n")
    fields = header.split(" ")
    if (
        len(fields) != 4
        or fields[:2] != ["p", "cnf"]
        or not (header.isascii() and fields[2].isdigit() and fields[3].isdigit())
        or not body.endswith(" 0\n")
        or body.translate(_CANONICAL_CHARS)
    ):
        return None
    rows = body.replace(" 0\n", "],[")
    if "\n" in rows:  # a line that does not end in " 0"
        return None
    try:
        num_vars, num_clauses = int(fields[2]), int(fields[3])
        clauses = json.loads("[[" + rows.replace(" ", ",")[:-2] + "]")
    except ValueError:  # doubled spaces, "01", "--1", over-long integers
        return None
    lits = [lit for clause in clauses for lit in clause]
    # "1 0 2 0" on one line, and "-0", show up as a 0 inside a clause.
    if (
        len(clauses) != num_clauses
        or not all(clauses)
        or 0 in lits
        or max(lits) > num_vars
        or -min(lits) > num_vars
    ):
        return None
    return CnfFormula._trusted(num_vars, tuple(map(tuple, clauses)))


def _parse_lines(text: str) -> CnfFormula:
    """:func:`parse_dimacs` for any text, one line at a time."""
    num_vars = None
    num_clauses = None
    clauses: list[Clause] = []
    current: list[int] = []
    last_line = 0
    # Lines end only at \n, \r\n or \r: str.splitlines() would also end one
    # at U+2028, \x0c and others, so a comment could hide a live line.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        # int() would also read "1_0" and non-ASCII digits such as "١٠".
        if ("_" in raw or not raw.isascii()) and not line.startswith("%"):
            raise DimacsError(f"line {lineno}: underscore or non-ASCII character in {line!r}")
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before header")
        last_line = lineno
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                # A lone "%" on a line that starts with "%" is the line's
                # first token: any other first token there raised already.
                if tok != "%" or not line.startswith("%"):
                    raise DimacsError(f"line {lineno}: bad token {tok!r}") from None
                break
            if lit == 0:
                clauses.append(tuple(current))
                current.clear()
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"line {lineno}: variable {abs(lit)} exceeds declared {num_vars}"
                    )
                current.append(lit)
        else:
            continue
        break  # the SATLIB trailer ends the clause section
    if num_vars is None:
        raise DimacsError("line 0: missing header")
    if current:
        raise DimacsError(f"line {last_line}: clause not terminated by 0")
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"line {last_line}: header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula._trusted(num_vars, tuple(clauses))


def write_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS text; inverse of :func:`parse_dimacs`.

    The text is ``p cnf N M``, then one line per clause: its literals and
    ``0``, single-spaced, or ``0`` alone for the empty clause, each line
    ending in ``\n``. A formula with clauses, none of them empty, is
    written by the C JSON encoder; any other goes to the line writer.
    """
    clauses = f.clauses
    if not clauses or not all(clauses):
        return _write_lines(f)
    # "[[1 -2] [3]]" -> "1 -2 0\n3 0\n"; tuples of ints hold no cycle to check for.
    rows = json.dumps(clauses, separators=(" ", " "), check_circular=False)
    return f"p cnf {f.num_vars} {len(clauses)}\n" + rows[2:-2].replace("] [", " 0\n") + " 0\n"


def _write_lines(f: CnfFormula) -> str:
    """:func:`write_dimacs` for any formula, one clause at a time."""
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(map(str, clause)) + (" 0" if clause else "0"))
    return "\n".join(lines) + "\n"


def lit_value(lit: int, a: Assignment) -> bool | None:
    """Value of a literal under a possibly partial assignment."""
    v = a.get(abs(lit))
    if v is None:
        return None
    return v if lit > 0 else not v


def evaluate(f: CnfFormula, a: Assignment) -> bool | None:
    """Tri-state CNF evaluation: True, False, or None (undetermined).

    A clause with no true literal and at least one unassigned variable is
    undetermined; the empty clause is false outright.
    """
    undetermined = False
    for clause in f.clauses:
        clause_true = False
        clause_open = False
        for lit in clause:
            v = lit_value(lit, a)
            if v:
                clause_true = True
                break
            if v is None:
                clause_open = True
        if clause_true:
            continue
        if clause_open:
            undetermined = True
        else:
            return False
    return None if undetermined else True


def _require_total(f, a: Assignment) -> None:
    clauses = f.clauses if isinstance(f, CnfFormula) else f.terms
    for clause in clauses:
        for lit in clause:
            if abs(lit) not in a:
                raise ValueError(f"assignment is partial: variable {abs(lit)} unset")


def count_satisfied(f: CnfFormula, a: Assignment) -> int:
    """Number of clauses made true by a total assignment."""
    _require_total(f, a)
    n = 0
    for clause in f.clauses:
        if any(lit_value(lit, a) for lit in clause):
            n += 1
    return n


def evaluate_dnf(f: DnfFormula, a: Assignment) -> bool:
    """True iff some term has all its literals true (total assignment)."""
    _require_total(f, a)
    return any(all(lit_value(lit, a) for lit in term) for term in f.terms)


def is_horn(f: CnfFormula) -> bool:
    """True iff every clause has at most one distinct positive literal."""
    return all(len({lit for lit in c if lit > 0}) <= 1 for c in f.clauses)


def max_clause_width(f: CnfFormula) -> int:
    """Largest literal occurrence count over clauses, 0 for no clauses."""
    return max((len(c) for c in f.clauses), default=0)


def is_tautology(clause: Clause) -> bool:
    """A clause containing both a literal and its negation."""
    s = set(clause)
    return any(-lit in s for lit in s)


def assignment_to_json(a: Assignment) -> str:
    """Witness file format: ``{"vars": {"1": true, ...}}``."""
    return json.dumps({"vars": {str(v): a[v] for v in sorted(a)}})


def assignment_from_json(text: str) -> Assignment:
    data = json.loads(text)
    if not isinstance(data, dict) or "vars" not in data or not isinstance(data["vars"], dict):
        raise ValueError('witness JSON must look like {"vars": {"1": true}}')
    out: Assignment = {}
    for key, val in data["vars"].items():
        v = int(key)
        if str(v) != key or v < 1 or not isinstance(val, bool):
            raise ValueError(f"bad witness entry {key!r}: {val!r}")
        out[v] = val
    return out
