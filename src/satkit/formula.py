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
        clauses = tuple(tuple(c) for c in clauses)
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
        terms = tuple(tuple(t) for t in terms)
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
    """
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
    """Serialize to DIMACS text; inverse of :func:`parse_dimacs`."""
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
