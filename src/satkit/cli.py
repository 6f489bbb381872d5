"""Command-line surface.

Exit codes: 0 = YES/success, 1 = NO (a negative decision, never an error),
2 = usage or parse error, 3 = search budget or step limit exceeded, out of
memory, a declared size too large to index, or a graph larger than
``reduce`` admits. Verdicts go to stdout; DOT/DIMACS/JSON artifacts are
written only under explicit flags, each after its whole text is built, so
running out of memory leaves no file half-written. ``SATKIT_BUDGET_VARS``
overrides the exhaustive-search variable budget; it must be a non-negative
integer and is read only by the commands that search exhaustively.

Each process runs one command, so start-up is most of its cost. Only
``errors`` and ``formula`` (with ``_record``, its value-class base) are
imported here (every command but ``tm run`` and ``tm ntm`` needs
``formula``); every other submodule is imported inside the command that
runs it. No command loads ``dataclasses``, which imports ``inspect`` and
compiles each decorated class's methods at start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceededError, refuse_over
from .formula import (
    CnfFormula,
    DnfFormula,
    assignment_from_json,
    assignment_to_json,
    evaluate,
    is_horn,
    max_clause_width,
    parse_dimacs,
    write_dimacs,
)

YES, NO, USAGE_ERROR, BUDGET = 0, 1, 2, 3

# The largest graph ``reduce`` builds, checked before it builds anything.
# CLIQUE's |E| grows with |V|^2, so it also has an edge budget. A graph at
# either budget builds in about 1.5 s and 250 MB on a 2-vCPU VM, and the
# tests, the benchmark and the README build at most 421 vertices.
REDUCE_MAX_VERTICES = 200_000
REDUCE_MAX_EDGES = 1_000_000


def _budget() -> int:
    from .oracle import DEFAULT_MAX_VARS

    raw = os.environ.get("SATKIT_BUDGET_VARS")
    if not raw:
        return DEFAULT_MAX_VARS
    try:
        return _non_negative(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"SATKIT_BUDGET_VARS: {exc}") from None


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str, parse=json.loads):
    try:
        return parse(_read(path))
    except RecursionError:  # nesting deeper than the JSON decoder can follow
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_cnf_file(path: str) -> CnfFormula:
    return parse_dimacs(_read(path))


def _parse_dnf_file(path: str) -> DnfFormula:
    # DNF files reuse DIMACS syntax with terms in place of clauses.
    f = parse_dimacs(_read(path))
    return DnfFormula(f.num_vars, f.clauses)


def _emit_witness(path: str | None, witness) -> None:
    if path and witness is not None:
        _write(path, assignment_to_json(witness) + "\n")


def _cmd_solve(args) -> int:
    method = args.method
    if method is None and args.file.endswith(".dnf"):
        method = "dnf"
    if method == "dnf":
        from . import tractable

        result = tractable.solve_dnf(_parse_dnf_file(args.file))
    else:
        f = _parse_cnf_file(args.file)
        if method is None:
            if max_clause_width(f) <= 2:
                method = "2sat"
            elif is_horn(f):
                method = "horn"
            else:
                method = "brute"
        if method == "brute":
            from . import oracle

            result = oracle.brute_force_sat(f, max_vars=_budget())
        else:
            from . import tractable

            result = tractable.solve_2sat(f) if method == "2sat" else tractable.solve_horn(f)
    _emit_witness(args.witness, result.witness)
    print("SAT" if result.satisfiable else "UNSAT")
    return YES if result.satisfiable else NO


def _cmd_maxsat(args) -> int:
    from . import oracle

    f = _parse_cnf_file(args.file)
    budget = _budget()
    # One search, finished before anything is printed, serves the verdict
    # and the witness; k = 0 without a witness needs no search at all.
    if args.witness and args.k >= 0:
        optimum, witness = oracle.max_sat_optimum(f, max_vars=budget)
        ok = optimum >= args.k
    else:
        ok, witness = oracle.max_sat_decide(f, args.k, max_vars=budget), None
    if ok:
        _emit_witness(args.witness, witness)
    print("YES" if ok else "NO")
    return YES if ok else NO


def _cmd_to3cnf(args) -> int:
    from .threecnf import to_3cnf

    f = _parse_cnf_file(args.file)
    result = to_3cnf(f)
    text = write_dimacs(result.formula)
    if args.out:
        _write(args.out, text)
    print(
        f"3-CNF: {len(result.formula.clauses)} clauses over {result.formula.num_vars} vars "
        f"({result.formula.num_vars - result.original_num_vars} fresh)"
    )
    return YES


def tableau_sidecar(spec) -> str:
    return json.dumps({"p": spec.p, "vars": spec.var_map_entries()}, indent=1)


def _cmd_reduce(args) -> int:
    from . import reductions
    from .graph import to_dot

    f = _parse_cnf_file(args.file)
    cls = reductions.KINDS[args.kind]
    # Admission before allocation: the size rules need only the header and
    # the clauses, so an oversized graph is refused before any of it is built.
    refuse_over(cls.num_vertices(f.num_vars, len(f.clauses), args.strict), "vertices",
                "reduce", REDUCE_MAX_VERTICES)
    num_edges = getattr(cls, "num_edges", None)
    if num_edges is not None:
        refuse_over(num_edges(f), "edges", "reduce", REDUCE_MAX_EDGES)
    inst = cls.reduce(f, args.strict)
    if args.dot:
        _write(args.dot, to_dot(inst.graph, inst.dot_styling()))
    if args.json:
        _write(args.json, reductions.instance_to_json(inst) + "\n")
    extra = "".join(f", {name}={getattr(inst, name)}" for name in inst.summary_extras)
    print(
        f"{args.kind}: {len(inst.graph.vertices)} vertices, "
        f"{len(inst.graph.edges)} edges{extra}"
    )
    return YES


def _graph_witness(args, kind: str | None = None):
    """The instance in ``args.instance`` (of ``kind``, if given) and the witness in
    ``args.witness``, for the instance's ``verify`` and ``to_assignment``. A witness
    entry of the wrong JSON type raises ValueError, so it is never a verdict."""
    from . import reductions

    inst = _read_json(args.instance, reductions.instance_from_json)
    if kind not in (None, inst.kind):
        raise ValueError(f"{args.instance} does not hold a {kind} instance")
    key, container, entry = inst.witness_key, inst.witness_container, inst.witness_entry
    data = _read_json(args.witness)
    value = data.get(key) if isinstance(data, dict) else None
    entries = value.values() if isinstance(value, dict) else value
    if not (isinstance(value, container) and all(type(e) is entry for e in entries)):
        names = {list: "a list", dict: "an object", str: "strings", int: "integers"}
        raise ValueError(
            f'malformed {inst.kind} witness file: "{key}" must be {names[container]}; '
            f"{key} entries must be {names[entry]}"
        )
    return inst, value


def _cmd_verify(args) -> int:
    if args.kind == "assignment":
        f = _parse_cnf_file(args.instance)
        witness = _read_json(args.witness, assignment_from_json)
        ok = evaluate(f, witness) is True
    else:
        inst, witness = _graph_witness(args, args.kind)
        ok = inst.verify(witness)
    print("YES" if ok else "NO")
    return YES if ok else NO


def _cmd_translate(args) -> int:
    inst, witness = _graph_witness(args)
    try:
        assignment = inst.to_assignment(witness)
    except ValueError as exc:
        print(f"invalid witness: {exc}", file=sys.stderr)
        return NO
    text = assignment_to_json(assignment)
    if args.out:
        _write(args.out, text + "\n")
    print(text)
    return YES


# RunOutcome.verdict -> stdout word and exit code
_VERDICTS = {"accept": ("ACCEPT", YES), "reject": ("REJECT", NO),
             "step_limit_exceeded": ("LIMIT", BUDGET)}


def _cmd_tm_run(args) -> int:
    from . import turing

    m = turing.parse_machine(_read(args.machine))
    outcome = turing.run_dtm(m, args.input, args.limit, collect_trace=args.trace)
    if args.trace:
        for config in outcome.trace:
            print(config.render())
    word, code = _VERDICTS[outcome.verdict]
    print(word)
    return code


def _cmd_tm_ntm(args) -> int:
    from . import turing

    m = turing.parse_machine(_read(args.machine))
    outcome, choices = turing.run_ntm(m, args.input, args.depth)
    word, code = _VERDICTS[outcome.verdict]
    rendered = "".join(map(str, choices or ()))
    print(f"{word} {rendered}" if rendered else word)
    return code


def _cmd_cooklevin(args) -> int:
    from . import cooklevin, turing

    m = turing.parse_machine(_read(args.machine))
    formula, spec = cooklevin.encode(m, args.input, args.steps)
    if args.out:
        _write(args.out, write_dimacs(formula))
    if args.map:
        _write(args.map, tableau_sidecar(spec) + "\n")
    print(
        f"tableau {spec.p}x{spec.p}: {formula.num_vars} vars, "
        f"{len(formula.clauses)} clauses"
    )
    return YES


def _non_negative(text: str) -> int:
    """argparse type for step and depth bounds."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide satisfiability of a CNF/DNF file")
    p.add_argument("--method", choices=["2sat", "horn", "dnf", "brute"])
    p.add_argument("--witness", metavar="PATH")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("maxsat", help="decide whether k clauses are jointly satisfiable")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--witness", metavar="PATH")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_maxsat)

    p = sub.add_parser("to3cnf", help="rewrite a CNF into equisatisfiable 3-CNF")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_to3cnf)

    p = sub.add_parser("reduce", help="reduce a 3-CNF to a graph instance")
    p.add_argument("kind", choices=["clique", "hamcycle", "3color"])
    p.add_argument("--strict", action="store_true", help="hamcycle separator vertices")
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--json", metavar="PATH")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("verify", help="check a witness against an instance")
    p.add_argument("kind", choices=["clique", "hamcycle", "3color", "assignment"])
    p.add_argument("instance", help="instance JSON (CNF file for 'assignment')")
    p.add_argument("witness")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("translate", help="graph witness back to an assignment")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("instance")
    p.add_argument("witness")
    p.set_defaults(fn=_cmd_translate)

    tm = sub.add_parser("tm", help="Turing machine simulation")
    tm_sub = tm.add_subparsers(dest="tm_command", required=True)
    p = tm_sub.add_parser("run", help="run a deterministic machine")
    p.add_argument("machine")
    p.add_argument("input")
    p.add_argument("--limit", type=_non_negative, default=10_000)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_tm_run)
    p = tm_sub.add_parser("ntm", help="simulate a nondeterministic machine")
    p.add_argument("machine")
    p.add_argument("input")
    p.add_argument("--depth", type=_non_negative, required=True)
    p.set_defaults(fn=_cmd_tm_ntm)

    p = sub.add_parser("cooklevin", help="encode bounded acceptance as CNF")
    p.add_argument("machine")
    p.add_argument("input")
    p.add_argument("--steps", type=_non_negative, required=True, metavar="P")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--map", metavar="PATH")
    p.set_defaults(fn=_cmd_cooklevin)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else YES
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET
    except (MemoryError, OverflowError):  # e.g. a header declaring 10**9 or 2**63 variables
        print("budget exceeded: out of memory", file=sys.stderr)
        return BUDGET
    except (ValueError, OSError) as exc:  # DimacsError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
