import argparse
import contextlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import satkit
from satkit import cli, reductions
from satkit.cli import build_parser, run_cli
from satkit.formula import assignment_from_json, parse_dimacs
from satkit.graph import find_hamiltonian_cycle, find_k_coloring
from satkit.oracle import brute_force_sat
from satkit.reductions import (
    KINDS,
    instance_from_json,
    instance_to_json,
    reduce_to_3color,
    reduce_to_clique,
    reduce_to_hamcycle,
)
from satkit.tractable import solve_2sat
from satkit.turing import format_machine, parse_machine
from support import branching_acceptor, build_equality_checker, one_step_acceptor

EXAMPLE_31 = "p cnf 3 4\n1 -2 0\n-1 2 0\n-1 -2 0\n1 -3 0\n"
EXAMPLE_33 = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
FIG_3CNF = "p cnf 3 3\n1 2 3 0\n1 -2 3 0\n-1 2 -3 0\n"
DEMO = Path(__file__).resolve().parents[1] / "demo"


@pytest.fixture
def cnf31(tmp_path):
    path = tmp_path / "example31.cnf"
    path.write_text(EXAMPLE_31)
    return str(path)


@pytest.fixture
def cnf33(tmp_path):
    path = tmp_path / "example33.cnf"
    path.write_text(EXAMPLE_33)
    return str(path)


def test_solve_2sat_example(cnf31, tmp_path, capsys):
    witness_path = tmp_path / "w.json"
    code = run_cli(["solve", "--method", "2sat", "--witness", str(witness_path), cnf31])
    assert code == 0
    assert capsys.readouterr().out == "SAT\n"
    witness = assignment_from_json(witness_path.read_text())
    assert witness == {1: False, 2: False, 3: False}


def test_solve_auto_detects_width(cnf31, capsys):
    assert run_cli(["solve", cnf31]) == 0
    assert capsys.readouterr().out == "SAT\n"


def test_solve_unsat_exit_code(cnf33, capsys):
    assert run_cli(["solve", cnf33]) == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_solve_dnf_by_extension(tmp_path, capsys):
    path = tmp_path / "f.dnf"
    path.write_text("p cnf 2 2\n1 -1 0\n2 0\n")
    assert run_cli(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "SAT\n"


def test_solve_brute_method(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    assert run_cli(["solve", "--method", "brute", str(path)]) == 0


def test_solve_malformed_file(tmp_path, capsys):
    path = tmp_path / "bogus.cnf"
    path.write_text("p cnf x y\n")
    assert run_cli(["solve", str(path)]) == 2


@pytest.mark.parametrize(
    "text",
    ["p cnf 10 1\n1_0 0\n", "p cnf 10 1\n١٠ 0\n", "p cnf 1_0 1\n10 0\n"],
    ids=["underscore", "arabic", "header"],
)
def test_solve_rejects_integers_outside_dimacs(text, tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underscore or non-ASCII" in captured.err


def test_solve_accepts_satlib_percent_trailer(tmp_path, capsys):
    path = tmp_path / "uf.cnf"
    path.write_text("c SATLIB style\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n")
    assert run_cli(["solve", str(path)]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.out == "SAT\n"
    assert "Traceback" not in captured.err


def test_missing_file_is_usage_error(capsys):
    assert run_cli(["solve", "/nonexistent/path.cnf"]) == 2


def test_unknown_subcommand(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_budget_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SATKIT_BUDGET_VARS", "2")
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    assert run_cli(["solve", "--method", "brute", str(path)]) == 3


@pytest.mark.parametrize("raw", ["-1", "abc"])
def test_invalid_budget_is_usage_error(raw, cnf31, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SATKIT_BUDGET_VARS", raw)
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    for argv in (["solve", "--method", "brute", str(path)], ["maxsat", "--k", "1", str(path)]):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: SATKIT_BUDGET_VARS: expected a non-negative integer, got {raw!r}\n"
        )
    # A command that runs no exhaustive search does not read the variable.
    assert run_cli(["solve", cnf31]) == 0
    assert capsys.readouterr().out == "SAT\n"


def test_maxsat(cnf33, capsys):
    assert run_cli(["maxsat", "--k", "4", cnf33]) == 1
    assert capsys.readouterr().out == "NO\n"
    assert run_cli(["maxsat", "--k", "3", cnf33]) == 0
    assert capsys.readouterr().out == "YES\n"



def test_maxsat_witness_searches_once(cnf33, tmp_path, monkeypatch, capsys):
    from satkit import oracle

    _, witness = oracle.max_sat_optimum(parse_dimacs(EXAMPLE_33))
    calls = []
    walk = oracle._walk
    monkeypatch.setattr(oracle, "_walk", lambda *args: calls.append(1) or walk(*args))
    for k, code, out in ((3, 0, "YES\n"), (4, 1, "NO\n"), (0, 0, "YES\n")):
        path = tmp_path / f"w{k}.json"
        assert run_cli(["maxsat", "--k", str(k), "--witness", str(path), cnf33]) == code
        assert capsys.readouterr().out == out
        assert len(calls) == 1
        calls.clear()
        if code == 0:
            assert assignment_from_json(path.read_text()) == witness
        else:
            assert not path.exists()
    # k = 0 without a witness needs no search
    assert run_cli(["maxsat", "--k", "0", cnf33]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert calls == []


def test_maxsat_over_budget_prints_nothing(tmp_path, monkeypatch, capsys):
    # a 30-variable file is over the default budget of 24
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 30 2\n1 30 0\n-1 0\n")
    witness = tmp_path / "w.json"
    for k in ("0", "1"):
        assert run_cli(["maxsat", "--k", k, "--witness", str(witness), str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget" in captured.err
        assert not witness.exists()
    assert run_cli(["maxsat", "--k", "0", str(path)]) == 0
    assert capsys.readouterr().out == "YES\n"
    for argv in (["--k", "-1"], ["--k", "-1", "--witness", str(witness)]):
        assert run_cli(["maxsat", *argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be non-negative\n"
        assert not witness.exists()


@pytest.mark.parametrize("argv", [["solve"], ["maxsat", "--k", "3"]], ids=["solve", "maxsat"])
def test_unwritable_witness_prints_no_verdict(argv, cnf31, cnf33, tmp_path, capsys):
    # The witness is written before the verdict, so a failed write leaves stdout empty.
    witness = tmp_path / "missing" / "w.json"
    cnf = cnf31 if argv[0] == "solve" else cnf33
    assert run_cli([*argv, "--witness", str(witness), cnf]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_to3cnf(tmp_path, cnf31, capsys):
    out = tmp_path / "three.cnf"
    assert run_cli(["to3cnf", cnf31, "--out", str(out)]) == 0
    f = parse_dimacs(out.read_text())
    assert max(len(c) for c in f.clauses) <= 3


def test_reduce_verify_translate_clique(tmp_path, capsys):
    cnf = tmp_path / "fig.cnf"
    cnf.write_text(FIG_3CNF)
    inst_path = tmp_path / "inst.json"
    dot_path = tmp_path / "inst.dot"
    assert run_cli(["reduce", "clique", str(cnf), "--json", str(inst_path), "--dot", str(dot_path)]) == 0
    assert "vertices" in capsys.readouterr().out
    assert dot_path.read_text().startswith("graph G {")

    inst = instance_from_json(inst_path.read_text())
    witness_path = tmp_path / "clique.json"
    witness_path.write_text(json.dumps({"vertices": ["v:1:1:+:1", "v:1:2:+:1", "v:2:3:+:2"]}))
    assert run_cli(["verify", "clique", str(inst_path), str(witness_path)]) == 0
    assert capsys.readouterr().out == "YES\n"

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({"vertices": ["v:1:1:+:1"]}))
    assert run_cli(["verify", "clique", str(inst_path), str(bad_path)]) == 1
    capsys.readouterr()

    assert run_cli(["translate", str(inst_path), str(witness_path)]) == 0
    out = capsys.readouterr().out.strip()
    assert assignment_from_json(out) == {1: True, 2: True, 3: False}
    assert run_cli(["translate", str(inst_path), str(bad_path)]) == 1


def test_reduce_hamcycle_and_3color(tmp_path, capsys):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    ham_path = tmp_path / "ham.json"
    assert run_cli(["reduce", "hamcycle", str(cnf), "--json", str(ham_path)]) == 0
    col_path = tmp_path / "col.json"
    assert run_cli(["reduce", "3color", str(cnf), "--json", str(col_path)]) == 0

    cycle_path = tmp_path / "cycle.json"
    cycle_path.write_text(json.dumps({"cycle": ["s", "p:1:1", "C:1", "p:1:2", "t"]}))
    assert run_cli(["verify", "hamcycle", str(ham_path), str(cycle_path)]) == 0
    assert run_cli(["translate", str(ham_path), str(cycle_path)]) == 0
    out = capsys.readouterr()
    assert '{"vars": {"1": true}}' in out.out


def test_verify_assignment(tmp_path, cnf31, capsys):
    witness = tmp_path / "w.json"
    witness.write_text('{"vars": {"1": false, "2": false, "3": false}}')
    assert run_cli(["verify", "assignment", cnf31, str(witness)]) == 0
    witness.write_text('{"vars": {"1": true, "2": false, "3": false}}')
    assert run_cli(["verify", "assignment", cnf31, str(witness)]) == 1


def test_tm_run(tmp_path, capsys):
    machine = tmp_path / "eq.tm"
    machine.write_text(format_machine(build_equality_checker()))
    assert run_cli(["tm", "run", str(machine), "101#101"]) == 0
    assert capsys.readouterr().out == "ACCEPT\n"
    assert run_cli(["tm", "run", str(machine), "101#100"]) == 1
    assert capsys.readouterr().out == "REJECT\n"
    assert run_cli(["tm", "run", str(machine), "101#101", "--limit", "3"]) == 3
    assert capsys.readouterr().out == "LIMIT\n"
    assert run_cli(["tm", "run", str(machine), "#", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[A] #"
    assert lines[-1] == "ACCEPT"


@pytest.mark.parametrize(
    "argv",
    [
        ["tm", "run", "one_step.tm", "1", "--limit", "-5"],
        ["tm", "ntm", "one_step.tm", "1", "--depth", "-1"],
        ["cooklevin", "one_step.tm", "1", "--steps", "-4"],
    ],
)
def test_negative_bounds_are_usage_errors(argv, capsys):
    argv = [str(DEMO / a) if a.endswith(".tm") else a for a in argv]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "non-negative" in captured.err


def test_solve_auto_detect_parses_once(cnf31, monkeypatch, capsys):
    import satkit.cli as cli

    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_dimacs(text)

    monkeypatch.setattr(cli, "parse_dimacs", counting_parse)
    assert run_cli(["solve", cnf31]) == 0
    assert capsys.readouterr().out == "SAT\n"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "clique", "{}", "{}"],
        ["verify", "hamcycle", "{}", "{}"],
        ["verify", "3color", "{}", "{}"],
        ["translate", "{}", "{}"],
    ],
)
def test_empty_json_instance_is_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text("{}")
    assert run_cli([str(path) if a == "{}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed instance file")


def test_verify_rejects_instance_of_another_kind(tmp_path, capsys):
    cnf = tmp_path / "fig.cnf"
    cnf.write_text(FIG_3CNF)
    col_path = tmp_path / "col.json"
    assert run_cli(["reduce", "3color", str(cnf), "--json", str(col_path)]) == 0
    witness = tmp_path / "clique.json"
    witness.write_text(json.dumps({"vertices": []}))
    capsys.readouterr()
    assert run_cli(["verify", "clique", str(col_path), str(witness)]) == 2
    assert "does not hold a clique instance" in capsys.readouterr().err


def test_tm_ntm(tmp_path, capsys):
    machine = tmp_path / "branch.tm"
    machine.write_text(format_machine(branching_acceptor()))
    assert run_cli(["tm", "ntm", str(machine), "1", "--depth", "3"]) == 0
    assert capsys.readouterr().out == "ACCEPT 1\n"
    assert run_cli(["tm", "ntm", str(machine), "", "--depth", "3"]) == 1


MACHINE_HEADERS = {
    "states": "q0 acc rej", "input": "1", "tape": "1 _",
    "start": "q0", "accept": "acc", "reject": "rej",
}


def _machine_text(*deltas, **headers):
    fields = {**MACHINE_HEADERS, **headers}
    return "".join(f"{key}: {fields[key]}\n" for key in MACHINE_HEADERS) + "".join(
        f"delta: {d}\n" for d in deltas
    )


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(_machine_text(start="qx"), "state 'qx' not in state set", id="start"),
        pytest.param(_machine_text(reject="qx"), "state 'qx' not in state set", id="reject"),
        pytest.param(
            _machine_text(tape="1"), "tape alphabet must contain blank and the input alphabet",
            id="no-blank",
        ),
        pytest.param(
            _machine_text(input="0"), "tape alphabet must contain blank and the input alphabet",
            id="input-off-tape",
        ),
        pytest.param(
            _machine_text("qx 1 -> acc 1 R"), "transition key ('qx', '1') out of range",
            id="key-state",
        ),
        pytest.param(
            _machine_text("q0 0 -> acc 1 R"), "transition key ('q0', '0') out of range",
            id="key-symbol",
        ),
        pytest.param(
            _machine_text("q0 1 -> qx 1 R"), "bad transition option ('qx', '1', 'R')",
            id="option-state",
        ),
        pytest.param(
            _machine_text("q0 1 -> acc 0 R"), "bad transition option ('acc', '0', 'R')",
            id="option-symbol",
        ),
        pytest.param(
            _machine_text(start="q0 acc"), "'start' header must name exactly one state",
            id="two-start-states",
        ),
        pytest.param(
            _machine_text(accept=""), "'accept' header must name exactly one state",
            id="no-accept-state",
        ),
    ],
)
def test_machine_file_refusals(text, message, tmp_path, capsys):
    with pytest.raises(ValueError) as err:
        parse_machine(text)
    assert str(err.value) == message
    machine = tmp_path / "bad.tm"
    machine.write_text(text)
    assert run_cli(["tm", "run", str(machine), "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cooklevin_cli(tmp_path, capsys):
    machine = tmp_path / "one.tm"
    machine.write_text(format_machine(one_step_acceptor()))
    out = tmp_path / "enc.cnf"
    sidecar = tmp_path / "map.json"
    code = run_cli(
        ["cooklevin", str(machine), "1", "--steps", "4", "--out", str(out), "--map", str(sidecar)]
    )
    assert code == 0
    assert "tableau 4x4" in capsys.readouterr().out
    f = parse_dimacs(out.read_text())
    assert f.num_vars == 16 * 6
    mapping = json.loads(sidecar.read_text())
    assert mapping["p"] == 4
    assert len(mapping["vars"]) == f.num_vars
    assert brute_force_sat(f, max_vars=f.num_vars).satisfiable


def test_cooklevin_cli_encodes_equality_checker(capsys):
    m = build_equality_checker()
    universe = len(m.states) + len(m.tape_alphabet) + 1
    code = run_cli(["cooklevin", str(DEMO / "equality.tm"), "1#1", "--steps", "9"])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"tableau 9x9: {81 * universe} vars, ")


def _run_capped(argv, cwd):
    """The CLI in a child process under a 256 MiB address-space cap, so an
    input that allocates without a check cannot fill the machine."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("RLIMIT_AS is not available here")
    cap = 256 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(satkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "from satkit.cli import main; main()", *argv],
        capture_output=True, text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        preexec_fn=limit_memory, timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [["solve", "huge.cnf"], ["solve", "--method", "horn", "huge.cnf"], ["solve", "huge.dnf"],
     ["solve", "index.cnf"], ["solve", "--method", "horn", "index.cnf"], ["solve", "index.dnf"]],
    ids=["2sat", "horn", "dnf", "2sat-index", "horn-index", "dnf-index"],
)
def test_out_of_memory_is_budget_exit(argv, tmp_path):
    # files of a few bytes declaring a billion variables, or more than a list
    # can index, under a 256 MiB address-space cap: never a traceback, never
    # exit 1 (NO)
    (tmp_path / "huge.cnf").write_text("p cnf 1000000000 0\n")
    (tmp_path / "huge.dnf").write_text("p cnf 1000000000 1\n1 0\n")
    (tmp_path / "index.cnf").write_text("p cnf 9223372036854775807 0\n")
    (tmp_path / "index.dnf").write_text("p cnf 9223372036854775807 1\n1 0\n")
    done = _run_capped(argv, tmp_path)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "budget exceeded: out of memory\n"


def _clique_one_clause_over_edge_budget() -> str:
    """Clauses over distinct variables, the fewest whose CLIQUE graph has more
    edges than ``reduce`` admits: 3k occurrences give 3k(3k-1)/2 - 3k edges."""
    k = 1
    while 3 * k * (3 * k - 1) // 2 - 3 * k <= cli.REDUCE_MAX_EDGES:
        k += 1
    return f"p cnf {3 * k} {k}\n" + "".join(f"{3 * j + 1} {3 * j + 2} {3 * j + 3} 0\n"
                                          for j in range(k))


@pytest.mark.parametrize(
    "argv, count, what",
    [(["reduce", "3color", "index.cnf"], 2 * 9223372036854775807 + 3, "vertices"),
     (["reduce", "3color", "huge.cnf"], 2 * 10**9 + 9, "vertices"),
     (["reduce", "hamcycle", "huge.cnf"], 2 * 10**9 + 3, "vertices"),
     (["reduce", "clique", "dense.cnf"], None, "edges")],
    ids=["3color-index", "3color-huge", "hamcycle-huge", "clique-edges"],
)
def test_oversized_reduce_is_refused_before_building(argv, count, what, tmp_path):
    # Headers of a few bytes, and a CLIQUE file one clause over the edge
    # budget, are refused by their size rule, never by running out of memory.
    (tmp_path / "index.cnf").write_text("p cnf 9223372036854775807 0\n")
    (tmp_path / "huge.cnf").write_text("p cnf 1000000000 1\n1 0\n")
    dense = _clique_one_clause_over_edge_budget()
    (tmp_path / "dense.cnf").write_text(dense)
    if count is None:
        count = KINDS["clique"].num_edges(parse_dimacs(dense))
    budget = cli.REDUCE_MAX_VERTICES if what == "vertices" else cli.REDUCE_MAX_EDGES
    done = _run_capped(argv, tmp_path)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"budget exceeded: {count} {what} exceed the reduce budget of {budget}\n"


@pytest.mark.parametrize(
    "kind, flags, what",
    [("clique", [], "vertices"), ("clique", [], "edges"), ("3color", [], "vertices"),
     ("hamcycle", [], "vertices"), ("hamcycle", ["--strict"], "vertices")],
    ids=["clique-vertices", "clique-edges", "3color", "hamcycle", "hamcycle-strict"],
)
def test_reduce_admits_exactly_its_budget(kind, flags, what, tmp_path, monkeypatch, capsys):
    cnf, out = tmp_path / "f.cnf", tmp_path / "inst.json"
    cnf.write_text(TWO_CLAUSES)
    graph = KINDS[kind].reduce(parse_dimacs(TWO_CLAUSES), bool(flags)).graph
    size = {"vertices": len(graph.vertices), "edges": len(graph.edges)}
    monkeypatch.setattr(cli, "REDUCE_MAX_VERTICES", size["vertices"])
    monkeypatch.setattr(cli, "REDUCE_MAX_EDGES", size["edges"])
    assert run_cli(["reduce", kind, str(cnf), "--json", str(out), *flags]) == 0
    assert capsys.readouterr().out.startswith(
        f"{kind}: {size['vertices']} vertices, {size['edges']} edges")
    out.unlink()

    budget = size[what] - 1
    monkeypatch.setattr(cli, f"REDUCE_MAX_{what.upper()}", budget)
    built = []
    monkeypatch.setattr(reductions, f"reduce_to_{kind}", lambda *args: built.append(args))
    assert run_cli(["reduce", kind, str(cnf), "--json", str(out), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"budget exceeded: {size[what]} {what} exceed the reduce budget of {budget}\n")
    assert built == [] and not out.exists()


@pytest.mark.parametrize(
    "kind, text, message",
    [("clique", "p cnf 1000000000 0\n", "empty formula: nothing to reduce"),
     ("hamcycle", "p cnf 1000000000 0\n", "at least one variable and one clause"),
     ("3color", "p cnf 0 0\n", "reduction needs at least one variable"),
     ("clique", "p cnf 4 1\n1 2 3 4 0\n", "formula is not 3-CNF"),
     ("hamcycle", "p cnf 2 2\n1 0\n0\n", "empty clause cannot be reduced")],
    ids=["clique-empty", "hamcycle-no-clause", "3color-no-variable", "clique-width-4",
         "hamcycle-empty-clause"],
)
def test_reduce_rejections_under_the_budget_stay_usage_errors(kind, text, message, tmp_path,
                                                             capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    assert run_cli(["reduce", kind, str(cnf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_python_m_satkit_cli_runs_main(cnf31):
    src = str(Path(satkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "satkit.cli", "solve", cnf31],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "SAT\n")


def test_cli_matches_library_verdicts(cnf31, cnf33, capsys):
    for path, text in ((cnf31, EXAMPLE_31), (cnf33, EXAMPLE_33)):
        f = parse_dimacs(text)
        lib = solve_2sat(f).satisfiable
        code = run_cli(["solve", "--method", "2sat", path])
        out = capsys.readouterr().out.strip()
        assert (out == "SAT") == lib
        assert (code == 0) == lib
        assert brute_force_sat(f).satisfiable == lib


def test_cli_deterministic_output(cnf31, capsys):
    run_cli(["solve", cnf31])
    first = capsys.readouterr().out
    run_cli(["solve", cnf31])
    assert capsys.readouterr().out == first


HAMCYCLE = reduce_to_hamcycle(parse_dimacs(FIG_3CNF), strict=True)
INSTANCES = {
    "clique": instance_to_json(reduce_to_clique(parse_dimacs(FIG_3CNF))),
    "hamcycle": instance_to_json(HAMCYCLE),
    "3color": instance_to_json(reduce_to_3color(parse_dimacs(FIG_3CNF))),
}
# One list per vertex, as many entries as the graph has vertices.
NESTED_CYCLE = json.dumps({"cycle": [[v] for v in HAMCYCLE.graph.vertices]})
DEEP_JSON = "[" * 5000


@pytest.mark.parametrize("command", [["verify", "hamcycle"], ["translate"]])
def test_non_string_cycle_entries_are_usage_errors(command, tmp_path, capsys):
    inst = tmp_path / "h.json"
    inst.write_text(INSTANCES["hamcycle"])
    witness = tmp_path / "w.json"
    witness.write_text(NESTED_CYCLE)
    assert run_cli([*command, str(inst), str(witness)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cycle entries must be strings" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "assignment", "f.cnf", "deep.json"],
        ["verify", "hamcycle", "deep.json", "w.json"],
        ["translate", "h.json", "deep.json"],
    ],
    ids=["assignment", "instance", "witness"],
)
def test_deeply_nested_json_is_usage_error(argv, tmp_path, capsys):
    (tmp_path / "f.cnf").write_text(FIG_3CNF)
    (tmp_path / "h.json").write_text(INSTANCES["hamcycle"])
    (tmp_path / "w.json").write_text(json.dumps({"cycle": []}))
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    assert run_cli([str(tmp_path / a) if "." in a else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested too deeply" in captured.err


def test_infinite_color_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "c.json"
    inst.write_text(INSTANCES["3color"])
    witness = tmp_path / "w.json"
    witness.write_text('{"coloring": {"T": Infinity}}')
    assert run_cli(["verify", "3color", str(inst), str(witness)]) == 2
    assert "malformed 3color witness file" in capsys.readouterr().err


JSON_KEYS = [
    "vertices", "cycle", "coloring", "vars", "formula", "kind", "edges",
    "num_vars", "clauses", "strict", "1", "T", "s",
]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(JSON_KEYS + ["clique", "hamcycle", "3color"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _replace_field(text, key, value):
    data = json.loads(text)
    data[key] = value
    return json.dumps(data)


def _witness_shape(kind, value):
    """A well-formed witness of ``kind`` with one entry replaced by ``value``."""
    if kind == "assignment":
        return json.dumps({"vars": {"1": value, "2": False, "3": True}})
    vertices = json.loads(INSTANCES[kind])["vertices"]
    return json.dumps({
        "clique": {"vertices": vertices[:3] + [value]},
        "hamcycle": {"cycle": vertices[:-1] + [value]},
        "3color": {"coloring": {**{v: 1 for v in vertices[:-1]}, vertices[-1]: value}},
    }[kind])


malformed_json = st.one_of(
    st.text(max_size=12),
    json_values.map(json.dumps),
    st.integers(1, 3000).map(lambda depth: "[" * depth),
)
instance_texts = st.one_of(
    malformed_json,
    st.builds(
        _replace_field,
        st.sampled_from(sorted(INSTANCES.values())),
        st.sampled_from(["formula", "kind", "vertices", "edges", "strict"]),
        json_values,
    ),
)
witness_texts = st.one_of(
    malformed_json,
    st.builds(lambda key, value: json.dumps({key: value}), st.sampled_from(JSON_KEYS), json_values),
)
dimacs_tokens = st.sampled_from(["p", "cnf", "c", "%", "0", "x", "-", "1.5", ""]) | st.integers(
    -4, 4
).map(str)
dimacs_lines = st.one_of(
    st.lists(dimacs_tokens, max_size=5).map(" ".join),
    st.builds("p cnf {} {}".format, st.integers(-1, 5), st.integers(-1, 5)),
)
dimacs_texts = st.one_of(
    st.text(max_size=20),
    st.lists(dimacs_lines, max_size=6).map("\n".join),
    st.sampled_from([FIG_3CNF, EXAMPLE_31, EXAMPLE_33]),
)
MACHINES = [format_machine(m()) for m in (one_step_acceptor, branching_acceptor)]
machine_tokens = st.lists(
    st.sampled_from(["q0", "acc", "rej", "qx", "1", "0", "_", "->", "L", "R"]), max_size=6
).map(" ".join)


def _retoken_line(text, at, tokens):
    """``text`` with the tokens after the key of one of its lines replaced."""
    lines = text.splitlines()
    key = lines[at % len(lines)].partition(":")[0]
    lines[at % len(lines)] = f"{key}: {tokens}"
    return "\n".join(lines)


machine_lines = st.builds(
    "{}: {}".format, st.sampled_from([*MACHINE_HEADERS, "delta", "wat"]), machine_tokens
)
machine_texts = st.one_of(
    st.text(max_size=20),
    st.builds(_retoken_line, st.sampled_from(MACHINES), st.integers(0, 8), machine_tokens),
    st.lists(machine_lines, max_size=9).map("\n".join),
)
# Every command line the contract property draws: each leaf subcommand, and
# each kind of the commands that take one.
CONTRACT_COMMANDS = [
    ("solve",), ("maxsat",), ("to3cnf",),
    ("reduce", "clique"), ("reduce", "hamcycle"), ("reduce", "3color"),
    ("verify", "assignment"), ("verify", "clique"), ("verify", "hamcycle"), ("verify", "3color"),
    ("translate",), ("tm", "run"), ("tm", "ntm"), ("cooklevin",),
]


def _bounds(top):
    return st.sampled_from([str(n) for n in range(-1, top + 1)])


@st.composite
def cli_cases(draw):
    """A command line, its instance text and its witness text, each possibly
    malformed. Arguments that start with @ name files in a scratch directory:
    @instance and @witness hold the two texts, the others are outputs."""
    command = draw(st.sampled_from(CONTRACT_COMMANDS))
    argv = list(command)

    def maybe(*args):
        if draw(st.booleans()):
            argv.extend(args)

    if command in (("tm", "run"), ("tm", "ntm"), ("cooklevin",)):
        argv += ["@instance", draw(st.sampled_from(["", "1", "11", "10", "#"]))]
        if command == ("tm", "run"):
            maybe("--limit", draw(_bounds(20)))
            maybe("--trace")
        elif command == ("tm", "ntm"):
            argv += ["--depth", draw(_bounds(3))]
        else:
            argv += ["--steps", draw(_bounds(4))]
            maybe("--out", "@out")
            maybe("--map", "@map")
        machine = draw(st.sampled_from(MACHINES) if draw(st.booleans()) else machine_texts)
        return argv, machine, ""
    if command[0] in ("verify", "translate") and command != ("verify", "assignment"):
        kind = command[1] if command[0] == "verify" else draw(st.sampled_from(sorted(INSTANCES)))
        instance = INSTANCES[kind] if draw(st.booleans()) else draw(instance_texts)
        if command == ("translate",):
            maybe("--out", "@out")
        argv += ["@instance", "@witness"]
    else:
        kind = "assignment"
        instance = draw(dimacs_texts)
        if command == ("solve",):
            maybe("--method", draw(st.sampled_from(["2sat", "horn", "dnf", "brute"])))
            maybe("--witness", "@out")
        elif command == ("maxsat",):
            argv += ["--k", draw(_bounds(4))]
            maybe("--witness", "@out")
        elif command == ("to3cnf",):
            maybe("--out", "@out")
        elif command[0] == "reduce":
            maybe("--strict")
            maybe("--dot", "@dot")
            maybe("--json", "@json")
        argv += ["@instance", "@witness"] if command[0] == "verify" else ["@instance"]
    if draw(st.booleans()):
        value = draw(st.sampled_from([True, False, 1, 2, 3, "T", "s"]) | json_values)
        return argv, instance, _witness_shape(kind, value)
    return argv, instance, draw(witness_texts)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cli_cases())
@example((["verify", "hamcycle", "@instance", "@witness"], INSTANCES["hamcycle"], NESTED_CYCLE))
@example((["translate", "@instance", "@witness"], INSTANCES["hamcycle"], NESTED_CYCLE))
@example((["verify", "assignment", "@instance", "@witness"], FIG_3CNF, DEEP_JSON))
@example((["verify", "clique", "@instance", "@witness"], DEEP_JSON, "{}"))
@example((["translate", "@instance", "@witness"], INSTANCES["3color"], DEEP_JSON))
@example(
    (["translate", "@instance", "@witness"], INSTANCES["3color"], '{"coloring": {"T": Infinity}}')
)
def test_cli_exit_code_contract_on_malformed_files(case):
    argv, instance, witness = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("instance", instance), ("witness", witness)):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a[1:]) if a.startswith("@") else a for a in argv]
        # Anything raised fails the test: run_cli must map every input to a code.
        assert run_cli(argv) in (0, 1, 2, 3)


def test_contract_property_draws_every_command():
    drawn = set()
    for words, _, sub in _leaf_commands(build_parser()):
        kinds = [a.choices for a in sub._actions if a.dest == "kind"]
        drawn |= {(*words, kind) for kind in kinds[0]} if kinds else {words}
    assert drawn == set(CONTRACT_COMMANDS)


@pytest.mark.parametrize(
    "formula, message",
    [
        ({"num_vars": -1, "clauses": []}, "num_vars must be non-negative"),
        ({"num_vars": 3, "clauses": [[1, 0, 2]]}, "literal 0 is not allowed inside a clause"),
        ({"num_vars": 3, "clauses": [[1, -4]]}, "literal -4 exceeds declared variable count 3"),
    ],
)
def test_verify_refuses_an_invalid_embedded_formula(formula, message, tmp_path, capsys):
    inst = tmp_path / "c.json"
    inst.write_text(_replace_field(INSTANCES["clique"], "formula", formula))
    witness = tmp_path / "w.json"
    witness.write_text('{"vertices": []}')
    assert run_cli(["verify", "clique", str(inst), str(witness)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_refuses_mis_sized_instance_quickly(tmp_path, capsys):
    # 94 bytes claiming 50,000 variables: refused before the reduction runs
    inst = tmp_path / "c.json"
    inst.write_text(
        '{"kind": "3color", "formula": {"num_vars": 50000, "clauses": []}, '
        '"vertices": [], "edges": []}'
    )
    witness = tmp_path / "w.json"
    witness.write_text('{"coloring": {}}')
    assert run_cli(["verify", "3color", str(inst), str(witness)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not match its own formula" in captured.err


TWO_CLAUSES = "p cnf 2 2\n1 2 0\n-1 2 0\n"


def _reduce_two_clauses(kind, tmp_path, *flags):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(TWO_CLAUSES)
    inst = tmp_path / f"{kind}.json"
    assert run_cli(["reduce", kind, str(cnf), "--json", str(inst), *flags]) == 0
    return inst


COLORING = find_k_coloring(reduce_to_3color(parse_dimacs(TWO_CLAUSES)).graph, 3)


@pytest.mark.parametrize("command", ["verify", "translate"])
@pytest.mark.parametrize(
    "kind, witness",
    [
        ("3color", {"coloring": {v: c + 0.5 for v, c in COLORING.items()}}),
        ("3color", {"coloring": {v: str(c) for v, c in COLORING.items()}}),
        ("hamcycle", {"cycle": "s"}),
        ("clique", {"vertices": "abc"}),
        ("clique", {"vertices": {"a": 1}}),
    ],
    ids=["float-colors", "string-colors", "string-cycle", "string-vertices", "object-vertices"],
)
def test_wrong_typed_graph_witness_is_usage_error(command, kind, witness, tmp_path, capsys):
    inst = _reduce_two_clauses(kind, tmp_path)
    path = tmp_path / "w.json"
    if kind == "3color":  # the same coloring with integer colors verifies
        path.write_text(json.dumps({"coloring": COLORING}))
        assert run_cli(["verify", kind, str(inst), str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(witness))
    argv = ["verify", kind] if command == "verify" else ["translate"]
    assert run_cli([*argv, str(inst), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed {kind} witness file")


@pytest.mark.parametrize("key", ["1_0", "+10", " 10", "010", "\u0661\u0660"])
def test_non_canonical_assignment_key_is_usage_error(key, tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 10 1\n10 0\n")
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"vars": {"10": True}}))
    assert run_cli(["verify", "assignment", str(cnf), str(witness)]) == 0
    capsys.readouterr()
    witness.write_text(json.dumps({"vars": {key: True}}))
    assert run_cli(["verify", "assignment", str(cnf), str(witness)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad witness entry")


@pytest.mark.parametrize("strict", ["yes", 1, [0]])
def test_non_boolean_strict_is_usage_error(strict, tmp_path, capsys):
    inst = _reduce_two_clauses("hamcycle", tmp_path, "--strict")
    cycle = find_hamiltonian_cycle(instance_from_json(inst.read_text()).graph)
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps({"cycle": cycle}))
    assert run_cli(["verify", "hamcycle", str(inst), str(witness)]) == 0
    capsys.readouterr()
    inst.write_text(_replace_field(inst.read_text(), "strict", strict))
    assert run_cli(["verify", "hamcycle", str(inst), str(witness)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed instance file")


def _wrong_entries(kind):
    """JSON values of every type but the one entries of a ``kind`` witness must have."""
    right = {
        "assignment": lambda v: isinstance(v, bool),
        "3color": lambda v: type(v) is int,
    }.get(kind, lambda v: isinstance(v, str))
    return json_values.filter(lambda v: not right(v))


@st.composite
def wrong_typed_witness_cases(draw):
    """A command, a well-formed instance and a witness with one wrong-typed entry."""
    command = draw(
        st.sampled_from([list(c) for c in CONTRACT_COMMANDS if c[0] in ("verify", "translate")])
    )
    kind = command[1] if command[0] == "verify" else draw(st.sampled_from(sorted(INSTANCES)))
    instance = FIG_3CNF if kind == "assignment" else INSTANCES[kind]
    return command, instance, _witness_shape(kind, draw(_wrong_entries(kind)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wrong_typed_witness_cases())
def test_wrong_typed_witness_entry_is_usage_error(case):
    command, instance, witness = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "instance"), os.path.join(tmp, "witness.json")]
        for path, text in zip(paths, (instance, witness)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([*command, *paths])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_demo_block_runs_as_commented(tmp_path, monkeypatch, capsys):
    shutil.copytree(DEMO, tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    block = README.read_text(encoding="utf-8").split("Ready-made inputs live in `demo/`:")[1]
    runs = {}  # the line's comment, or its command when it has none -> argv, code, stdout
    for line in block.split("```")[1].strip().splitlines():
        command, _, comment = line.partition(" # ")
        argv = shlex.split(command)
        assert argv[0] == "satkit", line
        runs[comment.strip() or command.strip()] = (argv[1:], run_cli(argv[1:]),
                                                    capsys.readouterr().out)

    argv, code, out = runs.pop("SAT, witness all-false")
    assert (code, out) == (0, "SAT\n")
    assert run_cli([*argv, "--witness", "w.json"]) == 0
    assert capsys.readouterr().out == "SAT\n"
    assert assignment_from_json(Path("w.json").read_text()) == {1: False, 2: False, 3: False}
    argv, code, out = runs.pop("NO (optimum is 3)")
    assert (code, out) == (1, "NO\n")
    argv[argv.index("--k") + 1] = "3"
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "YES\n"
    _, code, out = runs.pop("ACCEPT")
    assert (code, out.splitlines()[-1]) == (0, "ACCEPT")
    _, code, out = runs.pop("1296 vars, 137379 clauses")
    assert (code, out) == (0, "tableau 9x9: 1296 vars, 137379 clauses\n")
    # The two commands without a comment write the files they name.
    assert [code for _, code, _ in runs.values()] == [0, 0]
    assert all(Path(name).stat().st_size for name in ("g.dot", "inst.json", "enc.cnf", "vars.json"))


def _leaf_commands(parser, words=()):
    """(command words, option strings other than help, parser) of every leaf
    subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, (*words, name))
            return
    options = {s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")}
    yield words, options, parser


def test_readme_cli_synopsis_matches_parser():
    block = README.read_text(encoding="utf-8").split("## CLI\n\n```\n")[1].split("```")[0]
    lines = block.strip().splitlines()
    commands = list(_leaf_commands(build_parser()))
    assert len(lines) == len(commands)
    for words, options, _ in commands:
        [line] = [line for line in lines if line.startswith(" ".join(("satkit", *words, "")))]
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line)) == options, line


def test_kind_choices_match_the_reduction_table():
    # build_parser names the kinds itself, so that parsing loads no reduction code
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]

    def kinds(command):
        [kind] = [a for a in commands.choices[command]._actions if a.dest == "kind"]
        return set(kind.choices)

    assert kinds("reduce") == set(KINDS)
    assert kinds("verify") == set(KINDS) | {"assignment"}
