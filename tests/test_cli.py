import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satkit
from satkit.cli import run_cli
from satkit.formula import assignment_from_json, parse_dimacs
from satkit.oracle import brute_force_sat
from satkit.reductions import instance_from_json
from satkit.tractable import solve_2sat
from satkit.turing import build_equality_checker, format_machine
from support import branching_acceptor, one_step_acceptor

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


def test_maxsat(cnf33, capsys):
    assert run_cli(["maxsat", "--k", "4", cnf33]) == 1
    assert capsys.readouterr().out == "NO\n"
    assert run_cli(["maxsat", "--k", "3", cnf33]) == 0
    assert capsys.readouterr().out == "YES\n"


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
    from satkit.turing import build_equality_checker

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
