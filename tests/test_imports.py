"""What each entry point imports, and the lazy ``satkit`` namespace.

Every CLI command runs in a fresh process, so each submodule it imports is
compiled and executed on every run. Each case below runs in a new
interpreter and lists the ``satkit`` modules loaded once it is done.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satkit
from satkit.formula import parse_dimacs
from satkit.reductions import instance_to_json, reduce_to_clique

DEMO = Path(__file__).resolve().parents[1] / "demo"
SRC = Path(satkit.__file__).resolve().parents[1]

# The names ``satkit`` exported when its ``__init__`` imported every
# submodule eagerly, by defining submodule.
EXPORTS = {
    "errors": ["BudgetExceededError"],
    "formula": [
        "Assignment", "Clause", "CnfFormula", "DimacsError", "DnfFormula", "canonical",
        "count_satisfied", "evaluate", "evaluate_dnf", "is_horn", "max_clause_width",
        "parse_dimacs", "write_dimacs",
    ],
    "oracle": ["SatResult", "brute_force_sat", "equisatisfiable", "max_sat_decide",
               "max_sat_optimum"],
    "graph": [
        "Digraph", "Graph", "find_clique", "find_hamiltonian_cycle", "find_k_coloring",
        "is_bipartite", "strongly_connected_components", "to_dot", "verify_clique",
        "verify_coloring", "verify_hamiltonian_cycle",
    ],
    "tractable": ["ImplicationGraph", "UpResult", "build_implication_graph", "solve_2sat",
                  "solve_dnf", "solve_horn", "unit_propagate"],
    "threecnf": ["ThreeCnfResult", "project_witness", "to_3cnf"],
    "reductions": [
        "CliqueInstance", "ColoringInstance", "HamCycleInstance", "NonCanonicalCycleError",
        "assignment_to_clique", "clique_witness_to_assignment",
        "coloring_witness_to_assignment", "hamcycle_witness_to_assignment",
        "reduce_to_3color", "reduce_to_clique", "reduce_to_hamcycle",
    ],
    "turing": [
        "BLANK", "Configuration", "MachineSpec", "RunOutcome", "build_equality_checker",
        "decode_multitape", "encode_multitape", "format_machine", "parse_machine", "run_dtm",
        "run_ntm", "step",
    ],
    "cooklevin": ["BOUNDARY", "TableauSpec", "WindowTemplate", "decode_tableau", "encode",
                  "legal_windows", "state_symbol", "tape_symbol"],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)

REPORT = (
    "import sys\n"
    "print(*sorted(m.partition('.')[2] or m for m in sys.modules if m.startswith('satkit')))\n"
)


def loaded_after(code: str) -> set[str]:
    """satkit modules (``satkit`` itself, else the submodule's short name)
    loaded by running ``code`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("SATKIT_BUDGET_VARS", None)
    done = subprocess.run([sys.executable, "-c", code + "\n" + REPORT], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return set(done.stdout.splitlines()[-1].split())


def cli_loaded(argv: list[str], exit_code: int) -> set[str]:
    code = (
        "import contextlib, io\n"
        "from satkit.cli import run_cli\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        f"    code = run_cli({argv!r})\n"
        f"assert code == {exit_code}, code\n"
    )
    return loaded_after(code)


CLI_BASE = {"satkit", "cli", "errors", "formula", "_record"}


def test_import_satkit_loads_no_submodule():
    assert loaded_after("import satkit") == {"satkit"}
    # Listing the namespace names every export without importing any.
    code = "import satkit\nassert set(satkit.__all__) <= set(dir(satkit))"
    assert loaded_after(code) == {"satkit"}


def test_import_cli_loads_only_errors_and_formula():
    assert loaded_after("import satkit.cli") == CLI_BASE


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect and compiles each class's methods when
    # its module loads, a cost every CLI command would pay at start-up.
    for path in sorted((SRC / "satkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {name.partition(".")[0] for name in names}, path.name


def test_every_submodule_loads_without_dataclasses_or_inspect():
    modules = sorted(p.stem for p in (SRC / "satkit").glob("*.py") if p.stem != "__init__")
    assert {"cli", "cooklevin", "formula", "graph", "turing"} <= set(modules)
    # -S keeps site (and the .pth files it runs) from preloading modules.
    code = (
        f"import importlib, sys\nsys.path.insert(0, {str(SRC)!r})\n"
        f"for name in {modules!r}:\n    importlib.import_module('satkit.' + name)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.split() == ["[]"]


@pytest.fixture
def clique_files(tmp_path):
    inst = reduce_to_clique(parse_dimacs((DEMO / "fig_clique.cnf").read_text()))
    inst_path, witness_path = tmp_path / "inst.json", tmp_path / "cw.json"
    inst_path.write_text(instance_to_json(inst))
    witness_path.write_text(json.dumps({"vertices": ["v:1:1:+:1", "v:1:2:+:1", "v:2:3:+:2"]}))
    return str(inst_path), str(witness_path)


def demo(name: str) -> str:
    return str(DEMO / name)


@pytest.mark.parametrize(
    "argv, exit_code, forbidden",
    [
        (["solve", demo("example31.cnf")], 0, {"threecnf", "reductions", "turing", "cooklevin"}),
        (["solve", "--method", "brute", demo("example31.cnf")], 0, {"tractable", "graph"}),
        (["maxsat", "--k", "4", demo("example33.cnf")], 1, {"tractable", "graph"}),
        (["reduce", "clique", demo("fig_clique.cnf")], 0,
         {"oracle", "tractable", "turing", "cooklevin"}),
        (["tm", "run", demo("equality.tm"), "01#01"], 0,
         {"oracle", "tractable", "graph", "reductions", "threecnf", "cooklevin"}),
        (["tm", "ntm", demo("one_step.tm"), "1", "--depth", "3"], 0,
         {"oracle", "tractable", "graph", "reductions", "threecnf", "cooklevin"}),
        (["cooklevin", demo("one_step.tm"), "1", "--steps", "4"], 0,
         {"reductions", "tractable", "graph"}),
    ],
    ids=["solve-2cnf", "solve-brute", "maxsat", "reduce", "tm-run", "tm-ntm", "cooklevin"],
)
def test_command_imports_only_its_modules(argv, exit_code, forbidden):
    loaded = cli_loaded(argv, exit_code)
    assert CLI_BASE <= loaded
    assert not loaded & forbidden


@pytest.mark.parametrize("command", ["verify", "translate"])
def test_graph_witness_commands_import_no_solver(command, clique_files):
    argv = ["clique", *clique_files] if command == "verify" else clique_files
    loaded = cli_loaded([command, *argv], 0)
    assert {"reductions", "graph"} <= loaded
    assert not loaded & {"oracle", "tractable", "turing", "cooklevin"}


def test_usage_error_imports_nothing_beyond_cli():
    assert cli_loaded(["solve", "--method", "nope", demo("example31.cnf")], 2) == CLI_BASE


def test_namespace_resolves_every_export():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"satkit.{module}")
        for name in names:
            assert getattr(satkit, name) is getattr(mod, name), name
            assert vars(satkit)[name] is getattr(mod, name), name  # cached after first use
        assert getattr(satkit, module) is mod
    assert sorted(satkit.__all__) == ALL_NAMES
    assert satkit.__version__ == "0.1.0"


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from satkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == ALL_NAMES
    assert all(namespace[name] is getattr(satkit, name) for name in ALL_NAMES)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        satkit.no_such_name
    assert not hasattr(satkit, "no_such_name")
