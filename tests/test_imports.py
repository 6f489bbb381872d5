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

# The names ``satkit`` exports, by defining submodule.
EXPORTS = {
    "errors": ["BudgetExceededError"],
    "formula": [
        "Assignment", "Clause", "CnfFormula", "DimacsError", "DnfFormula", "SatResult",
        "count_satisfied", "evaluate", "evaluate_dnf", "is_horn", "max_clause_width",
        "parse_dimacs", "write_dimacs",
    ],
    "oracle": ["brute_force_sat", "equisatisfiable", "max_sat_decide", "max_sat_optimum"],
    "graph": [
        "Digraph", "Graph", "find_clique", "find_hamiltonian_cycle", "find_k_coloring",
        "to_dot", "verify_clique", "verify_coloring", "verify_hamiltonian_cycle",
    ],
    "tractable": ["UpResult", "solve_2sat", "solve_dnf", "solve_horn", "unit_propagate"],
    "threecnf": ["ThreeCnfResult", "project_witness", "to_3cnf"],
    "reductions": [
        "CliqueInstance", "ColoringInstance", "HamCycleInstance", "NonCanonicalCycleError",
        "assignment_to_clique", "clique_witness_to_assignment",
        "coloring_witness_to_assignment", "hamcycle_witness_to_assignment",
        "reduce_to_3color", "reduce_to_clique", "reduce_to_hamcycle",
    ],
    "turing": [
        "BLANK", "Configuration", "MachineSpec", "RunOutcome", "format_machine", "parse_machine",
        "run_dtm", "run_ntm", "step",
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


def satkit_imports(module: str) -> list[tuple[str, bool]]:
    """Each ``satkit`` name that ``satkit/<module>.py`` imports, with whether
    the import statement sits inside a function."""
    tree = ast.parse((SRC / "satkit" / f"{module}.py").read_text(encoding="utf-8"))
    nested = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if node is not fn
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "satkit"):
            names = [node.module] if node.module and node.level else [a.name for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            full = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            names = [name.removeprefix("satkit.") for name in full if name.startswith("satkit.")]
        else:
            continue
        found += [(name.partition(".")[0], id(node) in nested) for name in names]
    return found


# Each module's top-level ``satkit`` imports. The fast paths in tractable
# and the oracle that checks them share only the formula model, and the
# graph layer holds no SAT code at all.
LAYERS = {
    "__init__": set(),
    "_propagate": {"formula"},
    "_record": set(),
    "cli": {"errors", "formula"},
    "cooklevin": {"_record", "errors", "formula", "turing"},
    "errors": set(),
    "formula": {"_record"},
    "graph": {"_record", "errors"},
    "oracle": {"errors", "formula"},
    "reductions": {"_record", "formula", "graph"},
    "threecnf": {"_record", "formula"},
    "tractable": {"_record", "formula"},
    "turing": {"_record"},
}


def test_each_module_imports_exactly_its_layer():
    modules = sorted(p.stem for p in (SRC / "satkit").glob("*.py"))
    assert sorted(LAYERS) == modules
    for module in modules:
        top = {name for name, nested in satkit_imports(module) if not nested}
        assert top == LAYERS[module], module
    assert {name for name, nested in satkit_imports("tractable") if nested} == {"_propagate"}
    assert loaded_after("import satkit.tractable") == {"satkit", "tractable", "formula",
                                                       "_record"}


def test_propagation_kernel_shares_no_code_with_the_solvers():
    # A checker built on the kernel must not run the code of the solvers
    # whose answers it checks, and no CLI command may load the kernel by
    # importing tractable.
    kernel = satkit_imports("_propagate")
    assert kernel and {name for name, _ in kernel} <= {"formula", "_record"}
    assert loaded_after("import satkit._propagate") == {"satkit", "_propagate", "formula",
                                                        "_record"}
    uses = [nested for name, nested in satkit_imports("tractable") if name == "_propagate"]
    assert uses and all(uses)


@pytest.fixture
def clique_files(tmp_path):
    inst = reduce_to_clique(parse_dimacs((DEMO / "fig_clique.cnf").read_text()))
    inst_path, witness_path = tmp_path / "inst.json", tmp_path / "cw.json"
    inst_path.write_text(instance_to_json(inst))
    witness_path.write_text(json.dumps({"vertices": ["v:1:1:+:1", "v:1:2:+:1", "v:2:3:+:2"]}))
    return str(inst_path), str(witness_path)


def demo(name: str) -> str:
    return str(DEMO / name)


# What solving a 2-CNF or Horn file must not load: the oracle and the graph
# layer as much as the reductions and the machine code.
FAST_PATH_FORBIDDEN = {"oracle", "graph", "threecnf", "reductions", "turing", "cooklevin"}


@pytest.mark.parametrize(
    "argv, exit_code, forbidden",
    [
        (["solve", demo("example31.cnf")], 0, FAST_PATH_FORBIDDEN),
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


def test_solve_horn_imports_only_the_fast_path(tmp_path):
    horn = tmp_path / "horn.cnf"
    horn.write_text("p cnf 3 3\n-1 -2 3 0\n1 0\n2 0\n")  # width 3, so not 2-SAT
    loaded = cli_loaded(["solve", str(horn)], 0)
    assert CLI_BASE | {"tractable"} <= loaded
    assert not loaded & FAST_PATH_FORBIDDEN


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
    assert {*ALL_NAMES, "__version__"} <= set(dir(satkit))
    assert satkit.__version__ == "0.1.0"


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from satkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == ALL_NAMES
    assert all(namespace[name] is getattr(satkit, name) for name in ALL_NAMES)


def test_submodule_attribute_imports_the_submodule(monkeypatch):
    # as if nothing had imported satkit.oracle yet; both are restored after
    monkeypatch.delattr(satkit, "oracle", raising=False)
    monkeypatch.delitem(sys.modules, "satkit.oracle", raising=False)
    oracle = satkit.oracle
    assert oracle is sys.modules["satkit.oracle"]
    assert oracle.brute_force_sat.__module__ == "satkit.oracle"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        satkit.no_such_name
    assert not hasattr(satkit, "no_such_name")


def unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports and never mentions again.

    A name counts as used wherever the rest of the module reads it,
    annotations included, whatever the scope. Only
    ``from __future__ import annotations`` is exempt.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    tests = Path(__file__).resolve().parent
    paths = sorted([*(SRC / "satkit").glob("*.py"), *tests.glob("*.py")])
    assert [line for path in paths for line in unused_imports(path)] == []


def dead_private_names(paths: list[Path]) -> list[str]:
    """Module-level ``_name`` definitions in ``paths`` that none of them loads.

    A load is a ``Name`` read, an attribute access or a from-import of the
    name, anywhere in any of the modules. Dunder names are exempt.
    """
    defined, loaded = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(f"{path.name}:{node.lineno} {name}", name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return [where for where, name in defined if name not in loaded]


def test_every_private_module_name_is_used():
    assert dead_private_names(sorted((SRC / "satkit").glob("*.py"))) == []
