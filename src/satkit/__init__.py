"""satkit: SAT fragments, CNF transformations, graph reductions, and
Turing-machine tableau encodings, cross-checked against brute-force search.

``import satkit`` loads no submodule. Each exported name is imported from
its submodule on first access (PEP 562 module ``__getattr__``) and cached
in this namespace, so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_EXPORTS = {
    "errors": ("BudgetExceededError",),
    "formula": (
        "Assignment", "Clause", "CnfFormula", "DimacsError", "DnfFormula", "SatResult",
        "canonical", "count_satisfied", "evaluate", "evaluate_dnf", "is_horn",
        "max_clause_width", "parse_dimacs", "write_dimacs",
    ),
    "oracle": ("brute_force_sat", "equisatisfiable", "max_sat_decide", "max_sat_optimum"),
    "graph": (
        "Digraph", "Graph", "find_clique", "find_hamiltonian_cycle", "find_k_coloring",
        "to_dot", "verify_clique", "verify_coloring", "verify_hamiltonian_cycle",
    ),
    "tractable": (
        "UpResult", "solve_2sat", "solve_dnf", "solve_horn", "unit_propagate",
    ),
    "threecnf": ("ThreeCnfResult", "project_witness", "to_3cnf"),
    "reductions": (
        "CliqueInstance", "ColoringInstance", "HamCycleInstance", "NonCanonicalCycleError",
        "assignment_to_clique", "clique_witness_to_assignment",
        "coloring_witness_to_assignment", "hamcycle_witness_to_assignment", "reduce_to_3color",
        "reduce_to_clique", "reduce_to_hamcycle",
    ),
    "turing": (
        "BLANK", "Configuration", "MachineSpec", "RunOutcome", "format_machine", "parse_machine",
        "run_dtm", "run_ntm", "step",
    ),
    "cooklevin": (
        "BOUNDARY", "TableauSpec", "WindowTemplate", "decode_tableau", "encode",
        "legal_windows", "state_symbol", "tape_symbol",
    ),
}
# Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULE_EXPORTS:  # e.g. ``satkit.oracle`` before anything imported it
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
