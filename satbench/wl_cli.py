"""``cli``: the README's command-line examples, one subprocess per op.

Every op starts a fresh interpreter that runs ``satkit.cli.main`` through
``python -c`` with ``src`` on ``PYTHONPATH`` (the console script is not
assumed to be installed), inside a scratch directory of the run. Each op
checks the exit code, stdout, and any files written against the
benchmark's own references.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import reference as ref
from harness import INPUTS, MACHINES, SRC, Op, expect

ENTRY = "from satkit.cli import main; main()"
TIMEOUT_S = 60  # a hung command fails its op instead of stalling the run
COMMANDS = ("solve", "maxsat", "to3cnf", "reduce_clique", "reduce_hamcycle", "reduce_3color",
            "verify", "translate", "tm_run", "tm_ntm", "cooklevin")


def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SATKIT_BUDGET_VARS", None)
    return env


def dimacs_header(path: Path) -> tuple[int, int]:
    """(num_vars, declared clause count) from a DIMACS header line."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("p"):
                return int(line.split()[2]), int(line.split()[3])
    raise ValueError(f"{path.name}: no header")


def read_dimacs(path: Path):
    """(num_vars, declared clause count, clauses) of a DIMACS file."""
    clauses, current = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith(("c", "p")):
            continue
        for tok in line.split():
            if tok == "0":
                clauses.append(tuple(current))
                current = []
            else:
                current.append(int(tok))
    return (*dimacs_header(path), clauses)


def _assignment(text: str) -> dict:
    return {int(k): v for k, v in json.loads(text)["vars"].items()}


def _clique_edge_count(clauses) -> int:
    padded = [c + c[-1:] * (3 - len(c)) for c in clauses]
    occ = [(abs(l), j, l > 0) for j, c in enumerate(padded) for l in c]
    return sum(
        1 for (i1, j1, s1), (i2, j2, s2) in combinations(occ, 2)
        if j1 != j2 and not (i1 == i2 and s1 != s2)
    )


def _strict_hamcycle_size(n, clauses) -> tuple[int, int]:
    """|V| and |E| of the strict HAM-CYCLE construction."""
    k = len(clauses)
    vertices = n * (3 * k + 3) + k + 2
    edges = n * (6 * k + 4) + (n + 2) + 2 * sum(len(set(c)) for c in clauses)
    return vertices, edges


def build(seed: int, small: bool, workdir) -> tuple[list[Op], list[Op]]:
    rng = random.Random(seed)
    wd = Path(workdir)
    for src in [*INPUTS.glob("*.cnf"), *(MACHINES / n for n in ("equality.tm", "one_step.tm", "walker.tm"))]:
        shutil.copy(src, wd / src.name)
    prefix = [sys.executable, "-c", ENTRY]
    env = cli_env()

    def command(name, argv, check) -> Op:
        def run(tr):
            return tr.call(f"cli.{name}", subprocess.run, prefix + argv, cwd=wd, env=env,
                           capture_output=True, text=True, timeout=TIMEOUT_S)

        def check_proc(proc, counts):
            expect("Traceback" not in proc.stderr, "traceback on stderr")
            lines = proc.stdout.splitlines()
            check(proc.returncode, lines, wd)
            return [name, proc.returncode, lines[-1] if lines else ""]

        return Op(f"cli.{name}", run, check_proc)

    ex31 = read_dimacs(wd / "example31.cnf")
    ex33 = read_dimacs(wd / "example33.cnf")
    fig = read_dimacs(wd / "fig_clique.cnf")
    equality = ref.Machine.load(wd / "equality.tm")
    walker = ref.Machine.load(wd / "walker.tm")
    one_step = ref.Machine.load(wd / "one_step.tm")

    # The clique instance and witness that verify/translate read.
    subprocess.run(prefix + ["reduce", "clique", "--json", "inst.json", "fig_clique.cnf"],
                   cwd=wd, env=env, capture_output=True, check=True, timeout=TIMEOUT_S)
    inst = json.loads((wd / "inst.json").read_text(encoding="utf-8"))
    edges = {tuple(e) for e in inst["edges"]}
    clique = next(c for c in combinations(sorted(inst["vertices"]), inst["k"])
                  if ref.is_clique(edges, c, inst["k"]))
    (wd / "cw.json").write_text(json.dumps({"vertices": list(clique)}), encoding="utf-8")

    u = "".join(rng.choice("01") for _ in range(3))
    v = u if rng.random() < 0.5 else u[:-1] + ("1" if u[-1] == "0" else "0")
    tm_word = f"{u}#{v}"
    tm_verdict, tm_steps = ref.run_deterministic(equality, tm_word, 10_000)
    ntm_word = "a" * rng.randint(1, 3)
    ntm_verdict = ref.ntm_verdict(walker, ntm_word, 8)

    def solve(rc, out, d):
        expect(rc == 0 and out == ["SAT"], "solve verdict")
        expect(ref.satisfies(ex31[0], ex31[2], _assignment((d / "w31.json").read_text())), "witness")

    def maxsat(rc, out, d):
        expect(ref.max_satisfied(ex33[0], ex33[2]) < 4 and rc == 1 and out == ["NO"], "maxsat")

    def to3cnf(rc, out, d):
        n, _, clauses = ex31
        fresh = sum({1: 2, 2: 1, 3: 0}.get(len(c), len(c) - 3) for c in clauses)
        count = ref.three_cnf_clause_count(clauses)
        expect(rc == 0 and out == [f"3-CNF: {count} clauses over {n + fresh} vars ({fresh} fresh)"], "to3cnf")
        vars3, declared, three = read_dimacs(d / "three.cnf")
        expect(declared == count and all(len(c) <= 3 for c in three), "to3cnf file")
        expect(ref.exhaustive_sat(vars3, three) == ref.exhaustive_sat(n, clauses), "equisatisfiable")

    def reduce_clique(rc, out, d):
        k = len(fig[2])
        edges = _clique_edge_count(fig[2])
        expect(rc == 0 and out == [f"clique: {3 * k} vertices, {edges} edges, k={k}"], "reduce clique")
        expect((d / "g.dot").read_text().startswith("graph G {"), "dot file")
        expect(len(json.loads((d / "clique.json").read_text())["vertices"]) == 3 * k, "json file")

    def reduce_hamcycle(rc, out, d):
        vs, es = _strict_hamcycle_size(fig[0], fig[2])
        expect(rc == 0 and out == [f"hamcycle: {vs} vertices, {es} edges"], "reduce hamcycle")

    def reduce_3color(rc, out, d):
        n, k = fig[0], len(fig[2])
        expect(rc == 0 and out == [f"3color: {2 * n + 3 + 6 * k} vertices, {3 + 3 * n + 13 * k} edges"],
               "reduce 3color")

    def verify(rc, out, d):
        expect(rc == 0 and out == ["YES"], "verify clique")

    def translate(rc, out, d):
        expect(rc == 0 and len(out) == 1, "translate")
        a = _assignment(out[0])
        expect(a == _assignment((d / "back.json").read_text()), "translate --out")
        expect(ref.satisfies(fig[0], fig[2], a), "translated assignment")

    def tm_run(rc, out, d):
        want = {"accept": (0, "ACCEPT"), "reject": (1, "REJECT")}[tm_verdict]
        expect((rc, out[-1]) == want and len(out) == tm_steps + 2, "tm run")

    def tm_ntm(rc, out, d):
        want = {"accept": 0, "reject": 1, "step_limit_exceeded": 3}[ntm_verdict]
        expect(rc == want, f"tm ntm exit {rc}")
        if ntm_verdict == "accept":
            choices = out[0].split()[1:]
            expect(ref.replay_accepts(walker, ntm_word, [int(c) for c in "".join(choices)]), "choices")

    def cooklevin(rc, out, d):
        vars_, declared = dimacs_header(d / "enc.cnf")
        expect(vars_ == 16 * one_step.universe, "tableau variables")
        expect(rc == 0 and out == [f"tableau 4x4: {vars_} vars, {declared} clauses"], "cooklevin")
        expect(len(json.loads((d / "vars.json").read_text())["vars"]) == vars_, "variable map")

    ops = [
        command("solve", ["solve", "--method", "2sat", "--witness", "w31.json", "example31.cnf"], solve),
        command("maxsat", ["maxsat", "--k", "4", "example33.cnf"], maxsat),
        command("to3cnf", ["to3cnf", "--out", "three.cnf", "example31.cnf"], to3cnf),
        command("reduce_clique", ["reduce", "clique", "--dot", "g.dot", "--json", "clique.json",
                                   "fig_clique.cnf"], reduce_clique),
        command("reduce_hamcycle", ["reduce", "hamcycle", "--strict", "fig_clique.cnf"], reduce_hamcycle),
        command("reduce_3color", ["reduce", "3color", "fig_clique.cnf"], reduce_3color),
        command("verify", ["verify", "clique", "inst.json", "cw.json"], verify),
        command("translate", ["translate", "--out", "back.json", "inst.json", "cw.json"], translate),
        command("tm_run", ["tm", "run", "equality.tm", tm_word, "--trace"], tm_run),
        command("tm_ntm", ["tm", "ntm", "walker.tm", ntm_word, "--depth", "8"], tm_ntm),
        command("cooklevin", ["cooklevin", "one_step.tm", "1", "--steps", "4", "--out", "enc.cnf",
                               "--map", "vars.json"], cooklevin),
    ]
    warmup = [ops[0]]  # solve: the cheapest command, whatever the seed
    rng.shuffle(ops)
    return ops, warmup

