"""satkit benchmark: one workload per run, every output verified.

    python3 satbench/run.py --workload tableau --seed 1 --seconds 15 --trace 0

Run from the root of a satkit checkout; satkit is imported from ``src``.
Inputs are generated from ``--seed`` before timing starts. With
``--trace 0`` the op set is run in full passes for about ``--seconds``
seconds and the end-to-end metrics are printed; with ``--trace 1`` one
untraced and one traced pass run, followed by the fixed layer probe, and
the per-layer metrics are printed. ``--small`` shrinks every workload to a
few seconds for the smoke test.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, and a file under
``satbench/results``, hold the full report (machine facts, sample counts,
work counts and the digest of all verdicts and witnesses).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from harness import BENCH_DIR, SRC, run_pass
from spans import NullTracer, Tracer, summarize
from wl_cli import COMMANDS, TIMEOUT_S, cli_env

RESULTS = BENCH_DIR / "results"
WORKLOADS = ("tableau", "fragments", "crosscheck", "cli")
SETUP_SAMPLES = 3

# Calls the benchmark wraps in spans; each gets <name>.s and <name>.calls.
LAYER_CALLS = (
    "cooklevin.legal_windows",
    "cooklevin.encode",
    "cooklevin.decode_tableau",
    "oracle.brute_force_sat",
    "oracle.max_sat_optimum",
    "oracle.equisatisfiable",
    "tractable.solve_2sat",
    "tractable.solve_horn",
    "graph.find_clique",
    "graph.find_k_coloring",
    "graph.find_hamiltonian_cycle",
    "reductions.reduce_to_clique",
    "reductions.reduce_to_3color",
    "reductions.reduce_to_hamcycle",
    "reductions.witness_to_assignment",
    "threecnf.to_3cnf",
    "formula.CnfFormula",
    "formula.write_dimacs",
    "formula.parse_dimacs",
    "turing.run_dtm",
    "turing.run_ntm",
)
# Work counts added by the ops' checks; they repeat exactly for a seed.
LAYER_COUNTS = (
    "cooklevin.legal_windows.count",
    "cooklevin.encode.clauses",
    "cooklevin.encode.literals",
    "oracle.brute_force_sat.clauses_in",
    "reductions.reduce_to_clique.vertices",
    "reductions.reduce_to_clique.edges",
    "reductions.reduce_to_3color.vertices",
    "reductions.reduce_to_3color.edges",
    "reductions.reduce_to_hamcycle.vertices",
    "reductions.reduce_to_hamcycle.edges",
    "threecnf.to_3cnf.clauses_out",
    "turing.run_dtm.steps",
    "turing.run_ntm.steps",
)


def load_satkit():
    """Import satkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "satkit" / "__init__.py").is_file():
        raise SystemExit(f"satbench: no satkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import satkit

    if Path(satkit.__file__).resolve().parent != SRC / "satkit":
        raise SystemExit(f"satbench: imported satkit from {satkit.__file__}, not {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args, workdir: Path):
    """Build the op set from the seed and run the warm-up ops."""
    module = importlib.import_module(f"wl_{args.workload}")
    ops, warmup = module.build(args.seed, args.small, workdir)
    return ops, run_pass(warmup, NullTracer(), {})


def measure_setup(args) -> list[float]:
    """Wall seconds from process start to ready-to-time, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"satbench: setup probe exited {proc.returncode}")
    return samples


def cli_startup_ms() -> list[float]:
    """Milliseconds for a fresh interpreter to import satkit.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import satkit.cli"], env=cli_env(), check=True,
                       timeout=TIMEOUT_S)
        samples.append((perf_counter() - t0) * 1000)
    return samples


def layer_probe(tracer, counts, workdir: Path):
    """Fixed calls into every layer, run after the traced pass so that every
    per-layer metric is measured on every workload: the small op set of each
    workload plus the 2-SAT and Horn size sweeps."""
    from wl_fragments import HORN_SIZES, TWO_SAT_SIZES, sweep_ops

    ops = []
    for name in WORKLOADS:
        sub = workdir / f"probe-{name}"
        sub.mkdir()
        ops += importlib.import_module(f"wl_{name}").build(0, True, sub)[0]
    ops += sweep_ops(0, TWO_SAT_SIZES, HORN_SIZES)
    return run_pass(ops, tracer, counts)


def ops_per_s(latencies) -> float:
    return len(latencies) / sum(latencies)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def end_to_end(args, ops, setup_samples):
    """Full untraced passes for about ``--seconds``; the end-to-end metrics."""
    counts: dict = {}
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(ops, NullTracer(), counts if not passes else {}))
        if perf_counter() - start + passes[-1].wall > args.seconds:
            break
    rss = peak_rss_mb()  # before the statistics below allocate
    lat = [x for p in passes for x in p.latencies]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "ops_per_s": (ops_per_s(lat), "1/s", len(lat)),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms", len(lat)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    extra = {}
    if len(lat) >= 100:
        extra["op_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1000, "ms", len(lat))
    return passes, counts, metrics, extra, []


def per_layer(ops, workdir):
    """One untraced pass, one traced pass and the layer probe."""
    from wl_fragments import HORN_SIZES, TWO_SAT_SIZES

    counts: dict = {}
    untraced = run_pass(ops, NullTracer(), {})
    tracer = Tracer()
    traced = run_pass(ops, tracer, counts)
    probe = layer_probe(tracer, counts, workdir)
    startup = cli_startup_ms()
    summary = summarize(tracer.spans)
    metrics = {}
    for name in LAYER_CALLS:
        got = summary.get(name, {"s": 0.0, "calls": 0})
        metrics[f"{name}.s"] = (got["s"], "s", got["calls"])
        metrics[f"{name}.calls"] = (got["calls"], "count", 1)
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count", 1)
    for solver, sizes in (("tractable.solve_2sat", TWO_SAT_SIZES), ("tractable.solve_horn", HORN_SIZES)):
        for n in sizes:
            got = summary[f"{solver}.n{n}"]
            metrics[f"{solver}.n{n}.ms"] = (got["median_s"] * 1000, "ms", got["calls"])
    parse = summary["formula.parse_dimacs"]
    metrics["formula.parse_dimacs.mb_per_s"] = (
        counts["formula.parse_dimacs.bytes"] / 1e6 / parse["s"], "MB/s", parse["calls"])
    metrics["cli.startup_ms"] = (statistics.median(startup), "ms", len(startup))
    for command in COMMANDS:
        got = summary[f"cli.{command}"]
        metrics[f"cli.{command}.p50_ms"] = (got["median_s"] * 1000, "ms", got["calls"])
    metrics["trace.overhead_ratio"] = (
        ops_per_s(untraced.latencies) / ops_per_s(traced.latencies), "ratio", len(traced.latencies))
    return [untraced, traced, probe], counts, metrics, {}, tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    load_satkit()
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        if args.setup_only:
            setup(args, workdir)
            print("ready", flush=True)
            return 0
        setup_samples = [] if args.trace else measure_setup(args)
        ops, warm = setup(args, workdir)
        if args.trace:
            passes, counts, metrics, extra, spans = per_layer(ops, workdir)
            compared = passes[:2]
        else:
            passes, counts, metrics, extra, spans = end_to_end(args, ops, setup_samples)
            compared = passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(warm.latencies) + sum(len(p.latencies) for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)
    digests = {p.digest for p in compared}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "small": args.small,
        "seconds": args.seconds,
        "passes": len(compared),
        "ops_per_pass": len(ops),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "digest": passes[0].digest,
        "passes_agree": len(digests) == 1,
        "counts": dict(sorted(counts.items())),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "extra": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}.json"
    (RESULTS / name).write_text(json.dumps({"report": report, "spans": spans}), encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
