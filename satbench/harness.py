"""Ops, passes over an op set, and the result records they produce."""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MACHINES = BENCH_DIR / "machines"
INPUTS = BENCH_DIR / "inputs"


class Mismatch(Exception):
    """An output the reference rejects."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Op:
    """One unit of work: ``run`` makes the timed calls into satkit through
    the tracer; ``check`` verifies the output against the benchmark's own
    reference, adds work counts, and returns a record for the digest."""

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], Any]


@dataclass
class PassResult:
    latencies: array
    failed: int
    digest: str  # of every op's verdict and witness record, in op order
    wall: float


def add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def run_pass(ops: list[Op], tracer, counts: dict) -> PassResult:
    """Run every op once, timing only its calls into satkit.

    A failed op is a wrong or unverifiable output or any exception; its
    latency still counts, so a failure never makes a pass look faster.
    """
    latencies = array("d")
    digest = hashlib.sha256()
    failed = 0
    start = perf_counter()
    for op in ops:
        with tracer.op(f"op.{op.kind}"):
            t0 = perf_counter()
            try:
                out = op.run(tracer)
                error = None
            except Exception as exc:  # boundary: any exception fails the op
                out, error = None, exc
            latencies.append(perf_counter() - t0)
            if error is None:
                try:
                    record = [op.kind, tracer.call("bench.verify", op.check, out, counts)]
                except Exception as exc:  # boundary: a crashing check fails the op
                    error = exc
            # Free this op's output before the next op allocates its own, so
            # peak memory does not depend on the order of the ops.
            out = None
        if error is not None:
            failed += 1
            record = [op.kind, f"failed: {type(error).__name__}"]
            print(f"op {op.kind} failed: {type(error).__name__}: {error}", file=sys.stderr)
        digest.update(json.dumps(record, sort_keys=True, default=str).encode())
    return PassResult(latencies, failed, digest.hexdigest(), perf_counter() - start)
