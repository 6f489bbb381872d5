"""What satkit prints does not depend on the string-hash seed.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so a set of
strings iterates in a different order from one run to the next. The script
below prints record reprs and the files two CLI commands write; it runs once
under each of two seeds, in fresh interpreters, and both runs must print the
same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DEMO = TESTS.parent / "demo"

SCRIPT = f"""
import contextlib, io
from pathlib import Path
from satkit.cli import run_cli
from satkit.cooklevin import encode
from satkit.graph import Digraph, Graph
from support import paper_walker_wrapped

walker = paper_walker_wrapped()
print(repr(walker))
print(repr(encode(walker, "a", 5)[1]))
print(repr(Graph("abcde", [("a", "b"), ("c", "d"), ("e", "a"), ("b", "d")])))
print(repr(Digraph("abcde", [("a", "b"), ("d", "c"), ("e", "a"), ("b", "d"), ("d", "b")])))
for argv in (
    ["reduce", "hamcycle", {str(DEMO / "fig_clique.cnf")!r}, "--json", "h.json", "--dot", "h.dot"],
    ["cooklevin", {str(DEMO / "one_step.tm")!r}, "1", "--steps", "4", "--out", "t.cnf",
     "--map", "t.map"],
):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run_cli(argv)
    print(argv[0], code, out.getvalue())
for path in sorted(Path().iterdir()):
    print(path.name, path.read_text())
"""


def run_with_seed(seed: str, cwd: Path) -> str:
    cwd.mkdir()
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120, check=True)
    return done.stdout


def test_reprs_and_written_files_are_the_same_under_two_hash_seeds(tmp_path):
    first = run_with_seed("1", tmp_path / "seed1")
    assert "t.map" in first and "h.dot" in first
    assert first == run_with_seed("2", tmp_path / "seed2")
