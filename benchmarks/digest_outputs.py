#!/usr/bin/env python3
"""Digest the command-line tool's outputs, to show that a change to the
package leaves them byte for byte as they were.

It runs a fixed list of ``tokenaut`` commands, ``RUNS``, in order through
``tokenaut.cli.main`` in one process, in a new temporary directory, with
PYTHONHASHSEED=0 (the script re-runs itself under it). The list builds
token graphs from several specs, a ``file:`` spec with repeated edges
among them, then runs ``aut --report`` and ``factor`` on each, ``verify
--report`` and ``generators --report`` on each family, and some usage
errors and refusals. Each run's digest covers its exit code, its stdout
and stderr with timings masked, and every file it wrote or changed, by
name and content: edge lists, ``.map`` files, factor edge lists and
reports, the reports without ``wall_time``. It prints a sha256 per run,
then one over all of them. Run it on two checkouts and compare the lines:

    python benchmarks/digest_outputs.py [--src CHECKOUT/src]
"""

import argparse
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Input files written before the first run: an edge list with an edge
# repeated in both orientations, a disconnected one and one with a
# malformed header.
INPUTS = {
    "dup.el": "# repeated edges\nn 5\n0 1\n1 0\n1 2\n2 3\n3 4\n4 0\n0 1\n2 4\n",
    "split.el": "n 6\n0 1\n1 2\n2 0\n3 4\n",
    "bad.el": "n x\n0 1\n",
}

BUILDS = (("k24", "kmn:2,4", 2), ("k25", "kmn:2,5", 3), ("q3", "cube:3", 2),
          ("prod", "prod:k2+path:3", 2), ("c6", "cycle:6", 3),
          ("star", "star:4", 2), ("k4", "k4", 2), ("p5", "path:5", 2),
          ("q2c4", "prod:cube:2+cycle:4", 2), ("dup", "file:dup.el", 2),
          # one token: the base itself, so that factor finds its factors
          ("prod3", "prod:k2+path:3+cycle:4", 1), ("q4", "cube:4", 1))

RUNS = (
    [(f"build {name}", ["build", "--graph", spec, "--k", str(k),
                        "--out", f"{name}.el"])
     for name, spec, k in BUILDS]
    + [run for name, _, _ in BUILDS for run in (
        (f"aut {name}", ["aut", "--in", f"{name}.el",
                         "--report", f"{name}.aut.json"]),
        (f"factor {name}", ["factor", "--in", f"{name}.el",
                            "--out", f"{name}.f"]))]
    + [
        ("aut split", ["aut", "--in", "split.el", "--report", "s.json"]),
        ("factor split", ["factor", "--in", "split.el"]),
        ("aut bad header", ["aut", "--in", "bad.el"]),
        ("aut missing file", ["aut", "--in", "missing.el"]),
        ("aut node limit", ["aut", "--in", "q3.el", "--max-nodes", "1"]),
        ("verify bipartite", ["verify", "bipartite", "--m", "2",
                              "--n", "3,4,5", "--k", "2,3",
                              "--report", "vb.json"]),
        ("verify cube", ["verify", "cube", "--r", "2,3,4",
                         "--report", "vc.json"]),
        ("verify product", ["verify", "product", "--factors", "k2+path:3",
                            "--factors", "k2+cycle:5", "--report", "vp.json"]),
        ("verify refused", ["verify", "bipartite", "--m", "2", "--n", "30",
                            "--k", "15", "--report", "vr.json"]),
        ("generators bipartite", ["generators", "--m", "2", "--n", "4",
                                  "--k", "2", "--report", "gb.json"]),
        ("generators bipartite k3", ["generators", "--m", "2", "--n", "5",
                                     "--k", "3", "--report", "gb3.json"]),
        ("generators side", ["generators", "--m", "3", "--n", "3",
                             "--k", "2", "--report", "gs.json"]),
        ("generators cube", ["generators", "--r", "3",
                             "--report", "gc.json"]),
        ("generators product", ["generators", "--factors", "k2+path:3",
                                "--report", "gp.json"]),
        ("generators cycles", ["generators", "--factors",
                               "cycle:3+cycle:3", "--report", "gy.json"]),
        ("usage kmn sizes", ["build", "--graph", "kmn:2", "--k", "1",
                             "--out", "x.el"]),
        ("usage k range", ["build", "--graph", "cube:3", "--k", "9",
                           "--out", "x.el"]),
        ("usage spec", ["build", "--graph", "wheel:5", "--k", "2",
                        "--out", "x.el"]),
        ("usage empty list", ["verify", "cube", "--r", ","]),
        ("usage two modes", ["generators", "--r", "3", "--m", "2"]),
        ("usage no command", []),
        ("refused build", ["build", "--graph", "cube:12", "--k", "2",
                           "--out", "x.el"]),
        ("refused generators", ["generators", "--r", "9"]),
    ]
)

TIMING = re.compile(rb"\d+\.\d+s\b")
WALL_TIME = re.compile(rb'"wall_time": [-+0-9.eE]+')


def masked(data: bytes) -> bytes:
    """``data`` with printed timings and reports' ``wall_time`` values
    replaced by fixed text."""
    return WALL_TIME.sub(b'"wall_time": <t>', TIMING.sub(b"<t>s", data))


def digest_runs(runs=RUNS) -> list[tuple[str, int, str]]:
    """Run each (name, argv) of ``runs`` in order in a new temporary
    directory, and return (name, exit code, sha256) per run."""
    from tokenaut.cli import main

    out = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in INPUTS.items():
                Path(name).write_text(text, encoding="utf-8")
            seen = {name: Path(name).read_bytes() for name in INPUTS}
            for name, argv in runs:
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = main(argv)
                h = hashlib.sha256()
                for part in (str(code), stdout.getvalue(), stderr.getvalue()):
                    h.update(masked(part.encode()) + b"\0")
                for path in sorted(os.listdir(".")):
                    data = Path(path).read_bytes()
                    if seen.get(path) != data:
                        seen[path] = data
                        h.update(path.encode() + b"\0" + masked(data) + b"\0")
                out.append((name, code, h.hexdigest()))
        finally:
            os.chdir(here)
    return out


def total_digest(rows) -> str:
    """One sha256 over every run's name, exit code and digest."""
    h = hashlib.sha256()
    for name, code, digest in rows:
        h.update(f"{name}\0{code}\0{digest}\n".encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(
        description="digest the CLI's outputs on a fixed list of commands")
    parser.add_argument("--src", default=str(SRC),
                        help="the package's source directory (default: "
                             "this checkout's src)")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.call([sys.executable, __file__, *sys.argv[1:]],
                               env=env)
    sys.path.insert(0, os.path.abspath(args.src))
    rows = digest_runs()
    for name, code, digest in rows:
        print(f"{digest}  exit {code}  {name}")
    print(f"{total_digest(rows)}  total of {len(rows)} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
