"""The sweep workloads: their inputs, the timed calls, and the answer checks.

A workload is one closed-loop client: it makes its calls one after another
and waits for each answer.  ``prepare`` imports tokenaut and builds the
inputs of one sample of a seed (timed as set-up), ``calls`` lists the program calls (timed one by
one as the sweep), which keep the raw outcomes, and ``check`` compares every outcome
with its known exact answer after the sweep, so checking costs the sweep
nothing.  Every expected value below is computed by the benchmark itself
from the closed forms, not taken from the program.

tokenaut is imported inside the functions, never at module level, so that
the set-up time of a fresh interpreter includes the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from math import comb, factorial


def bipartite_order(m: int, n: int, k: int) -> int:
    """|Aut F_k(K_{2,n})| for 1 < k < n + 1: 2^C(n,k-1) n!, doubled at 2k = n + 2."""
    assert m == 2 and 1 < k < n + 1
    return (1 << comb(n, k - 1)) * factorial(n) * (2 if 2 * k == m + n else 1)


def cube_order(r: int) -> int:
    """|Aut F_2(Q_r)| = 2^(r-1) 2^r r!."""
    return (1 << (r - 1)) * (1 << r) * factorial(r)


@dataclass
class Instance:
    """One answer the sweep must produce, with what it must equal."""

    label: str
    expected: object
    problems: list[str] = field(default_factory=list)


@dataclass
class Command:
    """One ``tokenaut.cli.main`` call; its instances are in report order."""

    argv: list[str]
    instances: list[Instance]
    report: str | None = None
    exit_code: int | None = None
    output: str = ""

    def guard(self) -> dict:
        from tokenaut import cli

        args = cli.build_parser().parse_args(self.argv)
        return {"max_vertices": args.max_vertices, "max_nodes": args.max_nodes}

    def run(self) -> None:
        from tokenaut import cli

        argv = self.argv + (["--report", self.report] if self.report else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.exit_code = cli.main(argv)
        self.output = out.getvalue()


def check_verify_report(path: str, expected: int, product: bool) -> list[str]:
    """Problems with one ``verify`` JSON report, or [] when it is right."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no readable report ({exc})"]
    problems = []
    for key in ("computed_order", "predicted_order"):
        if report.get(key) != str(expected):
            problems.append(f"{key} {report.get(key)} != {expected}")
    for key in ("generators_certified", "subgroup_certified"):
        if report.get(key) is not True:
            problems.append(f"{key} is {report.get(key)}")
    if product:
        if report.get("conjecture_flag") is not True:
            problems.append(f"conjecture_flag is {report.get('conjecture_flag')}")
    elif report.get("equality") is not True or report.get("conjecture_flag") is not None:
        problems.append(f"equality {report.get('equality')}, "
                        f"conjecture_flag {report.get('conjecture_flag')}")
    return problems


def report_path(base: str, index: int, total: int) -> str:
    """Where ``verify --report base`` puts instance index of total."""
    if total == 1:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}.{index}{ext}"


def load_program() -> None:
    """Import tokenaut and its command line, and select the backend."""
    import tokenaut.cli  # noqa: F401
    from tokenaut.refinement import default_backend

    default_backend()


class VerifyWorkload:
    """``tokenaut verify`` commands driven through ``tokenaut.cli.main``."""

    def __init__(self, name: str, why: str, commands):
        self.name = name
        self.why = why
        self._commands = commands

    def prepare(self, seed: int, workdir: str, sample: int = 0) -> list[Command]:
        load_program()
        commands = self._commands()
        for i, cmd in enumerate(commands):
            cmd.report = os.path.join(workdir, f"{self.name}-{i}.json")
        return commands

    def calls(self, commands: list[Command]) -> list:
        return [cmd.run for cmd in commands]

    def run(self, commands: list[Command]) -> None:
        for call in self.calls(commands):
            call()

    def check(self, commands: list[Command]) -> list[Instance]:
        out = []
        for cmd in commands:
            product = cmd.argv[1] == "product"
            for i, inst in enumerate(cmd.instances):
                if cmd.exit_code != 0:
                    inst.problems.append(f"exit code {cmd.exit_code}: "
                                         f"{cmd.output.strip()[-300:]}")
                inst.problems += check_verify_report(
                    report_path(cmd.report, i, len(cmd.instances)),
                    inst.expected, product)
                out.append(inst)
        return out

    def guards(self, commands: list[Command]) -> list[dict]:
        return [{"argv": c.argv, **c.guard()} for c in commands]


# (7, 4) alone takes ~15 s, too long to repeat within one run.
BIPARTITE = ((5, 3), (6, 3), (7, 3), (5, 4), (6, 4))


def _bipartite_chain() -> list[Command]:
    return [Command(["verify", "bipartite", "--m", "2", "--n", str(n), "--k", str(k),
                     "--jobs", "1"],
                    [Instance(f"bipartite(m=2,n={n},k={k})", bipartite_order(2, n, k))])
            for n, k in BIPARTITE]


PRODUCTS = (("k2+path:3+cycle:5", 160), ("k3+path:3+path:3", 192),
            ("cycle:5+cycle:5", 400), ("path:3+cycle:5", 40))
CUBES = (3, 4, 5)
PRODUCT_FLAGS = ["--max-vertices", "600", "--jobs", "2"]


def _product_seed() -> list[Command]:
    argv = ["verify", "product"]
    for spec, _ in PRODUCTS:
        argv += ["--factors", spec]
    products = [Instance(f"product({spec})", order) for spec, order in PRODUCTS]
    cubes = [Instance(f"cube(r={r})", cube_order(r)) for r in CUBES]
    return [Command(argv + PRODUCT_FLAGS, products),
            Command(["verify", "cube", "--r", ",".join(map(str, CUBES))]
                    + PRODUCT_FLAGS, cubes)]


# --- iso-factor -------------------------------------------------------------

def shrikhande_edges() -> list[tuple[int, int]]:
    """Cayley graph of Z4 x Z4 on +-(0,1), +-(1,0), +-(1,1)."""
    return [(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
            for a in range(4) for b in range(4)
            for da, db in ((0, 1), (1, 0), (1, 1))]


def rook_edges() -> list[tuple[int, int]]:
    """K4 box K4: same strongly regular parameters (16,6,2,2) as Shrikhande."""
    return [(u, v) for u in range(16) for v in range(u + 1, 16)
            if (u // 4 == v // 4) != (u % 4 == v % 4)]


def relabel_edges(edges, images) -> list[tuple[int, int]]:
    return [(images[u], images[v]) for u, v in edges]


def is_isomorphism(g_edges, h_edges, n: int, mapping) -> bool:
    """Edge-by-edge check that mapping carries g's edge set onto h's."""
    if mapping is None or sorted(mapping) != list(range(n)):
        return False
    h_set = {frozenset(e) for e in h_edges}
    g_set = {frozenset(e) for e in g_edges}
    return (len(g_set) == len(h_set)
            and all(frozenset((mapping[u], mapping[v])) in h_set for u, v in g_set))


def edge_list_shape(path: str) -> tuple[int, int]:
    """(vertex count, edge count) of an edge-list file."""
    n = None
    edges = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if n is None:
                n = int(parts[1])
            else:
                edges += 1
    return n, edges


# Factor inputs and their prime factors as sorted (vertices, edges) pairs.
FACTOR_INPUTS = (
    ("Q4", "cube4", [(2, 1)] * 4),
    ("K2xP3xP3", "k2p3p3", [(2, 1), (3, 2), (3, 2)]),
    ("C4xC5", "c4c5", [(2, 1), (2, 1), (5, 5)]),
)


@dataclass
class IsoInputs:
    pairs: list[tuple[Instance, object, object]]
    files: list[tuple[Instance, Command, str]]
    answers: dict = field(default_factory=dict)


class IsoFactorWorkload:
    """Many isomorphism tests and factorizations on seeded relabelings."""

    name = "iso-factor"
    why = ("isomorphism tests, a rejection and factorizations on seeded "
           "relabelings; no stabilizer chain")

    def prepare(self, seed: int, workdir: str, sample: int = 0) -> IsoInputs:
        """Inputs relabeled by a generator seeded with seed and sample.

        How long a search takes depends on the labels, so one run draws new
        relabelings for each sample and reports the median over them.
        """
        load_program()
        from tokenaut import (cartesian_product, complete_graph, cycle_graph,
                              graph_from_edges, hypercube, path_graph,
                              token_graph)

        rng = random.Random(f"{seed}:{sample}")

        def shuffled(n):
            images = list(range(n))
            rng.shuffle(images)
            return images

        shrikhande = graph_from_edges(16, shrikhande_edges(), "Shrikhande")
        bases = {
            "Q5": hypercube(5),
            "K2xP3xC5": cartesian_product(
                [complete_graph(2), path_graph(3), cycle_graph(5)]),
            "Shrikhande": shrikhande,
        }
        pairs = []
        for label, base in bases.items():
            g = token_graph(base, 2).graph
            images = shuffled(g.n)
            h = graph_from_edges(g.n, relabel_edges(g.edges(), images))
            pairs.append((Instance(f"F2({label}) ~ relabeled", True), g, h))
        rook = graph_from_edges(16, rook_edges(), "K4xK4")
        pairs.append((Instance("F2(Shrikhande) vs F2(K4xK4)", False),
                      token_graph(shrikhande, 2).graph, token_graph(rook, 2).graph))

        factor_bases = {
            "Q4": hypercube(4),
            "K2xP3xP3": cartesian_product(
                [complete_graph(2), path_graph(3), path_graph(3)]),
            "C4xC5": cartesian_product([cycle_graph(4), cycle_graph(5)]),
        }
        files = []
        for label, stem, factors in FACTOR_INPUTS:
            base = factor_bases[label]
            images = shuffled(base.n)
            path = os.path.join(workdir, f"{stem}.el")
            lines = [f"n {base.n}"] + [
                f"{u} {v}" for u, v in sorted(relabel_edges(base.edges(), images))]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            prefix = os.path.join(workdir, stem)
            cmd = Command(["factor", "--in", path, "--out", prefix], [])
            files.append((Instance(f"factor {label}", factors), cmd, prefix))
        return IsoInputs(pairs, files)

    def calls(self, inputs: IsoInputs) -> list:
        from tokenaut import search

        def iso(label, g, h):
            def call():
                inputs.answers[label] = search.is_isomorphic(g, h)
            return call

        return ([iso(inst.label, g, h) for inst, g, h in inputs.pairs]
                + [cmd.run for _, cmd, _ in inputs.files])

    def run(self, inputs: IsoInputs) -> None:
        for call in self.calls(inputs):
            call()

    def check(self, inputs: IsoInputs) -> list[Instance]:
        out = []
        for inst, g, h in inputs.pairs:
            mapping = inputs.answers.get(inst.label)
            if inst.expected:
                if not is_isomorphism(g.edges(), h.edges(), g.n, mapping):
                    inst.problems.append("no verified isomorphism returned")
            elif mapping is not None:
                inst.problems.append("non-isomorphic pair got a mapping")
            out.append(inst)
        for inst, cmd, prefix in inputs.files:
            if cmd.exit_code != 0:
                inst.problems.append(f"exit code {cmd.exit_code}: {cmd.output.strip()[-300:]}")
            else:
                shapes = []
                i = 0
                while os.path.exists(f"{prefix}.factor{i}.el"):
                    shapes.append(edge_list_shape(f"{prefix}.factor{i}.el"))
                    i += 1
                if sorted(shapes) != inst.expected:
                    inst.problems.append(f"factors {sorted(shapes)} != {inst.expected}")
            out.append(inst)
        return out

    def guards(self, inputs: IsoInputs) -> list[dict]:
        _, cmd, _ = inputs.files[0]
        return [{"argv": ["factor", "--in", "FILE"], **cmd.guard()},
                {"call": "search.is_isomorphic", "max_nodes": None}]


WORKLOADS = {
    w.name: w for w in (
        VerifyWorkload(
            "bipartite-chain",
            "verify bipartite K_{2,n}, (n,k) in (5..7,3), (5..6,4): the "
            "Schreier-Sims chain and sifting dominate",
            _bipartite_chain),
        VerifyWorkload(
            "product-seed",
            "verify product and cube up to 496 vertices with --jobs 2: the "
            "distance seed, refinement and search dominate",
            _product_seed),
        IsoFactorWorkload(),
    )
}
