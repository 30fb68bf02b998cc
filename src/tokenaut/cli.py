"""Command-line entry point.

Subcommands: build (token-graph edge list plus rank mapping), aut
(automorphism group of an edge-list file), generators (the explicit
generators of one ``tokenaut.verify`` pipeline run, with their predicted
and generated orders), factor (prime factor decomposition), verify
(theorem-level pipelines, run one instance after another).

Exit codes are stable: 0 success, 2 usage or parse error, 3 scale-guard
refusal, 4 verification failure. Graphs are named by a small constructor
grammar; see GRAMMAR.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import product as iter_product
from math import comb, prod

from . import __version__
from .constructions import side_swap_subsets
from .errors import CertificationError, ScaleGuardExceeded
from .factorization import prime_factor_decomposition
from .graphs import (BipartiteSpec, Graph, _edge_list, cartesian_product,
                     complete_bipartite, complete_graph, cycle_graph,
                     format_edge_list, graph_from_edges, hypercube,
                     path_graph, star_graph)
from .perms import permutation_to_str
from .search import automorphism_group
from .tokens import token_graph
from .verify import (DEFAULT_GUARD, ScaleGuard, verify_bipartite,
                     verify_cube, verify_product)

GRAMMAR = ("kmn:M,N | kn:N | kN | path:N | cycle:N | star:N | cube:R | "
           "prod:<spec>+<spec>+... | file:PATH")


class UsageError(Exception):
    pass


# Each grammar head: its vertex count from its sizes, and its constructor.
_CONSTRUCTORS = {
    "kmn": (lambda m, n: m + n, complete_bipartite),
    "kn": (lambda n: n, complete_graph),
    "path": (lambda n: n, path_graph),
    "cycle": (lambda n: n, cycle_graph),
    "star": (lambda n: n + 1, star_graph),
    "cube": (lambda r: 1 << r, hypercube),
}


def parse_graph_spec(text: str) -> Graph:
    """Build a graph from the constructor grammar; kN is shorthand for
    the complete graph kn:N so product lists read naturally (k2+path:3)."""
    return _built(_parse_spec(text)[1])


def parse_factor_specs(text: str) -> list[Graph]:
    return [parse_graph_spec(p) for p in _factor_texts(text)]


def _factor_texts(text: str) -> list[str]:
    parts = [p for p in text.split("+") if p.strip()]
    if not parts:
        raise UsageError(f"empty factor list {text!r}; grammar: {GRAMMAR}")
    return parts


def _parse_spec(text: str) -> tuple[int, Callable[[], Graph]]:
    """The vertex count of the graph a spec names, read from the spec
    alone, and a function that builds the graph. A file: spec's file is
    read and parsed here, since only its header knows the size, but its
    graph is built only by the function."""
    text = text.strip()
    bare = re.fullmatch(r"[kK](\d+)", text)
    if bare:
        head, sizes = "kn", [bare.group(1)]
    else:
        head, sep, rest = text.partition(":")
        if not sep:
            raise UsageError(
                f"cannot parse graph spec {text!r}; grammar: {GRAMMAR}")
        head = head.strip().lower()
        rest = rest.strip()
        if head == "prod":
            factors = [_parse_spec(p) for p in _factor_texts(rest)]
            return (prod(n for n, _ in factors),
                    lambda: cartesian_product([build() for _, build in factors]))
        if head == "file":
            return _read_edge_list(rest)
        if head not in _CONSTRUCTORS:
            raise UsageError(f"unknown graph spec {text!r}; grammar: {GRAMMAR}")
        sizes = rest.split(",") if head == "kmn" else [rest]
        if head == "kmn" and len(sizes) != 2:
            raise UsageError(f"kmn needs two sizes, got {rest!r}")
    count, build = _CONSTRUCTORS[head]
    sizes = [_positive(x, text) for x in sizes]
    return count(*sizes), lambda: build(*sizes)


def _built(build: Callable[[], Graph]) -> Graph:
    try:
        return build()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _positive(s: str, context: str) -> int:
    try:
        value = int(s)
    except ValueError:
        raise UsageError(f"expected an integer in {context!r}, got {s!r}") from None
    if value < 1:
        raise UsageError(f"expected a positive integer in {context!r}, got {value}")
    return value


def _read_edge_list(path: str) -> tuple[int, Callable[[], Graph]]:
    """The vertex count an edge-list file's header declares, and a
    function that builds its graph, so that a guard can refuse the count
    before any neighbour list is built."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    n, edges = _in_file(path, _edge_list, text)
    return n, lambda: _in_file(path, graph_from_edges, n, edges,
                               os.path.basename(path))


def _in_file(path: str, parse: Callable, *args):
    """``parse(*args)``, with a ValueError turned into a usage error that
    names ``path``."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _read_graph(path: str, guard: ScaleGuard) -> Graph:
    """The graph of an edge-list file, built only once ``guard`` admits
    the vertex count its header declares."""
    n, build = _read_edge_list(path)
    guard.require_vertices(n, os.path.basename(path))
    return build()


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_report(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["tool"] = "tokenaut"
    payload["version"] = __version__
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _guard(args) -> ScaleGuard:
    return ScaleGuard(max_vertices=args.max_vertices, max_nodes=args.max_nodes)


# --- build ------------------------------------------------------------

def cmd_build(args) -> int:
    # The base graph is built only after the guard admits its token graph.
    n, build = _parse_spec(args.graph)
    spec = args.graph.strip()
    guard = _guard(args)
    if not 1 <= args.k <= n - 1:
        raise UsageError(f"k={args.k} out of range 1..{n - 1} for {spec}")
    guard.require_vertices(comb(n, args.k), f"{args.k}-token graph of {spec}")
    tg = token_graph(_built(build), args.k)
    _write_atomic(args.out, format_edge_list(tg.graph))
    mapping = [f"{r}: {{{','.join(str(v) for v in sub)}}}"
               for r, sub in enumerate(tg.configs)]
    _write_atomic(args.out + ".map", "\n".join(mapping) + "\n")
    print(f"wrote {_name(tg.graph)}: {tg.graph.n} vertices, "
          f"{tg.graph.edge_count()} edges -> {args.out} (+ .map)")
    return 0


# --- aut --------------------------------------------------------------

def cmd_aut(args) -> int:
    guard = _guard(args)
    g = _read_graph(args.inp, guard)
    started = time.perf_counter()
    result = automorphism_group(g, max_nodes=guard.max_nodes)
    wall = time.perf_counter() - started
    if args.report:
        _write_report(args.report, {**result.group.to_report(),
                                    "instance": _name(g),
                                    "node_count": result.node_count,
                                    "wall_time": wall})
    print(f"{_name(g)}: order {result.group.order()} "
          f"({result.group.generator_count()} generators, "
          f"{result.node_count} nodes, {wall:.3f}s)")
    return 0


# --- generators -------------------------------------------------------

def cmd_generators(args) -> int:
    modes = [args.m is not None or args.n is not None or args.k is not None,
             args.r is not None, args.factors is not None]
    if sum(modes) != 1:
        raise UsageError("choose exactly one of --m/--n/--k, --r, --factors")
    guard = _guard(args)
    if modes[0]:
        if args.m is None or args.n is None or args.k is None:
            raise UsageError("bipartite generators need all of --m --n --k")
        m, n, k = _single(args.m, "--m"), _single(args.n, "--n"), _single(args.k, "--k")
        report = verify_bipartite(m, n, k, guard)
        instance = report.instance
        families = []
        if m == 2 and n > 2:
            families = [[sorted(s)] for s in side_swap_subsets(BipartiteSpec(m, n), k)]
    elif modes[1]:
        r = _single(args.r, "--r")
        report = verify_cube(r, guard)
        instance = report.instance
        families = [[ax] for ax in range(r - 1)]
    else:
        factors = parse_factor_specs(args.factors)
        report = verify_product(factors, guard)
        instance = f"product({'+'.join(_name(f) for f in factors)})"
        families = [[ax] for ax in range(len(factors) - 1)]
    if not report.generators_certified:
        raise CertificationError(
            f"{instance}: a constructed generator failed the edge check")
    gens = report.generators
    payload = {
        "instance": instance,
        "predicted_order": report.predicted_order,
        "structure_tag": report.structure_tag,
        "swap_families": families,
        "generated_order": str(report.generated_order),
        "generators": [permutation_to_str(p) for p in gens],
    }
    if args.report:
        _write_report(args.report, payload)
    print(f"{instance}: {len(gens)} generators, "
          f"generated order {payload['generated_order']}, "
          f"predicted {payload['predicted_order']} [{payload['structure_tag']}]")
    return 0


def _single(text: str, flag: str) -> int:
    if "," in text:
        raise UsageError(f"{flag} takes a single value here")
    return _positive(text, flag)


# --- factor -----------------------------------------------------------

def cmd_factor(args) -> int:
    g = _read_graph(args.inp, _guard(args))
    try:
        fac = prime_factor_decomposition(g)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    prefix = args.out if args.out else os.path.splitext(args.inp)[0]
    print(f"{_name(g)}: {len(fac.factors)} prime factor(s)")
    for i, f in enumerate(fac.factors):
        path = f"{prefix}.factor{i}.el"
        _write_atomic(path, format_edge_list(f))
        print(f"factor {i}: {f.n} vertices, {f.edge_count()} edges -> {path}")
    return 0


# --- verify -----------------------------------------------------------

def _int_list(text: str, flag: str) -> list[int]:
    values = [_positive(p, flag) for p in text.split(",") if p.strip()]
    if not values:
        raise UsageError(f"{flag} lists no values")
    return values


def _verify_instances(args) -> list[tuple[str, object]]:
    """(description, thunk) pairs for the requested fan-out."""
    guard = _guard(args)
    instances = []
    if args.mode == "bipartite":
        if args.m is None or args.n is None or args.k is None:
            raise UsageError("verify bipartite needs --m --n --k")
        for m, n, k in iter_product(_int_list(args.m, "--m"),
                                    _int_list(args.n, "--n"),
                                    _int_list(args.k, "--k")):
            instances.append((f"bipartite(m={m},n={n},k={k})",
                              lambda m=m, n=n, k=k: verify_bipartite(m, n, k, guard)))
    elif args.mode == "cube":
        if args.r is None:
            raise UsageError("verify cube needs --r")
        for r in _int_list(args.r, "--r"):
            instances.append((f"cube(r={r})", lambda r=r: verify_cube(r, guard)))
    else:
        if not args.factors:
            raise UsageError("verify product needs --factors")
        for spec in args.factors:
            factors = parse_factor_specs(spec)
            instances.append((f"product({spec})",
                              lambda factors=factors: verify_product(factors, guard)))
    return instances


def _report_path(base: str, index: int, total: int) -> str:
    if total == 1:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}.{index}{ext}"


def cmd_verify(args) -> int:
    instances = _verify_instances(args)
    worst = 0
    for idx, (desc, run) in enumerate(instances):
        try:
            report = run()
        except ScaleGuardExceeded as exc:
            print(f"{desc}: REFUSED ({exc})")
            worst = max(worst, 3)
            continue
        except ValueError as exc:
            print(f"{desc}: ERROR ({exc})", file=sys.stderr)
            worst = max(worst, 2)
            continue
        if args.report:
            _write_report(_report_path(args.report, idx, len(instances)),
                          report.to_dict())
        verdict = "PASS" if report.passed else "FAIL"
        extra = ""
        if report.conjecture_flag is not None:
            extra = f" full-group-equality observed={report.conjecture_flag}"
        print(f"{desc}: computed={report.computed_order} "
              f"predicted={report.predicted_order} "
              f"subgroup_certified={report.subgroup_certified} "
              f"{verdict}{extra}")
        if not report.passed:
            worst = max(worst, 4)
    return worst


# --- parser -----------------------------------------------------------

def _name(g: Graph) -> str:
    return g.label or f"graph[n={g.n}]"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenaut",
        description="Token-graph automorphism toolkit: build token graphs, "
                    "compute and verify their automorphism groups.")
    parser.add_argument("--version", action="version",
                        version=f"tokenaut {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-vertices", type=int,
                       default=DEFAULT_GUARD.max_vertices,
                       help="scale guard: largest admissible vertex count")
        p.add_argument("--max-nodes", type=int,
                       default=DEFAULT_GUARD.max_nodes,
                       help="scale guard: search-tree node budget")

    p = sub.add_parser("build", help="write a token graph as an edge list")
    p.add_argument("--graph", required=True, help=f"graph spec: {GRAMMAR}")
    p.add_argument("--k", type=int, required=True, help="token count")
    p.add_argument("--out", required=True, help="output edge-list path")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("aut", help="compute the automorphism group of an edge list")
    p.add_argument("--in", dest="inp", required=True, help="edge-list path")
    p.add_argument("--report", help="write a JSON report here")
    common(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("generators",
                       help="emit explicit generators and the predicted order")
    p.add_argument("--m", help="bipartite small side")
    p.add_argument("--n", help="bipartite large side")
    p.add_argument("--k", help="token count")
    p.add_argument("--r", help="cube dimension")
    p.add_argument("--factors", help="product factors, e.g. k2+path:3")
    p.add_argument("--report", help="write a JSON report here")
    common(p)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("factor", help="prime factor decomposition of an edge list")
    p.add_argument("--in", dest="inp", required=True, help="edge-list path")
    p.add_argument("--out", help="output prefix for factor edge lists")
    common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("verify", help="run a verification pipeline")
    p.add_argument("mode", choices=("bipartite", "cube", "product"))
    p.add_argument("--m", help="comma list of bipartite small sides")
    p.add_argument("--n", help="comma list of bipartite large sides")
    p.add_argument("--k", help="comma list of token counts")
    p.add_argument("--r", help="comma list of cube dimensions")
    p.add_argument("--factors", action="append",
                   help="product factors, e.g. k2+path:3 (repeatable)")
    p.add_argument("--report", help="JSON report path (indexed when fanned out)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored; instances run one after another")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


@lru_cache(maxsize=None)
def _main_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and then reused:
    parsing leaves the parser as it was, and each parse fills a new
    namespace."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code; it may be called
    repeatedly in one process."""
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScaleGuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
