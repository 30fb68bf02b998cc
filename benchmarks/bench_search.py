#!/usr/bin/env python3
"""Time the automorphism search on the paper's exceptional family.

For F_k(K_{2,n}) at (n, k) = (10, 5), (12, 6) and (14, 7), the k-token
graphs of K_{2,n} with 792, 3,003 and 11,440 vertices, it prints the
vertex count, the number of twin classes (the vertices of the quotient
that is searched), the search nodes, the chain's base length and the
seconds of each phase of ``automorphism_group``, run one phase at a time
through the same functions:

* ``build``: the token graph (not part of ``automorphism_group``);
* ``classes``: grouping the vertices into twin classes;
* ``search``: the walk over the twin quotient;
* ``lift``: lifting its generators, adding the twin transpositions and
  checking every generator edge by edge;
* ``chain``: the stabilizer chain from the base and strong generators;
* ``total``: the four phases of ``automorphism_group`` together.

Each order is checked against the closed form 2^C(n,k-1) * n!, doubled
when 2k = n + 2. The search is called directly, so no scale guard
applies. F7(K_{2,14}) takes tens of seconds and most of a gigabyte of
memory; --skip-largest leaves it out.

    PYTHONPATH=src python benchmarks/bench_search.py [--skip-largest]
"""

import argparse
import time
from math import comb, factorial

from tokenaut import PermGroup, complete_bipartite, token_graph
from tokenaut.search import _lift, _quotient_search, _twin_classes

CASES = ((10, 5), (12, 6), (14, 7))
PHASES = ("build", "classes", "search", "lift", "chain", "total")


def closed_form(n: int, k: int) -> int:
    return 2 ** comb(n, k - 1) * factorial(n) * (2 if 2 * k == n + 2 else 1)


def run_case(n: int, k: int) -> dict:
    seconds = {}

    def timed(phase, fn, *args):
        started = time.perf_counter()
        out = fn(*args)
        seconds[phase] = time.perf_counter() - started
        return out

    g = timed("build", lambda: token_graph(complete_bipartite(2, n), k).graph)
    classes = timed("classes", _twin_classes, g)
    search = timed("search", _quotient_search, g, classes, None)
    base, gens = timed("lift", _lift, g, classes, search)
    group = timed("chain", PermGroup.from_strong_generators, g.n, base, gens)
    seconds["total"] = sum(seconds.values()) - seconds["build"]
    if group.order() != closed_form(n, k):
        raise AssertionError(f"F{k}(K2,{n}): order differs from the closed form")
    return {"case": f"F{k}(K2,{n})", "vertices": g.n,
            "quotient": len(classes), "nodes": search.node_count,
            "base": len(group.base), **seconds}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="time automorphism_group on F_k(K_{2,n})")
    parser.add_argument("--skip-largest", action="store_true",
                        help="leave out F7(K2,14)")
    args = parser.parse_args()
    cases = CASES[:-1] if args.skip_largest else CASES
    print(f"{'case':<11} {'vertices':>8} {'quotient':>8} {'nodes':>6} "
          f"{'base':>5}" + "".join(f" {p:>7}" for p in PHASES))
    for n, k in cases:
        row = run_case(n, k)
        print(f"{row['case']:<11} {row['vertices']:>8} {row['quotient']:>8} "
              f"{row['nodes']:>6} {row['base']:>5}"
              + "".join(f" {row[p]:>7.3f}" for p in PHASES), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
