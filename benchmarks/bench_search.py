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

A second table covers a twin-free family, F2(Q_r) for r = 5 and 6 (496
and 2,016 vertices), where ``automorphism_group`` searches the whole
graph; ``run_cube`` times that call. It prints the search nodes, the
generators, how many of them the position map found at an inner node
(``inner``, counted by a second, untimed walk that must agree with the
first on nodes and generators), and the seconds, and checks each order
against 2^(r-1) * 2^r * r!.

The last line is the process's peak resident set size.

    PYTHONPATH=src python benchmarks/bench_search.py [--skip-largest]
"""

import argparse
import resource
import time
from math import comb, factorial

from tokenaut import (
    PermGroup,
    automorphism_group,
    complete_bipartite,
    hypercube,
    token_graph,
)
from tokenaut.search import _lift, _quotient_search, _Search, _twin_classes

CASES = ((10, 5), (12, 6), (14, 7))
CUBES = (5, 6)
PHASES = ("build", "classes", "search", "lift", "chain", "total")


def closed_form(n: int, k: int) -> int:
    return 2 ** comb(n, k - 1) * factorial(n) * (2 if 2 * k == n + 2 else 1)


def cube_order(r: int) -> int:
    return 2 ** (r - 1) * 2 ** r * factorial(r)


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


class InnerCount(_Search):
    """A walk that counts the generators the position map keeps at inner
    nodes; leaves sit at the depth of the first leaf, the base's length."""

    inner = 0

    def _accept(self, ref: list[int], order: list[int]) -> int | None:
        jump = super()._accept(ref, order)
        if jump is not None and len(self.path) < len(self.base):
            self.inner += 1
        return jump


def run_cube(r: int) -> dict:
    """Time ``automorphism_group`` on F2(Q_r), which has no twins."""
    g = token_graph(hypercube(r), 2).graph
    started = time.perf_counter()
    result = automorphism_group(g)
    seconds = time.perf_counter() - started
    if result.group.order() != cube_order(r):
        raise AssertionError(f"F2(Q{r}): order differs from the closed form")
    walk = InnerCount(g, None)
    walk.run()
    found = (result.node_count, len(result.group.generators))
    if (walk.node_count, len(walk.gens)) != found:
        raise AssertionError(f"F2(Q{r}): the counting walk took another path")
    return {"case": f"F2(Q{r})", "vertices": g.n, "nodes": found[0],
            "generators": found[1], "inner": walk.inner, "seconds": seconds}


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
    print(f"\n{'case':<11} {'vertices':>8} {'nodes':>6} {'gens':>5} "
          f"{'inner':>5} {'seconds':>7}")
    for r in CUBES:
        row = run_cube(r)
        print(f"{row['case']:<11} {row['vertices']:>8} {row['nodes']:>6} "
              f"{row['generators']:>5} {row['inner']:>5} "
              f"{row['seconds']:>7.3f}", flush=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\npeak RSS {peak:.0f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
