#!/usr/bin/env python3
"""Time the equitable refinement kernel and the searches built on it.

Three kinds of cases: raw ``Partition.refine`` calls, end-to-end
automorphism searches, where chain building and certification dilute the
kernel's share, and isomorphism tests, which walk the same search tree
against another graph's first path, extended one level whenever the walk
first reaches a depth. The kernel calls cover a unit partition, a long
cycle and two search-shaped cases: one vertex individualized in the root
partition, so that the splitters are small, and the search's whole first
path, twelve refines and about 500 splitters down to a discrete
partition. The isomorphism tests are one match against a seeded
relabeling and one rejection of a pair with equal strongly regular
parameters.

Each figure is the best of --repeat runs. Every case builds its
``Partition`` in each run, but no figure counts building the graph's
neighbour table, ``Graph.nbrs``: it comes with the graph from its
constructor.

    PYTHONPATH=src python benchmarks/bench_refine.py [--repeat N] [--skip-large]
"""

import argparse
import random
import time
from itertools import accumulate

from tokenaut import (automorphism_group, cartesian_product, complete_graph,
                      cycle_graph, graph_from_edges, hypercube,
                      is_isomorphic, refine, token_graph)
from tokenaut.refinement import Partition


def timed(fn, repeat):
    best = None
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def kernel_case(g, cells, active=None):
    active = range(len(cells)) if active is None else active
    starts = list(accumulate(map(len, cells), initial=0))
    active = [starts[i] for i in active]

    def run():
        Partition(g.nbrs, cells).refine(active)
    return run


def individualized_case(g):
    """The search's first child: the first vertex of the first smallest
    non-singleton cell of the root partition, individualized and refined
    against its two new cells."""
    root = refine(g)
    t = min((i for i, c in enumerate(root) if len(c) > 1),
            key=lambda i: len(root[i]))
    v, *rest = root[t]
    return kernel_case(g, root[:t] + [[v], rest] + root[t + 1:], [t, t + 1])


def first_path_case(g):
    """The search's first path: from the unit partition, the first vertex
    of the first smallest non-singleton cell is individualized and refined
    against, level after level, until the partition is discrete."""
    def run():
        part = Partition(g.nbrs, [list(range(g.n))])
        part.refine([0])
        while not part.is_discrete():
            t = part.target()
            part.individualize(t, part.order[t])
    return run


def search_case(g):
    return lambda: automorphism_group(g)


def iso_case(g, h, expect):
    def run():
        if (is_isomorphic(g, h) is not None) != expect:
            raise AssertionError("isomorphism test gave the wrong answer")
    return run


def shrikhande():
    """Cayley graph of Z4 x Z4 on +-(0,1), +-(1,0), +-(1,1)."""
    return graph_from_edges(16, [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4) for b in range(4)
        for da, db in ((0, 1), (1, 0), (1, 1))])


def build_cases():
    f2q4 = token_graph(hypercube(4), 2).graph
    f2q5 = token_graph(hypercube(5), 2).graph
    images = list(range(f2q5.n))
    random.Random(1).shuffle(images)
    f2_shrikhande = token_graph(shrikhande(), 2).graph
    f2_rook = token_graph(cartesian_product([complete_graph(4)] * 2), 2).graph
    long_cycle = cycle_graph(499)
    return [
        ("refine F2(Q5), 496 vertices, unit partition",
         kernel_case(f2q5, [list(range(f2q5.n))])),
        ("refine F2(Q5), one vertex individualized in the root partition",
         individualized_case(f2q5)),
        ("refine F2(Q5) down its first path to a discrete partition",
         first_path_case(f2q5)),
        ("refine C499, individualized vertex",
         kernel_case(long_cycle, [[0], list(range(1, long_cycle.n))])),
        ("aut search F2(Q4), 120 vertices, order 3072",
         search_case(f2q4)),
        ("aut search F2(Q5), 496 vertices, refinement-heavy",
         search_case(f2q5)),
        ("iso F2(Q5) vs a seeded relabeling, 496 vertices",
         iso_case(f2q5, f2q5.relabel(images), True)),
        ("iso F2(Shrikhande) vs F2(K4xK4), 120 vertices, rejected",
         iso_case(f2_shrikhande, f2_rook, False)),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the equitable refinement kernel")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per case; the minimum is reported")
    parser.add_argument("--skip-large", action="store_true",
                        help="skip the 496-vertex search case")
    args = parser.parse_args()

    cases = build_cases()
    if args.skip_large:
        cases = [c for c in cases if "496 vertices, refinement-heavy" not in c[0]]
    width = max(len(name) for name, _ in cases)
    for name, run in cases:
        print(f"{name:<{width}}  {timed(run, args.repeat) * 1000:9.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
