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
* ``search``: the walk over the twin quotient, which grows the
  quotient's stabilizer chain, at the quotient's degree, by each generator
  it finds;
* ``lift``: lifting the quotient's generators to the token graph and
  checking each of them edge by edge;
* ``chain``: ``_Search.group()``, which hands that chain over with its
  trivial levels dropped;
* ``total``: the four phases of ``automorphism_group`` together;
* ``full``: the base and strong generators that ``aut`` reports list,
  read off the twin classes and the quotient's chain; the group builds
  the generators, the lifted ones and each class's adjacent
  transpositions, only when they are asked for, and ``total`` leaves
  them out.

``rss`` is the process's peak resident set size in MB when ``total``
ends, before ``full`` runs, and ``rss_full`` when ``full`` ends.

Each order is checked against the closed form 2^C(n,k-1) * n!, doubled
when 2k = n + 2. The search is called directly, so no scale guard
applies. F7(K_{2,14}) takes seconds, and its 3,016 generators at degree
11,440 most of the memory; --skip-largest leaves it out, and F2(Q7) of
the chain table.

A second table covers a twin-free family, F2(Q_r) for r = 5 and 6 (496
and 2,016 vertices), where ``automorphism_group`` searches the whole
graph; ``run_cube`` times that call. It prints the search nodes, the
generators, how many of them the position map found at an inner node
(``inner``, counted by a second, untimed walk that must agree with the
first on nodes and generators), and the seconds, and checks each order
against 2^(r-1) * 2^r * r!.

A third table covers isomorphism rejections, ``run_rejections``:
F2(Shrikhande) against F2(K4 x K4), two strongly regular graphs' 2-token
graphs, and four A + A + B against A + B + B pairs of random cubic
graphs, relabeled (seeds 13, 16, 133 and 250). It prints the search
nodes, the calls of ``Partition.refine`` (counted by a second, untimed
walk that must take as many nodes) and the seconds of ``is_isomorphic``,
and checks that each pair is rejected.

A fourth table, ``run_chains``, times the stabilizer chains on
constructed generators, each order checked against its closed form:
``schreier_sims`` on F3(K_{2,n}) for n = 5..7 and F4(K_{2,n}) for n = 5, 6;
``bounded_order`` meeting its bound on F2(Q_r) for r = 5..7; and
``bounded_order`` at F5(K_{2,10})'s degree, 792, without one side swap
(the Y-lifts conjugate the others onto it, so the bound is still met) and
without the Y-cycle's lift, where the group, of order 2^(C(10,4)+1), stays
below the bound and the grown chain is completed by Schreier-Sims.

A fifth table, ``run_builds``, times ``token_graph`` itself, best of
three builds: F2(Q_6), F2(Q_7), F6(K_{2,12}), F7(K_{2,14}) and
F8(K_{2,16}), the paper's next rung at 43,758 vertices (the last two left
out by --skip-largest). Its read rows time reading a token graph's edge
list as ``aut --in`` and ``factor --in`` do, ``cli._read_graph``, best of
three: F2(Q_7) and F7(K_{2,14}) (left out by --skip-largest), each
written to a temporary file first. Every build and read row is checked
against the edge-count law, C(n-2, k-1) token edges per base edge. Its
factor row times ``prime_factor_decomposition`` on a seeded relabeling
of Q_7, best of three, and checks the factors found against K_2 seven
times. ``rss`` is the process's peak resident set size in MB when the
row ends; run a row alone for its own peak.

A sixth table, ``run_verifies``, times whole verify pipelines under an
explicit guard raised to 10,000 vertices, so that F2(Q7)'s 8,128 are
admitted: ``verify_cube`` for r = 6 and 7 (r = 7 left out by
--skip-largest) and ``verify_bipartite`` on F5(K_{2,10}) and
F6(K_{2,12}). It prints the search nodes of the token graph's walk (of
its twin quotient, for the bipartite rows), which the constructed
generators seed, the seconds spent growing chains by random elements
(``chain``: ``PermGroup._grow_randomly``, which grows the seeded chain),
and the seconds, and checks that each report passes with its closed-form
order.

The last line is the process's peak resident set size.

    PYTHONPATH=src python benchmarks/bench_search.py [--skip-largest]
"""

import argparse
import os
import random
import resource
import tempfile
import time
from functools import partial
from math import comb, factorial
from typing import Iterator

from tokenaut import (
    PermGroup,
    ScaleGuard,
    automorphism_group,
    bipartite_generators,
    bounded_order,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    format_edge_list,
    graph_from_edges,
    hypercube,
    is_isomorphic,
    prime_factor_decomposition,
    product_subgroup_generators,
    schreier_sims,
    token_graph,
    verify_bipartite,
    verify_cube,
)
from tokenaut.cli import _read_graph
from tokenaut.refinement import Partition
from tokenaut.search import (TwinGroup, _lift, _quotient_search, _Search,
                             _twin_classes)

CASES = ((10, 5), (12, 6), (14, 7))
CUBES = (5, 6)
CUBIC_SEEDS = (13, 16, 133, 250)
CHAIN_BIPARTITE = ((5, 3), (6, 3), (7, 3), (5, 4), (6, 4))
CHAIN_CUBES = (5, 6, 7)
BUILD_REPEATS = 3
FACTOR_SEED = 7
VERIFY_CUBES = (6, 7)
VERIFY_BIPARTITE = ((10, 5), (12, 6))
VERIFY_GUARD = ScaleGuard(max_vertices=10_000)
PHASES = ("build", "classes", "search", "lift", "chain", "total", "full")


def closed_form(n: int, k: int) -> int:
    return 2 ** comb(n, k - 1) * factorial(n) * (2 if 2 * k == n + 2 else 1)


def cube_order(r: int) -> int:
    return 2 ** (r - 1) * 2 ** r * factorial(r)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


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
    lifted = timed("lift", _lift, g, classes, search.gens)
    quotient = timed("chain", search.group)
    seconds["total"] = sum(seconds.values()) - seconds["build"]
    rss = peak_rss_mb()
    group = TwinGroup(g, classes, search.base, quotient, lifted)
    if group.order() != closed_form(n, k):
        raise AssertionError(f"F{k}(K2,{n}): order differs from the closed form")
    base, _ = timed("full", lambda: (group.base, group.generators))
    return {"case": f"F{k}(K2,{n})", "vertices": g.n,
            "quotient": len(classes), "nodes": search.node_count,
            "base": len(base), **seconds, "rss": rss,
            "rss_full": peak_rss_mb()}


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


def random_cubic_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random 3-regular simple graph on 0..n-1, by the pairing model."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def rejection_pairs() -> list[tuple[str, object, object]]:
    """The non-isomorphic pairs of the rejection table, as (name, g, h)."""
    shrikhande = graph_from_edges(16, [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4) for b in range(4)
        for da, db in ((0, 1), (1, 0), (1, 1))])
    rook = cartesian_product([complete_graph(4), complete_graph(4)])
    pairs = [("F2(Shrikhande) vs F2(K4xK4)", token_graph(shrikhande, 2).graph,
              token_graph(rook, 2).graph)]
    for seed in CUBIC_SEEDS:
        rng = random.Random(seed)
        n = rng.choice((6, 8, 10))
        a, b = random_cubic_edges(rng, n), random_cubic_edges(rng, n)
        relabeled = []
        for parts in ((a, a, b), (a, b, b)):
            g = graph_from_edges(3 * n, [(u + i * n, v + i * n)
                                         for i, part in enumerate(parts)
                                         for u, v in part])
            images = list(range(g.n))
            rng.shuffle(images)
            relabeled.append(g.relabel(images))
        pairs.append((f"AAB vs ABB cubic, seed {seed}", *relabeled))
    return pairs


def run_rejection(name: str, g, h) -> dict:
    """Time ``is_isomorphic(g, h)``, then count its refine calls."""
    started = time.perf_counter()
    if is_isomorphic(g, h) is not None:
        raise AssertionError(f"{name}: a non-isomorphic pair got a mapping")
    seconds = time.perf_counter() - started
    calls = 0
    refine = Partition.refine

    def counting(self, active, expect=None):
        nonlocal calls
        calls += 1
        return refine(self, active, expect)

    Partition.refine = counting
    try:
        walk = _Search(h, None, source=g)
        walk.run()
    finally:
        Partition.refine = refine
    return {"case": name, "vertices": g.n, "nodes": walk.node_count,
            "refines": calls, "seconds": seconds}


def run_rejections(pairs=None) -> list[dict]:
    """Print a row per rejection (default: every pair of
    ``rejection_pairs``) and return the rows."""
    print(f"{'case':<28} {'vertices':>8} {'nodes':>6} {'refines':>7} "
          f"{'seconds':>7}")
    rows = []
    for name, g, h in rejection_pairs() if pairs is None else pairs:
        row = run_rejection(name, g, h)
        print(f"{row['case']:<28} {row['vertices']:>8} {row['nodes']:>6} "
              f"{row['refines']:>7} {row['seconds']:>7.3f}", flush=True)
        rows.append(row)
    return rows


def chain_cases(cubes) -> Iterator[tuple]:
    """The rows of the chain table, with F2(Q_r) for r in ``cubes``, as
    (case, routine, generators, bound, order); ``bound`` is None for
    ``schreier_sims``."""
    for n, k in CHAIN_BIPARTITE:
        yield (f"F{k}(K2,{n})", "schreier_sims", bipartite_generators(2, n, k),
               None, closed_form(n, k))
    for r in cubes:
        factors = [complete_graph(2)] * r
        tg = token_graph(cartesian_product(factors), 2)
        yield (f"F2(Q{r})", "bounded_order",
               product_subgroup_generators(factors, tg), cube_order(r),
               cube_order(r))
    gens = bipartite_generators(2, 10, 5)
    bound = closed_form(10, 5)
    yield "F5(K2,10) - swap", "bounded_order", gens[1:], bound, bound
    yield ("F5(K2,10) - Y-cycle", "bounded_order", gens[:-1], bound,
           2 ** (comb(10, 4) + 1))


def run_chain(case: str, routine: str, gens, bound, order) -> dict:
    """Time one chain routine on ``gens`` and check the order it gives."""
    started = time.perf_counter()
    if bound is None:
        found = schreier_sims(gens).order()
    else:
        found = bounded_order(gens, bound)
    seconds = time.perf_counter() - started
    if found != order:
        raise AssertionError(f"{case}: {routine} order differs from the closed form")
    return {"case": case, "routine": routine, "degree": gens[0].degree,
            "gens": len(gens), "seconds": seconds}


def run_chains(cases) -> list[dict]:
    """Print a row per chain case and return the rows."""
    print(f"{'case':<19} {'routine':<13} {'degree':>6} {'gens':>5} "
          f"{'seconds':>7}")
    rows = []
    for case in cases:
        row = run_chain(*case)
        print(f"{row['case']:<19} {row['routine']:<13} {row['degree']:>6} "
              f"{row['gens']:>5} {row['seconds']:>7.3f}", flush=True)
        rows.append(row)
    return rows


def build_cases() -> list[tuple]:
    """The rows of the build table, smallest token graph first, as
    (case, base, k)."""
    return [("F2(Q6)", hypercube(6), 2), ("F2(Q7)", hypercube(7), 2),
            ("F6(K2,12)", complete_bipartite(2, 12), 6),
            ("F7(K2,14)", complete_bipartite(2, 14), 7),
            ("F8(K2,16)", complete_bipartite(2, 16), 8)]


def read_cases() -> list[tuple]:
    """The read rows of the build table, as (case, base, k)."""
    return [("read F2(Q7)", hypercube(7), 2),
            ("read F7(K2,14)", complete_bipartite(2, 14), 7)]


def factor_cases() -> list[tuple]:
    """The factor rows of the build table, as (case, factors, seed)."""
    return [("factor Q7", [complete_graph(2)] * 7, FACTOR_SEED)]


def check_edge_count(case: str, g, base, k: int) -> int:
    """The k-token graph's edge count by the edge-count law; raises unless
    ``g`` has that many edges on C(n, k) vertices."""
    edges = comb(base.n - 2, k - 1) * base.edge_count()
    if (g.n, g.edge_count()) != (comb(base.n, k), edges):
        raise AssertionError(f"{case}: size differs from the edge-count law")
    return edges


def run_build(case: str, base, k: int) -> dict:
    """Time the fastest of BUILD_REPEATS builds of the k-token graph of
    ``base`` and check its edge count."""
    seconds = []
    for _ in range(BUILD_REPEATS):
        started = time.perf_counter()
        g = token_graph(base, k).graph
        seconds.append(time.perf_counter() - started)
    return {"case": case, "vertices": g.n,
            "edges": check_edge_count(case, g, base, k),
            "seconds": min(seconds), "rss": peak_rss_mb()}


def run_read(case: str, base, k: int) -> dict:
    """Time the fastest of BUILD_REPEATS reads of the k-token graph's edge
    list and check the graph read, under a guard that admits it."""
    seconds = []
    guard = ScaleGuard(max_vertices=comb(base.n, k))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.el")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_edge_list(token_graph(base, k).graph))
        for _ in range(BUILD_REPEATS):
            g = None  # hold one graph at a time
            started = time.perf_counter()
            g = _read_graph(path, guard)
            seconds.append(time.perf_counter() - started)
    return {"case": case, "vertices": g.n,
            "edges": check_edge_count(case, g, base, k),
            "seconds": min(seconds), "rss": peak_rss_mb()}


def run_factor(case: str, factors, seed: int) -> dict:
    """Time the fastest of BUILD_REPEATS prime factor decompositions of
    the product of ``factors``, relabeled by a shuffle seeded with
    ``seed``, and check the factors found against ``factors``."""
    g = cartesian_product(factors)
    images = list(range(g.n))
    random.Random(seed).shuffle(images)
    g = g.relabel(images)
    seconds = []
    for _ in range(BUILD_REPEATS):
        started = time.perf_counter()
        found = prime_factor_decomposition(g).factors
        seconds.append(time.perf_counter() - started)

    def shapes(graphs):
        return sorted((f.n, f.degree_sequence()) for f in graphs)

    if shapes(found) != shapes(factors):
        raise AssertionError(f"{case}: the factors found differ")
    return {"case": case, "vertices": g.n, "edges": g.edge_count(),
            "seconds": min(seconds), "rss": peak_rss_mb()}


def run_builds(cases, reads=(), factors=()) -> list[dict]:
    """Print a row per build case, then per read case, then per factor
    case, and return the rows."""
    print(f"{'case':<14} {'vertices':>8} {'edges':>7} {'seconds':>7} "
          f"{'rss':>5}")
    rows = []
    for run, case in ([(run_build, c) for c in cases]
                      + [(run_read, c) for c in reads]
                      + [(run_factor, c) for c in factors]):
        row = run(*case)
        print(f"{row['case']:<14} {row['vertices']:>8} {row['edges']:>7} "
              f"{row['seconds']:>7.3f} {row['rss']:>5.0f}", flush=True)
        rows.append(row)
    return rows


def verify_cases(cubes, bipartite) -> list[tuple]:
    """The rows of the verify table, as (case, vertices, pipeline, order):
    ``verify_cube(r)`` for r in ``cubes``, then ``verify_bipartite(2, n, k)``
    for (n, k) in ``bipartite``, each under VERIFY_GUARD."""
    return ([(f"verify_cube({r})", comb(1 << r, 2),
              partial(verify_cube, r, VERIFY_GUARD), cube_order(r))
             for r in cubes]
            + [(f"verify_bipartite(2,{n},{k})", comb(n + 2, k),
                partial(verify_bipartite, 2, n, k, VERIFY_GUARD),
                closed_form(n, k))
               for n, k in bipartite])


def run_verify(case: str, vertices: int, pipeline, order: int) -> dict:
    """Time one verify pipeline, and the part of it spent growing chains
    by random elements (``PermGroup._grow_randomly``), and check that its
    report passes with ``order``."""
    grow_randomly = PermGroup._grow_randomly
    chain = 0.0

    def timed(self, bound):
        nonlocal chain
        started = time.perf_counter()
        try:
            return grow_randomly(self, bound)
        finally:
            chain += time.perf_counter() - started

    PermGroup._grow_randomly = timed
    try:
        started = time.perf_counter()
        report = pipeline()
        seconds = time.perf_counter() - started
    finally:
        PermGroup._grow_randomly = grow_randomly
    if not report.passed or report.computed_order != str(order):
        raise AssertionError(f"{case}: the report differs from the closed form")
    return {"case": case, "vertices": vertices, "nodes": report.node_count,
            "chain": chain, "seconds": seconds}


def run_verifies(cases) -> list[dict]:
    """Print a row per verify case and return the rows."""
    print(f"{'case':<24} {'vertices':>8} {'nodes':>6} {'chain':>7} "
          f"{'seconds':>7}")
    rows = []
    for case in cases:
        row = run_verify(*case)
        print(f"{row['case']:<24} {row['vertices']:>8} {row['nodes']:>6} "
              f"{row['chain']:>7.3f} {row['seconds']:>7.3f}", flush=True)
        rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(
        description="time automorphism_group on F_k(K_{2,n})")
    parser.add_argument("--skip-largest", action="store_true",
                        help="leave out F7(K2,14)'s search, build and "
                             "read, F8(K2,16)'s build, and F2(Q7)'s chain "
                             "and verify")
    args = parser.parse_args()
    cases = CASES[:-1] if args.skip_largest else CASES
    print(f"{'case':<11} {'vertices':>8} {'quotient':>8} {'nodes':>6} "
          f"{'base':>5}" + "".join(f" {p:>7}" for p in PHASES)
          + f" {'rss':>5} {'rss_full':>8}")
    for n, k in cases:
        row = run_case(n, k)
        print(f"{row['case']:<11} {row['vertices']:>8} {row['quotient']:>8} "
              f"{row['nodes']:>6} {row['base']:>5}"
              + "".join(f" {row[p]:>7.3f}" for p in PHASES)
              + f" {row['rss']:>5.0f} {row['rss_full']:>8.0f}", flush=True)
    print(f"\n{'case':<11} {'vertices':>8} {'nodes':>6} {'gens':>5} "
          f"{'inner':>5} {'seconds':>7}")
    for r in CUBES:
        row = run_cube(r)
        print(f"{row['case']:<11} {row['vertices']:>8} {row['nodes']:>6} "
              f"{row['generators']:>5} {row['inner']:>5} "
              f"{row['seconds']:>7.3f}", flush=True)
    print()
    run_rejections()
    print()
    run_chains(chain_cases(CHAIN_CUBES[:-1] if args.skip_largest
                           else CHAIN_CUBES))
    print()
    builds, reads = build_cases(), read_cases()
    if args.skip_largest:
        builds, reads = builds[:-2], reads[:-1]
    run_builds(builds, reads, factor_cases())
    print()
    run_verifies(verify_cases(VERIFY_CUBES[:-1] if args.skip_largest
                              else VERIFY_CUBES, VERIFY_BIPARTITE))
    print(f"\npeak RSS {peak_rss_mb():.0f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
