"""The scripts under benchmarks/ and perfbench/ still import and run
against the package."""

import importlib.util
import sys
from itertools import islice
from pathlib import Path

from tokenaut import complete_graph, hypercube

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
PERFBENCH = ROOT / "perfbench"


def load(name, where=BENCHMARKS, monkeypatch=None):
    """Run the script ``name`` in ``where`` as a module. With
    ``monkeypatch`` it is put in sys.modules, until the test ends, before
    it runs, so that its dataclasses and its sibling scripts'
    ``import name`` find it."""
    spec = importlib.util.spec_from_file_location(name, where / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_refine_cases_run():
    bench_refine = load("bench_refine")
    cases = bench_refine.build_cases()
    assert cases
    for name, run in cases:
        run()


def test_bench_search_case_matches_the_closed_form():
    # run_case raises when the order differs from 2^C(n,k-1) * n!.
    row = load("bench_search").run_case(6, 3)
    assert row["case"] == "F3(K2,6)"
    assert row["vertices"] == 56
    assert row["nodes"] >= 1
    assert row["rss_full"] >= row["rss"] > 0


def test_bench_search_cube_matches_the_closed_form():
    # run_cube raises when the order differs from 2^(r-1) * 2^r * r!.
    row = load("bench_search").run_cube(3)
    assert (row["case"], row["vertices"]) == ("F2(Q3)", 28)
    assert row["nodes"] >= 1
    assert 0 <= row["inner"] <= row["generators"]


def test_bench_search_rejection_row():
    # run_rejection raises when the pair gets a mapping. F2(Shrikhande)
    # is told from F2(K4xK4) at h's root children: g's and h's roots, one
    # individualization of g and h's 48 root children.
    bench_search = load("bench_search")
    pairs = bench_search.rejection_pairs()
    assert len(pairs) == 5
    (row,) = bench_search.run_rejections(pairs[:1])
    assert (row["vertices"], row["nodes"], row["refines"]) == (120, 1, 51)


def test_bench_search_chain_rows():
    # run_chain raises when an order differs from its closed form. The
    # first six cases are the five schreier_sims rows and F2(Q3)'s
    # bounded_order row; the F5(K_{2,10}) rows are left out for time.
    bench_search = load("bench_search")
    rows = bench_search.run_chains(islice(bench_search.chain_cases((3,)), 6))
    assert [(row["case"], row["routine"]) for row in rows[::5]] == [
        ("F3(K2,5)", "schreier_sims"), ("F2(Q3)", "bounded_order")]
    assert [row["degree"] for row in rows] == [35, 56, 84, 35, 70, 28]


def test_bench_search_build_row():
    # run_build raises when the token graph's size differs from the
    # edge-count law: F2(Q4) has C(16,2) = 120 vertices and C(14,1) = 14
    # token edges per cube edge. run_factor raises when the factors found
    # differ from the product's: Q3, relabeled, has three K2 factors.
    bench_search = load("bench_search")
    build, factor = bench_search.run_builds(
        [("F2(Q4)", hypercube(4), 2)], [],
        [("factor Q3", [complete_graph(2)] * 3, 7)])
    assert (build["case"], build["vertices"], build["edges"]) == (
        "F2(Q4)", 120, 448)
    assert (factor["case"], factor["vertices"], factor["edges"]) == (
        "factor Q3", 8, 12)
    assert build["seconds"] > 0 and factor["seconds"] > 0
    assert [case[0] for case in bench_search.build_cases()] == [
        "F2(Q6)", "F2(Q7)", "F6(K2,12)", "F7(K2,14)", "F8(K2,16)"]
    assert [case[0] for case in bench_search.factor_cases()] == ["factor Q7"]


def test_bench_search_verify_row():
    # run_verify raises unless the report passes with the closed-form
    # order: 2^(r-1) * 2^r * r! for verify_cube, where F2(Q4) has
    # C(16,2) = 120 vertices, and 2^C(10,4) * 10! for the first bipartite
    # row, F5(K_{2,10}), with C(12,5) = 792. Both walks are seeded, so
    # each grows a chain, a part of the pipeline's time.
    bench_search = load("bench_search")
    cube, bipartite = bench_search.run_verifies(bench_search.verify_cases(
        [4], bench_search.VERIFY_BIPARTITE[:1]))
    assert (cube["case"], cube["vertices"]) == ("verify_cube(4)", 120)
    assert (bipartite["case"], bipartite["vertices"]) == (
        "verify_bipartite(2,10,5)", 792)
    for row in (cube, bipartite):
        assert row["nodes"] >= 1 and row["seconds"] > 0
        assert 0 < row["chain"] <= row["seconds"]


def test_bench_search_read_row():
    # run_read raises when the graph read back differs from the edge-count
    # law: F2(Q4) again, written as an edge list and read by the CLI.
    bench_search = load("bench_search")
    (row,) = bench_search.run_builds([], [("read F2(Q4)", hypercube(4), 2)])
    assert (row["case"], row["vertices"], row["edges"]) == (
        "read F2(Q4)", 120, 448)
    assert row["seconds"] > 0 and row["rss"] > 0
    assert [case[0] for case in bench_search.read_cases()] == [
        "read F2(Q7)", "read F7(K2,14)"]


def test_digest_outputs_repeat():
    # Two runs of the same commands give the same digests, although the
    # aut run's printed time and report wall_time differ between them; the
    # subset holds a file: build with repeated edges, an aut report, a
    # factor run and a usage error.
    digest_outputs = load("digest_outputs")
    names = {"build dup", "aut dup", "factor dup", "usage k range"}
    runs = [run for run in digest_outputs.RUNS if run[0] in names]
    first = digest_outputs.digest_runs(runs)
    assert first == digest_outputs.digest_runs(runs)
    assert [(name, code) for name, code, _ in first] == [
        ("build dup", 0), ("aut dup", 0), ("factor dup", 0),
        ("usage k range", 2)]
    assert len({digest for _, _, digest in first}) == 4
    assert digest_outputs.masked(b'1.234s) "wall_time": 5.6e-05') == \
        b'<t>s) "wall_time": <t>'


def test_perfbench_workloads_run_and_check(tmp_path, monkeypatch):
    # Every workload's seed-1 sweep gets its known answers, and the probe
    # names a backend, so nothing perfbench reaches in the package is gone.
    # sweep.py imports the other three by name.
    _, _, workloads, sweep = (
        load(name, PERFBENCH, monkeypatch)
        for name in ("reference", "tracer", "workloads", "sweep"))
    assert sorted(workloads.WORKLOADS) == ["bipartite-chain", "iso-factor",
                                           "product-seed"]
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.prepare(1, str(tmp_path))
        workload.run(inputs)
        instances = workload.check(inputs)
        assert instances, name
        assert not [(i.label, i.problems) for i in instances if i.problems]
    probe = sweep.probe(str(ROOT / "src"))
    assert probe["default_backend"] in probe["available_backends"]
