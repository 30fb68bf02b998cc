"""Command-line interface: grammar, subcommands, reports, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from tokenaut import (Permutation, cartesian_product, complete_graph,
                      parse_edge_list, permutation_from_str, schreier_sims,
                      token_graph)
from tokenaut import constructions, graphs, verify
from tokenaut.cli import main, parse_graph_spec, UsageError
from tokenaut.verify import VerificationReport
from tokenaut import cli as cli_module


def run(argv):
    return main(argv)


# -- graph spec grammar ----------------------------------------------------


def test_grammar_constructors():
    assert parse_graph_spec("kmn:2,3").n == 5
    assert parse_graph_spec("kn:4").n == 4
    assert parse_graph_spec("k4").n == 4  # bare shorthand
    assert parse_graph_spec("K4").n == 4
    assert parse_graph_spec("path:5").edge_count() == 4
    assert parse_graph_spec("cycle:5").edge_count() == 5
    assert parse_graph_spec("star:4").n == 5
    assert parse_graph_spec("cube:3").n == 8
    assert parse_graph_spec("prod:k2+path:3").n == 6
    assert parse_graph_spec(" cube:3 ").n == 8


def test_grammar_errors_cite_grammar():
    for bad in ("triangle:3", "path3", "kmn:3", "kmn:a,b", "prod:", "kn:0"):
        with pytest.raises(UsageError):
            parse_graph_spec(bad)
    try:
        parse_graph_spec("octahedron:6")
    except UsageError as exc:
        assert "kmn:M,N" in str(exc)


def test_file_spec_round_trip(tmp_path):
    p = tmp_path / "c5.el"
    rc = run(["build", "--graph", "cycle:5", "--k", "1", "--out", str(p)])
    assert rc == 0
    g = parse_graph_spec(f"file:{p}")
    assert g.n == 5 and g.edge_count() == 5
    assert g.label == "c5.el"


# -- build -----------------------------------------------------------------


def test_build_writes_canonical_edge_list_and_map(tmp_path):
    out = tmp_path / "f.el"
    rc = run(["build", "--graph", "kmn:2,3", "--k", "2", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    g = parse_edge_list(text)
    assert g.n == 10
    # output is already in canonical serialization
    from tokenaut import format_edge_list
    assert format_edge_list(g) == text
    side = (tmp_path / "f.el.map").read_text().splitlines()
    assert len(side) == 10
    assert side[0] == "0: {0,1}"
    assert all(line.split(":")[0] == str(i) for i, line in enumerate(side))


def test_bare_and_explicit_complete_graph_agree(tmp_path):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    assert run(["build", "--graph", "k4", "--k", "2", "--out", str(a)]) == 0
    assert run(["build", "--graph", "kn:4", "--k", "2", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_build_k_out_of_range(tmp_path, capsys):
    rc = run(["build", "--graph", "k4", "--k", "4",
              "--out", str(tmp_path / "x.el")])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_build_size_its_constructor_rejects(tmp_path, capsys):
    rc = run(["build", "--graph", "cycle:2", "--k", "1",
              "--out", str(tmp_path / "x.el")])
    assert rc == 2
    assert capsys.readouterr().err == "error: cycle_graph needs n >= 3\n"
    assert not (tmp_path / "x.el").exists()


def test_build_takes_no_node_budget(tmp_path, capsys):
    # build runs no search, so --max-nodes is not one of its options.
    rc = run(["build", "--graph", "k4", "--k", "2", "--max-nodes", "1",
              "--out", str(tmp_path / "x.el")])
    assert rc == 2
    assert "--max-nodes" in capsys.readouterr().err
    assert not (tmp_path / "x.el").exists()


def test_factor_help_says_its_node_budget_is_ignored(monkeypatch, capsys):
    # factor runs no search; it keeps --max-nodes, which it ignores.
    monkeypatch.setenv("COLUMNS", "200")
    assert run(["factor", "--help"]) == 0
    out = capsys.readouterr().out
    assert "accepted and ignored; factor runs no search" in out
    assert "search-tree node budget" not in out


def test_build_scale_refusal(tmp_path, capsys):
    rc = run(["build", "--graph", "kmn:2,10", "--k", "6",
              "--out", str(tmp_path / "x.el")])
    assert rc == 3
    assert "refused" in capsys.readouterr().err


# -- aut ---------------------------------------------------------------------


def test_aut_reports_group(tmp_path, capsys):
    el = tmp_path / "t.el"
    report = tmp_path / "t.json"
    assert run(["build", "--graph", "kmn:2,3", "--k", "2",
                "--out", str(el)]) == 0
    rc = run(["aut", "--in", str(el), "--report", str(report)])
    assert rc == 0
    assert "order 48" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["order"] == "48"
    assert payload["degree"] == 10
    assert payload["instance"] == "t.el"
    assert payload["tool"] == "tokenaut"
    assert payload["node_count"] >= 1
    for text in payload["generators"]:
        assert permutation_from_str(text).degree == 10


# Every field of these aut reports except base and wall_time: (order,
# node_count, generator count, the first 16 hex digits of the sha256 of the
# newline-joined generators). Orders and generator counts are those of the
# Schreier-Sims chain; the generators follow the refinement's cell order.
AUT_REPORTS = {
    ("kmn:2,3", 2): ("48", 5, 5, "fe799fa9674065ff"),
    ("kmn:2,5", 3): ("122880", 9, 14, "83604ad54616ab24"),
    ("cube:3", 2): ("192", 21, 6, "8a7bf8449659db68"),
    ("cycle:7", 2): ("14", 6, 2, "ec0ad8fb7785a6bd"),
    ("path:5", 2): ("2", 3, 1, "0ee1cbda48adf970"),
}


def test_aut_reports_match_the_schreier_sims_chain(tmp_path):
    # Taking the chain from the search may move the reported base; nothing
    # else in the report changes.
    el = tmp_path / "g.el"
    report = tmp_path / "g.json"
    for (spec, k), (order, nodes, count, digest) in AUT_REPORTS.items():
        assert run(["build", "--graph", spec, "--k", str(k), "--out", str(el)]) == 0
        assert run(["aut", "--in", str(el), "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert sorted(payload) == ["base", "degree", "generators", "instance",
                                   "node_count", "order", "tool", "version",
                                   "wall_time"], spec
        gens = [permutation_from_str(t) for t in payload["generators"]]
        assert (payload["order"], payload["node_count"], len(gens)) == \
            (order, nodes, count), spec
        text = "\n".join(payload["generators"]).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest, spec
        assert payload["instance"] == "g.el"
        assert payload["degree"] == gens[0].degree
        base = payload["base"]
        assert len(set(base)) == len(base)
        assert all(0 <= b < payload["degree"] for b in base)
        assert any(p(b) != b for p in gens for b in base)


def test_aut_missing_file(capsys):
    rc = run(["aut", "--in", "/nonexistent/g.el"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_aut_non_integer_header_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.el"
    path.write_text("# header below\nn x\n0 1\n")
    rc = run(["aut", "--in", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}: line 2: non-integer vertex count in 'n x'" in err


# -- generators ---------------------------------------------------------------


def test_generators_bipartite_report(tmp_path, capsys):
    report = tmp_path / "g.json"
    rc = run(["generators", "--m", "2", "--n", "4", "--k", "3",
              "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted 3072" in out
    payload = json.loads(report.read_text())
    assert payload["predicted_order"] == payload["generated_order"] == "3072"
    assert payload["structure_tag"] == "WREATH_K2N_TIMES_Z2"
    assert len(payload["swap_families"]) == 6  # one per 2-subset of Y
    assert payload["swap_families"][0] == [[2, 3]]
    for text in payload["generators"]:
        assert permutation_from_str(text).degree == 20


def test_generators_cube_and_product(tmp_path):
    report = tmp_path / "c.json"
    assert run(["generators", "--r", "3", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["structure_tag"] == "CUBE"
    assert payload["predicted_order"] == payload["generated_order"] == "192"
    assert payload["swap_families"] == [[0], [1]]

    assert run(["generators", "--factors", "k2+path:3",
                "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["structure_tag"] == "Z2POW_SEMIDIRECT"
    assert payload["predicted_order"] == "8"
    assert payload["swap_families"] == [[0]]

    # generated_order comes from the verify pipeline's bounded order; it
    # must be the full chain's order of the printed generators. K2 x K2
    # generates 16 of its 48 automorphisms, so its bound falls back.
    for argv, order in ((["--m", "2", "--n", "4", "--k", "3"], 3072),
                        (["--m", "3", "--n", "3", "--k", "3"], 144),
                        (["--m", "2", "--n", "2", "--k", "2"], 48),
                        (["--r", "3"], 192),
                        (["--factors", "k2+k3"], 24),
                        (["--factors", "k2+k2"], 16)):
        assert run(["generators"] + argv + ["--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        gens = [permutation_from_str(t) for t in payload["generators"]]
        assert payload["generated_order"] == str(order), argv
        assert schreier_sims(gens, degree=gens[0].degree).order() == order, argv


def test_generators_factors_searches_the_base_once(monkeypatch):
    from tokenaut import verify

    calls = []
    # verify hands its certified generators to the search's body, which
    # does not check them again.
    for module, name in ((verify, "automorphism_group"),
                         (verify, "_automorphism_group"),
                         (constructions, "automorphism_group")):
        def counted(g, *args, _real=getattr(module, name), **kw):
            calls.append(g.n)
            return _real(g, *args, **kw)
        monkeypatch.setattr(module, name, counted)
    # the base (6), whose generators the constructed ones lift, then the
    # token graph of K2 x P3 (15 vertices), whose walk they seed
    assert run(["generators", "--factors", "k2+path:3"]) == 0
    assert calls == [6, 15]


def test_generators_respect_the_node_budget(capsys):
    for argv in (["--r", "3"], ["--factors", "k2+path:3"],
                 ["--m", "2", "--n", "4", "--k", "3"]):
        assert run(["generators"] + argv + ["--max-nodes", "1"]) == 3, argv
        assert "refused" in capsys.readouterr().err


def test_one_vertex_factor_is_named(capsys):
    # K1 gives a 2-vertex product, which has no 2-token graph; the error
    # names the factor instead of the token graph.
    for argv in (["verify", "product"], ["generators"]):
        assert run(argv + ["--factors", "k2+k1"]) == 2, argv
        assert "factor 1 has fewer than 2 vertices" in \
            capsys.readouterr().err, argv


def test_generators_mode_exclusivity(capsys):
    assert run(["generators", "--m", "2", "--r", "3"]) == 2
    assert run(["generators", "--m", "2", "--n", "3"]) == 2
    assert run(["generators", "--m", "2", "--n", "3", "--k", "1,2"]) == 2
    assert run(["generators"]) == 2


# -- factor -------------------------------------------------------------------


def test_factor_writes_prime_edge_lists(tmp_path, capsys):
    el = tmp_path / "q3.el"
    assert run(["build", "--graph", "cube:3", "--k", "1",
                "--out", str(el)]) == 0
    rc = run(["factor", "--in", str(el)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 prime factor(s)" in out
    for i in range(3):
        path = tmp_path / f"q3.factor{i}.el"
        g = parse_edge_list(path.read_text())
        assert g.n == 2 and g.edge_count() == 1


def test_factor_prefix_override(tmp_path):
    el = tmp_path / "c4.el"
    assert run(["build", "--graph", "cycle:4", "--k", "1",
                "--out", str(el)]) == 0
    prefix = tmp_path / "out" / "fac"
    os.makedirs(tmp_path / "out")
    assert run(["factor", "--in", str(el), "--out", str(prefix)]) == 0
    assert (tmp_path / "out" / "fac.factor0.el").exists()
    assert (tmp_path / "out" / "fac.factor1.el").exists()


def test_factor_ignores_the_node_budget(tmp_path, capsys):
    # factor reads the coordinates off the edge classes and runs no
    # search, so a 1-node budget changes nothing it writes.
    el = tmp_path / "q4.el"
    assert run(["build", "--graph", "cube:4", "--k", "1",
                "--out", str(el)]) == 0
    written = []
    for flags in ([], ["--max-nodes", "1"]):
        prefix = tmp_path / f"q4{len(flags)}"
        assert run(["factor", "--in", str(el), "--out", str(prefix)] + flags) == 0
        written.append([(tmp_path / f"{prefix.name}.factor{i}.el").read_text()
                        for i in range(4)])
        assert not (tmp_path / f"{prefix.name}.factor4.el").exists()
    assert written[0] == written[1]
    assert "4 prime factor(s)" in capsys.readouterr().out


def test_factor_rejects_disconnected(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("n 4\n0 1\n2 3\n")
    rc = run(["factor", "--in", str(bad)])
    assert rc == 2
    assert "connected" in capsys.readouterr().err


# -- verify -------------------------------------------------------------------


def test_verify_bipartite_fan_out(tmp_path, capsys):
    report = tmp_path / "vp.json"
    rc = run(["verify", "bipartite", "--m", "2", "--n", "3,4", "--k", "2",
              "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    for i, order in enumerate(("48", "384")):
        payload = json.loads((tmp_path / f"vp.{i}.json").read_text())
        assert payload["computed_order"] == order
        assert payload["equality"] is True
    assert not report.exists()  # only indexed files on fan-out


def test_verify_single_report_not_indexed(tmp_path):
    report = tmp_path / "cube.json"
    rc = run(["verify", "cube", "--r", "3", "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["computed_order"] == "192"


# verify reports minus wall_time, tool and version. Orders and
# certificates are those the two Schreier-Sims chains gave; node counts
# follow the refinement's cell order. K2 x K2 is a product whose certified
# subgroup (16) is smaller than the computed group (48).
VERIFY_REPORTS = [
    (["bipartite", "--m", "2", "--n", "5", "--k", "3"],
     ("bipartite(m=2,n=5,k=3)", "122880", "122880", True, True, True, None, 5)),
    (["bipartite", "--m", "3", "--n", "3", "--k", "3"],
     ("bipartite(m=3,n=3,k=3)", "144", "144", True, True, True, None, 5)),
    (["bipartite", "--m", "2", "--n", "2", "--k", "2"],
     ("bipartite(m=2,n=2,k=2)", "48", "48", True, True, True, None, 1)),
    (["cube", "--r", "3"],
     ("cube(r=3)", "192", "192", True, True, True, None, 7)),
    (["product", "--factors", "k2+k2"],
     ("product(K2 x K2)", "48", "16", True, True, False, False, 1)),
    (["product", "--factors", "k2+path:3"],
     ("product(K2 x P3)", "8", "8", True, True, True, True, 4)),
]


def test_verify_reports_are_pinned(tmp_path):
    report = tmp_path / "v.json"
    fields = ("instance", "computed_order", "predicted_order",
              "generators_certified", "subgroup_certified", "equality",
              "conjecture_flag", "node_count")
    for argv, want in VERIFY_REPORTS:
        assert run(["verify"] + argv + ["--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert sorted(payload) == sorted(fields + ("wall_time", "tool", "version"))
        assert tuple(payload[f] for f in fields) == want, argv


def test_verify_product_records_conjecture(capsys):
    rc = run(["verify", "product", "--factors", "k2+path:3"])
    assert rc == 0
    assert "full-group-equality observed=True" in capsys.readouterr().out


def test_verify_parallel_jobs_match_serial(tmp_path, capsys):
    # Instances run one after another whatever --jobs says; this checks
    # that the old flag is still accepted and changes nothing.
    argv = ["verify", "bipartite", "--m", "2", "--n", "3,4", "--k", "2"]
    assert run(argv) == 0
    serial = capsys.readouterr().out
    assert run(argv + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_verify_refusal_exit_code(capsys):
    rc = run(["verify", "cube", "--r", "5"])
    assert rc == 3
    assert "REFUSED" in capsys.readouterr().out


def test_verify_mixed_refusal_and_pass(capsys):
    rc = run(["verify", "cube", "--r", "3,5"])
    assert rc == 3  # refusal dominates a pass
    out = capsys.readouterr().out
    assert "PASS" in out and "REFUSED" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = VerificationReport(
        instance="bipartite(m=2,n=3,k=2)", computed_order="48",
        predicted_order="96", generators_certified=True,
        subgroup_certified=False, equality=False, conjecture_flag=None,
        wall_time=0.0, node_count=1)
    monkeypatch.setattr(cli_module, "verify_bipartite",
                        lambda m, n, k, guard: failing)
    rc = run(["verify", "bipartite", "--m", "2", "--n", "3", "--k", "2"])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


def test_failed_generator_certificate_is_a_fail_report(monkeypatch, capsys,
                                                       tmp_path):
    # A coordinate swap replaced by a transposition of two token-graph
    # vertices of different degree, which no automorphism can be.
    tg = token_graph(cartesian_product([complete_graph(2)] * 3), 2)
    degree = [len(nb) for nb in tg.graph.nbrs]
    u = degree.index(min(degree))
    w = degree.index(max(degree))
    bad = Permutation.from_cycles(tg.graph.n, [(u, w)])
    monkeypatch.setattr(constructions, "_coordinate_swap",
                        lambda factors, axes, configs, rank_of_mask: bad)
    report = tmp_path / "cube.json"
    assert run(["verify", "cube", "--r", "3", "--report", str(report)]) == 4
    assert "FAIL" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["generators_certified"] is False
    assert payload["subgroup_certified"] is False
    assert payload["equality"] is False
    assert payload["computed_order"] == payload["predicted_order"] == "192"
    # outside a pipeline the construction's own refusal is exit 4 as well
    assert run(["generators", "--r", "3"]) == 4
    assert "failed the edge check" in capsys.readouterr().err


def test_bipartite_token_count_out_of_range_names_its_bound(capsys):
    # The prediction checks k against m + n - 1, not the base's vertex
    # count, before the token graph is built.
    argv = ["--m", "2", "--n", "3", "--k", "5"]
    assert run(["verify", "bipartite"] + argv) == 2
    assert "ERROR (need 1 <= k <= 4, got k=5)" in capsys.readouterr().err
    assert run(["generators"] + argv) == 2
    assert capsys.readouterr().err == "error: need 1 <= k <= 4, got k=5\n"


def test_verify_usage_errors(capsys):
    assert run(["verify", "bipartite", "--m", "2"]) == 2
    assert run(["verify", "cube"]) == 2
    assert run(["verify", "product"]) == 2


def test_empty_value_lists_are_usage_errors(capsys):
    # A sweep over no instances checks nothing, so it must not exit 0.
    assert run(["verify", "cube", "--r", ","]) == 2
    assert run(["verify", "bipartite", "--m", "2", "--n", "", "--k", "3"]) == 2
    assert "lists no values" in capsys.readouterr().err


def test_refusals_are_decided_before_any_graph_is_built(monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("work was done before the guard refused")

    monkeypatch.setattr(graphs, "complete_bipartite", build)
    monkeypatch.setattr(verify, "cartesian_product", build)
    monkeypatch.setattr(verify, "predicted_order_cube", build)  # r! is large
    for argv in (
            ["verify", "bipartite", "--m", "2", "--n", "1000000", "--k", "3"],
            ["generators", "--m", "2", "--n", "1000000", "--k", "3"],
            ["verify", "cube", "--r", "20000"],
            ["verify", "bipartite", "--m", "2", "--n", "20000", "--k", "10000"],
            ["generators", "--r", "20000"],
            ["verify", "product", "--factors", "path:200+path:200"],
            ["generators", "--factors", "path:200+path:200"]):
        assert run(argv) == 3, argv
    captured = capsys.readouterr()
    assert "2-token graph of P200 x P200 has 799980000 vertices" in captured.err
    # counts too long to print are given by their bit length
    assert "Q20000 has at least 2^39998 vertices" in captured.out
    assert "Q20000 has at least 2^39998 vertices" in captured.err


def test_build_refuses_before_building_the_base_graph(monkeypatch, tmp_path,
                                                     capsys):
    # The base's vertex count comes from the spec, so a refused build
    # constructs no graph at all.
    def built(self, *args, **kwargs):
        raise AssertionError("a graph was built before the guard refused")

    monkeypatch.setattr(graphs.Graph, "__init__", built)
    out = tmp_path / "x.el"
    for spec, k in (("kmn:2,1000000", 3), ("cube:14", 8000),
                    ("prod:path:1000+cycle:1000", 2), ("star:99999", 2)):
        assert run(["build", "--graph", spec, "--k", str(k),
                    "--out", str(out)]) == 3, spec
    assert run(["build", "--graph", "kmn:2,1000000", "--k", "1000002",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "3-token graph of kmn:2,1000000 has 166667166667000000 vertices" in err
    assert "2-token graph of star:99999 has 4999950000 vertices" in err
    assert "k=1000002 out of range 1..1000001 for kmn:2,1000000" in err
    assert not out.exists()


def test_edge_list_headers_are_guarded_before_any_graph_is_built(
        monkeypatch, tmp_path, capsys):
    # aut --in, factor --in and build --graph file: refuse from the
    # header's vertex count; graph_from_edges would build every list.
    def built(*args, **kwargs):
        raise AssertionError("a graph was built before the guard refused")

    monkeypatch.setattr(cli_module, "graph_from_edges", built)
    big = tmp_path / "big.el"
    big.write_text("n 10000000\n0 1\n")
    out = tmp_path / "x.el"
    for argv in (["aut", "--in", str(big)], ["factor", "--in", str(big)],
                 ["build", "--graph", f"file:{big}", "--k", "1",
                  "--out", str(out)]):
        assert run(argv) == 3, argv
    err = capsys.readouterr().err
    assert err.count("big.el has 10000000 vertices") == 3
    assert not out.exists()


def test_token_count_refusal_prints_a_bounded_size(tmp_path, capsys):
    out = tmp_path / "q14.el"
    assert run(["build", "--graph", "cube:14", "--k", "8000",
                "--out", str(out)]) == 3
    assert "has at least 2^" in capsys.readouterr().err
    assert not out.exists()


# -- process-level behaviour ---------------------------------------------------


def test_version_flag(capsys):
    rc = run(["--version"])
    assert rc == 0
    from tokenaut import __version__
    assert __version__ in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def run_fresh(*argv):
    """``python -m tokenaut.cli`` in a new interpreter."""
    import tokenaut
    src = os.path.dirname(os.path.dirname(tokenaut.__file__))
    return subprocess.run([sys.executable, "-m", "tokenaut.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # Start-up is paid once per instance of a sweep: importing the CLI
    # in a bare interpreter loads neither dataclasses nor typing.
    import tokenaut
    src = os.path.dirname(os.path.dirname(tokenaut.__file__))
    probe = ("import sys; before = set(sys.modules); import tokenaut.cli; "
             "print(sorted({'dataclasses', 'typing'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_module_entry_point_runs_as_a_process():
    from tokenaut import __version__

    out = run_fresh("--version")
    assert out.returncode == 0 and __version__ in out.stdout
    out = run_fresh("verify", "bipartite", "--m", "2", "--n", "1000000",
                    "--k", "3")
    assert out.returncode == 3, out.stderr
    assert "REFUSED" in out.stdout


# -- one parser per process ----------------------------------------------


def test_repeated_verify_runs_report_only_their_own_instances(tmp_path,
                                                               capsys):
    # --factors appends to a list; a reused parser must start each run
    # from an empty one, so the second run's single instance gets an
    # unindexed report of its own.
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "product", "--factors", "k2+path:3",
                "--factors", "k2+k2", "--report", str(first)]) == 0
    assert run(["verify", "product", "--factors", "k2+k3",
                "--report", str(second)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(": computed=")[0] for line in out] == [
        "product(k2+path:3)", "product(k2+k2)", "product(k2+k3)"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.0.json", "a.1.json", "b.json"]
    instances = [json.loads((tmp_path / name).read_text())["instance"]
                 for name in ("a.0.json", "a.1.json", "b.json")]
    assert instances == ["product(K2 x P3)", "product(K2 x K2)",
                         "product(K2 x K3)"]


def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(capsys):
    # Usage errors from the parser itself (a missing value, an unknown
    # option) and from the command leave the reused parser as it was.
    argv = ["verify", "cube", "--r", "3"]
    fresh = run_fresh(*argv)
    for bad in (["verify", "cube", "--r"], ["verify", "cube", "--bogus", "1"],
                ["verify", "bipartite", "--m", "2"]):
        assert run(bad) == 2
        capsys.readouterr()
        assert run(argv) == fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    # main builds its parser on its first call and reuses it; build_parser
    # itself still returns a new parser each time.
    real = cli_module.build_parser
    built = []

    def counted():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli_module, "build_parser", counted)
    cli_module._main_parser.cache_clear()
    assert run(["verify", "cube", "--r", "3"]) == 0
    assert run(["verify", "cube", "--r"]) == 2
    assert run(["verify", "bipartite", "--m", "2", "--n", "3", "--k", "2"]) == 0
    assert len(built) == 1
    assert cli_module._main_parser() is built[0]
    assert real() is not real()


def test_no_tmp_files_left_behind(tmp_path):
    el = tmp_path / "g.el"
    run(["build", "--graph", "kmn:2,3", "--k", "2", "--out", str(el)])
    run(["verify", "bipartite", "--m", "2", "--n", "3", "--k", "2",
         "--report", str(tmp_path / "r.json")])
    # An output path that is a directory fails the final rename, and the
    # temporary file written beside it is removed too.
    out = tmp_path / "out"
    out.mkdir()
    assert run(["build", "--graph", "k4", "--k", "2", "--out", str(out)]) == 2
    assert run(["verify", "cube", "--r", "3", "--report", str(out)]) == 2
    leftovers = [p for p in os.listdir(tmp_path) if ".tmp" in p]
    assert leftovers == [] and os.listdir(out) == []
