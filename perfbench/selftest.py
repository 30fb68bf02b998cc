"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

They check the self-time arithmetic on toy span trees, the scaling of
measured times to reference speed, that a wrong expected answer or a refusal counts as a failed instance, that the exact
counters repeat between two traced sweeps on one seed, that tracing
rebinds and then restores tokenaut's functions, and that run.py refuses a
directory without the tokenaut sources.  The file is not named test_*.py,
so the program's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def temp_dir() -> str:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    return tempfile.mkdtemp(dir=out)


class SelfTimeTest(unittest.TestCase):
    def assertTimes(self, got: dict, want: dict):
        self.assertEqual(set(got), set(want))
        for sid, value in want.items():
            self.assertAlmostEqual(got[sid], value, places=12)

    def test_nested_tree(self):
        records = [(0, "root", 0.0, 10.0, tracer.NO_PARENT),
                   (1, "a", 1.0, 4.0, 0), (2, "aa", 2.0, 3.0, 1),
                   (3, "b", 5.0, 9.0, 0)]
        own, uncovered = tracer.self_times(records, (0.0, 12.0))
        self.assertTimes(own, {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
        self.assertAlmostEqual(uncovered, 2.0)

    def test_overlapping_workers_share_time(self):
        # Two worker spans fanned out from root overlap on [2, 7].
        records = [(0, "root", 0.0, 10.0, tracer.NO_PARENT),
                   (1, "w", 1.0, 7.0, 0), (2, "w", 2.0, 8.0, 0)]
        own, uncovered = tracer.self_times(records, (0.0, 10.0))
        self.assertTimes(own, {0: 3.0, 1: 3.5, 2: 3.5})
        self.assertEqual(uncovered, 0.0)
        table, _ = tracer.layer_table(records, (0.0, 10.0))
        self.assertEqual(table["w"]["calls"], 2)
        self.assertAlmostEqual(table["w"]["self_s"], 7.0)

    def test_zero_length_and_back_to_back_spans(self):
        records = [(0, "root", 0.0, 4.0, tracer.NO_PARENT), (1, "z", 2.0, 2.0, 0),
                   (2, "a", 1.0, 2.0, 0), (3, "b", 2.0, 3.0, 0)]
        own, uncovered = tracer.self_times(records, (0.0, 4.0))
        self.assertTimes(own, {0: 2.0, 2: 1.0, 3: 1.0})
        self.assertEqual(uncovered, 0.0)


class TracerTest(unittest.TestCase):
    def test_install_rebinds_imported_names_and_restores(self):
        import tokenaut
        from tokenaut import perms, search, verify

        original = perms.schreier_sims
        tr = tracer.Tracer()
        tr.install()
        try:
            for mod in (tokenaut, perms, search, verify):
                self.assertIsNot(mod.schreier_sims, original)
            report = verify.verify_cube(3)
        finally:
            tr.uninstall()
        for mod in (tokenaut, perms, search, verify):
            self.assertIs(mod.schreier_sims, original)
        self.assertTrue(report.equality)
        names = {r[1] for r in tr.records}
        self.assertIn("perms.schreier_sims", names)
        self.assertIn("graphs.distance_matrix", names)
        self.assertIn("refinement.refine.pure", names)
        self.assertGreater(tr.counters["search.nodes"], 0)

    def test_worker_spans_take_the_fan_out_span_as_parent(self):
        tr = tracer.Tracer()
        tr.install()
        tr.uninstall()
        inner = tr.span("inner", lambda: None)

        def fan_out():
            with ThreadPoolExecutor(max_workers=2) as pool:
                for future in [pool.submit(inner) for _ in range(4)]:
                    future.result()

        tr.span("outer", fan_out)()
        outer = [r for r in tr.records if r[1] == "outer"]
        self.assertEqual(len(outer), 1)
        parents = {r[4] for r in tr.records if r[1] == "inner"}
        self.assertEqual(parents, {outer[0][0]})

    def test_counters_repeat_in_process(self):
        from tokenaut import cli

        runs = []
        for _ in range(2):
            tr = tracer.Tracer()
            tr.install()
            try:
                with open(os.devnull, "w") as sink:
                    saved, sys.stdout = sys.stdout, sink
                    try:
                        code = cli.main(["verify", "bipartite", "--m", "2",
                                         "--n", "3,4", "--k", "2,3", "--jobs", "2"])
                    finally:
                        sys.stdout = saved
            finally:
                tr.uninstall()
            self.assertEqual(code, 0)
            calls = {}
            for r in tr.records:
                calls[r[1]] = calls.get(r[1], 0) + 1
            runs.append((calls, dict(tr.counters)))
        self.assertEqual(runs[0], runs[1])
        self.assertGreater(runs[0][1]["perms.chain.base_len"], 0)
        self.assertGreater(runs[0][1]["perms.chain.gens_in"], 0)


class ScaleTest(unittest.TestCase):
    def test_each_call_is_scaled_by_the_references_around_it(self):
        r = reference.REFERENCE_S
        sample = {"calls": {"wall_s": [1.5, 2.0], "cpu_s": [1.0, 4.0],
                            "ref_s": [r, 2 * r, 3 * r]},
                  "setup_s": 0.3, "setup_ref_s": [r, 2 * r]}
        self.assertAlmostEqual(run.scaled_sweep(sample, "wall_s"), 1.5 / 1.5 + 2.0 / 2.5)
        self.assertAlmostEqual(run.scaled_sweep(sample, "cpu_s"), 1.0 / 1.5 + 4.0 / 2.5)
        self.assertAlmostEqual(run.scaled_setup(sample), 0.2)

    def test_reference_is_deterministic(self):
        self.assertEqual(reference.work(), reference.work())


class CheckTest(unittest.TestCase):
    def run_toy(self, argv, expected):
        inst = workloads.Instance("bipartite(m=2,n=3,k=2)", expected)
        cmd = workloads.Command(argv, [inst])
        toy = workloads.VerifyWorkload("toy", "", lambda: [cmd])
        tmp = temp_dir()
        try:
            commands = toy.prepare(0, tmp)
            toy.run(commands)
            return toy.check(commands)
        finally:
            shutil.rmtree(tmp)

    def test_right_order_passes_and_wrong_order_fails(self):
        argv = ["verify", "bipartite", "--m", "2", "--n", "3", "--k", "2"]
        right = workloads.bipartite_order(2, 3, 2)
        self.assertEqual(right, 48)
        [ok] = self.run_toy(argv, right)
        self.assertEqual(ok.problems, [])
        [bad] = self.run_toy(argv, right + 1)
        self.assertTrue(any("computed_order" in p for p in bad.problems))

    def test_refusal_counts_as_failure(self):
        argv = ["verify", "bipartite", "--m", "2", "--n", "3", "--k", "2",
                "--max-vertices", "5"]
        [refused] = self.run_toy(argv, workloads.bipartite_order(2, 3, 2))
        self.assertTrue(any("exit code 3" in p for p in refused.problems))

    def test_mapping_is_rechecked_edge_by_edge(self):
        path = [(0, 1), (1, 2), (2, 3)]
        self.assertTrue(workloads.is_isomorphism(path, path, 4, [3, 2, 1, 0]))
        self.assertFalse(workloads.is_isomorphism(path, path, 4, [1, 0, 2, 3]))
        self.assertFalse(workloads.is_isomorphism(path, path, 4, None))


class SweepTest(unittest.TestCase):
    def traced_sweep(self, workload: str, seed: int) -> dict:
        tmp = temp_dir()
        try:
            result = os.path.join(tmp, "result.json")
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
            subprocess.run(
                [sys.executable, os.path.join(HERE, "sweep.py"), "--src", SRC,
                 "--result", result, "--workload", workload, "--seed", str(seed),
                 "--workdir", tmp, "--trace"], env=env, check=True, timeout=300)
            with open(result, encoding="utf-8") as fh:
                return json.load(fh)
        finally:
            shutil.rmtree(tmp)

    def test_exact_counters_repeat_between_fresh_processes(self):
        first, second = (self.traced_sweep("product-seed", 7) for _ in range(2))
        for run in (first, second):
            self.assertEqual([i["problems"] for i in run["instances"]],
                             [[]] * len(run["instances"]))
        self.assertEqual({n: r["calls"] for n, r in first["layers"].items()},
                         {n: r["calls"] for n, r in second["layers"].items()})
        self.assertEqual(first["counters"], second["counters"])
        accounted = (sum(r["self_s"] for r in first["layers"].values())
                     + first["unattributed_s"])
        self.assertAlmostEqual(accounted, first["sweep_s"], places=6)


class MissingSourcesTest(unittest.TestCase):
    def test_run_fails_without_tokenaut_sources(self):
        tmp = temp_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "iso-factor",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
