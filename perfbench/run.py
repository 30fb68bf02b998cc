#!/usr/bin/env python3
"""Sweep benchmark for tokenaut.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the tokenaut under
``src/`` next to this directory.  Each sample is one fresh interpreter
(perfbench/sweep.py) that sets up, runs the workload's whole sweep as a
single closed-loop client, and checks every answer against its known exact
value.  Sweeps repeat while the next one is expected to end within
--seconds (at least one), and set-up is sampled at least SETUP_SAMPLES
times in fresh interpreters; every metric is the median of its samples.
With --trace 0 sample i draws its inputs from the seed and i (only
iso-factor's relabelings depend on them); with --trace 1 every sample uses
the inputs of sample 0.

With --trace 0 the last line of output carries the end-to-end metrics:
sweep_s (wall time of the sweep's program calls), cpu_s (user+sys CPU of
the sweep process and its children during those calls), setup_s (import,
backend selection and input building) and peak_rss_mb.  The three times
are at reference speed: each call and each set-up is scaled by the
reference computation timed right before and after it (see reference.py),
which takes out most of a shared host's changing load.  The unscaled
medians are printed as ``unscaled`` lines and kept in the output file.
The instances attempted and failed are the ``attempted`` and ``failed``
fields; a failure makes the run exit 1.

With --trace 1 untraced and traced sweeps alternate.  The traced ones wrap
tokenaut's public functions (see tracer.py), and the last line carries
calls and self time per layer, exact counters, and trace.overhead_s, the
traced minus the untraced median sweep time, both unscaled.  The full
table, the environment and every sample go to .perfbench_out/, and the
spans of the last traced sweep to .perfbench_out/spans-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

END_TO_END = {"sweep_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Layer rows reported with --trace 1; the output file holds every row.
LAYER_CALLS = (
    "perms.schreier_sims", "perms.is_subgroup", "graphs.distance_matrix",
    "refinement.refine.pure", "search.automorphism_group",
    "search.is_isomorphic", "search.is_automorphism", "tokens.token_graph",
)
LAYER_SELF = LAYER_CALLS + (
    "constructions.bipartite_generators",
    "constructions.product_subgroup_generators",
    "factorization.is_prime", "factorization.prime_factor_decomposition",
    "verify.verify_bipartite", "verify.verify_cube", "verify.verify_product",
    "cli.main",
)
COUNTERS = ("search.nodes", "perms.chain.base_len", "perms.chain.gens_in")


class ChildFailed(Exception):
    pass


def child(args: list[str], result: str, seed: int = 0) -> dict:
    """Run sweep.py in a fresh interpreter and return what it wrote.

    The hash seed follows the workload seed, so that a seed fixes the
    order of every set and dict the program iterates.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed % 2**32))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sweep.py"), "--src", SRC,
         "--result", result] + args,
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"sweep.py {' '.join(args)} exited "
                          f"{proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def build() -> None:
    """Build the optional compiled kernel in place, once per checkout."""
    marker = os.path.join(OUT, "built")
    if os.path.exists(marker) or not os.path.exists(os.path.join(ROOT, "setup.py")):
        return
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise ChildFailed(f"build failed:\n{proc.stderr.strip()[-2000:]}")
    open(marker, "w").close()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def collect(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    """All samples of one run: sweeps (traced and untraced) and set-ups."""
    base = ["--workload", workload, "--seed", str(seed)]
    samples = {"untraced": [], "traced": [], "setup_s": []}
    kinds = ["untraced", "traced"] if trace else ["untraced"]
    durations = []
    started = time.perf_counter()
    n = 0
    while True:
        for kind in kinds:
            workdir = os.path.join(tmp, f"w{n}")
            os.makedirs(workdir)
            # Traced runs keep sample 0, so that their exact counters repeat.
            extra = ["--workdir", workdir, "--sample", str(0 if trace else n)]
            if kind == "traced":
                extra += ["--trace", "--spans",
                          os.path.join(OUT, f"spans-{workload}-seed{seed}.json")]
            t = time.perf_counter()
            sample = child(base + extra, os.path.join(tmp, f"r{n}.json"), seed)
            durations.append(time.perf_counter() - t)
            samples[kind].append(sample)
            samples["setup_s"].append(scaled_setup(sample))
            n += 1
        round_s = statistics.median(durations) * len(kinds)
        if time.perf_counter() - started + round_s > seconds:
            break
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        workdir = os.path.join(tmp, f"w{n}")
        os.makedirs(workdir)
        sample = child(base + ["--workdir", workdir, "--setup-only"],
                       os.path.join(tmp, f"r{n}.json"), seed)
        samples["setup_s"].append(scaled_setup(sample))
        n += 1
    return samples


def scaled_setup(sample: dict) -> float:
    return reference.scaled(sample["setup_s"], *sample["setup_ref_s"])


def scaled_sweep(sample: dict, key: str) -> float:
    """Sum over the calls of key ("wall_s" or "cpu_s") at reference speed."""
    calls = sample["calls"]
    refs = calls["ref_s"]
    return sum(reference.scaled(t, refs[i], refs[i + 1])
               for i, t in enumerate(calls[key]))


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def end_to_end(samples: dict) -> dict:
    rows = samples["untraced"]
    return {
        "sweep_s": statistics.median(scaled_sweep(r, "wall_s") for r in rows),
        "cpu_s": statistics.median(scaled_sweep(r, "cpu_s") for r in rows),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": median_of(rows, "peak_rss_mb"),
    }


def unscaled(samples: dict) -> dict:
    rows = samples["untraced"]
    return {"sweep_s": median_of(rows, "sweep_s"), "cpu_s": median_of(rows, "cpu_s"),
            "setup_s": median_of(rows, "setup_s"),
            "reference_s": statistics.median(t for r in rows for t in r["calls"]["ref_s"])}


def layers(samples: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, the full layer table, and any counter mismatch."""
    traced = samples["traced"]
    names = sorted({name for s in traced for name in s["layers"]})
    table = {}
    for name in names:
        rows = [s["layers"].get(name, {"calls": 0, "self_s": 0.0}) for s in traced]
        table[name] = {"calls": rows[0]["calls"],
                       "self_s": statistics.median(r["self_s"] for r in rows)}
    problems = []
    exact = [({n: r["calls"] for n, r in s["layers"].items()}, s["counters"])
             for s in traced]
    if any(e != exact[0] for e in exact):
        problems.append("exact counters differ between traced sweeps of one run")

    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (table.get(name, {}).get("calls", 0), "count")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = (table.get(name, {}).get("self_s", 0.0), "s")
    for name in COUNTERS:
        metrics[name] = (traced[0]["counters"].get(name, 0), "count")
    traced_sweep = median_of(traced, "sweep_s")
    metrics["trace.sweep_s"] = (traced_sweep, "s")
    metrics["trace.overhead_s"] = (traced_sweep - median_of(samples["untraced"], "sweep_s"), "s")
    metrics["trace.unattributed_s"] = (median_of(traced, "unattributed_s"), "s")
    metrics["trace.spans"] = (traced[0]["spans"], "count")
    return metrics, table, problems


def module_totals(table: dict) -> dict:
    totals: dict[str, float] = {}
    for name, row in table.items():
        module = name.split(".")[0]
        totals[module] = totals.get(module, 0.0) + row["self_s"]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "tokenaut", "__init__.py")):
        print(f"error: no tokenaut sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        build()
        env = child(["--probe"], os.path.join(tmp, "probe.json"))
        samples = collect(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env.update({"seed": args.seed, "nproc": os.cpu_count(), "git_commit": git_commit(),
                "seconds": args.seconds, "trace": args.trace})
    sweeps = samples["untraced"] + samples["traced"]
    env["guards"] = sweeps[0]["guards"]
    failures = [f"{i['label']}: {'; '.join(i['problems'])}"
                for s in sweeps for i in s["instances"] if i["problems"]]
    attempted = sum(len(s["instances"]) for s in sweeps)
    failed = sum(1 for s in sweeps for i in s["instances"] if i["problems"])

    raw = unscaled(samples)
    record = {"workload": args.workload,
              "why": workloads.WORKLOADS[args.workload].why,
              "environment": env, "reference_s": reference.REFERENCE_S, "unscaled": raw,
              "instances_attempted": attempted, "instances_failed": failed,
              "failures": failures, "samples": samples}
    if args.trace:
        metrics, table, problems = layers(samples)
        failures += problems
        modules = module_totals(table)
        record.update({"layers": table, "modules": modules,
                       "dominant_layer": max(table, key=lambda n: table[n]["self_s"]),
                       "dominant_module": next(iter(modules))})
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(samples).items()}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}: {len(samples['untraced'])} untraced and "
          f"{len(samples['traced'])} traced sweeps, {len(samples['setup_s'])} set-ups")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        swept = metrics["trace.sweep_s"][0]
        print(f"dominant layer {record['dominant_layer']}, module "
              f"{record['dominant_module']}; traced sweep {swept:.3f} s = "
              f"{sum(modules.values()):.3f} s of layer self time + "
              f"{metrics['trace.unattributed_s'][0]:.3f} s outside any layer; "
              f"untraced sweep {swept - metrics['trace.overhead_s'][0]:.3f} s")
        for module, total in modules.items():
            print(f"  {module:<14} {total:9.3f} s  {100 * total / swept:5.1f}%")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    for key, value in raw.items():
        print(f"unscaled {key} {value:.6g} s")
    print(f"instances_attempted {attempted} count")
    print(f"instances_failed {failed} count")
    correct = not failures
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
