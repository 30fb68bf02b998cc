"""One sweep of one workload in a fresh interpreter.

run.py starts this script once per sample and reads the JSON it writes to
--result.  The script times the set-up (importing tokenaut, selecting the
backend, building the inputs), then each program call of the sweep, then
checks every answer.  It runs the reference computation (reference.py)
before the set-up, after it, and after every call, and records those times
too.  With --trace it wraps tokenaut's public functions after the set-up,
runs the calls back to back without the reference between them, and
writes the spans to --spans.  With --setup-only it stops after the set-up.
With --probe it only records the environment.

tokenaut must be importable from --src; an installed copy elsewhere is an
error, so that the benchmark always measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import reference
import tracer
import workloads


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def _check_source(src: str) -> None:
    import tokenaut

    where = os.path.realpath(tokenaut.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"tokenaut was imported from {where}, not from {src}")


def probe(src: str) -> dict:
    import platform

    import tokenaut
    from tokenaut.refinement import available_backends, default_backend

    _check_source(src)
    return {
        "python": platform.python_version(),
        "tokenaut_version": tokenaut.__version__,
        "available_backends": list(available_backends()),
        "default_backend": default_backend(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    if args.probe:
        out = probe(args.src)
    else:
        out = sweep(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def sweep(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    before = reference.timed()
    started = time.perf_counter()
    state = workload.prepare(args.seed, args.workdir, args.sample)
    setup_s = time.perf_counter() - started
    refs = [reference.timed()]
    _check_source(args.src)
    out = {"setup_s": setup_s, "setup_ref_s": [before, refs[0]]}
    if args.setup_only:
        return out

    calls = workload.calls(state)
    tr = tracer.Tracer() if args.trace else None
    if tr is not None:
        tr.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for call in calls:
            call()
        t1 = time.perf_counter()
        cpu1 = _cpu_s()
        tr.uninstall()
        walls, cpus = [t1 - t0], [cpu1 - cpu0]
    else:
        walls, cpus = [], []
        for call in calls:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            call()
            walls.append(time.perf_counter() - t0)
            cpus.append(_cpu_s() - cpu0)
            refs.append(reference.timed())
        out["calls"] = {"wall_s": walls, "cpu_s": cpus, "ref_s": refs}

    instances = workload.check(state)
    out.update({
        "sweep_s": sum(walls),
        "cpu_s": sum(cpus),
        "peak_rss_mb": _peak_rss_mb(),
        "instances": [{"label": i.label, "problems": i.problems} for i in instances],
        "guards": workload.guards(state),
    })
    if tr is not None:
        table, uncovered = tracer.layer_table(tr.records, (t0, t1))
        out.update({"layers": table, "counters": dict(tr.counters),
                    "unattributed_s": uncovered, "spans": len(tr.records)})
        if args.spans:
            tr.dump(args.spans, t0)
    return out


if __name__ == "__main__":
    sys.exit(main())
