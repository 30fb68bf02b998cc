"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same Python work can take 40% longer from one second
to the next, because other tenants compete for the cores.  The sweep runs
this computation before set-up and after every program call, and run.py
scales each measured time by REFERENCE_S over the mean of the two
reference times that bracket it.  The scaled time is the time the same
work would take on a host where the reference takes REFERENCE_S, so it
moves with the program's work and hardly with the host's load.

The computation is pure Python of the kind the program spends its time
in: breadth-first search over adjacency lists, permutation composition
by list indexing, and grouping into a dict of lists.  It is part of the
benchmark, so no change to tokenaut can change it.
"""

from __future__ import annotations

import time

# The reference computation's time on an idle core of the 2-vCPU VM the
# baseline was measured on (Python 3.11.7), rounded.
REFERENCE_S = 0.04

_N = 512
_ADJ = [[v ^ (1 << i) for i in range(9)] for v in range(_N)]
_SIGMA = [(7 * i + 3) % _N for i in range(_N)]


def work() -> int:
    """BFS from every other vertex of the 9-cube, 150 compositions, one grouping."""
    total = 0
    for s in range(0, _N, 2):
        dist = [-1] * _N
        dist[s] = 0
        queue = [s]
        for u in queue:
            d = dist[u] + 1
            for w in _ADJ[u]:
                if dist[w] < 0:
                    dist[w] = d
                    queue.append(w)
        total += sum(dist)
    p = list(range(_N))
    for _ in range(150):
        p = [p[i] for i in _SIGMA]
    cells: dict[tuple[int, int], list[int]] = {}
    for v in range(_N):
        cells.setdefault((bin(v).count("1"), v % 7), []).append(v)
    return total + sum(len(c) for c in sorted(cells.values())) + p[1]


def timed() -> float:
    """Wall time of one run of work()."""
    t = time.perf_counter()
    work()
    return time.perf_counter() - t


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds, measured between reference times before and after, at reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
