"""Pure-Python equitable refinement kernel.

The kernel is neighbour-driven (McKay & Piperno, "Practical graph
isomorphism II", 2014): it counts neighbours by walking the splitter's
adjacency lists, so the work per splitter is proportional to the
splitter's degree sum plus the size of each cell that actually splits. A
cell that no splitter vertex touches, or whose vertices were all touched
equally often, has uniform counts and is skipped without being scanned.
A singleton splitter, the common case in the search, only needs to know
how many of its neighbours fall in each cell.

Splitters are queued by Hopcroft's rule, as in nauty and Traces: of the
fragments of a split cell, every one but the first largest is queued,
unless the cell itself is still queued, in which case its queue entry
covers the first fragment and the others are queued beside it. Stability
against a cell and against all but one of its fragments implies stability
against the remaining fragment, so skipping it loses no split. That
argument needs the partition to be stable against every cell that is not
queued, which is the caller's side of the contract stated on ``refine``.
Building the kernel costs one pass over every adjacency row.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from itertools import chain
from typing import Sequence


class RefineKernel:
    """Coarsest equitable refinement over per-vertex neighbour tuples.

    refine(cells, active) splits cells by neighbour counts against a queue
    of splitter cells, seeded from ``active``, until the queue drains. The
    input partition must already be equitable with respect to every cell
    not in ``active``; otherwise the result may not be equitable. The
    search meets this by activating both halves of the cell it
    individualizes in an equitable partition, and ``refine()`` activates
    every cell. Cells must be non-empty.

    Fragments of a split cell replace it in place, ordered by ascending
    count and keeping the cell's vertex order. The queue holds cell start
    positions: a queued start names whatever cell begins there when it is
    popped, which is how a queued cell that splits keeps its first
    fragment queued.

    Returns (cells, trace). The trace records each split event as
    (cell index, fragment count, then (count, size) per fragment), in
    ascending cell order within one splitter, and a -1 marker after each
    drained splitter. Given the input cell sizes the events determine the
    output cell sizes. Traces are equivariant: relabeling the graph and
    the input cells by a permutation yields the identical trace.
    """

    backend = "pure"

    def __init__(self, n: int, adj: Sequence[int]):
        self.n = n
        nbrs = []
        for row in adj:
            out = []
            while row:
                low = row & -row
                out.append(low.bit_length() - 1)
                row ^= low
            nbrs.append(tuple(out))
        self.nbrs = tuple(nbrs)

    def refine(self, cells, active):
        n = self.n
        nbrs = self.nbrs
        neighbours = nbrs.__getitem__
        cells = [list(c) for c in cells]
        # Cells are addressed by their start position in the concatenated
        # partition: ``starts`` is sorted, so a cell's index is its rank.
        starts = []
        cell_at = {}
        start_of = [0] * n
        pos = 0
        for cell in cells:
            if not cell:
                raise ValueError("partition cells must be non-empty")
            starts.append(pos)
            cell_at[pos] = cell
            for v in cell:
                start_of[v] = pos
            pos += len(cell)
        cell_of = start_of.__getitem__
        queue = deque(starts[i] for i in active)
        pending = set(queue)
        trace = []
        while queue and len(starts) < n:
            s = queue.popleft()
            pending.discard(s)
            splitter = cell_at[s]
            if len(splitter) == 1:
                # Every neighbour is hit once, so a cell splits exactly
                # when it holds some but not all of them.
                count = dict.fromkeys(nbrs[splitter[0]], 1)
                hits = Counter(map(cell_of, count))
                split = [t for t, k in hits.items() if k != len(cell_at[t])]
            else:
                count = Counter(chain.from_iterable(map(neighbours, splitter)))
                hits = Counter(zip(map(cell_of, count), count.values()))
                # A (cell, count) pair short of the whole cell means the
                # cell holds a second count, if only 0 for untouched
                # vertices, and splits.
                split = {t for (t, _), k in hits.items() if k != len(cell_at[t])}
            for t in sorted(split):
                groups: dict[int, list[int]] = {}
                for v in cell_at[t]:
                    groups.setdefault(count.get(v, 0), []).append(v)
                keys = sorted(groups)
                if t in pending:
                    skip = 0
                else:
                    sizes = [len(groups[c]) for c in keys]
                    skip = sizes.index(max(sizes))
                j = bisect_left(starts, t)
                trace.append(j)
                trace.append(len(keys))
                new_starts = []
                u = t
                for i, c in enumerate(keys):
                    frag = groups[c]
                    trace.append(c)
                    trace.append(len(frag))
                    cell_at[u] = frag
                    if u != t:
                        new_starts.append(u)
                        for v in frag:
                            start_of[v] = u
                    if i != skip:
                        queue.append(u)
                        pending.add(u)
                    u += len(frag)
                starts[j + 1:j + 1] = new_starts
            trace.append(-1)
        return [cell_at[s] for s in starts], tuple(trace)
