"""Pure-Python equitable refinement kernel.

Mirrors tokenaut._refinecore exactly: for identical inputs both backends
must return identical cells and identical traces. Any change to these
semantics must be made in the compiled kernel as well; the test suite
compares both with a scan-every-cell reference.

The compiled kernel scans every cell against a bitmask splitter. This one
is neighbour-driven (McKay & Piperno, "Practical graph isomorphism II",
2014): it counts neighbours by walking the splitter's adjacency lists, so
the work per splitter is proportional to the splitter's degree sum plus
the size of each cell that actually splits. A cell that no splitter vertex
touches, or whose vertices were all touched equally often, has uniform
counts and is skipped without being scanned. That suits the search, whose
splitters are mostly small; a splitter holding most of the graph, as in
the first rounds from the unit partition, costs more than a scan would.
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
    of splitter cells (seeded from ``active``) until stable. Fragments of a
    split cell replace it in place, ordered by ascending count and keeping
    the cell's vertex order, and every fragment is queued as a future
    splitter; splitting against a stale splitter snapshot is harmless
    because count uniformity against each fragment implies uniformity
    against their union. Cells must be non-empty.

    Returns (cells, trace). The trace records each split event as
    (cell index, fragment count, then (count, size) per fragment), in
    ascending cell order within one splitter, a -1 marker after each
    drained splitter, then -2 and the final cell sizes. Traces are
    equivariant: relabeling the graph and the input cells by a permutation
    yields the identical trace.
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
        neighbours = self.nbrs.__getitem__
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
        # Fragments are never mutated after they are made, so the queue can
        # hold the vertex lists themselves as splitter snapshots.
        queue = deque(cells[i] for i in active)
        trace = []
        while queue:
            if len(starts) == n:
                break
            count = Counter(chain.from_iterable(map(neighbours, queue.popleft())))
            hits = Counter(zip(map(start_of.__getitem__, count), count.values()))
            # A (cell, count) pair short of the whole cell means the cell
            # holds a second count, if only 0 for untouched vertices, and
            # splits; a cell touched uniformly or not at all never gets here.
            split = {s for (s, _), k in hits.items() if k != len(cell_at[s])}
            for s in sorted(split):
                groups: dict[int, list[int]] = {}
                for v in cell_at[s]:
                    groups.setdefault(count.get(v, 0), []).append(v)
                keys = sorted(groups)
                j = bisect_left(starts, s)
                trace.append(j)
                trace.append(len(keys))
                new_starts = []
                t = s
                for c in keys:
                    frag = groups[c]
                    trace.append(c)
                    trace.append(len(frag))
                    cell_at[t] = frag
                    if t != s:
                        new_starts.append(t)
                        for v in frag:
                            start_of[v] = t
                    queue.append(frag)
                    t += len(frag)
                starts[j + 1:j + 1] = new_starts
            trace.append(-1)
        trace.append(-2)
        cells = [cell_at[s] for s in starts]
        trace.extend(map(len, cells))
        return cells, tuple(trace)
