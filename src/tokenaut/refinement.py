"""Equitable refinement of ordered partitions.

There is one refinement kernel, ``Partition.refine``, in pure Python.
``available_backends`` and ``default_backend`` name it, so that tools that
report which kernel ran keep working.

A ``Partition`` reads the neighbour table of its graph, ``Graph.nbrs``,
which is the form a graph is held in; the edge checks of the search and
of the certificates read the same table.

The kernel is neighbour-driven (McKay & Piperno, "Practical graph
isomorphism II", 2014): it counts neighbours by walking the splitter's
adjacency lists, so the work per splitter is proportional to the
splitter's degree sum plus the size of each cell that actually splits. A
cell that no splitter vertex touches, or whose vertices were all touched
equally often, has uniform counts and is skipped without being scanned.
A singleton splitter, the common case in the search, only needs to know
how many of its neighbours fall in each cell.

Counts go into plain dicts through ``collections._count_elements``, the
C loop that ``Counter.update`` calls, with a Python fallback defined in
``collections``. Most splitters are a cell of one or two vertices, so a
``Counter`` per splitter, with its Python-level ``__init__``, ``update``
and ``Mapping`` check, cost more than the counting itself.

Splitters are queued by Hopcroft's rule, as in nauty and Traces: of the
fragments of a split cell, every one but the first largest is queued,
unless the cell itself is still queued, in which case its queue entry
covers the first fragment and the others are queued beside it. Stability
against a cell and against all but one of its fragments implies stability
against the remaining fragment, so skipping it loses no split. That
argument needs the partition to be stable against every cell that is not
queued, which is the caller's side of the contract stated on
``Partition.refine``.

The search keeps one ``Partition`` for its whole run, the layout
of nauty and Traces. Cells are contiguous segments of one vertex array
and are named by their start position alone, which is also what the
trace records for a split cell. Refining and individualizing split cells
in place and push each split cell's old segment onto a trail; returning
from a search node undoes the trail back to the node's mark. So a node
costs its splitting work (the splitters' degree sums and the cells that
split, once to split and once to undo), not a pass over all n vertices.
Only choosing a target cell walks every cell, and the search does that
once per depth. Starting a partition costs one pass over the vertices;
the neighbour table is the graph's own, so it costs nothing more.

A search node off the reference path is kept only if its trace equals the
reference path's trace at its depth, so ``refine`` can be handed that
trace and compares as it goes, as Traces does: after each drained
splitter it checks the new events, and at the first difference it stops
and returns None, leaving its splits on the trail for the caller's undo.
A rejected node pays only for the shared prefix of its trace.
"""

from __future__ import annotations

# Counter.update's C counting loop; collections defines a Python fallback.
from collections import _count_elements, deque
from itertools import chain


def available_backends() -> tuple[str, ...]:
    return ("pure",)


def default_backend() -> str:
    return "pure"


class Partition:
    """An ordered partition refined in place and undone from a trail.

    ``order`` lists the vertices cell by cell. A cell is named by its start
    position in ``order``: ``size[s]`` is the length of the cell at ``s``
    (stale for positions that start no cell), so the cells are walked by
    ``s += size[s]`` from 0, and ``start_of[v]`` is the start of v's cell.
    ``cell_count`` is the number of cells. Each split pushes ``(start,
    old segment, fragment count)`` onto ``trail``; ``undo(mark)`` pops back
    to a length the caller recorded, restoring the vertex order within
    every cell and the cell count exactly. Cells must be non-empty.
    """

    __slots__ = ("n", "nbrs", "order", "start_of", "size", "cell_count",
                 "trail")

    def __init__(self, nbrs: tuple[tuple[int, ...], ...], cells):
        n = self.n = len(nbrs)
        self.nbrs = nbrs
        self.order: list[int] = []
        self.start_of = [0] * n
        self.size = [0] * n
        self.cell_count = 0
        self.trail: list[tuple[int, list[int], int]] = []
        for cell in cells:
            if not cell:
                raise ValueError("partition cells must be non-empty")
            s = len(self.order)
            self.size[s] = len(cell)
            for v in cell:
                self.start_of[v] = s
            self.order.extend(cell)
            self.cell_count += 1

    def cells(self) -> list[list[int]]:
        order, size = self.order, self.size
        out = []
        s = 0
        while s < self.n:
            out.append(order[s:s + size[s]])
            s += size[s]
        return out

    def cell(self, start: int) -> list[int]:
        return self.order[start:start + self.size[start]]

    def is_discrete(self) -> bool:
        return self.cell_count == self.n

    def target(self) -> int:
        """Start of the first smallest non-singleton cell (the partition
        must not be discrete). It walks every cell, which the search does
        once per depth, on the reference path."""
        n, size = self.n, self.size
        best, least = -1, n + 1
        s = 0
        while s < n:
            k = size[s]
            if 1 < k < least:
                best, least = s, k
            s += k
        return best

    def individualize(self, start: int, v: int,
                      expect: tuple | None = None) -> tuple | None:
        """Split v off the front of the non-singleton cell at start, keeping
        the others in their order, and refine against both halves, which
        meets ``refine``'s contract when the partition is equitable. The
        split of v is not part of the trace, and ``expect`` is passed on to
        ``refine``."""
        order, size = self.order, self.size
        seg = order[start:start + size[start]]
        self.trail.append((start, seg, 2))
        i = seg.index(v)
        order[start] = v
        order[start + 1:start + i + 1] = seg[:i]
        size[start + 1] = size[start] - 1
        size[start] = 1
        start_of = self.start_of
        for u in seg:
            start_of[u] = start + 1
        start_of[v] = start
        self.cell_count += 1
        return self.refine([start, start + 1], expect)

    def refine(self, active, expect: tuple | None = None) -> tuple | None:
        """Split cells by neighbour counts against a queue of splitter
        cells, seeded with the starts in ``active``, until the queue drains
        or the partition is discrete.

        The partition must already be equitable with respect to every cell
        not in ``active``; otherwise the result may not be equitable. The
        search meets this by individualizing in an equitable partition,
        and ``search.refine`` and the search's root start from every
        cell.

        Fragments of a split cell replace it in place, ordered by ascending
        count and keeping the cell's vertex order. The queue holds cell
        starts: a queued start names whatever cell begins there when it is
        popped, which is how a queued cell that splits keeps its first
        fragment queued.

        Returns the trace. It records each split event as (cell start,
        fragment count, then (count, size) per fragment), in ascending cell
        order within one splitter, and a -1 marker after each drained
        splitter. Given the input cell sizes the events determine the
        output cell sizes. Traces are equivariant: relabeling the graph and
        the input cells by a permutation yields the identical trace.

        Given ``expect``, a trace to match, it returns None as soon as the
        trace is known to differ from it: after each drained splitter its
        new events are compared with the same positions of ``expect``, and
        a trace that ends shorter or longer differs too. The splits made so
        far stay on the trail, so undoing to a mark taken before the call
        restores the partition exactly. Otherwise the trace equals
        ``expect`` and is returned.
        """
        n = self.n
        nbrs = self.nbrs
        neighbours = nbrs.__getitem__
        order, size, start_of = self.order, self.size, self.start_of
        trail = self.trail
        cell_of = start_of.__getitem__
        queue = deque(active)
        pending = set(queue)
        trace = []
        checked = 0
        cell_count = self.cell_count
        while queue and cell_count < n:
            s = queue.popleft()
            pending.discard(s)
            single = size[s] == 1
            if single:
                # Every neighbour is hit once, so a cell splits exactly
                # when it holds some but not all of them, into the
                # vertices outside the neighbourhood and those inside.
                nb = nbrs[order[s]]
                hits = {}
                _count_elements(hits, map(cell_of, nb))
                split = [t for t, k in hits.items() if k != size[t]]
                count = set(nb) if split else None
            else:
                splitter = order[s:s + size[s]]
                count, hits = {}, {}
                _count_elements(count,
                                chain.from_iterable(map(neighbours, splitter)))
                _count_elements(hits, zip(map(cell_of, count), count.values()))
                # A (cell, count) pair short of the whole cell means the
                # cell holds a second count, if only 0 for untouched
                # vertices, and splits.
                split = {t for (t, _), k in hits.items() if k != size[t]}
            for t in sorted(split):
                cell = order[t:t + size[t]]
                if single:
                    frags = [(0, [v for v in cell if v not in count]),
                             (1, [v for v in cell if v in count])]
                else:
                    groups: dict[int, list[int]] = {}
                    for v in cell:
                        groups.setdefault(count.get(v, 0), []).append(v)
                    frags = sorted(groups.items())
                trail.append((t, cell, len(frags)))
                cell_count += len(frags) - 1
                if t in pending:
                    skip = 0
                else:
                    sizes = [len(frag) for _, frag in frags]
                    skip = sizes.index(max(sizes))
                trace.append(t)
                trace.append(len(frags))
                u = t
                for i, (c, frag) in enumerate(frags):
                    k = len(frag)
                    trace.append(c)
                    trace.append(k)
                    order[u:u + k] = frag
                    size[u] = k
                    if u != t:
                        for v in frag:
                            start_of[v] = u
                    if i != skip:
                        queue.append(u)
                        pending.add(u)
                    u += k
            trace.append(-1)
            if expect is not None:
                end = len(trace)
                if expect[checked:end] != tuple(trace[checked:]):
                    self.cell_count = cell_count
                    return None
                checked = end
        self.cell_count = cell_count
        if expect is None:
            return tuple(trace)
        return expect if len(expect) == checked else None

    def undo(self, mark: int) -> None:
        """Undo every split recorded after the trail had length mark."""
        order, size, start_of = self.order, self.size, self.start_of
        trail = self.trail
        while len(trail) > mark:
            t, seg, frags = trail.pop()
            k = len(seg)
            # The first fragment already maps to t, and its size is back
            # at size[t], since the later splits inside it are undone.
            for v in order[t + size[t]:t + k]:
                start_of[v] = t
            order[t:t + k] = seg
            size[t] = k
            self.cell_count -= frags - 1
