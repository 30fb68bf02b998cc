"""Equitable refinement: references for the kernel, and known partitions."""

import random
from collections import deque
from itertools import accumulate

import pytest

from tokenaut import (
    Permutation,
    complete_bipartite,
    cycle_graph,
    hypercube,
    path_graph,
    refine,
    star_graph,
    token_graph,
    unrank,
)
from tokenaut.refinement import Partition, available_backends, default_backend

from bitmask_rows import graph_from_rows, rows_of


def corpus():
    return [
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("P6", path_graph(6)),
        ("K23", complete_bipartite(2, 3)),
        ("K34", complete_bipartite(3, 4)),
        ("star5", star_graph(5)),
        ("Q3", hypercube(3)),
        ("F2K23", token_graph(complete_bipartite(2, 3), 2).graph),
        ("F2Q3", token_graph(hypercube(3), 2).graph),
    ]


def neighbour_count(g, v, cell):
    return sum(1 for u in cell if g.has_edge(v, u))


def assert_equitable(g, cells):
    flat = sorted(v for c in cells for v in c)
    assert flat == list(range(g.n))
    for target in cells:
        for cell in cells:
            counts = {neighbour_count(g, v, target) for v in cell}
            assert len(counts) == 1


def one_shot_refine(g, cells, active):
    """Refine a new partition of g from the cells, with the cells at the
    ``active`` indices as the first splitters; returns (cells, trace)."""
    part = Partition(g.nbrs, cells)
    starts = list(accumulate(map(len, cells), initial=0))
    trace = part.refine([starts[i] for i in active])
    return part.cells(), trace


# -- the kernel entry point ----------------------------------------------


def test_compiled_request_fails_loudly_when_missing():
    # There is no compiled kernel: only the pure one is advertised, and a
    # caller that still asks for a kernel factory gets an error rather than
    # a silent fallback.
    assert available_backends() == ("pure",)
    assert default_backend() == "pure"
    with pytest.raises(ImportError):
        from tokenaut.refinement import make_kernel  # noqa: F401


# -- the kernel against references ----------------------------------------


def scan_every_cell_refine(n, adj, cells, active):
    """Set-partition oracle: every splitter is a bitmask, every cell is
    scanned against it, and every fragment of a split cell is queued. With
    the kernel's precondition met it reaches the same coarsest equitable
    partition as the kernel, though not in the same cell order."""
    cells = [list(c) for c in cells]
    queue = deque()
    for i in active:
        m = 0
        for v in cells[i]:
            m |= 1 << v
        queue.append(m)
    while queue:
        if len(cells) == n:
            break
        splitter = queue.popleft()
        j = 0
        while j < len(cells):
            cell = cells[j]
            if len(cell) > 1:
                counts = {}
                for v in cell:
                    c = (adj[v] & splitter).bit_count()
                    counts.setdefault(c, []).append(v)
                if len(counts) > 1:
                    frags = [counts[c] for c in sorted(counts)]
                    cells[j:j + 1] = frags
                    for f in frags:
                        m = 0
                        for v in f:
                            m |= 1 << v
                        queue.append(m)
                    j += len(frags) - 1
            j += 1
    return cells


def hopcroft_scan_refine(n, adj, cells, active):
    """Exact reference: the kernel's queue rule, with each splitter taken
    as a bitmask of the cell starting at the popped position and every cell
    scanned against it. The kernel must return exactly its cells and
    trace."""
    cells = [list(c) for c in cells]
    offsets = [0]
    for cell in cells:
        offsets.append(offsets[-1] + len(cell))
    queue = deque(offsets[i] for i in active)
    pending = set(queue)
    trace = []
    while queue and len(cells) < n:
        s = queue.popleft()
        pending.discard(s)
        at = 0
        for cell in cells:
            if at == s:
                break
            at += len(cell)
        splitter = 0
        for v in cell:
            splitter |= 1 << v
        j = at = 0
        while j < len(cells):
            cell = cells[j]
            counts = {}
            for v in cell:
                counts.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            if len(counts) == 1:
                j += 1
                at += len(cell)
                continue
            keys = sorted(counts)
            frags = [counts[c] for c in keys]
            cells[j:j + 1] = frags
            trace += [at, len(frags)]
            for c in keys:
                trace += [c, len(counts[c])]
            sizes = [len(f) for f in frags]
            skip = 0 if at in pending else sizes.index(max(sizes))
            for i, size in enumerate(sizes):
                if i != skip:
                    queue.append(at)
                    pending.add(at)
                at += size
            j += len(frags)
        trace.append(-1)
    return cells, tuple(trace)


def as_set_partition(cells):
    return sorted(sorted(c) for c in cells)


def assert_kernel_matches_reference(g, cells, active, label):
    want = hopcroft_scan_refine(g.n, rows_of(g), cells, active)
    got = one_shot_refine(g, cells, active)
    assert [list(c) for c in got[0]] == want[0], label
    assert got[1] == want[1], label
    return got[0]


def random_graph(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return graph_from_rows(adj)


def random_ordered_partition(rng, n):
    """Cells in random order, each with its vertices in random order."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 6))))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def test_kernels_match_reference_on_random_inputs():
    # Random active subsets break the kernel's precondition, so the result
    # need not be equitable; it must still be the reference's, exactly.
    rng = random.Random(4)
    for trial in range(300):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
        cells = random_ordered_partition(rng, n)
        active = rng.sample(range(len(cells)), rng.randint(0, len(cells)))
        assert_kernel_matches_reference(g, cells, active, f"trial {trial}")


def test_kernel_reaches_the_oracle_partition_from_all_cells():
    rng = random.Random(5)
    for trial in range(200):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
        cells = random_ordered_partition(rng, n)
        active = list(range(len(cells)))
        got = assert_kernel_matches_reference(g, cells, active, trial)
        assert_equitable(g, got)
        want = scan_every_cell_refine(g.n, rows_of(g), cells, active)
        assert as_set_partition(got) == as_set_partition(want), trial


def test_kernels_match_reference_on_individualized_vertices():
    rng = random.Random(6)
    graphs = [(name, g) for name, g in corpus() if name.startswith("F2")]
    graphs += [(f"random {i}", random_graph(rng, 30, p))
               for i, p in enumerate((0.1, 0.2, 0.5))]
    for name, g in graphs:
        root, _ = hopcroft_scan_refine(g.n, rows_of(g), [list(range(g.n))], [0])
        for v in range(g.n):
            rest = [u for u in range(g.n) if u != v]
            assert_kernel_matches_reference(g, [[v], rest], [0, 1], (name, v))
            # search-shaped: individualize v inside its cell of the root,
            # which is equitable with respect to every other cell
            t = next(i for i, c in enumerate(root) if v in c)
            if len(root[t]) == 1:
                continue
            child = (root[:t] + [[v], [u for u in root[t] if u != v]]
                     + root[t + 1:])
            got = assert_kernel_matches_reference(g, child, [t, t + 1],
                                                  (name, v, t))
            want = scan_every_cell_refine(g.n, rows_of(g), child, [t, t + 1])
            assert as_set_partition(got) == as_set_partition(want), (name, v)


def live_starts(part):
    """Cell starts, found by walking the sizes from position 0."""
    starts = []
    s = 0
    while s < part.n:
        starts.append(s)
        s += part.size[s]
    return starts


def snapshot(part):
    """The partition's state, with sizes read at live cell starts only."""
    starts = live_starts(part)
    return (list(part.order), list(part.start_of),
            [part.size[s] for s in starts], starts, part.cell_count)


def test_partition_trail_undo_and_in_place_refines():
    # Random individualize/undo walks on one partition: each in-place
    # refinement must give what the one-shot kernel refine gives on a copy
    # of the partition, and each undo must restore the state exactly.
    rng = random.Random(8)
    for trial in range(120):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
        cells = random_ordered_partition(rng, n)
        part = Partition(g.nbrs, cells)
        initial = snapshot(part)
        active = rng.sample(range(len(cells)), rng.randint(1, len(cells)))
        starts = live_starts(part)
        trace = part.refine([starts[i] for i in active])
        assert (part.cells(), trace) == one_shot_refine(g, cells, active), \
            trial
        marks = []
        for step in range(40):
            if marks and (part.is_discrete() or rng.random() < 0.35):
                mark, state = marks.pop()
                part.undo(mark)
                assert snapshot(part) == state, (trial, step)
                continue
            if part.is_discrete():
                break
            starts = live_starts(part)
            t = rng.choice([i for i, s in enumerate(starts)
                            if part.size[s] > 1])
            start = starts[t]
            v = rng.choice(part.cell(start))
            cells = part.cells()
            child = (cells[:t] + [[v], [u for u in cells[t] if u != v]]
                     + cells[t + 1:])
            marks.append((len(part.trail), snapshot(part)))
            trace = part.individualize(start, v)
            assert (part.cells(), trace) == \
                one_shot_refine(g, child, [t, t + 1]), (trial, step)
        part.undo(0)
        assert snapshot(part) == initial, trial


def test_first_path_matches_reference_at_every_level():
    # The search's first path, from the unit partition down to a discrete
    # one: each level individualizes the first vertex of the first smallest
    # non-singleton cell, in place, and must give the reference's cells and
    # trace. The other reference comparisons stop one level below the
    # root, short of the cascades of size-2 cells near the leaf.
    g = token_graph(hypercube(4), 2).graph
    images = list(range(g.n))
    random.Random(10).shuffle(images)
    for h in (g, g.relabel(images)):
        part = Partition(h.nbrs, [list(range(h.n))])
        cells, trace = hopcroft_scan_refine(h.n, rows_of(h), [list(range(h.n))],
                                            [0])
        assert (part.refine([0]), part.cells()) == (trace, cells)
        depth = 0
        while not part.is_discrete():
            start = part.target()
            t = live_starts(part).index(start)
            v, *rest = cells[t]
            child = cells[:t] + [[v], rest] + cells[t + 1:]
            cells, trace = hopcroft_scan_refine(h.n, rows_of(h), child, [t, t + 1])
            assert part.individualize(start, v) == trace, depth
            assert part.cells() == cells, depth
            depth += 1
        assert depth > 2


def altered_traces(rng, trace):
    """Traces that differ from trace: one event changed (the last one, and
    one at random), one marker dropped, one added."""
    out = [trace[:-1], trace + (-1,)]
    for i in {len(trace) - 1, rng.randrange(len(trace))}:
        out.append(trace[:i] + (trace[i] + 1,) + trace[i + 1:])
    return out


def test_refine_with_its_own_trace_expected_is_unchanged():
    rng = random.Random(9)
    for trial in range(300):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
        cells = random_ordered_partition(rng, n)
        active = rng.sample(range(len(cells)), rng.randint(0, len(cells)))
        want = one_shot_refine(g, cells, active)
        part = Partition(g.nbrs, cells)
        starts = live_starts(part)
        trace = part.refine([starts[i] for i in active], want[1])
        assert (part.cells(), trace) == want, trial


def test_refine_stops_at_the_first_difference_and_undoes_exactly():
    # A trace that differs from the expected one in any event, or in
    # length, is refused with None; undoing to a mark taken before the
    # call restores the partition exactly, cell count included.
    rng = random.Random(10)
    refused = partial = 0
    for trial in range(300):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
        cells = random_ordered_partition(rng, n)
        active = rng.sample(range(len(cells)), rng.randint(1, len(cells)))
        _, trace = one_shot_refine(g, cells, active)
        if not trace:
            continue
        part = Partition(g.nbrs, cells)
        state = snapshot(part)
        starts = [live_starts(part)[i] for i in active]
        for expect in altered_traces(rng, trace):
            mark = len(part.trail)
            assert part.refine(starts, expect) is None, (trial, expect)
            refused += 1
            partial += len(part.trail) > mark
            part.undo(mark)
            assert snapshot(part) == state, (trial, expect)
    # Most refusals came after some splits, which the undo had to reverse.
    assert partial > refused // 2


def test_individualize_passes_the_expected_trace_on():
    # Search-shaped: individualize each vertex of each non-singleton cell
    # of the root against the trace of individualizing the cell's first
    # vertex; it is refused exactly when its own trace differs. Unions of
    # cycles are regular, so the root is one cell, but a vertex of a short
    # cycle and one of a long cycle give different traces.
    graphs = corpus()
    for lengths in ((3, 4), (5, 3, 5), (4, 6, 4)):
        adj = [0] * sum(lengths)
        first = 0
        for k in lengths:
            for i in range(k):
                u, v = first + i, first + (i + 1) % k
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            first += k
        graphs.append((f"cycles {lengths}", graph_from_rows(adj)))
    refused = 0
    for name, g in graphs:
        part = Partition(g.nbrs, [list(range(g.n))])
        part.refine([0])
        state = snapshot(part)
        mark = len(part.trail)
        for t in live_starts(part):
            if part.size[t] == 1:
                continue
            first = part.individualize(t, part.order[t])
            part.undo(mark)
            for v in part.cell(t):
                own = part.individualize(t, v)
                part.undo(mark)
                assert part.individualize(t, v, own) == own, (name, v)
                part.undo(mark)
                trace = part.individualize(t, v, first)
                assert trace == (first if own == first else None), (name, v)
                refused += trace is None
                part.undo(mark)
                assert snapshot(part) == state, (name, v)
    assert refused


def test_pure_kernel_rejects_empty_cells():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        Partition(g.nbrs, [[0, 1, 2, 3], []])


# -- refinement results --------------------------------------------------


def test_cycle_stays_single_cell():
    assert refine(cycle_graph(5)) == [[0, 1, 2, 3, 4]]


def test_complete_bipartite_splits_by_degree():
    cells = refine(complete_bipartite(3, 4))
    assert cells == [[3, 4, 5, 6], [0, 1, 2]]


def test_two_token_cube_has_three_cells():
    tg = token_graph(hypercube(3), 2)
    cells = refine(tg.graph)
    assert sorted(len(c) for c in cells) == [4, 12, 12]
    # cells refine the degree classes
    for cell in cells:
        assert len({tg.graph.degree(v) for v in cell}) == 1
    # the 4-cell is exactly the antipodal pairs of the cube
    small = next(c for c in cells if len(c) == 4)
    for r in small:
        a, b = unrank(r, 8, 2)
        assert a ^ b == 7


def test_outputs_are_equitable():
    for name, g in corpus():
        cells = refine(g)
        assert_equitable(g, cells)


def test_custom_partition_is_respected():
    g = cycle_graph(6)
    cells = refine(g, [[0], list(range(1, 6))])
    assert_equitable(g, cells)
    # individualizing one vertex of a 6-cycle pins its antipode
    assert [0] in cells and [3] in cells


def test_partition_validation():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        refine(g, [[0, 1]])
    with pytest.raises(ValueError):
        refine(g, [[0, 1, 2, 3], [3]])
    with pytest.raises(ValueError):
        refine(g, [[0, 1, 2, 3], []])


def test_trace_is_relabeling_equivariant():
    for name, g in corpus():
        p = Permutation(tuple((i * 7 + 3) % g.n for i in range(g.n))
                        if _coprime(7, g.n) else tuple(reversed(range(g.n))))
        h = g.relabel(p.images)
        for cells in ([list(range(g.n))], [[0], list(range(1, g.n))]):
            mapped = [sorted(p(v) for v in c) for c in cells]
            rc, rt = one_shot_refine(g, cells, range(len(cells)))
            mc, mt = one_shot_refine(h, mapped, range(len(mapped)))
            assert tuple(rt) == tuple(mt), name
            assert [sorted(p(v) for v in c) for c in rc] == \
                [sorted(c) for c in mc], name


def _coprime(a, n):
    import math
    return math.gcd(a, n) == 1
