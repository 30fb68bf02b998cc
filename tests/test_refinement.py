"""Refinement backends: selection rules, parity, and known partitions."""

import random
from collections import deque

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
from tokenaut import refinement
from tokenaut.graphs import Graph
from tokenaut.refinement import available_backends, default_backend, make_kernel

HAS_COMPILED = "compiled" in available_backends()


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
    return sum(1 for u in cell if g.adj[v] >> u & 1)


def assert_equitable(g, cells):
    flat = sorted(v for c in cells for v in c)
    assert flat == list(range(g.n))
    for target in cells:
        for cell in cells:
            counts = {neighbour_count(g, v, target) for v in cell}
            assert len(counts) == 1


# -- backend selection --------------------------------------------------


def test_default_backend_env(monkeypatch):
    monkeypatch.setenv("TOKENAUT_BACKEND", "pure")
    assert default_backend() == "pure"
    monkeypatch.setenv("TOKENAUT_BACKEND", "auto")
    assert default_backend() in ("pure", "compiled")
    monkeypatch.delenv("TOKENAUT_BACKEND")
    expected = "compiled" if HAS_COMPILED else "pure"
    assert default_backend() == expected


def test_default_backend_rejects_unknown(monkeypatch):
    monkeypatch.setenv("TOKENAUT_BACKEND", "fortran")
    with pytest.raises(ValueError):
        default_backend()


def test_make_kernel_rejects_unknown_backend():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        make_kernel(g.n, g.adj, "fortran")


def test_compiled_request_fails_loudly_when_missing(monkeypatch):
    monkeypatch.setattr(refinement, "_refinecore", None)
    assert available_backends() == ("pure",)
    assert default_backend() == "pure"
    g = cycle_graph(4)
    with pytest.raises(RuntimeError):
        make_kernel(g.n, g.adj, "compiled")


def test_kernel_reports_backend():
    g = cycle_graph(4)
    assert make_kernel(g.n, g.adj, "pure").backend == "pure"
    if HAS_COMPILED:
        assert make_kernel(g.n, g.adj, "compiled").backend == "compiled"


# -- backend parity ------------------------------------------------------


@pytest.mark.skipif(not HAS_COMPILED, reason="compiled backend not built")
def test_backends_agree_on_cells_and_traces():
    for name, g in corpus():
        unit = [list(range(g.n))]
        individualized = [[0], list(range(1, g.n))]
        for cells in (unit, individualized):
            pure = make_kernel(g.n, g.adj, "pure")
            comp = make_kernel(g.n, g.adj, "compiled")
            active = list(range(len(cells)))
            pc, pt = pure.refine([list(c) for c in cells], active)
            cc, ct = comp.refine([list(c) for c in cells], active)
            assert [list(c) for c in pc] == [list(c) for c in cc], name
            assert tuple(pt) == tuple(ct), name


# -- kernels against the scan-every-cell reference -------------------------


def scan_every_cell_refine(n, adj, cells, active):
    """Reference refinement: every splitter is a bitmask and every cell is
    scanned against it. This is the algorithm the compiled kernel runs and
    the one the pure kernel ran before it became neighbour-driven; the pure
    kernel must return exactly its cells and trace."""
    cells = [list(c) for c in cells]
    queue = deque()
    for i in active:
        m = 0
        for v in cells[i]:
            m |= 1 << v
        queue.append(m)
    trace = []
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
                    keys = sorted(counts)
                    frags = [counts[c] for c in keys]
                    cells[j:j + 1] = frags
                    trace.append(j)
                    trace.append(len(frags))
                    for c in keys:
                        trace.append(c)
                        trace.append(len(counts[c]))
                    for f in frags:
                        m = 0
                        for v in f:
                            m |= 1 << v
                        queue.append(m)
                    j += len(frags) - 1
            j += 1
        trace.append(-1)
    trace.append(-2)
    for cell in cells:
        trace.append(len(cell))
    return cells, tuple(trace)


def assert_kernels_match_reference(g, cells, active, label):
    want = scan_every_cell_refine(g.n, g.adj, cells, active)
    for backend in available_backends():
        kernel = make_kernel(g.n, g.adj, backend)
        got = kernel.refine([list(c) for c in cells], list(active))
        assert [list(c) for c in got[0]] == want[0], (backend, label)
        assert tuple(got[1]) == want[1], (backend, label)


def random_graph(rng, n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def random_ordered_partition(rng, n):
    """Cells in random order, each with its vertices in random order."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 6))))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def test_kernels_match_reference_on_random_inputs():
    rng = random.Random(4)
    for trial in range(300):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
        cells = random_ordered_partition(rng, n)
        active = rng.sample(range(len(cells)), rng.randint(0, len(cells)))
        assert_kernels_match_reference(g, cells, active, f"trial {trial}")


def test_kernels_match_reference_on_individualized_vertices():
    for name, g in corpus():
        if not name.startswith("F2"):
            continue
        root, _ = scan_every_cell_refine(g.n, g.adj, [list(range(g.n))], [0])
        for v in range(g.n):
            rest = [u for u in range(g.n) if u != v]
            assert_kernels_match_reference(g, [[v], rest], [0, 1], (name, v))
            # search-shaped: individualize v inside its cell of the root
            t = next(i for i, c in enumerate(root) if v in c)
            if len(root[t]) == 1:
                continue
            child = (root[:t] + [[v], [u for u in root[t] if u != v]]
                     + root[t + 1:])
            assert_kernels_match_reference(g, child, [t, t + 1], (name, v, t))


def test_pure_kernel_rejects_empty_cells():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        make_kernel(g.n, g.adj, "pure").refine([[0, 1, 2, 3], []], [0])


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
        assert len({tg.graph.adj[v].bit_count() for v in cell}) == 1
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
            kg = make_kernel(g.n, g.adj, "pure")
            kh = make_kernel(h.n, h.adj, "pure")
            rc, rt = kg.refine([list(c) for c in cells],
                               list(range(len(cells))))
            mc, mt = kh.refine(mapped, list(range(len(mapped))))
            assert tuple(rt) == tuple(mt), name
            assert [sorted(p(v) for v in c) for c in rc] == \
                [sorted(c) for c in mc], name


def _coprime(a, n):
    import math
    return math.gcd(a, n) == 1
