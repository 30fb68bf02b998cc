"""Graph construction, products, distances, and the edge-list format."""

import copy
import pickle
import random
import re
from itertools import combinations

import pytest

from tokenaut import (
    BipartiteSpec,
    Graph,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    distance_matrix,
    format_edge_list,
    graph_from_edges,
    hypercube,
    parse_edge_list,
    path_graph,
    star_graph,
)
from tokenaut.graphs import mixed_radix_encode, product_label
from tokenaut.tokens import token_graph

from bitmask_rows import graph_from_rows, rows_of


def mixed_radix_decode(code, sizes):
    """The coordinate tuple that ``mixed_radix_encode`` maps to ``code``."""
    coords = [0] * len(sizes)
    for i in range(len(sizes) - 1, -1, -1):
        coords[i] = code % sizes[i]
        code //= sizes[i]
    if code != 0:
        raise ValueError("code out of range")
    return tuple(coords)


def test_complete_graph_edge_counts():
    assert complete_graph(1).edge_count() == 0
    assert complete_graph(2).edge_count() == 1
    assert complete_graph(4).edge_count() == 6
    g = complete_graph(5)
    for u in range(5):
        for v in range(5):
            assert g.has_edge(u, v) == (u != v)


def test_graph_from_edges_validation():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 1)])
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.edges() == [(0, 1), (1, 2)]


def test_graph_validation_raises_value_error():
    for nbrs in ([[1], []],          # asymmetric lists
                 [[0], [1]],         # loops at vertices 0 and 1
                 [[2], []],          # a neighbour past n - 1
                 []):                # no vertices
        with pytest.raises(ValueError):
            Graph(nbrs)
    with pytest.raises(ValueError):
        graph_from_edges(-1, [])
    with pytest.raises(ValueError):
        path_graph(3).relabel([0, 0, 1])
    for bad in ([0, 1, 0], [0, 3], [-1, 0]):  # duplicate, past n, negative
        with pytest.raises(ValueError):
            path_graph(3).induced(bad)
    for coords in ((0, 3), (-1, 0), (0,)):  # out of range, negative, short
        with pytest.raises(ValueError):
            mixed_radix_encode(coords, (2, 3))
    for code in (6, -1):
        with pytest.raises(ValueError):
            mixed_radix_decode(code, (2, 3))


def test_complete_bipartite_layout():
    g = complete_bipartite(3, 4)
    assert g.edge_count() == 12
    assert sorted(g.degree_sequence()) == [3, 3, 3, 3, 4, 4, 4]
    for u in range(3):
        for v in range(3):
            assert not g.has_edge(u, v)
    for u in range(3, 7):
        for v in range(3, 7):
            assert not g.has_edge(u, v)
    for u in range(3):
        for v in range(3, 7):
            assert g.has_edge(u, v)


def test_bipartite_spec_sides():
    spec = BipartiteSpec(2, 3)
    assert list(spec.x_vertices) == [0, 1]
    assert list(spec.y_vertices) == [2, 3, 4]
    assert spec.order == 5
    with pytest.raises(ValueError):
        BipartiteSpec(3, 2)
    with pytest.raises(ValueError):
        BipartiteSpec(0, 2)


def test_k22_is_the_four_cycle():
    g = complete_bipartite(2, 2)
    assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert g.degree_sequence() == (2, 2, 2, 2)


def test_path_cycle_star():
    assert path_graph(3).edges() == [(0, 1), (1, 2)]
    assert cycle_graph(4).edge_count() == 4
    with pytest.raises(ValueError):
        cycle_graph(2)
    s = star_graph(3)
    k13 = complete_bipartite(1, 3)
    assert s.nbrs == k13.nbrs


def test_mixed_radix_round_trip():
    sizes = [2, 3, 4]
    for code in range(24):
        coords = mixed_radix_decode(code, sizes)
        assert mixed_radix_encode(coords, sizes) == code
    # first factor is most significant
    assert mixed_radix_encode((1, 0, 0), sizes) == 12
    assert mixed_radix_encode((0, 0, 1), sizes) == 1


def test_cartesian_product_small():
    c4 = cartesian_product([complete_graph(2), complete_graph(2)])
    assert (c4.n, c4.edge_count()) == (4, 4)
    ladder = cartesian_product([complete_graph(2), path_graph(3)])
    assert (ladder.n, ladder.edge_count()) == (6, 7)
    q3 = cartesian_product([complete_graph(2)] * 3)
    assert (q3.n, q3.edge_count()) == (8, 12)


def test_cartesian_product_adjacency_definition():
    factors = [path_graph(3), cycle_graph(4)]
    g = cartesian_product(factors)
    sizes = [f.n for f in factors]
    for a in range(g.n):
        for b in range(g.n):
            if a == b:
                continue
            ca, cb = mixed_radix_decode(a, sizes), mixed_radix_decode(b, sizes)
            diff = [i for i in range(2) if ca[i] != cb[i]]
            expect = len(diff) == 1 and factors[diff[0]].has_edge(ca[diff[0]], cb[diff[0]])
            assert g.has_edge(a, b) == expect


def test_cartesian_product_degree_law():
    factors = [complete_graph(3), path_graph(4), complete_graph(2)]
    g = cartesian_product(factors)
    sizes = [f.n for f in factors]
    for v in range(g.n):
        coords = mixed_radix_decode(v, sizes)
        assert g.degree(v) == sum(f.degree(c) for f, c in zip(factors, coords))


def test_hypercube_regularity():
    for r in range(1, 7):
        q = hypercube(r)
        assert q.n == 1 << r
        assert q.edge_count() == r << (r - 1)
        assert all(q.degree(v) == r for v in range(q.n))
    # adjacency is Hamming distance one on codes
    q = hypercube(4)
    for u in range(16):
        for v in range(16):
            assert q.has_edge(u, v) == ((u ^ v).bit_count() == 1)


def test_hypercube_matches_k2_power():
    for r in (1, 2, 3, 4):
        assert hypercube(r).nbrs == cartesian_product([complete_graph(2)] * r).nbrs


def test_distance_matrix():
    d = distance_matrix(path_graph(3))
    assert d[0][2] == 2 and d[2][0] == 2 and d[1][1] == 0
    q = hypercube(3)
    dq = distance_matrix(q)
    for u in range(8):
        for v in range(8):
            assert dq[u][v] == (u ^ v).bit_count()
    two = graph_from_edges(2, [])
    assert distance_matrix(two)[0][1] == 2  # sentinel is n for unreachable pairs


def test_connectivity():
    assert hypercube(3).is_connected()
    assert not graph_from_edges(4, [(0, 1), (2, 3)]).is_connected()
    assert complete_graph(1).is_connected()


def test_induced_and_relabel():
    g = complete_bipartite(2, 3)
    sub = g.induced([0, 2, 3])
    assert sub.n == 3 and sub.edges() == [(0, 1), (0, 2)]
    back = g.relabel([4, 3, 2, 1, 0])
    assert back.edge_count() == g.edge_count()
    assert back.has_edge(4, 2) and not back.has_edge(4, 3)


def bitmask_induced(g, vertices):
    """Reference: the induced subgraph's rows, built bit by bit from g's
    bitmask rows and checked by the constructor."""
    rows = rows_of(g)
    adj = [0] * len(vertices)
    for i, v in enumerate(vertices):
        for j, w in enumerate(vertices):
            if rows[v] >> w & 1:
                adj[i] |= 1 << j
    return graph_from_rows(adj)


def test_induced_matches_the_bitmask_construction():
    rng = random.Random(11)
    isolated = 0
    for trial in range(150):
        n = rng.randint(1, 30)
        p = rng.choice((0.05, 0.2, 0.5, 0.9))
        g = graph_from_edges(n, [e for e in combinations(range(n), 2)
                                 if rng.random() < p])
        vertices = rng.sample(range(n), rng.randint(1, n))
        sub, want = g.induced(vertices), bitmask_induced(g, vertices)
        assert (sub.n, sub.nbrs, sub.label) == (want.n, want.nbrs, None), trial
        isolated += sub.nbrs.count(())
        with pytest.raises(ValueError, match="duplicate"):
            g.induced(vertices + vertices[:1])
        with pytest.raises(ValueError, match="out of range"):
            g.induced(vertices[1:] + [rng.choice((-1, n))])
    assert isolated > 0
    single = hypercube(3).induced([5])
    assert (single.n, single.nbrs) == (1, ((),))


def bitmask_from_edges(n, edges, label=None):
    """Reference: rows set bit by bit from the edges, with the checks and
    messages of the edge-list constructor, checked by ``Graph``."""
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return graph_from_rows(adj, label)


def bitmask_product(factors):
    """Reference: the product's rows set bit by bit from the factors' rows."""
    sizes = [g.n for g in factors]
    total = 1
    for size in sizes:
        total *= size
    strides = [total // size for size in sizes]
    for i in range(1, len(sizes)):
        strides[i] = strides[i - 1] // sizes[i]
    rows = [rows_of(g) for g in factors]
    adj = [0] * total
    for code in range(total):
        coords = mixed_radix_decode(code, sizes)
        for i, g in enumerate(factors):
            c = coords[i]
            for w in range(g.n):
                if rows[i][c] >> w & 1:
                    adj[code] |= 1 << (code + (w - c) * strides[i])
    return graph_from_rows(adj, product_label(factors))


def bitmask_relabel(g, images):
    rows = rows_of(g)
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(g.n):
            if rows[u] >> v & 1:
                adj[images[u]] |= 1 << images[v]
    return graph_from_rows(adj, g.label)


def assert_same(g, want, context):
    """Equal in n, neighbour lists and label; ``want`` is built from
    bitmask rows."""
    assert (g.n, g.nbrs, g.label) == (want.n, want.nbrs, want.label), context


def random_edge_list(rng, n):
    """Random edges on 0..n-1, some repeated in either orientation; low
    densities leave vertices isolated."""
    p = rng.choice((0.0, 0.05, 0.2, 0.5, 0.9))
    edges = [e if rng.random() < 0.5 else e[::-1]
             for e in combinations(range(n), 2) if rng.random() < p]
    edges += rng.sample(edges, min(len(edges), rng.randint(0, 4)))
    edges += [(v, u) for u, v in edges[:rng.randint(0, 2)]]
    rng.shuffle(edges)
    return edges


def test_constructors_match_the_bitmask_construction():
    rng = random.Random(27)
    inputs = [(1, []), (5, []), (2, [(0, 1), (1, 0), (0, 1)])]
    inputs += [(n, random_edge_list(rng, n))
               for n in (rng.randint(1, 30) for _ in range(150))]
    isolated = repeated = 0
    graphs = []
    for trial, (n, edges) in enumerate(inputs):
        label = rng.choice((None, f"g{trial}"))
        g = graph_from_edges(n, edges, label)
        assert_same(g, bitmask_from_edges(n, edges, label), trial)
        isolated += g.nbrs.count(())
        repeated += len(edges) > g.edge_count()
        text = "n %d\n%s" % (n, "".join(f"{u} {v}\n" for u, v in edges))
        assert_same(parse_edge_list(text), bitmask_from_edges(n, edges), trial)
        images = rng.sample(range(n), n)
        assert_same(g.relabel(images), bitmask_relabel(g, images), trial)
        graphs.append(g)
    assert isolated > 0 and repeated > 0
    small = [g for g in graphs if g.n <= 5]
    for trial in range(40):
        factors = rng.sample(small, rng.randint(1, 3))
        assert_same(cartesian_product(factors), bitmask_product(factors), trial)
    for r in range(1, 6):
        k2 = bitmask_from_edges(2, [(0, 1)], "K2")
        want = bitmask_product([k2] * r)
        assert_same(hypercube(r), Graph(want.nbrs, f"Q{r}"), r)
    for n in range(1, 9):
        assert_same(path_graph(n), bitmask_from_edges(
            n, [(i, i + 1) for i in range(n - 1)], f"P{n}"), n)
        if n >= 3:
            assert_same(cycle_graph(n), bitmask_from_edges(
                n, [(i, (i + 1) % n) for i in range(n)], f"C{n}"), n)
        full = (1 << n) - 1
        assert_same(complete_graph(n), graph_from_rows(
            [full ^ 1 << u for u in range(n)], f"K{n}"), n)
        for m in range(1, n + 1):
            x, y = (1 << m) - 1, ((1 << m + n) - 1) ^ ((1 << m) - 1)
            rows = tuple(y if u < m else x for u in range(m + n))
            assert_same(complete_bipartite(m, n),
                        graph_from_rows(rows, f"K{m},{n}"), (m, n))
        rows = tuple(((1 << n + 1) - 2) if u == 0 else 1 for u in range(n + 1))
        assert_same(star_graph(n), graph_from_rows(rows, f"K1,{n}"), n)
    # A token graph's lists are the lists its bitmask rows give.
    for g in small[:20]:
        for k in range(1, g.n):
            h = token_graph(g, k).graph
            assert_same(h, graph_from_rows(rows_of(h), h.label), (g, k))


def test_constructor_errors_keep_their_messages():
    for n, edges in ((3, [(0, 3)]), (3, [(-1, 0)]), (3, [(1, 1)]),
                     (3, [(0, 1), (2, 2), (0, 7)]), (3, [(0, 1), (0, 7), (2, 2)]),
                     (0, []), (-2, []), (0, [(0, 0)])):
        with pytest.raises(ValueError) as want:
            bitmask_from_edges(n, edges)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            graph_from_edges(n, edges)
    with pytest.raises(ValueError, match="^line 3: expected 'u v', got '1'$"):
        parse_edge_list("n 3\n0 1\n1\n")
    with pytest.raises(ValueError, match=r"^edge \(0,5\) out of range for n=2$"):
        parse_edge_list("n 2\n0 5\n")
    for images in ([0, 0, 1], [0, 1], [1, 2, 3]):
        with pytest.raises(ValueError, match="^relabeling must be a bijection$"):
            path_graph(3).relabel(images)


def test_raw_graphs_read_edges_and_distances_off_their_rows():
    rng = random.Random(8)
    for trial in range(40):
        n = rng.randint(1, 12)
        adjacent = [set() for _ in range(n)]
        for u, v in random_edge_list(rng, n):
            adjacent[u].add(v)
            adjacent[v].add(u)
        g = Graph([sorted(nb) for nb in adjacent])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if v in adjacent[u]]
        assert g.edges() == edges, trial
        assert g.neighbors(0) == [v for v in range(n) if v in adjacent[0]]
        dist = [[0 if u == v else n for v in range(n)] for u in range(n)]
        for u, v in edges:
            dist[u][v] = dist[v][u] = 1
        for w in range(n):
            for u in range(n):
                for v in range(n):
                    dist[u][v] = min(dist[u][v], dist[u][w] + dist[w][v])
        assert distance_matrix(g) == dist, trial


def test_edge_list_round_trip():
    for g in (complete_graph(4), complete_bipartite(2, 3), hypercube(3),
              path_graph(5), graph_from_edges(3, [])):
        text = format_edge_list(g)
        h = parse_edge_list(text)
        assert h.n == g.n and h.nbrs == g.nbrs
        assert format_edge_list(h) == text


def test_edge_list_parsing_errors_and_comments():
    g = parse_edge_list("# comment\nn 3\n0 1\n\n# more\n1 2\n")
    assert g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        parse_edge_list("0 1\n")  # missing header
    with pytest.raises(ValueError, match="^missing 'n <N>' header line$"):
        parse_edge_list("# only a comment\n\n  \n# and another\n")
    with pytest.raises(ValueError, match="^line 1: vertex count must be >= 1$"):
        parse_edge_list("n 0\n")
    with pytest.raises(ValueError):
        parse_edge_list("n 2\n0 5\n")
    with pytest.raises(ValueError):
        parse_edge_list("n 2\n0 x\n")
    # a header's line number counts the comment and blank lines before it
    for text, line, header in (("n x\n0 1\n", 1, "n x"),
                               ("# a\n\n  # b\nn 2.5\n", 4, "n 2.5")):
        want = f"line {line}: non-integer vertex count in '{header}'"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            parse_edge_list(text)


def test_graphs_are_immutable_values():
    g = Graph([[1], [0, 2], [1]], "P3")
    for name, value in (("nbrs", ((), (), ())), ("label", "Q"), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.nbrs, g.label) == (((1,), (0, 2), (1,)), "P3")
    for h in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert h == g and h is not g and hash(h) == hash(g)
    # equal lists and labels make equal graphs; the hash is the
    # dataclass formula over those two fields, so set orders repeat
    assert g == path_graph(3) and hash(g) == hash((g.nbrs, g.label))
    assert g != Graph(g.nbrs) and g != (g.nbrs, g.label)
    spec = BipartiteSpec(2, 3)
    assert spec == BipartiteSpec(2, 3) and spec != BipartiteSpec(2, 4)
    assert hash(spec) == hash((2, 3)) and spec != (2, 3)
    assert repr(spec) == "BipartiteSpec(m=2, n=3)"


def test_edges_are_sorted_unique():
    g = hypercube(3)
    es = g.edges()
    assert es == sorted(es)
    assert len(es) == len(set(es))
    assert all(u < v for u, v in es)
    assert set(es) == {(u, v) for u, v in combinations(range(8), 2) if g.has_edge(u, v)}


def test_edge_check_covers_edges_between_moved_and_fixed_vertices():
    # On the path 0-1-2-3, each transposition below keeps every edge
    # among its moved vertices and breaks exactly one edge to a fixed
    # vertex: (0 1) sends 1-2 to 0-2 (moved endpoint smaller), and (2 3)
    # sends 1-2 to 1-3 (fixed endpoint smaller).
    g = path_graph(4)
    assert not g.maps_edges_into([1, 0, 2, 3], g)
    assert not g.maps_edges_into([0, 1, 3, 2], g)
    assert g.maps_edges_into([3, 2, 1, 0], g)
    assert g.maps_edges_into([0, 1, 2, 3], g)
    # The same maps into a relabeled copy are checked edge by edge in full.
    h = g.relabel([0, 1, 2, 3])
    assert not g.maps_edges_into([1, 0, 2, 3], h)
    assert g.maps_edges_into([3, 2, 1, 0], h)


def test_edge_check_agrees_with_the_edge_list():
    # Support check (target is the graph itself) and full check (an equal
    # copy) against a direct test of every edge, on random permutations.
    rng = random.Random(5)
    for g in (hypercube(3), complete_bipartite(2, 4), cycle_graph(7),
              graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])):
        copy = Graph(g.nbrs)
        for _ in range(200):
            images = list(range(g.n))
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(range(g.n), 2)
                images[a], images[b] = images[b], images[a]
            want = all(g.has_edge(images[u], images[v]) for u, v in g.edges())
            assert g.maps_edges_into(images, g) == want
            assert g.maps_edges_into(images, copy) == want


def test_graph_from_lists_matches_graph_from_edges():
    rng = random.Random(3)
    for n in (1, 2, 5, 9, 70):
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
        g = graph_from_edges(n, edges, "g")
        lists = [g.neighbors(u) for u in range(n)]
        h = Graph(lists, "g")
        assert h == g
        assert (h.n, h.nbrs) == (g.n, g.nbrs)


def test_graph_checks_its_lists():
    with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
        Graph([])
    for bad, message in (
        ([[1], [0], [3]], "vertex 2 has neighbour 3 out of range 0..2"),
        ([[1], [-1, 0], []], "vertex 1 has neighbour -1 out of range 0..2"),
        ([[0, 1], [0], []], "loops are not allowed"),
        ([[1], [], []], "adjacency must be symmetric"),
        ([[2, 1], [0], [0]], "neighbour lists must be strictly ascending"),
        ([[1, 1], [0, 0], []], "neighbour lists must be strictly ascending"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(bad)


def test_constructors_refuse_empty_sizes():
    for build, message in (
            (lambda: complete_graph(0), "complete_graph needs n >= 1"),
            (lambda: complete_bipartite(0, 1),
             "complete_bipartite needs m, n >= 1"),
            (lambda: path_graph(0), "path_graph needs n >= 1"),
            (lambda: star_graph(0), "star_graph needs n >= 1 leaves"),
            (lambda: hypercube(0), "hypercube needs r >= 1"),
            (lambda: cartesian_product([]),
             "cartesian_product needs at least one factor")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_graph_repr_names_its_label_and_sizes():
    assert repr(complete_graph(3)) == "<K3: n=3, m=3>"
    assert repr(Graph([[1], [0]])) == "<Graph: n=2, m=1>"
