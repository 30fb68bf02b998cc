"""Automorphism/isomorphism search against the brute-force oracle."""

import random
from math import factorial, prod

import pytest

from tokenaut import (
    Permutation,
    ScaleGuardExceeded,
    automorphism_group,
    bipartite_generators,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    count_automorphisms_brute,
    cycle_graph,
    graph_from_edges,
    hypercube,
    is_automorphism,
    is_isomorphic,
    path_graph,
    product_subgroup_generators,
    schreier_sims,
    star_graph,
    token_graph,
)
from tokenaut import search as search_module
from tokenaut.perms import _STALL_SIFTS, PermGroup
from tokenaut.search import TwinGroup, _quotient_search, _Search, _twin_classes


def shrikhande():
    """Cayley graph of Z4 x Z4 on +-(0,1), +-(1,0), +-(1,1)."""
    return graph_from_edges(16, [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4) for b in range(4)
        for da, db in ((0, 1), (1, 0), (1, 1))])


def rook_graph():
    """K4 box K4: strongly regular (16,6,2,2), like the Shrikhande graph."""
    return cartesian_product([complete_graph(4), complete_graph(4)])


def petersen():
    """Kneser graph K(5,2): 2-subsets of 0..4, adjacent when disjoint."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    return graph_from_edges(10, [
        (i, j) for i, p in enumerate(pairs) for j, q in enumerate(pairs)
        if i < j and not set(p) & set(q)])


def fixtures():
    out = []
    for n in range(2, 6):
        out.append((f"K{n}", complete_graph(n)))
    for n in range(3, 9):
        out.append((f"C{n}", cycle_graph(n)))
    for m in range(1, 4):
        for n in range(m, 8 - m):
            out.append((f"K{m}{n}", complete_bipartite(m, n)))
    out.append(("P5", path_graph(5)))
    out.append(("star4", star_graph(4)))
    out.append(("Q3", hypercube(3)))
    out.append(("F2K23", token_graph(complete_bipartite(2, 3), 2).graph))
    out.append(("F2P4", token_graph(path_graph(4), 2).graph))
    # regular graphs that equitable refinement cannot split at the root
    out.append(("Shrikhande", shrikhande()))
    out.append(("K4xK4", rook_graph()))
    out.append(("Petersen", petersen()))
    return out


def random_graph(rng, n):
    p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def oracle_cases():
    """The search corpus plus seeded random graphs on at most 9 vertices,
    and disjoint unions that give deep chains with many generators."""
    rng = random.Random(606)
    cases = list(fixtures())
    cases += [(f"random{i}", random_graph(rng, rng.randint(3, 9))) for i in range(150)]
    cases += [("C4+C4", graph_from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                                         + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])),
              ("3K2+K1", graph_from_edges(7, [(0, 1), (2, 3), (4, 5)])),
              ("empty6", graph_from_edges(6, []))]
    return cases


def shuffled_copy(g, rng):
    images = list(range(g.n))
    rng.shuffle(images)
    return g.relabel(images), images


class RecordingSearch(_Search):
    """A walker that keeps, with each generator it finds, the depth it
    jumps back to and the path of the node that found it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kept = []

    def _accept(self, ref, order):
        fork = super()._accept(ref, order)
        if fork is not None and not self.iso:
            self.kept.append((fork, list(self.path), self.gens[-1]))
        return fork

    def inner_gens(self):
        """How many generators the position map found at inner nodes: the
        leaves all sit at the depth of the first leaf, the base's length."""
        return sum(len(path) < len(self.base) for _, path, _ in self.kept)


def assert_generators_fix_the_prefix(search, name):
    # A generator found below the fork fixes the first path up to it and
    # sends the fork's first-path vertex to the vertex the node took there.
    assert len(search.kept) == len(search.gens), name
    base = search.base
    for fork, path, p in search.kept:
        assert all(p(b) == b for b in base[:fork]), name
        assert p(base[fork]) == path[fork] != base[fork], name


@pytest.fixture
def searches(monkeypatch):
    """Every walker ``automorphism_group`` starts while the test runs."""
    made = []

    class Recorded(RecordingSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(search_module, "_Search", Recorded)
    return made


def test_order_matches_brute_oracle(searches):
    # The order comes from the search's first-leaf path and generators
    # without any sifting; check it against two independent routes.
    for name, g in oracle_cases():
        res = automorphism_group(g)
        group = res.group
        assert group.order() == count_automorphisms_brute(g), name
        assert group.order() == schreier_sims(group.generators, degree=g.n).order(), name
        assert res.node_count >= 1
        for p in group.generators:
            assert is_automorphism(g, p), name
            assert group.contains(p), name
        assert_generators_fix_the_prefix(searches[-1], name)
    # The position map at inner nodes found some of those generators.
    assert sum(s.inner_gens() for s in searches) > 0


def test_order_is_relabeling_invariant():
    rng = random.Random(7)
    for name, g in fixtures():
        want = automorphism_group(g).group.order()
        for _ in range(3):
            h, _ = shuffled_copy(g, rng)
            assert automorphism_group(h).group.order() == want, name


def test_node_budget_is_enforced():
    g = token_graph(complete_bipartite(2, 4), 2).graph
    with pytest.raises(ScaleGuardExceeded):
        automorphism_group(g, max_nodes=3)
    with pytest.raises(ScaleGuardExceeded):
        is_isomorphic(g, g, max_nodes=2)
    # Rejections count their nodes too: the 2-token graphs differ below
    # the root (1 node), the strongly regular pair after 17 nodes.
    with pytest.raises(ScaleGuardExceeded):
        is_isomorphic(token_graph(shrikhande(), 2).graph,
                      token_graph(rook_graph(), 2).graph, max_nodes=0)
    with pytest.raises(ScaleGuardExceeded):
        is_isomorphic(shrikhande(), rook_graph(), max_nodes=16)


def test_isomorphism_reference_path_is_taken_lazily(monkeypatch):
    # The 2-token graphs of the strongly regular pair are told apart at
    # depth 1 of h's tree, so g's reference path is refined only to depth
    # 1 too: g's and h's roots (2), one individualization of g (1) and
    # h's 48 root children, all rejected. g's whole path reaches depth 3.
    from tokenaut.refinement import Partition

    calls = []
    refine = Partition.refine

    def counting(self, active, expect=None):
        calls.append(1)
        return refine(self, active, expect)

    monkeypatch.setattr(Partition, "refine", counting)
    assert is_isomorphic(token_graph(shrikhande(), 2).graph,
                         token_graph(rook_graph(), 2).graph) is None
    assert len(calls) == 51


def test_is_isomorphic_certificates():
    rng = random.Random(21)
    for name, g in fixtures():
        ident = is_isomorphic(g, g)
        assert ident is not None, name
        h, images = shuffled_copy(g, rng)
        mapping = is_isomorphic(g, h)
        assert mapping is not None, name
        # returned mapping really is an isomorphism
        for u, v in g.edges():
            assert h.has_edge(mapping[u], mapping[v]), name
        assert sorted(mapping) == list(range(g.n))


def test_is_isomorphic_negatives():
    assert is_isomorphic(path_graph(3), complete_graph(3)) is None
    # same degree sequence, different graphs
    two_triangles = graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert is_isomorphic(cycle_graph(6), two_triangles) is None
    # different sizes
    assert is_isomorphic(cycle_graph(5), cycle_graph(6)) is None
    # same strongly regular parameters, and their 2-token graphs
    assert is_isomorphic(shrikhande(), rook_graph()) is None
    assert is_isomorphic(token_graph(shrikhande(), 2).graph,
                         token_graph(rook_graph(), 2).graph) is None


def test_known_isomorphism_pairs():
    # two-token graphs with classical mates
    assert is_isomorphic(token_graph(star_graph(3), 2).graph,
                         cycle_graph(6)) is not None
    assert is_isomorphic(token_graph(complete_bipartite(2, 2), 2).graph,
                         complete_bipartite(2, 4)) is not None


def test_is_automorphism_rejects():
    g = path_graph(4)
    assert is_automorphism(g, Permutation((3, 2, 1, 0)))
    assert not is_automorphism(g, Permutation((1, 0, 2, 3)))
    assert not is_automorphism(g, Permutation((0, 1, 2)))


def test_group_membership_from_search():
    g = cycle_graph(8)
    grp = automorphism_group(g).group
    assert grp.order() == 16
    rot = Permutation(tuple((i + 1) % 8 for i in range(8)))
    refl = Permutation(tuple((-i) % 8 for i in range(8)))
    assert grp.contains(rot) and grp.contains(refl)
    assert not grp.contains(Permutation((1, 0, 2, 3, 4, 5, 6, 7)))


def test_determinism():
    g = token_graph(complete_bipartite(2, 3), 2).graph
    a = automorphism_group(g)
    b = automorphism_group(g)
    assert a.node_count == b.node_count
    assert [p.images for p in a.group.generators] == \
        [p.images for p in b.group.generators]
    assert a.group.base == b.group.base


def test_reported_base_is_pinned():
    # The aut report emits the chain base, which is the search's first-leaf
    # path without the points every generator fixes, so a search change
    # that moves the first path changes the report.
    q4 = automorphism_group(token_graph(hypercube(4), 2).graph).group
    assert q4.base == (35, 59, 80, 42, 91, 67, 58, 24)
    assert q4.order() == 3072
    k25 = automorphism_group(token_graph(complete_bipartite(2, 5), 3).graph).group
    assert k25.base == (0, 19, 29, 33, 2, 5, 7, 11, 13, 16, 21, 23, 26, 30)
    assert k25.order() == 122880


def test_search_node_and_generator_counts_are_pinned():
    # Deep searches whose orbit pruning and backjumps decide the node
    # count; the orders are 2^21 * 7! and 2^56 * 8!.
    for (m, n, k), nodes, gens, order in (
            ((2, 7, 3), 13, 27, 2 ** 21 * 5040),
            ((2, 8, 4), 15, 63, 2 ** 56 * 40320)):
        res = automorphism_group(token_graph(complete_bipartite(m, n), k).graph)
        assert (res.node_count, len(res.group.generators)) == (nodes, gens)
        assert res.group.order() == order


def test_inner_nodes_find_generators(monkeypatch):
    # The position map from the first path's node at the same depth is an
    # automorphism at some inner nodes of F2(Q4) (twin-free) and of
    # F3(K_{2,7})'s twin quotient, so those walks stop there, not at a
    # leaf. They find as many generators as a walk that stops only at
    # leaves (9 and 6), in fewer nodes (34 and 13, not 50 and 28).
    monkeypatch.setattr(search_module, "_Search", RecordingSearch)
    q4 = RecordingSearch(token_graph(hypercube(4), 2).graph, None)
    q4.run()
    k27 = token_graph(complete_bipartite(2, 7), 3).graph
    quotient = _quotient_search(k27, _twin_classes(k27), None)
    for name, walk, nodes, found in (("F2(Q4)", q4, 34, 9),
                                     ("F3(K2,7) quotient", quotient, 13, 6)):
        assert 0 < walk.inner_gens() < len(walk.gens) == found, name
        assert walk.node_count == nodes, name
        assert_generators_fix_the_prefix(walk, name)


def random_cubic_edges(rng, n):
    """A random 3-regular simple graph on 0..n-1, by the pairing model."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def test_orbit_pruning_node_counts_are_pinned():
    # A + A + B for random cubic A and B, relabeled. Branches into B match
    # the first path's traces for a while but hold no automorphism, and
    # they are explored after generators that move the path have been
    # found; orbit pruning must merge only the generators fixing the path.
    for seed, nodes, order in ((13, 29, 512), (16, 26, 2048),
                               (133, 38, 512), (250, 30, 2048)):
        rng = random.Random(seed)
        n = rng.choice((6, 8, 10))
        a, b = random_cubic_edges(rng, n), random_cubic_edges(rng, n)
        g = graph_from_edges(3 * n, a + [(u + n, v + n) for u, v in a]
                             + [(u + 2 * n, v + 2 * n) for u, v in b])
        g, _ = shuffled_copy(g, rng)
        res = automorphism_group(g)
        assert (res.node_count, res.group.order()) == (nodes, order), seed


def test_isomorphism_walks_prune_with_automorphisms_of_h():
    # A + A + B against A + B + B, both relabeled, with the seeds of the
    # orbit-pruning pins. Every leaf of h's tree fails against g's first
    # leaf, but many are images of h's own first leaf: those position maps
    # are automorphisms of h, kept as generators that prune h's tree as
    # they would prune an automorphism walk. Without them the walks take
    # 3,255, 1,493, 3,255 and 2,005 nodes.
    for seed, nodes in ((13, 34), (16, 38), (133, 130), (250, 53)):
        rng = random.Random(seed)
        n = rng.choice((6, 8, 10))
        a, b = random_cubic_edges(rng, n), random_cubic_edges(rng, n)

        def union(*parts):
            return graph_from_edges(3 * n, [(u + i * n, v + i * n)
                                            for i, part in enumerate(parts)
                                            for u, v in part])

        g, _ = shuffled_copy(union(a, a, b), rng)
        h, _ = shuffled_copy(union(a, b, b), rng)
        walk = _Search(h, None, source=g)
        walk.run()
        assert walk.mapping is None, seed
        assert walk.node_count == nodes < 200, seed
        assert walk.gens and all(is_automorphism(h, p) for p in walk.gens), \
            seed
        assert is_isomorphic(g, h, max_nodes=nodes) is None, seed
        with pytest.raises(ScaleGuardExceeded):
            is_isomorphic(g, h, max_nodes=nodes - 1)


def test_is_isomorphic_agrees_with_networkx_vf2():
    nx = pytest.importorskip("networkx")

    def to_nx(graph):
        out = nx.Graph(graph.edges())
        out.add_nodes_from(range(graph.n))
        return out

    def check(g, others, trial):
        for other in others:
            mapping = is_isomorphic(g, other)
            assert (mapping is not None) == \
                nx.is_isomorphic(to_nx(g), to_nx(other)), trial
            if mapping is not None:
                assert sorted(mapping) == list(range(g.n)), trial
                for u, v in g.edges():
                    assert other.has_edge(mapping[u], mapping[v]), trial

    rng = random.Random(808)
    for trial in range(120):
        n = rng.randint(4, 12)
        g = random_graph(rng, n)
        # a partner with the same degree sequence, and a relabeling of it
        nh = to_nx(g)
        if nh.number_of_edges() >= 2:
            try:
                nx.double_edge_swap(nh, nswap=rng.randint(1, 4), max_tries=200,
                                    seed=rng.randrange(2 ** 31))
            except nx.NetworkXAlgorithmError:
                pass
        h = graph_from_edges(n, list(nh.edges()))
        check(g, (h, shuffled_copy(h, rng)[0]), trial)
    # Two of the A + A + B cubic graphs of the orbit-pruning pins (one per
    # group order there) against a relabeling of themselves and a cubic
    # A + B + B partner.
    for seed in (13, 16):
        rng = random.Random(seed)
        n = rng.choice((6, 8, 10))
        a, b = random_cubic_edges(rng, n), random_cubic_edges(rng, n)

        def union(*parts):
            return graph_from_edges(3 * n, [(u + i * n, v + i * n)
                                            for i, part in enumerate(parts)
                                            for u, v in part])

        g, _ = shuffled_copy(union(a, a, b), rng)
        check(g, (shuffled_copy(g, rng)[0],
                  shuffled_copy(union(a, b, b), rng)[0]), seed)


def test_search_chain_rejects_non_members():
    rng = random.Random(77)
    for name, g in fixtures():
        group = automorphism_group(g).group
        for _ in range(20):
            images = list(range(g.n))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert group.contains(p) == is_automorphism(g, p), name


def blown_up(rng, base):
    """Base graph with vertex v replaced by 1-4 non-adjacent copies, each
    adjacent to every copy of v's neighbours (so the copies are open
    twins), at most 8 vertices in all, then relabeled at random."""
    sizes = [1] * base.n
    for v in rng.sample(range(base.n), base.n):
        sizes[v] = min(rng.randint(1, 4), 8 - sum(sizes) + sizes[v])
    copies, n = [], 0
    for s in sizes:
        copies.append(range(n, n + s))
        n += s
    g = graph_from_edges(n, [(a, b) for u, v in base.edges()
                             for a in copies[u] for b in copies[v]])
    return shuffled_copy(g, rng)[0]


def twin_cases():
    rng = random.Random(1313)
    cases = [(f"twins{i}", blown_up(rng, random_graph(rng, rng.randint(2, 5))))
             for i in range(160)]
    cases += [("K1,5", star_graph(5)), ("P3", path_graph(3)),
              ("empty5", graph_from_edges(5, [])),
              ("C4+2K1", graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0)]))]
    return cases


def test_twin_quotient_matches_brute_oracle(searches):
    # The search runs on the twin quotient; its chain must give the brute
    # force order and the same memberships as a Schreier-Sims chain on the
    # same generators: random permutations, words in the generators, and
    # words times a transposition.
    rng = random.Random(2023)
    for name, g in twin_cases():
        group = automorphism_group(g).group
        assert_generators_fix_the_prefix(searches[-1], name)
        assert group.order() == count_automorphisms_brute(g), name
        oracle = schreier_sims(group.generators, degree=g.n)
        assert oracle.order() == group.order(), name
        gens = list(group.generators)
        for p in gens:
            assert is_automorphism(g, p), name
        for _ in range(12):
            images = list(range(g.n))
            rng.shuffle(images)
            word = Permutation.identity(g.n)
            for _ in range(rng.randint(0, 6) if gens else 0):
                word = word * rng.choice(gens)
            a, b = rng.sample(range(g.n), 2)
            twisted = word * Permutation.from_cycles(g.n, [(a, b)])
            for p in (Permutation(tuple(images)), word, twisted):
                assert group.contains(p) == oracle.contains(p), name
                assert group.contains(p) == is_automorphism(g, p), name
    assert sum(s.inner_gens() for s in searches) > 0


def test_twin_free_graphs_search_the_whole_graph():
    # Graphs without twins take the plain search, so their node counts,
    # bases and generators are those of a walk over the whole graph.
    rng = random.Random(16)
    n = rng.choice((6, 8, 10))
    a, b = random_cubic_edges(rng, n), random_cubic_edges(rng, n)
    cubic = graph_from_edges(3 * n, a + [(u + n, v + n) for u, v in a]
                             + [(u + 2 * n, v + 2 * n) for u, v in b])
    for g in (token_graph(hypercube(3), 2).graph,
              token_graph(complete_bipartite(3, 4), 3).graph,
              token_graph(cartesian_product([path_graph(3), cycle_graph(5)]), 2).graph,
              shuffled_copy(cubic, rng)[0]):
        assert len(_twin_classes(g)) == g.n
        search = _Search(g, None)
        search.run()
        res = automorphism_group(g)
        assert res.node_count == search.node_count
        assert res.group.generators == tuple(search.gens)


def first_path_cells(walk):
    """The target cell of each node on a walk's first path, read from the
    vertex order kept at that node; b_i opens the cell at depth i."""
    cells = [order[t:t + size] for order, t, size in
             zip(walk.snapshots, walk.targets, walk.target_sizes)]
    assert [cell[0] for cell in cells] == walk.base
    return cells


def assert_chain_within_first_path_cells(walk, name):
    # A walk's chain, seeded or not, keeps b_i's orbit on its level at b_i
    # inside b_i's target cell, so its order is at most the product of the
    # cells' sizes.
    cells = first_path_cells(walk)
    for lv in walk.chain._levels:
        assert set(lv.orbit) <= set(cells[walk.base.index(lv.point)]), name
    assert walk.chain.order() <= prod(map(len, cells)), name


def seeded_cases():
    """Seeded random twin-free graphs, half of them circulants (whose groups
    are large), twin blow-ups, and two larger twin-free token graphs, as
    (name, graph, whether the brute-force oracle applies)."""
    rng = random.Random(2121)
    cases = []
    while len(cases) < 80:
        n = rng.randint(5, 10)
        if len(cases) % 2:
            steps = {d for d in range(1, n // 2 + 1) if rng.random() < 0.5}
            g = graph_from_edges(n, [(v, (v + d) % n) for v in range(n)
                                     for d in steps if (v + d) % n != v])
        else:
            g = random_graph(rng, n)
        if len(_twin_classes(g)) == g.n:
            cases.append((f"twin-free{len(cases)}", shuffled_copy(g, rng)[0], True))
    cases += [(name, g, True) for name, g in twin_cases()[:40]]
    cases += [("F2(Q3)", token_graph(hypercube(3), 2).graph, False),
              ("F2(P3xC5)", token_graph(cartesian_product(
                  [path_graph(3), cycle_graph(5)]), 2).graph, False)]
    return cases


def test_seeded_walks_match_unseeded_and_brute_orders(searches):
    # A walk seeded with its graph's certified generators, all, none or a
    # random subset, gives the unseeded order, and the brute-force count
    # where it applies. Its chain holds exactly the automorphisms, its
    # generators generate them, and the order it reports for the seed is
    # the seed's Schreier-Sims order. Graphs with twins seed their
    # quotient's walk (see
    # test_seeded_twin_walks_match_unseeded_and_brute_orders).
    rng = random.Random(2122)
    pruned = proper = 0
    for name, g, brute in seeded_cases():
        plain = automorphism_group(g)
        order = plain.group.order()
        if brute:
            assert order == count_automorphisms_brute(g), name
        gens = list(plain.group.generators)
        for seed in ([], gens, rng.sample(gens, rng.randint(0, len(gens)))):
            res = automorphism_group(g, known=seed)
            group = res.group
            assert group.order() == order, name
            assert_chain_within_first_path_cells(searches[-1], name)
            assert schreier_sims(group.generators, degree=g.n).order() == order, name
            known = schreier_sims(seed, degree=g.n).order()
            assert res.known_order == known, name
            proper += (bool(seed) and len(_twin_classes(g)) == g.n
                       and bool(searches[-1].gens))
            pruned += res.node_count < plain.node_count
            for _ in range(4):
                word = Permutation.identity(g.n)
                for _ in range(rng.randint(0, 5) if gens else 0):
                    word = word * rng.choice(gens)
                images = list(range(g.n))
                rng.shuffle(images)
                for p in (word, Permutation(tuple(images))):
                    assert group.contains(p) == is_automorphism(g, p), name
    # The seeds pruned walks, and some fell short of Aut, so the walk had
    # to find generators of its own.
    assert pruned > 0 and proper > 0


FRUCHT_EDGES = [(0, 1), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 8), (3, 4),
                (3, 9), (4, 5), (4, 9), (5, 6), (5, 10), (6, 10), (7, 11),
                (8, 9), (8, 11), (10, 11)]


def twin_seed_cases():
    """Twin blow-ups and the Frucht graph with K_{1,2}, seeded with the
    generators of their group, and F_k(K_{2,n}) for 2 <= k <= n <= 6,
    seeded with the paper's generators, as (name, graph, generators); None
    stands for the group's own."""
    cases = [(name, g, None) for name, g in twin_cases()[:60]
             if len(_twin_classes(g)) < g.n]
    # The Frucht graph, cubic and rigid, so its first path point has a
    # trivial level, with K_{1,2}, whose leaves 13 and 14 are twins.
    cases.append(("Frucht+K1,2", graph_from_edges(15, FRUCHT_EDGES + [
        (12, 13), (12, 14)]), None))
    for n in range(2, 7):
        for k in range(2, n + 1):
            tg = token_graph(complete_bipartite(2, n), k)
            cases.append((f"F{k}(K2,{n})", tg.graph,
                          bipartite_generators(2, n, k, tg)))
    return cases


def test_seeded_twin_walks_match_unseeded_and_brute_orders(searches):
    # On a graph with twins the quotient's walk is seeded with the class
    # images of the known automorphisms: none, all, or a random subset of
    # certified generators with random words in them. The group keeps the
    # unseeded order, and the brute-force count where it applies; its
    # membership agrees with the edge check; its reported generators
    # generate it, and the reported order and orbits match. The reported
    # generators are a strong generating set relative to the reported
    # base, with no trivial level: the basic orbits, each that of those
    # generators that fix the earlier base points, are not trivial, and
    # their lengths multiply to the order. The order reported for the seed
    # is the seed's Schreier-Sims order.
    rng = random.Random(2222)
    pruned = generate = short = 0
    for name, g, gens in twin_seed_cases():
        classes = _twin_classes(g)
        assert len(classes) < g.n, name
        plain = automorphism_group(g)
        order = plain.group.order()
        if g.n <= 10:
            assert order == count_automorphisms_brute(g), name
        gens = list(plain.group.generators) if gens is None else gens
        words = []
        for _ in range(2):
            word = Permutation.identity(g.n)
            for _ in range(rng.randint(1, 4)):
                word = word * rng.choice(gens)
            words.append(word)
        subset = rng.sample(gens, rng.randint(0, len(gens))) + words
        for seed in ([], gens, subset):
            res = automorphism_group(g, known=seed)
            group = res.group
            assert isinstance(group, TwinGroup), name
            assert group.order() == order, name
            assert_chain_within_first_path_cells(searches[-1], name)
            known = schreier_sims(seed, degree=g.n).order()
            assert res.known_order == known, name
            generate += known == order
            short += bool(seed) and known < order
            pruned += res.node_count < plain.node_count
            report = group.to_report()
            assert report["order"] == str(order), name
            full = schreier_sims(group.generators, degree=g.n)
            assert full.order() == order, name
            assert all(plain.group.contains(p) for p in group.generators), name
            assert all(group.orbit(v) == full.orbit(v) for v in range(g.n)), name
            orbits = basic_orbits(group.base, group.generators)
            assert all(len(o) > 1 for o in orbits), name
            assert prod(map(len, orbits)) == order, name
            for _ in range(4):
                word = Permutation.identity(g.n)
                for _ in range(rng.randint(0, 5)):
                    word = word * rng.choice(gens)
                a, b = rng.sample(range(g.n), 2)
                twisted = word * Permutation.from_cycles(g.n, [(a, b)])
                images = list(range(g.n))
                rng.shuffle(images)
                for p in (word, twisted, Permutation(tuple(images))):
                    assert group.contains(p) == is_automorphism(g, p), name
    assert pruned > 0 and generate > 0 and short > 0


def test_twin_generator_count_needs_no_generator():
    # aut prints how many generators a twin group has without building
    # them: a lift per strong generator of the quotient chain, and a
    # transposition per class member after the first. Unseeded and seeded,
    # the count is that of the generators the report lists.
    for name, g, gens in twin_seed_cases():
        plain = automorphism_group(g).group
        count = plain.generator_count()
        assert "generators" not in vars(plain), name
        assert count == len(plain.generators), name
        seeded = automorphism_group(g, known=gens or plain.generators).group
        count = seeded.generator_count()
        assert "generators" not in vars(seeded), name
        assert count == len(seeded.generators), name


def basic_orbits(base, gens):
    """The orbit of each base point under the generators that fix the
    earlier base points, by breadth-first search."""
    orbits = []
    for i, b in enumerate(base):
        level = [p.images for p in gens
                 if all(p.images[a] == a for a in base[:i])]
        seen = {b}
        frontier = [b]
        while frontier:
            frontier = [y for y in {q[x] for x in frontier for q in level}
                        if y not in seen]
            seen.update(frontier)
        orbits.append(seen)
    return orbits


def test_seeded_chains_stop_at_the_first_path_bound(monkeypatch, searches):
    # The paper's generators seed the walks of F2(Q4), F2(P3xC5) and, in
    # its twin quotient, F3(K_{2,5}). Each chain reaches the product of the
    # first path's target-cell sizes, the order of the walked graph's
    # group, after a few random elements, so _grow_randomly stops there,
    # not at a stall of _STALL_SIFTS elements sifting to the identity, and
    # the walk finds no generator of its own.
    cases = []
    for name, factors, order, drawn in (
            ("F2(Q4)", [complete_graph(2)] * 4, 3072, 5),
            ("F2(P3xC5)", [path_graph(3), cycle_graph(5)], 40, 0)):
        tg = token_graph(cartesian_product(factors), 2)
        cases.append((name, tg, product_subgroup_generators(factors, tg),
                      order, drawn))
    tg = token_graph(complete_bipartite(2, 5), 3)
    cases.append(("F3(K2,5)", tg, bipartite_generators(2, 5, 3, tg), 120, 3))
    grows = []
    stops = []
    grow, grow_randomly = PermGroup._grow, PermGroup._grow_randomly

    def counted(self, p):
        grows.append(p)
        return grow(self, p)

    def recorded(self, bound):
        start = len(grows)
        stalled = grow_randomly(self, bound)
        drawn = len(grows) - start - len(self.generators)
        stops.append((stalled, self.order(), drawn))
        return stalled

    monkeypatch.setattr(PermGroup, "_grow", counted)
    monkeypatch.setattr(PermGroup, "_grow_randomly", recorded)
    for name, tg, gens, order, drawn in cases:
        stops.clear()
        res = automorphism_group(tg.graph, known=gens)
        walk = searches[-1]
        cells = prod(map(len, first_path_cells(walk)))
        assert cells == order and drawn < _STALL_SIFTS, name
        assert stops == [(False, order, drawn)], name
        assert not walk.gens, name
        assert res.known_order == res.group.order() \
            == schreier_sims(gens, degree=tg.graph.n).order(), name


def test_twin_seeds_generate_aut_only_when_they_span_the_twins(searches):
    # F3(K_{2,5}): 10 side swaps, each the transposition of one class of
    # two twins, and the lifts of a Y-transposition and of the Y-cycle.
    # Seeded with all 12, the quotient's walk finds nothing of its own and
    # the swaps connect every class: the seed generates Aut. Less one side
    # swap the walk again finds nothing, and the seed still generates Aut
    # (the lifts conjugate the other swaps onto it), but its transpositions
    # leave one class unconnected, so the walk cannot tell, and the seed's
    # order is taken at full degree. Less the Y-cycle's lift the walk finds
    # generators of its own, and the seed generates 2^11.
    g = token_graph(complete_bipartite(2, 5), 3).graph
    gens = bipartite_generators(2, 5, 3)
    assert [len(p.moved_points()) for p in gens] == [2] * 10 + [20, 35]
    plain = automorphism_group(g)
    assert plain.node_count == 9
    for seed, nodes, found, known in ((gens, 5, 0, 122880),
                                      (gens[1:], 5, 0, 122880),
                                      (gens[:-1], 8, 3, 2048)):
        res = automorphism_group(g, known=seed)
        assert res.group.order() == plain.group.order() == 122880
        assert (res.node_count, len(searches[-1].gens)) == (nodes, found)
        assert res.known_order == known \
            == schreier_sims(seed, degree=g.n).order()


def test_twin_seeds_with_identity_class_images_leave_the_walk_unseeded(
        searches):
    # Side swaps keep every twin class in place, so their class images are
    # the identity. They are dropped, so nothing seeds the quotient's walk:
    # its chain holds only the generators it finds, and it runs as an
    # unseeded walk does. The swaps connect every class, so they generate
    # T, of order 2^10.
    g = token_graph(complete_bipartite(2, 5), 3).graph
    swaps = bipartite_generators(2, 5, 3)[:10]
    plain = automorphism_group(g)
    res = automorphism_group(g, known=swaps)
    walk = searches[-1]
    assert walk.known == () and walk.chain.generators == tuple(walk.gens)
    assert res.node_count == plain.node_count
    assert res.known_order == schreier_sims(swaps).order() == 2 ** 10
    assert res.group.to_report() == plain.group.to_report()


def test_known_non_automorphisms_are_refused():
    # A known permutation that fails the edge check is refused before any
    # walk starts, with or without twins, so it never prunes.
    from tokenaut import CertificationError

    for g in (token_graph(hypercube(3), 2).graph,
              token_graph(complete_bipartite(2, 3), 2).graph):
        gens = list(automorphism_group(g).group.generators)
        bad = Permutation.from_cycles(g.n, [(0, g.n - 1)])
        assert not is_automorphism(g, bad)
        with pytest.raises(CertificationError, match="known automorphism"):
            automorphism_group(g, known=gens + [bad])
        with pytest.raises(CertificationError, match="known automorphism"):
            automorphism_group(g, known=[Permutation.identity(g.n - 1)])


def test_twin_classes():
    assert _twin_classes(complete_bipartite(2, 3)) == [[0, 1], [2, 3, 4]]
    assert _twin_classes(path_graph(4)) == [[0], [1], [2], [3]]
    # isolated vertices form one class
    assert _twin_classes(graph_from_edges(5, [(1, 3)])) == [[0, 2, 4], [1], [3]]


def test_lift_certifies_through_the_shared_loop(monkeypatch):
    # Vertices 0 and 1 are twins; the quotient's classes are {0,1}, {2},
    # {3}, {4}. Exchanging classes {2} and {4} is no automorphism, so its
    # lift must fail the edge check.
    from tokenaut import CertificationError, constructions
    g = graph_from_edges(5, [(0, 2), (1, 2), (2, 3), (3, 4)])
    assert _twin_classes(g) == [[0, 1], [2], [3], [4]]

    def corrupted(g, classes, max_nodes, known):
        search = _quotient_search(g, classes, max_nodes, known)
        search.gens.append(Permutation.from_cycles(4, [(1, 3)]))
        return search

    monkeypatch.setattr(search_module, "_quotient_search", corrupted)
    with pytest.raises(CertificationError, match="lifted quotient generator"):
        automorphism_group(g)
    assert constructions.certify is search_module.certify


def test_complete_bipartite_searches_take_at_most_three_nodes():
    # K_{m,n} is two twin classes, so its search runs on the quotient K2;
    # this is what bounds the unbudgeted base search of the bipartite
    # generators for m >= 3.
    for m in range(1, 9):
        for n in range(m, 9):
            res = automorphism_group(complete_bipartite(m, n))
            assert res.node_count <= 3, (m, n)
            want = factorial(m) * factorial(n) * (2 if m == n else 1)
            assert res.group.order() == want, (m, n)


def test_one_neighbour_table_per_graph():
    # Graph.nbrs lists each vertex's neighbours in ascending order, and the
    # walker's partitions read the graphs' own cached tables, not copies.
    graphs = fixtures() + [("isolated", graph_from_edges(6, [(1, 3), (3, 4)])),
                           ("K1", complete_graph(1))]
    for name, g in graphs:
        assert g.nbrs == tuple(tuple(g.neighbors(v)) for v in range(g.n)), name
        assert g.nbrs is g.nbrs, name
    g = shrikhande()
    h, _ = shuffled_copy(g, random.Random(3))
    assert _Search(g, None).part.nbrs is g.nbrs
    search = _Search(h, None, source=g)
    assert search.ref.nbrs is g.nbrs
    assert search.part.nbrs is h.nbrs


def test_twin_group_rejects_a_class_sent_into_a_class_of_another_size():
    # K_{2,3} has the classes {0,1} and {2,3,4}. Sending X into Y, or one
    # member of X into Y, leaves no class map of the same sizes.
    g = complete_bipartite(2, 3)
    group = automorphism_group(g).group
    assert [len(c) for c in group.classes] == [2, 3]
    for cycles in ([(0, 2), (1, 3)], [(1, 2)], [(0, 4, 1, 3)]):
        p = Permutation.from_cycles(5, cycles)
        assert group.class_image(p) is None, cycles
        assert not group.contains(p) and not is_automorphism(g, p), cycles
    with pytest.raises(ValueError, match="^degree mismatch: 4 vs 5$"):
        group.contains(Permutation.identity(4))


def test_twin_group_rejects_a_class_split_across_classes_of_its_size():
    # K_{3,3}: the classes {0,1,2} and {3,4,5} have one size, and the
    # quotient's group swaps them. A permutation that exchanges only
    # some of their members splits both, so it is no automorphism, even
    # though each class keeps a member that lands in the other class.
    g = complete_bipartite(3, 3)
    group = automorphism_group(g).group
    assert group.quotient.order() == 2
    for cycles in ([(0, 3)], [(0, 3), (1, 4)], [(0, 3, 1, 4)]):
        p = Permutation.from_cycles(6, cycles)
        assert group.class_image(p) is None, cycles
        assert not group.contains(p) and not is_automorphism(g, p), cycles
    swap = Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    assert group.class_image(swap).images == (1, 0)
    assert group.contains(swap) and group.contains(swap * Permutation(
        (1, 0, 2, 4, 5, 3)))


def test_twin_group_generators_are_lifts_and_twin_transpositions():
    # Order and membership come from the classes and the quotient's chain;
    # the reported generators, the lifts and each class's adjacent
    # transpositions, generate a group of that order.
    g = token_graph(complete_bipartite(2, 5), 3).graph
    group = automorphism_group(g).group
    assert group.quotient.degree == len(group.classes) == 25
    assert group.order() == 122880 == group.twin_order() * 120
    assert all(group.contains(p) for p in group._lifted)
    assert len(group.base) == 14
    oracle = schreier_sims(group.generators, degree=g.n)
    assert oracle.order() == group.order()
    twins = [p for p in group.generators if len(p.moved_points()) == 2]
    assert len(twins) == g.n - 25
    for p in twins:
        a, b = p.moved_points()
        assert group.class_of[a] == group.class_of[b]
        assert g.maps_edges_into(p.images, g) and group.contains(p)
