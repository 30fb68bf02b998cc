"""Token-graph construction and the complement bijection."""

import random
from itertools import combinations
from math import comb

import pytest

from tokenaut import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    hypercube,
    is_isomorphic,
    ksubsets,
    path_graph,
    rank,
    star_graph,
    token_graph,
    unrank,
)
from tokenaut.tokens import config_index, lift_masks, mask_ranks


def brute_token_adjacency(base, k):
    """Oracle: adjacency from the definition, |A ^ B| = 2 across a base edge."""
    subs = sorted(combinations(range(base.n), k), key=lambda s: s[::-1])
    index = {s: i for i, s in enumerate(subs)}
    edges = set()
    for a in subs:
        for b in subs:
            d = set(a) ^ set(b)
            if len(d) == 2 and base.has_edge(*sorted(d)):
                edges.add((min(index[a], index[b]), max(index[a], index[b])))
    return subs, edges


FIXTURES = [
    complete_graph(3), complete_graph(4), path_graph(3), path_graph(4),
    cycle_graph(4), cycle_graph(5), star_graph(3),
    complete_bipartite(2, 2), complete_bipartite(2, 3), hypercube(3),
]


def test_matches_definition_oracle():
    for base in FIXTURES:
        for k in range(1, base.n):
            if comb(base.n, k) > 70:
                continue
            tg = token_graph(base, k)
            subs, edges = brute_token_adjacency(base, k)
            assert tg.configs == tuple(subs)
            assert set(tg.graph.edges()) == edges


def random_bases(count=60, seed=20):
    """Seeded random graphs on 3 to 9 vertices. Every third graph has its
    vertices above a random cut isolated, and the edge density ranges from
    none to dense, so disconnected graphs come up too."""
    rng = random.Random(seed)
    bases = []
    for i in range(count):
        n = rng.randint(3, 9)
        p = rng.choice((0.0, 0.2, 0.35, 0.5, 0.8))
        live = rng.randint(1, n - 1) if i % 3 == 0 else n
        edges = [(u, v) for u, v in combinations(range(live), 2)
                 if rng.random() < p]
        bases.append(graph_from_edges(n, edges))
    return bases


def test_token_moves_match_the_definition_on_random_bases():
    bases = random_bases()
    assert any(not g.is_connected() for g in bases)
    assert any(g.degree(u) == 0 for g in bases for u in range(g.n))
    checked = 0
    for base in bases:
        for k in range(1, base.n):
            if comb(base.n, k) > 126:
                continue
            tg = token_graph(base, k)
            subs, edges = brute_token_adjacency(base, k)
            assert tg.configs == tuple(subs)
            assert set(tg.graph.edges()) == edges
            # the neighbour table the build hands over is the rows' table
            assert tg.graph.nbrs == tuple(tuple(tg.graph.neighbors(u))
                                          for u in range(tg.graph.n))
            checked += 1
    assert checked > 300


def test_edge_count_law_on_large_token_graphs():
    for base, k in ((hypercube(6), 2), (complete_bipartite(2, 12), 6)):
        tg = token_graph(base, k)
        assert tg.graph.n == comb(base.n, k)
        assert tg.graph.edge_count() == comb(base.n - 2, k - 1) * base.edge_count()


def test_one_token_graph_is_the_base():
    for base in FIXTURES:
        tg = token_graph(base, 1)
        assert tg.graph.nbrs == base.nbrs


def test_edge_count_law():
    # each base edge contributes C(n-2, k-1) token edges
    for base in FIXTURES:
        for k in range(1, base.n):
            tg = token_graph(base, k)
            assert tg.graph.edge_count() == comb(base.n - 2, k - 1) * base.edge_count()


def test_known_isomorphisms():
    assert is_isomorphic(token_graph(path_graph(3), 2).graph, path_graph(3)) is not None
    assert is_isomorphic(token_graph(star_graph(3), 2).graph, cycle_graph(6)) is not None
    assert is_isomorphic(token_graph(complete_bipartite(2, 2), 2).graph,
                         complete_bipartite(2, 4)) is not None


def test_range_checks():
    with pytest.raises(ValueError):
        token_graph(complete_graph(3), 0)
    with pytest.raises(ValueError):
        token_graph(complete_graph(3), 3)
    with pytest.raises(ValueError):
        token_graph(complete_graph(1), 1)


def test_config_lookup():
    tg = token_graph(complete_bipartite(2, 3), 2)
    for r in range(tg.graph.n):
        sub = tg.configs[r]
        assert rank(sub, 5) == r
        assert sub == unrank(r, 5, 2)


def complement_ranks(n, k):
    """Rank table of the complement bijection from k-subsets to
    (n-k)-subsets: entry r is the colex rank of the complement of the
    rank-r k-subset."""
    return [rank(set(range(n)).difference(unrank(r, n, k)), n)
            for r in range(comb(n, k))]


def test_complement_map_is_isomorphism():
    for base in FIXTURES:
        n = base.n
        for k in range(1, n):
            cm = complement_ranks(n, k)
            back = complement_ranks(n, n - k)
            fk = token_graph(base, k).graph
            fnk = token_graph(base, n - k).graph
            assert all(back[cm[r]] == r for r in range(fk.n))
            for u in range(fk.n):
                for v in range(u + 1, fk.n):
                    assert fk.has_edge(u, v) == fnk.has_edge(cm[u], cm[v])


def test_complement_map_frozen_example():
    cm = complement_ranks(4, 2)
    assert cm[0] == 5  # {0,1} -> {2,3}
    assert [cm[r] for r in range(6)] == [5, 4, 3, 2, 1, 0]


def test_bipartite_degree_formula():
    # deg(A) = j(n-k+j) + (k-j)(m-j) where j = |A n X|
    for m in range(1, 5):
        for n in range(m, 9 - m + 1):
            base = complete_bipartite(m, n)
            for k in range(1, m + n):
                tg = token_graph(base, k)
                for r, sub in enumerate(tg.configs):
                    j = sum(1 for v in sub if v < m)
                    assert tg.graph.degree(r) == j * (n - k + j) + (k - j) * (m - j)


def test_cube_two_token_degrees():
    for r in (3, 4):
        tg = token_graph(hypercube(r), 2)
        for rank_, (x, y) in enumerate(tg.configs):
            expect = 2 * r - 2 if hypercube(r).has_edge(x, y) else 2 * r
            assert tg.graph.degree(rank_) == expect


def test_rank_index_lookup_is_a_validation():
    configs, index = config_index(6, 3)
    assert configs == tuple(ksubsets(6, 3))
    assert list(index) == [sum(1 << v for v in a) for a in configs]
    assert mask_ranks(index, lift_masks(configs, range(6))) == tuple(range(20))
    swap = [1, 0, 2, 3, 4, 5]
    assert mask_ranks(index, lift_masks(configs, swap)) == tuple(
        rank({swap[v] for v in a}, 6) for a in configs)
    for bad in (
        [0, 0, 2, 3, 4, 5],    # a repeated point
        [0, 1, 2, 3, 4, 6],    # a point past n - 1
        [-1, 1, 2, 3, 4, 5],   # a point below 0
    ):
        with pytest.raises(ValueError):
            mask_ranks(index, lift_masks(configs, bad))
    for bad in (0b11, 0b1111):  # too few, too many members
        with pytest.raises(ValueError, match="not a configuration"):
            mask_ranks(index, [0b111, bad])
