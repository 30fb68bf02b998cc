"""Prime factorization of connected graphs under the Cartesian product."""

import hashlib
import itertools
import random

import pytest

from tokenaut import (
    Factorization,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    hypercube,
    is_isomorphic,
    is_prime,
    path_graph,
    prime_factor_decomposition,
    star_graph,
)

from bitmask_rows import rows_of


def multiset_of_factor_types(factors, references):
    """Match each factor to a reference graph up to isomorphism."""
    out = []
    for f in factors:
        for name, ref in references:
            if f.n == ref.n and is_isomorphic(f, ref) is not None:
                out.append(name)
                break
        else:
            out.append(f"?n={f.n}")
    return sorted(out)


REFS = [
    ("K2", complete_graph(2)),
    ("K3", complete_graph(3)),
    ("P3", path_graph(3)),
    ("P4", path_graph(4)),
    ("C5", cycle_graph(5)),
    ("C6", cycle_graph(6)),
    ("K1,3", star_graph(3)),
]


def test_prime_examples():
    assert is_prime(path_graph(3))
    assert is_prime(complete_bipartite(3, 3))
    assert is_prime(complete_graph(2))
    assert is_prime(cycle_graph(5))
    assert is_prime(star_graph(4))
    assert not is_prime(cycle_graph(4))
    assert not is_prime(hypercube(3))


def test_four_cycle_is_square_of_an_edge():
    f = prime_factor_decomposition(cycle_graph(4))
    assert multiset_of_factor_types(f.factors, REFS) == ["K2", "K2"]
    assert f.certifies(cycle_graph(4))


def test_cube_splits_into_three_edges():
    f = prime_factor_decomposition(hypercube(3))
    assert multiset_of_factor_types(f.factors, REFS) == ["K2", "K2", "K2"]


def test_mixed_product_recovery():
    cases = [
        ([complete_graph(2), path_graph(3)], ["K2", "P3"]),
        ([complete_graph(2), cycle_graph(5)], ["C5", "K2"]),
        ([path_graph(3), path_graph(4)], ["P3", "P4"]),
        ([complete_graph(3), complete_graph(2)], ["K2", "K3"]),
        ([cycle_graph(5), cycle_graph(6)], ["C5", "C6"]),
        ([path_graph(4), cycle_graph(5), complete_graph(3)], ["C5", "K3", "P4"]),
    ]
    for factors, expected in cases:
        g = cartesian_product(factors)
        f = prime_factor_decomposition(g)
        assert multiset_of_factor_types(f.factors, REFS) == expected
        assert f.certifies(g)


def _random_connected(rng, n):
    """A random spanning tree plus each other pair with a random chance."""
    p = rng.choice([0.0, 0.2, 0.4, 0.7])
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
              if rng.random() < p}
    return graph_from_edges(n, sorted(edges))


def _connected_graphs_by_size(top):
    """One connected graph per isomorphism type on 2..top vertices, found
    by trying every edge set."""
    out = {}
    for n in range(2, top + 1):
        pairs = list(itertools.combinations(range(n), 2))
        reps = []
        for mask in range(1 << len(pairs)):
            g = graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if g.is_connected() and all(
                    h.degree_sequence() != g.degree_sequence()
                    or is_isomorphic(h, g) is None for h in reps):
                reps.append(g)
        out[n] = reps
    return out


def test_primality_agrees_with_an_exhaustive_product_oracle():
    # For n <= 10 a graph is not prime exactly when some connected A and B
    # on 2 or more vertices with |A| |B| = n and |A| e(B) + |B| e(A) = e(g)
    # have a product isomorphic to g.
    small = _connected_graphs_by_size(5)

    def oracle_prime(g):
        return not any(
            a.n * b.edge_count() + b.n * a.edge_count() == g.edge_count()
            and is_isomorphic(cartesian_product([a, b]), g) is not None
            for sa in range(2, 4) if g.n % sa == 0 and sa <= g.n // sa
            for a in small[sa] for b in small[g.n // sa])

    assert [len(small[n]) for n in range(2, 6)] == [1, 2, 6, 21]
    rng = random.Random(5)
    graphs = [_random_connected(rng, rng.randrange(2, 11)) for _ in range(60)]
    for _ in range(60):
        sizes = rng.choice([(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (2, 2, 2)])
        g = cartesian_product([_random_connected(rng, n) for n in sizes])
        images = list(range(g.n))
        rng.shuffle(images)
        graphs.append(g.relabel(images))
    primes = 0
    for g in graphs:
        want = oracle_prime(g)
        primes += want
        assert is_prime(g) == want, g.edges()
        f = prime_factor_decomposition(g)
        assert f.certifies(g)
        assert (len(f.factors) == 1) == want, g.edges()
        for h in f.factors:
            assert oracle_prime(h), (g.edges(), h.edges())
    assert primes == 60  # the 60 random graphs, not the 60 products


def test_prime_input_returns_itself():
    g = complete_bipartite(2, 3)
    f = prime_factor_decomposition(g)
    assert len(f.factors) == 1
    assert is_isomorphic(f.factors[0], g) is not None
    assert f.certifies(g)


def test_witness_is_a_product_isomorphism():
    g = cartesian_product([path_graph(3), complete_graph(2)])
    f = prime_factor_decomposition(g)
    sizes = [h.n for h in f.factors]
    assert len(f.witness) == g.n
    assert sorted(f.witness) == sorted(itertools.product(*map(range, sizes)))
    # adjacency transported through the witness differs in one coordinate
    # along an edge of that coordinate's factor
    for u, v in g.edges():
        cu, cv = f.witness[u], f.witness[v]
        diff = [i for i in range(len(sizes)) if cu[i] != cv[i]]
        assert len(diff) == 1
        i = diff[0]
        assert f.factors[i].has_edge(cu[i], cv[i])


def test_factors_are_prime_and_sorted():
    g = cartesian_product([cycle_graph(4), path_graph(3)])  # C4 splits again
    f = prime_factor_decomposition(g)
    assert multiset_of_factor_types(f.factors, REFS) == ["K2", "K2", "P3"]
    for h in f.factors:
        assert is_prime(h)
    keys = [(h.n, h.edge_count()) for h in f.factors]
    assert keys == sorted(keys)


def test_relabeling_stability():
    rng = random.Random(3)
    g = cartesian_product([complete_graph(2), path_graph(3)])
    want = multiset_of_factor_types(prime_factor_decomposition(g).factors, REFS)
    for _ in range(5):
        images = list(range(g.n))
        rng.shuffle(images)
        h = g.relabel(images)
        f = prime_factor_decomposition(h)
        assert multiset_of_factor_types(f.factors, REFS) == want
        assert f.certifies(h)


def test_determinism():
    g = hypercube(3)
    a = prime_factor_decomposition(g)
    b = prime_factor_decomposition(g)
    assert a.witness == b.witness
    assert [h.nbrs for h in a.factors] == [h.nbrs for h in b.factors]


def test_rejects_disconnected_and_trivial():
    with pytest.raises(ValueError):
        prime_factor_decomposition(graph_from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        prime_factor_decomposition(graph_from_edges(1, []))
    with pytest.raises(ValueError):
        is_prime(graph_from_edges(4, [(0, 1), (2, 3)]))


def test_certifies_rejects_wrong_graph():
    g = cartesian_product([complete_graph(2), path_graph(3)])
    f = prime_factor_decomposition(g)
    assert f.certifies(g)
    assert not f.certifies(path_graph(6))
    assert not f.certifies(cycle_graph(6))
    # a bijective witness with two coordinate tuples swapped
    swapped = list(f.witness)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not Factorization(f.factors, tuple(swapped)).certifies(g)
    # every edge of g less one still maps to a product edge
    assert not f.certifies(graph_from_edges(g.n, g.edges()[1:]))


def test_certifies_rejects_malformed_witnesses():
    g = cycle_graph(4)
    f = prime_factor_decomposition(g)
    assert f.certifies(g)
    witness = list(f.witness)
    for bad in (witness[:-1],                          # one vertex short
                [witness[0][:1]] + witness[1:],        # one coordinate short
                [(witness[0][0], 2)] + witness[1:],    # coordinate past 0..1
                [witness[1]] + witness[1:]):           # two vertices coincide
        assert not Factorization(f.factors, tuple(bad)).certifies(g), bad


def test_read_off_witness_on_relabeled_products():
    # The witness is read off the edge classes: vertex 0 is the origin of
    # every layer, and a prime graph's one layer is the whole graph in
    # ascending order.
    primes = [("K2", complete_graph(2)), ("K3", complete_graph(3)),
              ("P3", path_graph(3)), ("P4", path_graph(4)),
              ("C5", cycle_graph(5)), ("K1,3", star_graph(3))]
    rng = random.Random(30)
    cases = [(["K2"] * 7, hypercube(7))]
    for _ in range(40):
        chosen = rng.choices(primes, k=rng.randrange(1, 4))
        cases.append(([name for name, _ in chosen],
                      cartesian_product([f for _, f in chosen])))
    for types, g in cases:
        images = list(range(g.n))
        rng.shuffle(images)
        h = g.relabel(images)
        f = prime_factor_decomposition(h)
        assert multiset_of_factor_types(f.factors, REFS) == sorted(types)
        assert f.witness[0] == (0,) * len(types)
        if len(types) == 1:
            assert f.witness == tuple((v,) for v in range(h.n))
        assert f.certifies(h), types


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# (label, factors, the prime factors' isomorphism types, then per
# relabeling the first 16 hex digits of the sha256 of repr of the
# factors' adjacency rows and of the witness).
# Each factor is the layer through vertex 0 of one class of the product
# relation, induced on its vertices in ascending order. The witness is
# read off the classes: each coordinate is a position in one of those
# layers.
FACTOR_PINS = [
    ("Q4", [complete_graph(2)] * 4, ["K2"] * 4,
     [("035f52f58dee3fb0", "50119db2a4500e4a"),
      ("035f52f58dee3fb0", "1cb0464471131129")]),
    ("K2xP3xP3", [complete_graph(2), path_graph(3), path_graph(3)],
     ["K2", "P3", "P3"],
     [("01433d021e55004c", "ac448ca751ef1423"),
      ("5164b86e3bb77f02", "94c1e5f5a3d8c2c4")]),
    ("C4xC5", [cycle_graph(4), cycle_graph(5)], ["C5", "K2", "K2"],
     [("5c6c854811e330de", "33ce43ebddc40c40"),
      ("23c153917c38016d", "dc4cbd45321c8cf2")]),
]


def test_factors_and_witnesses_are_pinned():
    rng = random.Random(11)
    for label, factors, types, pins in FACTOR_PINS:
        g = cartesian_product(factors)
        for want in pins:
            images = list(range(g.n))
            rng.shuffle(images)
            h = g.relabel(images)
            f = prime_factor_decomposition(h)
            got = (_digest([rows_of(x) for x in f.factors]), _digest(f.witness))
            assert got == want, label
            assert multiset_of_factor_types(f.factors, REFS) == types, label
            assert f.certifies(h), label
