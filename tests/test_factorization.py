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
    ]
    for factors, expected in cases:
        g = cartesian_product(factors)
        f = prime_factor_decomposition(g)
        assert multiset_of_factor_types(f.factors, REFS) == expected
        assert f.certifies(g)


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
        assert (f.factors[i].adj[cu[i]] >> cv[i]) & 1


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
    assert [h.adj for h in a.factors] == [h.adj for h in b.factors]


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


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# (label, factors, then per relabeling the first 16 hex digits of the
# sha256 of repr of the factors' adjacency rows and of the witness).
# The factors are chosen by the layer enumeration alone. The witness is
# the first isomorphism the search finds onto the input, so it follows
# the refinement's cell order.
FACTOR_PINS = [
    ("Q4", [complete_graph(2)] * 4,
     [("035f52f58dee3fb0", "e3fdb23257ea1910"),
      ("035f52f58dee3fb0", "cf724161f74d116f")]),
    ("K2xP3xP3", [complete_graph(2), path_graph(3), path_graph(3)],
     [("01433d021e55004c", "d5f20feed258b12d"),
      ("01433d021e55004c", "d72d6edb13c47a91")]),
    ("C4xC5", [cycle_graph(4), cycle_graph(5)],
     [("5c6c854811e330de", "e61d4fb0930c85d6"),
      ("23c153917c38016d", "dc4cbd45321c8cf2")]),
]


def test_factors_and_witnesses_are_pinned():
    rng = random.Random(11)
    for label, factors, pins in FACTOR_PINS:
        g = cartesian_product(factors)
        for want in pins:
            images = list(range(g.n))
            rng.shuffle(images)
            h = g.relabel(images)
            f = prime_factor_decomposition(h)
            got = (_digest([x.adj for x in f.factors]), _digest(f.witness))
            assert got == want, label
            assert f.certifies(h), label
