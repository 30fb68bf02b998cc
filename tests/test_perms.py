"""Permutation arithmetic and the deterministic stabilizer chain."""

import random
from itertools import permutations
from math import factorial

import pytest

from tokenaut import (
    PermGroup,
    bounded_order,
    Permutation,
    automorphism_group,
    bipartite_generators,
    complete_graph,
    hypercube,
    permutation_from_str,
    permutation_to_str,
    predicted_order,
    product_subgroup_generators,
    schreier_sims,
    token_graph,
)


def test_permutations_compare_by_their_images():
    p = Permutation((1, 2, 0))
    assert p == Permutation.from_cycles(3, [(0, 1, 2)]) == p * p * p * p
    assert p != Permutation((0, 1, 2)) and p != (1, 2, 0)
    # the dataclass formula, hash((images,)), so set orders repeat
    assert hash(p) == hash(((1, 2, 0),)) == hash(p.inverse().inverse())
    assert len({p, p * p * p * p, p.inverse()}) == 2
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((0, 0, 1))


def test_composition_convention_locked():
    # (p o q)(i) = p(q(i)); evaluating (0 1) o (1 2) on all points gives [1,2,0]
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    assert (p * q).images == (1, 2, 0)
    assert [p(q(i)) for i in range(3)] == [1, 2, 0]
    assert (q * p).images == (2, 0, 1)


def test_products_at_degrees_one_and_zero():
    # Products are formed by an item getter, which returns a bare item,
    # not a tuple, when it gets one index.
    one = Permutation.identity(1)
    assert (one * one).images == (0,)
    assert (Permutation(()) * Permutation(())).images == ()
    assert bounded_order([one], 2) == 1
    assert schreier_sims([one]).order() == 1


def test_package_exports_resolve():
    import tokenaut
    from tokenaut import constructions, graphs, perms, tokens
    for name in tokenaut.__all__:
        assert hasattr(tokenaut, name), name
    # p * q and p.inverse() are the only spellings of these operations;
    # the rest had no caller but their own tests; swap generators take
    # plain (k-1)-subsets of Y and factor axes, so no family type is left
    for gone in ("compose", "inverse", "is_subgroup", "x_layer_partition",
                 "cube_slices", "twisted_subset_action", "y_permutation_lift",
                 "SwapFamily", "bipartite_family", "product_family",
                 "singleton_swap_families"):
        assert gone not in tokenaut.__all__
        assert not hasattr(tokenaut, gone)
        assert not any(hasattr(m, gone) for m in (perms, constructions))
    for cls, gone in ((perms.Permutation, "image_of_set"),
                      (tokens.TokenGraph, "rank_of")):
        assert not hasattr(cls, gone), gone
    # a graph is held as its neighbour lists alone
    for gone in ("adj", "from_nbrs"):
        assert not hasattr(graphs.path_graph(3), gone), gone
    assert not hasattr(graphs, "_bits")


def test_identity_and_inverse():
    e = Permutation.identity(5)
    p = Permutation((2, 0, 3, 1, 4))
    assert (p * e) == p and (e * p) == p
    assert (p * p.inverse()) == e and (p.inverse() * p) == e
    assert p.inverse().inverse() == p


def test_from_cycles_and_cycles_round_trip():
    p = Permutation.from_cycles(6, [(0, 3), (1, 4, 5)])
    assert p(0) == 3 and p(3) == 0 and p(1) == 4 and p(4) == 5 and p(5) == 1
    assert p(2) == 2
    rebuilt = Permutation.from_cycles(6, p.cycles())
    assert rebuilt == p
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 0)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 3)])


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))
    p = Permutation((1, 0))
    q = Permutation((1, 0, 2))
    with pytest.raises(ValueError):
        p * q


def test_image_of_set_and_min_moved():
    p = Permutation.from_cycles(5, [(0, 2, 4)])
    assert p.min_moved() == 0
    assert Permutation.identity(4).min_moved() is None


def test_serialization_round_trip():
    p = Permutation((3, 0, 2, 1))
    s = permutation_to_str(p)
    assert s == "[3,0,2,1]"
    assert permutation_from_str(s) == p
    with pytest.raises(ValueError):
        permutation_from_str("[0,0]")


def test_symmetric_group_orders():
    for n in range(2, 7):
        gens = [Permutation.from_cycles(n, [(0, 1)]),
                Permutation.from_cycles(n, [tuple(range(n))])]
        g = schreier_sims(gens)
        assert g.order() == factorial(n)
        assert g.degree == n


def test_cyclic_and_dihedral():
    rot = Permutation.from_cycles(5, [tuple(range(5))])
    assert schreier_sims([rot]).order() == 5
    flip = Permutation(tuple((5 - i) % 5 for i in range(5)))
    assert schreier_sims([rot, flip]).order() == 10


def test_trivial_group_needs_degree():
    g = schreier_sims([], degree=4)
    assert g.order() == 1
    assert g.contains(Permutation.identity(4))
    assert not g.contains(Permutation((1, 0, 2, 3)))
    with pytest.raises(ValueError):
        schreier_sims([])


def test_membership_exact_on_s4_subgroups():
    # <(0 1)(2 3), (0 2)(1 3)> is the Klein four-group inside S_4
    a = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    b = Permutation.from_cycles(4, [(0, 2), (1, 3)])
    v4 = schreier_sims([a, b])
    assert v4.order() == 4
    members = {p.images for p in v4.elements()}
    expected = set()
    for p in permutations(range(4)):
        q = Permutation(p)
        if q in (a, b, a * b) or q.is_identity():
            expected.add(q.images)
    assert members == expected
    for p in permutations(range(4)):
        q = Permutation(p)
        assert v4.contains(q) == (q.images in members)


def test_elements_round_trip_and_order_matches_enumeration():
    gens = [Permutation.from_cycles(4, [(0, 1, 2, 3)]),
            Permutation.from_cycles(4, [(0, 1)])]
    g = schreier_sims(gens)
    elems = list(g.elements())
    assert len(elems) == g.order() == 24
    assert len({e.images for e in elems}) == 24
    for e in elems:
        assert g.contains(e)


def test_determinism():
    gens = [Permutation.from_cycles(6, [(0, 1)]),
            Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]
    a = schreier_sims(gens)
    b = schreier_sims(gens)
    assert a.order() == b.order() == 720
    assert a.base == b.base
    sample = [Permutation.from_cycles(6, [(1, 4)]), Permutation.identity(6)]
    for p in sample:
        assert a.contains(p) == b.contains(p)


def test_to_report_fields():
    g = schreier_sims([Permutation.from_cycles(3, [(0, 1, 2)])])
    rep = g.to_report()
    assert rep["degree"] == 3
    assert rep["order"] == "3"
    assert rep["generators"] == ["[1,2,0]"]
    assert isinstance(rep["base"], list)


def test_large_order_no_overflow():
    # hyperoctahedral construction on 10 blocks of 2: order 2^10 * 10!
    n = 20
    gens = [Permutation.from_cycles(n, [(0, 1)]),
            Permutation.from_cycles(n, [(0, 2), (1, 3)]),
            Permutation(tuple((i + 2) % n for i in range(n)))]
    order = schreier_sims(gens).order()
    assert order == (2 ** 10) * factorial(10)


def test_orbit():
    g = schreier_sims([Permutation.from_cycles(5, [(0, 1, 2)])])
    assert g.orbit(0) == {0, 1, 2}
    assert g.orbit(4) == {4}


def test_degree_mismatch_rejected():
    g = schreier_sims([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError):
        g.contains(Permutation((1, 0)))


def closure(gens, n):
    """Brute-force group generated by gens: BFS over image tuples."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g.images[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def random_generators(rng, n):
    """One to three permutations, each shuffling a random subset of points,
    so that intransitive and small groups occur as well as S_n and A_n."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(n), rng.randint(2, n))
        shuffled = support[:]
        rng.shuffle(shuffled)
        images = list(range(n))
        for a, b in zip(support, shuffled):
            images[a] = b
        gens.append(Permutation(tuple(images)))
    return gens


def test_random_chains_match_brute_force_closure():
    rng = random.Random(20231)
    for _ in range(300):
        n = rng.randint(2, 7)
        gens = random_generators(rng, n)
        group = schreier_sims(gens, degree=n)
        members = closure(gens, n)
        assert group.order() == len(members), gens
        assert schreier_sims(gens, degree=n).base == group.base
        if n <= 6:
            for p in permutations(range(n)):
                assert group.contains(Permutation(p)) == (p in members), (gens, p)


def test_chain_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    cases = [bipartite_generators(2, n, k)
             for n, k in ((5, 3), (6, 3), (7, 3), (5, 4), (6, 4))]
    cases += [product_subgroup_generators([complete_graph(2)] * r) for r in (3, 4)]
    cases.append(list(automorphism_group(token_graph(hypercube(4), 2).graph)
                      .group.generators))
    for gens in cases:
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p.images)) for p in gens])
        assert schreier_sims(gens).order() == oracle.order()
    # Random sets past the brute-force degrees. Most generate a group
    # below n!, so bounded_order completes a randomly grown chain.
    rng = random.Random(20232)
    for _ in range(10):
        n = rng.randint(8, 30)
        gens = random_generators(rng, n)
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p.images)) for p in gens])
        group = schreier_sims(gens, degree=n)
        assert group.order() == bounded_order(gens, factorial(n)) \
            == oracle.order(), gens
        products = [rng.choice(gens) * rng.choice(gens) * rng.choice(gens)
                    for _ in range(3)]
        shuffled = [list(range(n)) for _ in range(5)]
        for images in shuffled:
            rng.shuffle(images)
        for p in products + [Permutation(tuple(q)) for q in shuffled]:
            want = oracle.contains(combinatorics.Permutation(list(p.images)))
            assert group.contains(p) == want, (gens, p)


def proper_subgroups(n):
    """Generator sets of proper subgroups of S_n: A_n, the dihedral group,
    the cyclic group and an intransitive S_{n-1}."""
    cycle = Permutation.from_cycles(n, [tuple(range(n))])
    return [
        [Permutation.from_cycles(n, [(0, 1, 2)]),
         Permutation.from_cycles(n, [tuple(range(n - (n % 2 == 0)))])],
        [cycle, Permutation(tuple((-i) % n for i in range(n)))],
        [cycle],
        [Permutation.from_cycles(n, [(0, 1)]),
         Permutation.from_cycles(n, [tuple(range(n - 1))])],
    ]


def test_bounded_order_meets_its_bound():
    rng = random.Random(3301)
    for _ in range(200):
        n = rng.randint(2, 7)
        gens = random_generators(rng, n)
        order = len(closure(gens, n))
        assert bounded_order(gens, order) == order, gens
    for r in (3, 4):
        gens = product_subgroup_generators([complete_graph(2)] * r)
        order = schreier_sims(gens).order()
        assert bounded_order(gens, order) == order


def test_bounded_order_falls_back_below_the_bound():
    # A group smaller than its bound never reaches it; the full chain then
    # gives the exact order.
    for n in range(4, 9):
        for gens in proper_subgroups(n):
            want = schreier_sims(gens).order()
            assert want < factorial(n)
            assert bounded_order(gens, factorial(n)) == want, (n, gens)
    rng = random.Random(3302)
    for _ in range(100):
        n = rng.randint(2, 7)
        gens = random_generators(rng, n)
        assert bounded_order(gens, factorial(n)) == len(closure(gens, n)), gens
    assert bounded_order([], 6, degree=3) == 1


def test_bounded_order_completes_the_chain_it_grew(monkeypatch):
    # Below its bound, bounded_order finishes its own chain by
    # Schreier-Sims: one chain per call, and no schreier_sims run.
    from tokenaut import perms

    without_complement = bipartite_generators(2, 6, 4)[:-1]
    cases = [(without_complement, predicted_order(2, 6, 4).order)]
    cases += [(gens, factorial(8)) for gens in proper_subgroups(8)]
    wants = [schreier_sims(gens).order() for gens, _ in cases]
    built = []
    init = perms.PermGroup.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("bounded_order ran schreier_sims")

    monkeypatch.setattr(perms.PermGroup, "__init__", counted)
    monkeypatch.setattr(perms, "schreier_sims", refused)
    for (gens, bound), want in zip(cases, wants):
        assert want < bound
        assert bounded_order(gens, bound) == want
        assert len(built) == 1
        built.clear()


def test_bounded_order_is_deterministic():
    gens = bipartite_generators(2, 6, 3)
    order = schreier_sims(gens).order()
    for bound in (order, 2 * order):
        assert bounded_order(gens, bound) == bounded_order(gens, bound) == order


def test_slot_draws_follow_random_sample():
    # _grow_randomly's pair of slots is the pair random.sample draws, and
    # the stream is left where sample leaves it, at sizes on both sides of
    # sample's switch from a pool to a set (21 for two draws), so chains,
    # bases and orders grown from the draws stay as they were.
    from tokenaut.perms import _two_slots

    for size in list(range(2, 30)) + [40, 64, 100]:
        for seed in range(5):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(20):
                assert _two_slots(ours, size) == tuple(
                    theirs.sample(range(size), 2)), (size, seed)
            assert ours.random() == theirs.random(), (size, seed)


def test_bounded_order_rejects_bad_bounds():
    gens = [Permutation.from_cycles(5, [(0, 1)]),
            Permutation.from_cycles(5, [tuple(range(5))])]
    with pytest.raises(ValueError):
        bounded_order(gens, 60)  # |S_5| = 120
    with pytest.raises(ValueError):
        bounded_order(gens, 0)
    with pytest.raises(ValueError):
        bounded_order([], 1)


def test_generators_are_deduplicated_in_first_seen_order():
    a = Permutation.from_cycles(4, [(0, 1)])
    b = Permutation.from_cycles(4, [(1, 2, 3)])
    c = Permutation.from_cycles(4, [(0, 3)])
    ident = Permutation.identity(4)
    listed = [ident, b, a, Permutation(b.images), ident, c, a, b]
    assert PermGroup(4, listed).generators == (b, a, c)
    assert PermGroup._on_base(4, (0, 1, 2), listed).generators == (b, a, c)
    assert PermGroup(4, [ident, ident]).generators == ()
    with pytest.raises(ValueError, match="^generator degree 2 != group degree 3$"):
        PermGroup(3, [Permutation((1, 0))])


def test_a_chain_base_with_a_repeated_or_outside_point_is_refused():
    gens = [Permutation.from_cycles(4, [(0, 1)])]
    for base in ((0, 1, 0), (0, 4)):
        with pytest.raises(ValueError, match="^base points must be distinct "
                           r"points of 0\.\.degree-1$"):
            PermGroup._on_base(4, base, gens)


def assert_schreier_tree(group):
    """Each level stores g^-1 beside every strong generator g, and each
    orbit point x but the base point was reached from an earlier orbit
    point w by some g, with u_x^-1 = u_w^-1 g^-1 stored as their product,
    or as g^-1 itself when w is the base point."""
    identity = tuple(range(group.degree))
    for lv in group._levels:
        assert len(lv.ginv) == len(lv.gens)
        for g, gi in zip(lv.gens, lv.ginv):
            assert tuple(g[j] for j in gi) == identity
        assert set(lv.inv) == set(lv.orbit)
        assert lv.inv[lv.point] == identity
        for p, x in enumerate(lv.orbit[1:], 1):
            vx = lv.inv[x]
            assert vx[x] == lv.point
            assert any(
                g[w] == x and vx == (gi if q == 0 else
                                     tuple(lv.inv[w][j] for j in gi))
                for q, w in enumerate(lv.orbit[:p])
                for g, gi in zip(lv.gens, lv.ginv))


def test_transversals_are_products_with_stored_inverses():
    # Chains that unseeded searches grew come first: with wrong
    # transversals, Schreier-Sims need not terminate.
    assert_schreier_tree(automorphism_group(complete_graph(4)).group)
    assert_schreier_tree(
        automorphism_group(token_graph(hypercube(3), 2).graph).group)
    assert_schreier_tree(schreier_sims(bipartite_generators(2, 5, 3)))
    assert_schreier_tree(schreier_sims(
        product_subgroup_generators([complete_graph(2)] * 3)))


def test_malformed_permutation_text_is_refused():
    with pytest.raises(ValueError,
                       match=r"^expected '\[i0,i1,\.\.\.\]', got '1,2'$"):
        permutation_from_str("1,2")


def test_reprs_show_cycles_and_orders():
    assert repr(Permutation.identity(3)) == "<id on 3>"
    assert repr(Permutation((1, 2, 0, 3))) == "(0 1 2)"
    assert repr(PermGroup(3, [Permutation((1, 2, 0))])) \
        == "<PermGroup degree=3 order=3>"
