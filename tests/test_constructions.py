"""Constructed token-graph automorphisms and closed-form order predictions."""

import hashlib
import itertools
import random
from math import comb

import pytest

from tokenaut import (
    BipartiteSpec,
    CertificationError,
    Permutation,
    automorphism_group,
    bipartite_generators,
    complement_automorphism,
    complete_bipartite,
    complete_graph,
    coordinate_swap_product,
    cycle_graph,
    distance_matrix,
    graph_from_edges,
    hypercube,
    is_isomorphic,
    ksubsets,
    lift_to_token_graph,
    path_graph,
    predicted_order,
    predicted_order_cube,
    product_subgroup_generators,
    schreier_sims,
    side_swap_bipartite,
    side_swap_subsets,
    star_graph,
    token_graph,
)
from tokenaut.search import certify

# -- lifting base automorphisms -----------------------------------------


def test_lift_is_injective_homomorphism():
    base = complete_bipartite(2, 3)
    tg = token_graph(base, 2)
    elements = list(automorphism_group(base).group.elements())
    assert len(elements) == 12
    lifted = {p: lift_to_token_graph(p, tg) for p in elements}
    assert len(set(lifted.values())) == len(elements)  # injective
    ident = Permutation.identity(base.n)
    assert lifted[ident].is_identity()
    for p in elements:
        for q in elements:
            assert lifted[p * q] == lifted[p] * lifted[q]


def test_lift_rejects_bad_input():
    tg = token_graph(path_graph(4), 2)
    with pytest.raises(ValueError):
        lift_to_token_graph(Permutation((1, 0, 2, 3)), tg)  # not an automorphism
    with pytest.raises(ValueError):
        lift_to_token_graph(Permutation((0, 1, 2)), tg)  # degree mismatch


# -- complement involution ------------------------------------------------


def test_complement_requires_half_tokens():
    with pytest.raises(ValueError):
        complement_automorphism(token_graph(complete_bipartite(2, 3), 2))


def test_complement_is_involution_and_outside_lifts():
    tg = token_graph(star_graph(3), 2)  # 4 vertices, k = 2
    c = complement_automorphism(tg)
    assert (c * c).is_identity()
    assert not c.is_identity()
    lifts = [lift_to_token_graph(p, tg)
             for p in automorphism_group(tg.base).group.elements()]
    assert c not in lifts
    assert not schreier_sims(lifts, degree=tg.graph.n).contains(c)


def test_complement_commutes_with_lifts():
    spec = BipartiteSpec(2, 4)
    k = 3
    tg = token_graph(spec.graph(), k)
    c = complement_automorphism(tg)
    for cycles in ([(2, 3)], [(2, 3, 4, 5)]):
        psi = lift_to_token_graph(Permutation.from_cycles(6, cycles), tg)
        assert c * psi == psi * c
    for p in automorphism_group(spec.graph()).group.elements():
        lift = lift_to_token_graph(p, tg)
        assert c * lift == lift * c


def test_complement_conjugates_swap_family_through_y_complement():
    # conjugating a side swap by the complement replaces every member S
    # of its family with Y - S; the swap commutes with the complement
    # exactly when the family is closed under that replacement
    spec = BipartiteSpec(2, 4)
    k = 3
    tg = token_graph(spec.graph(), k)
    c = complement_automorphism(tg)
    y = frozenset(spec.y_vertices)
    members = [frozenset(s) for s in itertools.combinations(sorted(y), 2)]
    commuting = 0
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            phi = side_swap_bipartite(spec, k, combo)
            expect = side_swap_bipartite(spec, k, [y - s for s in combo])
            assert c * phi * c.inverse() == expect
            closed = {y - s for s in combo} == set(combo)
            assert (c * phi == phi * c) == closed
            commuting += closed
    assert commuting == 8  # pairs {S, Y-S} chosen freely: 2^3 closed families


# -- side swaps ------------------------------------------------------------


def test_side_swap_identity_iff_empty_family():
    spec = BipartiteSpec(2, 3)
    assert side_swap_bipartite(spec, 2, []).is_identity()
    for s in side_swap_subsets(spec, 2):
        assert not side_swap_bipartite(spec, 2, [s]).is_identity()


def test_side_swap_composition_is_symmetric_difference():
    spec = BipartiteSpec(2, 3)
    k = 2
    subsets_of_y = [frozenset(s) for r in range(2)
                    for s in itertools.combinations(range(2, 5), 1)]
    all_families = [frozenset(s)
                    for r in range(4)
                    for s in itertools.combinations(subsets_of_y[:3], r)]
    assert len(all_families) == 8  # full power set of three (k-1)-subsets
    swaps = {f: side_swap_bipartite(spec, k, f) for f in all_families}
    for f1 in all_families:
        for f2 in all_families:
            assert swaps[f1] * swaps[f2] == swaps[f1 ^ f2]


def test_side_swap_composition_sampled_large():
    spec = BipartiteSpec(2, 4)
    k = 3
    rng = random.Random(5)
    members = [frozenset(s) for s in itertools.combinations(range(2, 6), 2)]
    for _ in range(12):
        f1 = rng.sample(members, rng.randrange(len(members)))
        f2 = rng.sample(members, rng.randrange(len(members)))
        left = side_swap_bipartite(spec, k, f1) * side_swap_bipartite(spec, k, f2)
        combined = set(f1) ^ set(f2)
        assert left == side_swap_bipartite(spec, k, combined)


def test_side_swap_images_and_shared_points():
    # Each configuration holding exactly one X-vertex, whose Y-part is in
    # the family, has 0 and 1 exchanged; every other configuration is
    # fixed, and its image is the cached identity's int object.
    from tokenaut.perms import _id_images

    for m, n, k in ((2, 5, 3), (2, 10, 5)):
        spec = BipartiteSpec(m, n)
        configs = list(ksubsets(m + n, k))
        rank = {c: i for i, c in enumerate(configs)}
        members = [frozenset(s) for s in itertools.combinations(range(2, 2 + n), k - 1)]
        for family in (members[:1], members[-1:], members[::3]):
            fam = set(family)
            want = [rank[tuple(sorted(set(c) ^ {0, 1}))]
                    if len({0, 1} & set(c)) == 1 and set(c) - {0, 1} in fam
                    else i for i, c in enumerate(configs)]
            images = side_swap_bipartite(spec, k, family).images
            assert list(images) == want
            ident = _id_images(len(configs))
            assert all(v is ident[i] for i, v in enumerate(images) if v == i)


def test_side_swap_conjugation_relabels_family():
    for spec, k, cycles in ((BipartiteSpec(2, 3), 2, [(2, 3, 4)]),
                            (BipartiteSpec(2, 4), 3, [(2, 3), (4, 5)])):
        tg = token_graph(spec.graph(), k)
        pi = Permutation.from_cycles(spec.order, cycles)
        psi = lift_to_token_graph(pi, tg)
        for s in side_swap_subsets(spec, k):
            phi = side_swap_bipartite(spec, k, [s])
            expect = side_swap_bipartite(spec, k, [[pi(v) for v in s]])
            assert psi * phi * psi.inverse() == expect


def test_swaps_meet_y_lifts_only_in_identity():
    spec = BipartiteSpec(2, 3)
    k = 2
    tg = token_graph(spec.graph(), k)
    singles = side_swap_subsets(spec, k)
    all_members = [c for r in range(len(singles) + 1)
                   for c in itertools.combinations(singles, r)]
    swaps = {side_swap_bipartite(spec, k, m).images for m in all_members}
    y_lifts = {lift_to_token_graph(Permutation(
        (0, 1) + tuple(v + 2 for v in perm)), tg).images
        for perm in itertools.permutations(range(3))}
    assert len(swaps) == 8 and len(y_lifts) == 6
    ident = Permutation.identity(comb(5, 2)).images
    assert swaps & y_lifts == {ident}


def test_full_family_swap_is_the_lifted_side_exchange():
    # swapping on every (k-1)-subset of Y is the same automorphism as
    # lifting the base transposition of the two X vertices, which is why
    # that transposition adds nothing beyond the swap group
    for n, k in ((3, 2), (4, 3)):
        spec = BipartiteSpec(2, n)
        tg = token_graph(spec.graph(), k)
        full = itertools.combinations(spec.y_vertices, k - 1)
        lifted = lift_to_token_graph(
            Permutation.from_cycles(n + 2, [(0, 1)]), tg)
        assert side_swap_bipartite(spec, k, full) == lifted


def test_side_swap_input_validation():
    spec = BipartiteSpec(2, 3)
    with pytest.raises(ValueError):
        side_swap_bipartite(BipartiteSpec(3, 3), 2, [[3]])  # m != 2
    with pytest.raises(ValueError):
        side_swap_bipartite(spec, 2, [[2, 3]])  # wrong size
    with pytest.raises(ValueError):
        side_swap_bipartite(spec, 2, [[0]])  # not in Y
    with pytest.raises(ValueError, match="^side swap transpositions overlap$"):
        side_swap_bipartite(spec, 2, [[2], [3], [2]])  # a subset twice
    for k in (0, 5):
        with pytest.raises(ValueError, match=f"^need 1 <= k <= 4, got k={k}$"):
            side_swap_bipartite(spec, k, [])


# -- generator sets and predictions ---------------------------------------


ORDER_TABLE = [
    (2, 2, 2, 48, "K22_SPECIAL"),
    (2, 3, 2, 48, "WREATH_K2N"),
    (2, 4, 2, 384, "WREATH_K2N"),
    (2, 4, 3, 3072, "WREATH_K2N_TIMES_Z2"),
    (2, 5, 3, 2 ** 10 * 120, "WREATH_K2N"),
    (3, 3, 2, 72, "AUT_KMN"),
    (3, 3, 3, 144, "AUT_KMN_TIMES_Z2"),
    (3, 4, 2, 144, "AUT_KMN"),
    (1, 3, 2, 12, "AUT_KMN_TIMES_Z2"),
    (2, 3, 1, 12, "AUT_KMN"),
    (2, 3, 4, 12, "AUT_KMN"),
    (1, 1, 1, 2, "AUT_KMN"),
]


def test_predicted_order_table():
    for m, n, k, order, tag in ORDER_TABLE:
        pred = predicted_order(m, n, k)
        assert pred.order == order, (m, n, k)
        assert pred.structure_tag == tag, (m, n, k)
    with pytest.raises(ValueError):
        predicted_order(2, 3, 0)
    with pytest.raises(ValueError):
        predicted_order(2, 3, 5)


def test_generators_realize_predicted_orders():
    for m, n, k, order, tag in ORDER_TABLE:
        gens = bipartite_generators(m, n, k)
        degree = comb(m + n, k)
        got = schreier_sims(gens, degree=degree).order()
        assert got == order, (m, n, k, got)


def test_generators_rejects_bad_k():
    with pytest.raises(ValueError):
        bipartite_generators(2, 3, 0)
    with pytest.raises(ValueError):
        bipartite_generators(2, 3, 5)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# Per m, the first 16 hex digits of the sha256 of repr of the generators'
# image tuples for every n in m..7 and every k, in that order.
BIPARTITE_GENERATOR_PINS = {
    1: "6e0f0feec406b04f",
    2: "29fd6e2cc122ed6e",
    3: "387b1b44bce889f8",
    4: "1e888935ccfbc86c",
}


def test_bipartite_generator_lists_are_pinned():
    for m, want in BIPARTITE_GENERATOR_PINS.items():
        got = [[p.images for p in bipartite_generators(m, n, k)]
               for n in range(m, 8) for k in range(1, m + n)]
        assert _digest(got) == want, m


def test_k22_generators_are_written_down_and_certified():
    # F2(K_{2,2}) is K_{2,4} with sides {0, 5} and {1, 2, 3, 4}; its
    # generators are (0 5), (1 2) and (1 2 3 4) on those ranks.
    gens = bipartite_generators(2, 2, 2)
    assert [p.images for p in gens] == [(5, 1, 2, 3, 4, 0),
                                        (0, 2, 1, 3, 4, 5),
                                        (0, 2, 3, 4, 1, 5)]
    graph = token_graph(complete_bipartite(2, 2), 2).graph
    certify(gens, graph, "K_{2,2} generator")
    # (0 5) with the images of 0 and 1 exchanged sends 0 to the large
    # side and 1 to the small one
    wrong = Permutation((1, 5, 2, 3, 4, 0))
    with pytest.raises(CertificationError):
        certify(gens[1:] + [wrong], graph, "K_{2,2} generator")


# -- product coordinate swaps ------------------------------------------------


def test_coordinate_swap_composition_and_normality():
    factors = [complete_graph(2)] * 3
    axes = [frozenset(c) for r in range(3)
            for c in itertools.combinations(range(2), r)]
    swaps = {a: coordinate_swap_product(factors, a) for a in axes}
    for a in axes:
        for b in axes:
            assert swaps[a] * swaps[b] == swaps[a ^ b]
    assert swaps[frozenset()].is_identity()
    swap_images = {p.images for p in swaps.values()}
    product = hypercube(3)
    tg = token_graph(product, 2)
    for p in automorphism_group(product).group.generators:
        g = lift_to_token_graph(p, tg)
        for a in axes:
            conj = g * swaps[a] * g.inverse()
            assert conj.images in swap_images


def test_coordinate_swap_validation():
    factors = [complete_graph(2), path_graph(3)]
    with pytest.raises(ValueError):
        coordinate_swap_product([complete_graph(2)], [0])
    with pytest.raises(ValueError):
        coordinate_swap_product(factors, [1])  # last axis


def test_product_subgroup_generators_certified_orders():
    cases = [
        ([complete_graph(2), path_graph(3)], 2 * 2 * 2),
        ([complete_graph(2), cycle_graph(5)], 2 * 2 * 10),
        ([complete_graph(2)] * 3, 4 * 48),
    ]
    for factors, order in cases:
        gens = product_subgroup_generators(factors)
        got = schreier_sims(gens).order()
        assert got == order, (order, got)


def test_product_subgroup_input_validation():
    with pytest.raises(ValueError):
        product_subgroup_generators([complete_graph(2)])
    with pytest.raises(ValueError):
        product_subgroup_generators([cycle_graph(4), complete_graph(2)])
    with pytest.raises(ValueError):
        product_subgroup_generators(
            [graph_from_edges(2, []), complete_graph(2)])
    with pytest.raises(ValueError, match="factor 0 has fewer than 2"):
        product_subgroup_generators([complete_graph(1), complete_graph(2)])


PRODUCT_GENERATOR_PINS = [
    ("Q2", [complete_graph(2)] * 2, "f4e769d0eed5d06f"),
    ("Q3", [complete_graph(2)] * 3, "6a2326843f299332"),
    ("Q4", [complete_graph(2)] * 4, "3d3bc554dc5c0e3c"),
    ("Q5", [complete_graph(2)] * 5, "7308462ca9ac0304"),
    ("K2xP3", [complete_graph(2), path_graph(3)], "8a752903558e5e9a"),
    ("P3xC5", [path_graph(3), cycle_graph(5)], "483654edbf4c702e"),
    ("K3xP3xP3", [complete_graph(3), path_graph(3), path_graph(3)],
     "d969a70eb6ddf0cb"),
]


def test_product_generator_lists_are_pinned():
    for label, factors, want in PRODUCT_GENERATOR_PINS:
        got = [p.images for p in product_subgroup_generators(factors)]
        assert _digest(got) == want, label


def test_predicted_order_cube_values():
    assert predicted_order_cube(3).order == 192
    assert predicted_order_cube(4).order == 3072
    assert predicted_order_cube(5).order == 61440
    assert predicted_order_cube(3).structure_tag == "CUBE"
    with pytest.raises(ValueError):
        predicted_order_cube(2)


# -- X-layers and cube slices ------------------------------------------------


def test_x_layer_distance_to_bottom_layer():
    # A configuration's layer is the number of its tokens on X: every edge
    # joins consecutive layers, and a vertex lies as far from layer 0 as
    # its layer number.
    spec = BipartiteSpec(2, 4)
    tg = token_graph(spec.graph(), 2)
    layer = [sum(v < spec.m for v in sub) for sub in tg.configs]
    assert sorted(set(layer)) == [0, 1, 2]
    for a, b in tg.graph.edges():
        assert abs(layer[a] - layer[b]) == 1
    dm = distance_matrix(tg.graph)
    bottom = [u for u, i in enumerate(layer) if i == 0]
    for v, i in enumerate(layer):
        assert min(dm[v][u] for u in bottom) == i


def test_cube_slices_sizes_and_isomorphism_types():
    for r in (3, 4):
        total = 1 << r
        tg = token_graph(hypercube(r), 2)
        smaller = token_graph(hypercube(r - 1), 2).graph
        for axis in range(r) if r == 3 else (0, r - 1):
            bit = r - 1 - axis  # coordinate 0 is the most significant bit
            ones_at = [(a >> bit & 1) + (b >> bit & 1) for a, b in tg.configs]
            zeros, split, ones = (frozenset(v for v, c in enumerate(ones_at)
                                            if c == count)
                                  for count in range(3))
            assert len(zeros) == len(ones) == comb(total // 2, 2)
            assert len(split) == 1 << (2 * (r - 1))
            for part in (zeros, ones):
                sub = tg.graph.induced(sorted(part))
                assert is_isomorphic(sub, smaller) is not None
            sub = tg.graph.induced(sorted(split))
            assert is_isomorphic(sub, hypercube(2 * (r - 1))) is not None

