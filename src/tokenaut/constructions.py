"""Explicit token-graph automorphisms and predicted group orders.

Two families of graphs admit closed-form predictions that this module
constructs generator-by-generator:

* complete bipartite bases K_{m,n} (X = {0..m-1}, Y = {m..m+n-1}): lifts
  of base automorphisms, the complement involution at the middle token
  count, and, for m = 2, side swaps driven by (k-1)-subsets of Y;
* connected Cartesian products of r >= 2 primes: lifts of base
  automorphisms plus coordinate swaps between the two endpoints of a
  2-token configuration, driven by a set of factor axes.

All indices are 0-based throughout: vertices and factor axes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat
from math import comb, factorial, prod
from operator import add, or_, xor

from . import subsets
from .factorization import is_prime
from .graphs import BipartiteSpec, Graph, cartesian_product
from .perms import PermGroup, Permutation, _id_images
from .search import automorphism_group, certify, is_automorphism
from .tokens import (TokenGraph, config_index, lift_masks, mask_ranks,
                     token_graph)


class PredictedAut:
    """Closed-form predicted order with its structural classification."""

    __slots__ = ("order", "structure_tag", "parameters", "note")

    def __init__(self, order: int, structure_tag: str, parameters: dict,
                 note: str | None = None):
        self.order = order
        self.structure_tag = structure_tag
        self.parameters = parameters
        self.note = note


def lift_to_token_graph(phi: Permutation, tg: TokenGraph) -> Permutation:
    """Induced action of a base automorphism on token configurations.

    This lift is an injective homomorphism from Aut(base) into
    Aut(token graph): configuration A maps to {phi(v) : v in A}.
    """
    if phi.degree != tg.n:
        raise ValueError(f"degree {phi.degree} != base order {tg.n}")
    if not is_automorphism(tg.base, phi):
        raise ValueError("permutation is not an automorphism of the base graph")
    return Permutation(mask_ranks(tg.rank_of_mask,
                                  lift_masks(tg.configs, phi.images)))


def complement_automorphism(tg: TokenGraph) -> Permutation:
    """The complement involution A -> V(base) - A; needs 2k = n."""
    if 2 * tg.k != tg.n:
        raise ValueError(f"complement needs 2k = n, got k={tg.k}, n={tg.n}")
    # With n = 2k the complements of the k-subsets are k-subsets again.
    full = (1 << tg.n) - 1
    return Permutation(mask_ranks(tg.rank_of_mask,
                                  map(xor, tg.rank_of_mask, repeat(full))))


def side_swap_bipartite(spec: BipartiteSpec, k: int,
                        members: Iterable[Iterable[int]]) -> Permutation:
    """Automorphism of the k-token graph of K_{2,n} that exchanges the two
    X-vertices inside every configuration holding exactly one of them whose
    Y-part is one of ``members``; all other configurations are fixed.

    ``members`` is any iterable of (k-1)-subsets of Y, each an iterable of
    vertices; a subset given twice is refused. Composing two side swaps
    gives the swap of the symmetric difference of their members, so the
    swaps form an elementary abelian 2-group.
    """
    if spec.m != 2:
        raise ValueError("side swaps require the m = 2 bipartite side")
    total = spec.order
    if not (1 <= k <= total - 1):
        raise ValueError(f"need 1 <= k <= {total - 1}, got k={k}")
    y = set(spec.y_vertices)
    # The cached identity's points are shared by every swap's tuple, so a
    # swap holds no int object of its own for a point above 256.
    images = list(_id_images(comb(total, k)))
    moved = []
    for s in members:
        s = frozenset(s)
        if len(s) != k - 1 or not s <= y:
            raise ValueError(f"member {sorted(s)} is not a (k-1)-subset of Y")
        a, b = subsets.rank(s | {0}, total), subsets.rank(s | {1}, total)
        images[a], images[b] = b, a
        moved += (a, b)
    # Disjoint transpositions make a permutation; only their points need
    # checking, not all C(m+n, k) images.
    if len(set(moved)) != len(moved):
        raise ValueError("side swap transpositions overlap")
    return Permutation._raw(tuple(images))


def _token_graph_of(base: Graph, k: int, tg: TokenGraph | None) -> TokenGraph:
    """``tg`` when it is the k-token graph of ``base``, else a new build."""
    if tg is None:
        return token_graph(base, k)
    if tg.k != k or tg.base.nbrs != base.nbrs:
        raise ValueError(f"token graph {tg.graph.label!r} is not the "
                         f"{k}-token graph of {base.label or 'the base'}")
    return tg


def side_swap_subsets(spec: BipartiteSpec, k: int) -> list[frozenset[int]]:
    """The (k-1)-subsets of Y in subset-rank order; their single-member
    side swaps generate the full elementary abelian swap group."""
    y0 = spec.m
    return [frozenset(v + y0 for v in s)
            for s in subsets.ksubsets(spec.n, k - 1)]


def bipartite_generators(m: int, n: int, k: int,
                         tg: TokenGraph | None = None) -> list[Permutation]:
    """Generator list for the predicted automorphism group of the k-token
    graph of K_{m,n}; every returned permutation is certified edge-by-edge.
    Pass ``tg``, the k-token graph of K_{m,n}, to reuse one already built.

    For m = 2 with n > 2 the set is one side swap per (k-1)-subset of Y
    plus lifts of a transposition and an n-cycle on Y; every other shape
    lifts a computed generating set of the base group. The complement
    involution joins whenever 2k = m + n. The (m,n,k) = (2,2,2) instance
    is special: its token graph is K_{2,4}, with sides {0, 5} (the ranks
    of {0,1} and {2,3}) and {1, 2, 3, 4}, and its generators are the
    swap of the small side, a transposition and a 4-cycle of the large
    side, written down on those ranks.
    """
    spec = BipartiteSpec(m, n)
    total = m + n
    if not (1 <= k <= total - 1):
        raise ValueError(f"need 1 <= k <= {total - 1}, got k={k}")
    tg = _token_graph_of(spec.graph(), k, tg)
    gens: list[Permutation] = []
    if (m, n, k) == (2, 2, 2):
        gens.extend(Permutation.from_cycles(6, [cycle])
                    for cycle in ((0, 5), (1, 2), (1, 2, 3, 4)))
    elif m == 2 and n > 2:
        y0 = spec.m
        for s in side_swap_subsets(spec, k):
            gens.append(side_swap_bipartite(spec, k, [s]))
        for cycle in ((y0, y0 + 1), tuple(spec.y_vertices)):
            pi = Permutation.from_cycles(total, [cycle])
            gens.append(lift_to_token_graph(pi, tg))
        if 2 * k == total:
            gens.append(complement_automorphism(tg))
    else:
        base_aut = automorphism_group(spec.graph()).group
        gens.extend(lift_to_token_graph(p, tg) for p in base_aut.generators)
        if 2 * k == total:
            gens.append(complement_automorphism(tg))
    certify(gens, tg.graph, "constructed bipartite generator")
    return gens


def aut_complete_bipartite_order(m: int, n: int) -> int:
    """|Aut(K_{m,n})|: m! n!, doubled when the sides can be exchanged."""
    return factorial(m) * factorial(n) * (2 if m == n else 1)


def predicted_order(m: int, n: int, k: int) -> PredictedAut:
    """Predicted |Aut| of the k-token graph of K_{m,n}.

    The closed forms cover 1 < k < m+n-1; the endpoints k = 1 and
    k = m+n-1 reduce to the base graph itself (1-token graphs are the base
    and the complement bijection pairs k with m+n-k), which is an
    extension of the predicted range, flagged in the note.
    """
    spec = BipartiteSpec(m, n)
    total = m + n
    if not (1 <= k <= total - 1):
        raise ValueError(f"need 1 <= k <= {total - 1}, got k={k}")
    params = {"m": m, "n": n, "k": k}
    if (m, n, k) == (2, 2, 2):
        return PredictedAut(48, "K22_SPECIAL", params,
                            "2-token graph of K_{2,2} is K_{2,4}")
    if k in (1, total - 1):
        return PredictedAut(aut_complete_bipartite_order(m, n), "AUT_KMN", params,
                            "endpoint reduction to the base graph; "
                            "extension, not covered by the interior closed form")
    if m == 2:
        order = (1 << comb(n, k - 1)) * factorial(n)
        if 2 * k == total:
            return PredictedAut(2 * order, "WREATH_K2N_TIMES_Z2", params)
        return PredictedAut(order, "WREATH_K2N", params)
    order = aut_complete_bipartite_order(m, n)
    if 2 * k == total:
        return PredictedAut(2 * order, "AUT_KMN_TIMES_Z2", params)
    return PredictedAut(order, "AUT_KMN", params)


def coordinate_swap_product(factors: Sequence[Graph], axes: Iterable[int],
                            tg: TokenGraph | None = None) -> Permutation:
    """Automorphism of the 2-token graph of a Cartesian product that, on
    every pair of distinct product vertices, exchanges the coordinates at
    ``axes`` between the two endpoints.

    ``axes`` is any iterable of factor axes in 0..r-2, an axis given twice
    counting once; the last factor's axis is excluded so the swaps form a
    group of rank r-1. Pass ``tg``, a 2-token graph on the product's vertex
    count, such as the product's own, to reuse its configurations and rank
    index.
    """
    r = len(factors)
    if r < 2:
        raise ValueError("need at least two factors")
    axes = set(axes)
    if any(not 0 <= a <= r - 2 for a in axes):
        raise ValueError(f"axes {sorted(axes)} not within 0..{r - 2}")
    sizes = [g.n for g in factors]
    total = prod(sizes)
    # A vertex's code is the sum of its coordinates times their place
    # values; ``part`` is the share of the swapped axes and ``keep`` the
    # rest, so swapping those axes between a and b gives keep + part.
    place = [prod(sizes[ax + 1:]) for ax in range(r)]
    part = [sum(v // place[ax] % sizes[ax] * place[ax] for ax in axes)
            for v in range(total)]
    keep = [v - p for v, p in enumerate(part)]
    if tg is None:
        configs, rank_of_mask = config_index(total, 2)
    elif (tg.k, tg.n) != (2, total):
        raise ValueError(f"token graph {tg.graph.label!r} is not a 2-token "
                         f"graph on {total} vertices")
    else:
        configs, rank_of_mask = tg.configs, tg.rank_of_mask
    # {a, b} goes to {keep[a] + part[b], keep[b] + part[a]}: one column of
    # image points per token, each point read as its bit.
    bit = [1 << v for v in range(total)]
    first, second = zip(*configs)

    def column(own, other):
        return map(bit.__getitem__, map(add, map(keep.__getitem__, own),
                                        map(part.__getitem__, other)))

    return Permutation(mask_ranks(rank_of_mask, map(
        or_, column(first, second), column(second, first))))


def check_factors(factors: Sequence[Graph]) -> None:
    """Reject a factor list unless it has two or more factors, each with
    two or more vertices and connected: a Cartesian product is connected
    exactly when every factor is, so this needs no product built."""
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    for i, f in enumerate(factors):
        if f.n < 2:
            raise ValueError(f"factor {i} has fewer than 2 vertices")
        if not f.is_connected():
            raise ValueError(f"factor {i} is disconnected")


def product_subgroup_generators(factors: Sequence[Graph],
                                tg: TokenGraph | None = None,
                                base_group: PermGroup | None = None
                                ) -> list[Permutation]:
    """Generators of the predicted subgroup of Aut of the 2-token graph of
    a connected Cartesian product of primes: one coordinate swap per axis
    in 0..r-2 plus lifts of the base product's automorphism generators.

    Pass ``tg``, the 2-token graph of the product, and ``base_group``, the
    product's automorphism group, to reuse ones already computed; every
    lifted generator is still checked against the base graph.
    """
    check_factors(factors)
    r = len(factors)
    for i, f in enumerate(factors):
        if not is_prime(f):
            raise ValueError(f"factor {i} is not prime with respect to the product")
    tg = _token_graph_of(cartesian_product(factors), 2, tg)
    gens = [coordinate_swap_product(factors, [ax], tg=tg)
            for ax in range(r - 1)]
    if base_group is None:
        base_group = automorphism_group(tg.base).group
    gens.extend(lift_to_token_graph(p, tg) for p in base_group.generators)
    certify(gens, tg.graph, "constructed product generator")
    return gens


def predicted_order_cube(r: int) -> PredictedAut:
    """Predicted |Aut| of the 2-token graph of the r-cube: 2^(r-1) * 2^r * r!."""
    if r < 3:
        raise ValueError(f"prediction needs r >= 3, got r={r}")
    order = (1 << (r - 1)) * (1 << r) * factorial(r)
    return PredictedAut(order, "CUBE", {"r": r})


def predicted_order_product(factors: Sequence[Graph],
                            base_group: PermGroup) -> PredictedAut:
    """Predicted order of the swap-plus-lift subgroup of Aut of the 2-token
    graph of a product of r primes: 2^(r-1) * |Aut(base)|, where
    ``base_group`` is the product's automorphism group."""
    r = len(factors)
    return PredictedAut((1 << (r - 1)) * base_group.order(),
                        "Z2POW_SEMIDIRECT", {"r": r})
