"""Cartesian-product primality and prime factor decomposition.

A desk-scale oracle, not a fast algorithm: candidate factors are
enumerated as induced layer subgraphs through vertex 0 and every
positive answer is certified with the isomorphism search. Intended for
connected graphs of at most a few dozen vertices; the factor multiset of
a connected graph is unique, which the test suite spot-checks by
re-decomposing shuffled relabelings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from .graphs import (Graph, cartesian_product, format_edge_list,
                     mixed_radix_decode, mixed_radix_encode)
from .search import is_isomorphic


@dataclass(frozen=True)
class Factorization:
    """Prime factors together with a coordinate witness.

    witness[v] is the coordinate tuple assigned to vertex v of the
    decomposed graph, one coordinate per factor in the factors' order;
    relabeling the Cartesian product of the factors by the witness must
    reproduce the graph edge-for-edge, which certifies() rechecks.
    """

    factors: tuple[Graph, ...]
    witness: tuple[tuple[int, ...], ...]

    def certifies(self, g: Graph) -> bool:
        sizes = [f.n for f in self.factors]
        product = cartesian_product(self.factors)
        if product.n != g.n or len(self.witness) != g.n:
            return False
        codes = []
        for coords in self.witness:
            if len(coords) != len(sizes):
                return False
            if any(not 0 <= c < s for c, s in zip(coords, sizes)):
                return False
            codes.append(mixed_radix_encode(coords, sizes))
        if sorted(codes) != list(range(g.n)):
            return False
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v) != product.has_edge(codes[u], codes[v]):
                    return False
        return True


def _check_input(g: Graph) -> None:
    if g.n < 2:
        raise ValueError("factorization needs at least 2 vertices")
    if not g.is_connected():
        raise ValueError("factorization is defined for connected graphs only")


def _mask_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return out


def _reaches(adj: tuple[int, ...], seen: int, frontier: int, blocked: int,
             size: int) -> bool:
    """Whether growing seen through adjacency from its frontier, never
    entering blocked vertices, reaches at least size vertices."""
    while seen.bit_count() < size:
        if not frontier:
            return False
        nxt = 0
        for v in _mask_vertices(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen & ~blocked
        seen |= frontier
    return True


def _layer_masks(g: Graph, base: int, blocked: int, size: int) -> list[int]:
    """Masks of connected induced subgraphs of the exact size containing
    all of base and none of blocked, each produced once.

    Include/exclude branching on the lowest frontier vertex visits every
    such subgraph along a unique decision path. The frontier ``ext`` (the
    neighbours of cur outside cur and dead) is carried down the branches.
    """
    adj = g.adj
    out: list[int] = []
    if base & blocked or base.bit_count() > size:
        return out

    def grow(cur: int, dead: int, ext: int) -> None:
        if cur.bit_count() == size:
            out.append(cur)
            return
        if not _reaches(adj, cur | ext, ext, dead, size):
            return
        u = ext & -ext
        grown = cur | u
        grow(grown, dead, (ext | adj[u.bit_length() - 1]) & ~grown & ~dead)
        grow(cur, dead | u, ext & ~u)

    ext = 0
    for v in _mask_vertices(base):
        ext |= adj[v]
    grow(base, blocked, ext & ~base & ~blocked)
    return out


def _degree_counter(g: Graph) -> Counter:
    return Counter(row.bit_count() for row in g.adj)


def _layer_degrees(adj: tuple[int, ...], mask: int) -> list[int]:
    """Degrees of the subgraph induced on mask; their sum is twice its
    edge count."""
    return [(adj[v] & mask).bit_count() for v in _mask_vertices(mask)]


def _product_degrees(da: Counter, db: Counter) -> Counter:
    out: Counter = Counter()
    for x, cx in da.items():
        for y, cy in db.items():
            out[x + y] += cx * cy
    return out


def _find_split(g: Graph) -> tuple[Graph, Graph] | None:
    """First certified factorization g = A box B with |V(A)| minimal,
    or None when g is prime. Layers are anchored at vertex 0: in any
    product structure the factor layer through 0 is a connected induced
    subgraph whose neighbors of 0 are exactly one block of a bipartition
    of N(0)."""
    n = g.n
    adj = g.adj
    edges_g = g.edge_count()
    degs_g = _degree_counter(g)
    nbr_mask = g.adj[0]
    nbr_list = _mask_vertices(nbr_mask)
    for a in range(2, isqrt(n) + 1):
        if n % a:
            continue
        b = n // a
        for asz in range(1, len(nbr_list)):
            bsz = len(nbr_list) - asz
            if asz > a - 1 or bsz > b - 1:
                continue
            for combo in combinations(nbr_list, asz):
                na = 0
                for v in combo:
                    na |= 1 << v
                nb = nbr_mask & ~na
                if a == b and not na & (1 << nbr_list[0]):
                    continue  # mirror of an already-tried bipartition
                layers_a = _layer_masks(g, 1 | na, nb, a)
                if not layers_a:
                    continue
                # Side-B layers grouped by edge count, keeping their order.
                # Degree multisets are built only for a side-A layer and a
                # side-B group whose edge counts add up to the product's.
                side_b: dict[int, list[tuple[int, list[int]]]] = {}
                for sb in _layer_masks(g, 1 | nb, na, b):
                    degs = _layer_degrees(adj, sb)
                    side_b.setdefault(sum(degs) // 2, []).append((sb, degs))
                shapes_b: dict[int, list[tuple[int, Counter]]] = {}
                for sa in layers_a:
                    degs = _layer_degrees(adj, sa)
                    eb, rem = divmod(edges_g - b * (sum(degs) // 2), a)
                    if rem or eb not in side_b:
                        continue
                    if eb not in shapes_b:
                        shapes_b[eb] = [(sb, Counter(d)) for sb, d in side_b[eb]]
                    da = Counter(degs)
                    for sb, db in shapes_b[eb]:
                        if _product_degrees(da, db) != degs_g:
                            continue
                        ga = g.induced(_mask_vertices(sa))
                        gb = g.induced(_mask_vertices(sb))
                        if is_isomorphic(cartesian_product([ga, gb]), g) is not None:
                            return ga, gb
    return None


def is_prime(g: Graph) -> bool:
    """True iff no pair of graphs on 2 or more vertices multiplies to g."""
    _check_input(g)
    return _find_split(g) is None


def _decompose(g: Graph) -> list[Graph]:
    split = _find_split(g)
    if split is None:
        return [g]
    ga, gb = split
    return _decompose(ga) + _decompose(gb)


def _factor_key(f: Graph) -> tuple[int, int, str]:
    return (f.n, f.edge_count(), format_edge_list(f))


def prime_factor_decomposition(g: Graph) -> Factorization:
    """Prime factors of g in (vertex count, edge count, edge list) order,
    with a witness certifying the product reconstruction."""
    _check_input(g)
    factors = sorted(_decompose(g), key=_factor_key)
    product = cartesian_product(factors)
    iso = is_isomorphic(product, g)
    if iso is None:
        raise AssertionError("factor product failed to match the input graph")
    sizes = [f.n for f in factors]
    witness: list[tuple[int, ...]] = [()] * g.n
    for code, v in enumerate(iso):
        witness[v] = mixed_radix_decode(code, sizes)
    fac = Factorization(tuple(factors), tuple(witness))
    if not fac.certifies(g):
        raise AssertionError("decomposition failed its own certificate")
    return fac
