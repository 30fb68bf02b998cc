"""Cartesian-product primality and prime factor decomposition.

A connected graph has a unique factorization into Cartesian-prime
factors, and the factors can be read off its edges (Feder, "Product graph
representations", J. Graph Theory 16, 1992; Hammack, Imrich & Klavžar,
Handbook of Product Graphs, 2nd ed., 2011, ch. 23). Two relations on the
edges:

* Θ: xy Θ uv when d(x,u) + d(y,v) != d(x,v) + d(y,u);
* τ: xy τ xz when y and z are not adjacent and x is their only common
  neighbour.

Feder's theorem: the classes of the transitive closure (Θ ∪ τ)* are the
edge sets of the prime factors, each class holding every layer of its
factor. So g is prime iff there is one class, and each factor is the layer
through vertex 0: the component of 0 in the graph of one class's edges,
which induces a copy of the factor. With m edges this costs one all-pairs
BFS, O(m²) distance lookups for Θ and the sum of the squared degrees for
τ. Every decomposition is certified: the product of the factors is matched
to g by the isomorphism search, and the witness is rechecked edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Graph, cartesian_product, distance_matrix,
                     format_edge_list, mixed_radix_decode,
                     mixed_radix_encode)
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
        return (g.edge_count() == product.edge_count()
                and g.maps_edges_into(codes, product))


def _check_input(g: Graph) -> None:
    if g.n < 2:
        raise ValueError("factorization needs at least 2 vertices")
    if not g.is_connected():
        raise ValueError("factorization is defined for connected graphs only")


def _edge_classes(g: Graph) -> list[list[tuple[int, int]]]:
    """The edges of g grouped into the classes of (Θ ∪ τ)*, each class in
    edge order, the classes in order of their first edge."""
    edges = g.edges()
    parent = list(range(len(edges)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    dist = distance_matrix(g)
    for i, (x, y) in enumerate(edges):
        dx, dy = dist[x], dist[y]
        for j in range(i + 1, len(edges)):
            u, v = edges[j]
            if dx[u] + dy[v] != dx[v] + dy[u]:
                union(i, j)
    index = {e: i for i, e in enumerate(edges)}
    sets = [set(nb) for nb in g.nbrs]
    for x, nbrs in enumerate(g.nbrs):
        for a, y in enumerate(nbrs):
            for z in nbrs[a + 1:]:
                if z not in sets[y] and len(sets[y] & sets[z]) == 1:
                    union(index[min(x, y), max(x, y)], index[min(x, z), max(x, z)])
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, e in enumerate(edges):
        classes.setdefault(find(i), []).append(e)
    return list(classes.values())


def is_prime(g: Graph) -> bool:
    """True iff no pair of graphs on 2 or more vertices multiplies to g."""
    _check_input(g)
    return len(_edge_classes(g)) == 1


def _layer_through_0(g: Graph, edges: list[tuple[int, int]]) -> Graph:
    """The subgraph of g induced on the component of vertex 0 in the
    graph of the given edges."""
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    layer = {0}
    stack = [0]
    while stack:
        for w in nbrs.get(stack.pop(), ()):
            if w not in layer:
                layer.add(w)
                stack.append(w)
    return g.induced(sorted(layer))


def _factor_key(f: Graph) -> tuple[int, int, str]:
    return (f.n, f.edge_count(), format_edge_list(f))


def prime_factor_decomposition(g: Graph,
                               max_nodes: int | None = None) -> Factorization:
    """Prime factors of g in (vertex count, edge count, edge list) order,
    with a witness certifying the product reconstruction. ``max_nodes``
    bounds the isomorphism search that matches the product to g."""
    _check_input(g)
    factors = sorted((_layer_through_0(g, c) for c in _edge_classes(g)),
                     key=_factor_key)
    product = cartesian_product(factors)
    iso = is_isomorphic(product, g, max_nodes)
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
