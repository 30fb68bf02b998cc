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
τ.

The classes also fix every vertex's coordinates, so no search is needed.
Let g = G_1 □ ... □ G_r be the prime factorization, so that the class E_i
holds the edges along coordinate i, and every G_j is connected. An edge of
E ∖ E_i keeps the i-th coordinate, and the set of vertices with a fixed
i-th coordinate induces the product of the other factors, which is
connected; so the components of the graph of E ∖ E_i are exactly these
sets. The E_i-layer through 0 holds the vertices that agree with 0
outside coordinate i, one for each value of the i-th coordinate, so it
meets each of those components in exactly one vertex. Vertex v's i-th
coordinate is therefore the position, in the ascending layer, of the
layer vertex in v's component of E ∖ E_i; the layer vertex at position p
is vertex p of the factor that the layer induces. Every decomposition is
certified: relabeling the product of the factors by the witness must
reproduce g edge by edge.
"""

from __future__ import annotations

from .graphs import (Graph, cartesian_product, distance_matrix,
                     format_edge_list, mixed_radix_encode)


class Factorization:
    """Prime factors together with a coordinate witness.

    witness[v] is the coordinate tuple assigned to vertex v of the
    decomposed graph, one coordinate per factor in the factors' order;
    relabeling the Cartesian product of the factors by the witness must
    reproduce the graph edge-for-edge, which certifies() rechecks.
    """

    __slots__ = ("factors", "witness")

    def __init__(self, factors: tuple[Graph, ...],
                 witness: tuple[tuple[int, ...], ...]):
        self.factors = factors
        self.witness = witness

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


def _find(parent: list[int], i: int) -> int:
    """The root of i's set in the union-find forest ``parent``."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent: list[int], i: int, j: int) -> None:
    parent[_find(parent, i)] = _find(parent, j)


def _components(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """A label per vertex of the graph on 0..n-1 with the given edges,
    equal for two vertices iff they lie in one component."""
    parent = list(range(n))
    for u, v in edges:
        _union(parent, u, v)
    return [_find(parent, v) for v in range(n)]


def _edge_classes(g: Graph) -> list[list[tuple[int, int]]]:
    """The edges of g grouped into the classes of (Θ ∪ τ)*, each class in
    edge order, the classes in order of their first edge."""
    edges = g.edges()
    parent = list(range(len(edges)))
    dist = distance_matrix(g)
    for i, (x, y) in enumerate(edges):
        dx, dy = dist[x], dist[y]
        for j in range(i + 1, len(edges)):
            u, v = edges[j]
            if dx[u] + dy[v] != dx[v] + dy[u]:
                _union(parent, i, j)
    index = {e: i for i, e in enumerate(edges)}
    sets = [set(nb) for nb in g.nbrs]
    for x, nbrs in enumerate(g.nbrs):
        for a, y in enumerate(nbrs):
            for z in nbrs[a + 1:]:
                if z not in sets[y] and len(sets[y] & sets[z]) == 1:
                    _union(parent, index[min(x, y), max(x, y)],
                           index[min(x, z), max(x, z)])
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, e in enumerate(edges):
        classes.setdefault(_find(parent, i), []).append(e)
    return list(classes.values())


def is_prime(g: Graph) -> bool:
    """True iff no pair of graphs on 2 or more vertices multiplies to g."""
    _check_input(g)
    return len(_edge_classes(g)) == 1


def _factor_key(f: Graph) -> tuple[int, int, str]:
    return (f.n, f.edge_count(), format_edge_list(f))


def prime_factor_decomposition(g: Graph) -> Factorization:
    """Prime factors of g in (vertex count, edge count, edge list) order,
    with a witness certifying the product reconstruction, both read off
    the classes of (Θ ∪ τ)* as the module docstring describes."""
    _check_input(g)
    classes = _edge_classes(g)
    axes = []
    for cls in classes:
        own = _components(g.n, cls)
        rest = _components(g.n, [e for c in classes if c is not cls for e in c])
        layer = [v for v in range(g.n) if own[v] == own[0]]
        position = {rest[w]: p for p, w in enumerate(layer)}
        axes.append((g.induced(layer), [position[c] for c in rest]))
    axes.sort(key=lambda axis: _factor_key(axis[0]))
    fac = Factorization(tuple(f for f, _ in axes),
                        tuple(zip(*(coords for _, coords in axes))))
    if not fac.certifies(g):
        raise AssertionError("decomposition failed its own certificate")
    return fac
