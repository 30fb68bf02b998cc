"""Simple-graph representation and standard constructions.

Vertices are always 0..n-1. A graph is held as each vertex's ascending
neighbour list, ``Graph.nbrs``, the one table that refinement, the edge
checks, ``edges`` and ``distance_matrix`` read; it takes space in
proportion to the edges, as in Traces and sparse nauty. Every constructor
here builds its graph from such lists through ``Graph(nbrs, label)``,
which checks them once. Graphs are immutable, hashable, and loop-free;
every function here is pure.

Cartesian products use a mixed-radix vertex encoding with the first factor
most significant, so a product vertex is identified with its coordinate
tuple via mixed_radix_encode. Distances use the per-graph sentinel value n
(one past the largest possible distance) for unreachable pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Sequence
from itertools import compress, product, repeat
from math import prod
from operator import lt, ne, xor


class Graph:
    """Simple undirected graph on 0..n-1 in which vertex u has the
    neighbours ``nbrs[u]``, in ascending order; n is the number of lists.

    The constructor checks the lists once: each must be strictly
    ascending, within 0..n-1 and without u, and must equal u's column, the
    vertices whose lists hold u. They are kept as a tuple of tuples.
    Assigning to an attribute raises ``AttributeError``; two graphs are
    equal when their lists and labels are."""

    __slots__ = ("nbrs", "label")

    def __init__(self, nbrs: Iterable[Iterable[int]],
                 label: str | None = None):
        nbrs = tuple(map(tuple, nbrs))
        n = len(nbrs)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        column: list[list[int]] = [[] for _ in range(n)]
        for u, nb in enumerate(nbrs):
            if nb and not (0 <= nb[0] and nb[-1] < n):
                bad = nb[0] if nb[0] < 0 else nb[-1]
                raise ValueError(f"vertex {u} has neighbour {bad} "
                                 f"out of range 0..{n - 1}")
            if not all(map(lt, nb, nb[1:])):
                raise ValueError("neighbour lists must be strictly ascending")
            if u in nb:
                raise ValueError("loops are not allowed")
            for v in nb:
                column[v].append(u)
        if any(map(ne, map(tuple, column), nbrs)):
            raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "nbrs", nbrs)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Graph.{name}: graphs are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Graph.{name}: graphs are immutable")

    def __reduce__(self):
        return Graph, (self.nbrs, self.label)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nbrs == other.nbrs and self.label == other.label

    def __hash__(self):
        return hash((self.nbrs, self.label))

    @property
    def n(self) -> int:
        return len(self.nbrs)

    def __repr__(self):
        name = self.label or "Graph"
        return f"<{name}: n={self.n}, m={self.edge_count()}>"

    def degree(self, u: int) -> int:
        return len(self.nbrs[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.nbrs[u]

    def neighbors(self, u: int) -> list[int]:
        return list(self.nbrs[u])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u, nu in enumerate(self.nbrs)
                for v in nu[bisect_right(nu, u):]]

    def maps_edges_into(self, images: Sequence[int], target: "Graph") -> bool:
        """Whether u -> images[u] maps each checked vertex's neighbour list
        onto the list of its image in ``target``.

        Every caller passes a bijection onto a graph with as many edges,
        and for those this is the same check as that every edge goes to an
        edge of ``target``: an isomorphism check. When ``target`` is this
        graph, ``images`` must be a permutation, and only the vertices it
        moves are checked: a fixed vertex's edge to a moved vertex is
        checked from the moved end, and an edge between fixed vertices
        maps to itself, so this is still the whole automorphism check, at
        the cost of the support. Otherwise every vertex is checked."""
        nbrs, into = self.nbrs, target.nbrs
        point = images.__getitem__
        checked = range(self.n)
        if target is self:
            checked = compress(checked, map(ne, images, checked))
        for u in checked:
            if tuple(sorted(map(point, nbrs[u]))) != into[images[u]]:
                return False
        return True

    def edge_count(self) -> int:
        return sum(map(len, self.nbrs)) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(map(len, self.nbrs)))

    def relabel(self, images: Sequence[int]) -> "Graph":
        """Graph with vertex u renamed to images[u] (a bijection on 0..n-1)."""
        if sorted(images) != list(range(self.n)):
            raise ValueError("relabeling must be a bijection")
        nbrs = [None] * self.n
        point = images.__getitem__
        for u, nu in enumerate(self.nbrs):
            nbrs[images[u]] = sorted(map(point, nu))
        return Graph(nbrs, self.label)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; new vertex i is old vertices[i]. It is built
        from this graph's neighbour lists."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertex in induced set")
        if any(not 0 <= v < self.n for v in vertices):
            raise ValueError(f"induced vertex out of range 0..{self.n - 1}")
        kept, new_of = index.__contains__, index.__getitem__
        return Graph([sorted(map(new_of, filter(kept, self.nbrs[v])))
                      for v in vertices])

    def is_connected(self) -> bool:
        seen = [False] * self.n
        seen[0] = True
        frontier = [0]
        for u in frontier:
            for v in self.nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    frontier.append(v)
        return len(frontier) == self.n


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], label: str | None = None) -> Graph:
    """Graph on 0..n-1 with the given edges; a repeated edge, in either
    orientation, is the same edge."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph([sorted(set(nb)) for nb in nbrs], label)


class BipartiteSpec:
    """Complete bipartite instance K_{m,n} with the fixed vertex convention
    X = {0..m-1} on the small side and Y = {m..m+n-1} on the large side."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if not (1 <= m <= n):
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        self.m = m
        self.n = n

    def __repr__(self):
        return f"BipartiteSpec(m={self.m}, n={self.n})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self.n == other.n

    def __hash__(self):
        return hash((self.m, self.n))

    @property
    def order(self) -> int:
        return self.m + self.n

    @property
    def x_vertices(self) -> range:
        return range(self.m)

    @property
    def y_vertices(self) -> range:
        return range(self.m, self.m + self.n)

    def graph(self) -> Graph:
        return complete_bipartite(self.m, self.n)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete_graph needs n >= 1")
    return Graph([[*range(u), *range(u + 1, n)] for u in range(n)], f"K{n}")


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete_bipartite needs m, n >= 1")
    return Graph(_bipartite_nbrs(m, n), f"K{m},{n}")


def _bipartite_nbrs(m: int, n: int) -> list[tuple[int, ...]]:
    """Neighbour lists of K_{m,n}, X = 0..m-1 first; each side shares one
    tuple."""
    x, y = tuple(range(m)), tuple(range(m, m + n))
    return [y] * m + [x] * n


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path_graph needs n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)], f"P{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle_graph needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graph_from_edges(n, edges, f"C{n}")


def star_graph(n: int) -> Graph:
    """Star with center 0 and n leaves; identical to K_{1,n}."""
    if n < 1:
        raise ValueError("star_graph needs n >= 1 leaves")
    return Graph(_bipartite_nbrs(1, n), f"K1,{n}")


def mixed_radix_encode(coords: Sequence[int], sizes: Sequence[int]) -> int:
    """Encode a coordinate tuple, first factor most significant."""
    if len(coords) != len(sizes):
        raise ValueError(f"{len(coords)} coordinates for {len(sizes)} sizes")
    code = 0
    for c, s in zip(coords, sizes):
        if not 0 <= c < s:
            raise ValueError(f"coordinate {c} out of range 0..{s - 1}")
        code = code * s + c
    return code


def cartesian_product(factors: Sequence[Graph]) -> Graph:
    """Cartesian product; vertices are mixed-radix codes of coordinate tuples.

    Two product vertices are adjacent iff they agree in all coordinates but
    one, and differ by an edge of that factor.
    """
    if len(factors) < 1:
        raise ValueError("cartesian_product needs at least one factor")
    # steps[i][c]: how far the code moves along each edge of factor i at
    # coordinate c; the codes run through the coordinate tuples in order.
    stride = prod(g.n for g in factors)
    steps = []
    for g in factors:
        stride //= g.n
        steps.append([[(w - c) * stride for w in nb]
                      for c, nb in enumerate(g.nbrs)])
    nbrs = [sorted([code + d for step in row for d in step])
            for code, row in enumerate(product(*steps))]
    return Graph(nbrs, product_label(factors))


def product_label(factors: Sequence[Graph]) -> str:
    """The label ``cartesian_product`` gives the product of ``factors``."""
    return " x ".join(g.label or "G" for g in factors)


def hypercube(r: int) -> Graph:
    """r-dimensional hypercube, the r-fold product of K_2.

    Vertex codes read as r-bit strings, coordinate 0 most significant, so
    the neighbours of a vertex are the codes one bit flip away.
    """
    if r < 1:
        raise ValueError("hypercube needs r >= 1")
    flips = [1 << b for b in range(r)]
    return Graph([sorted(map(xor, repeat(v), flips)) for v in range(1 << r)],
                 f"Q{r}")


def distance_matrix(g: Graph) -> list[list[int]]:
    """All-pairs hop distances; unreachable pairs get the sentinel value n."""
    out = []
    nbrs = g.nbrs
    n = len(nbrs)
    for src in range(n):
        dist = [n] * n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            du = dist[u]
            for v in nbrs[u]:
                if dist[v] == n:
                    dist[v] = du + 1
                    q.append(v)
        out.append(dist)
    return out


def format_edge_list(g: Graph) -> str:
    """Serialize as the edge-list text format: 'n <N>' then one 'u v' per edge."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format; '#' starts a comment line."""
    return graph_from_edges(*_edge_list(text))


def _edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the edges of an edge-list text."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <N>', got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-integer vertex count "
                                 f"in {raw!r}") from exc
            if n < 1:
                raise ValueError(f"line {lineno}: vertex count must be >= 1")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex in {raw!r}") from exc
        edges.append((u, v))
    if n is None:
        raise ValueError("missing 'n <N>' header line")
    return n, edges
