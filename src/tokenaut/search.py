"""Automorphism-group and isomorphism search by individualization-refinement.

The search starts from the equitable refinement of the unit partition, whose
first split is by degree and is recorded in the root trace. The search tree
individualizes one vertex of a deterministically chosen target cell (first
smallest non-singleton) per level and re-refines. Leaves are discrete
partitions; a later leaf compared position-by-position against the first
leaf gives a candidate automorphism, which is accepted only after an
explicit edge-by-edge check. Pruning never drops group elements:

* trace pruning removes a branch only when its refinement trace differs
  from the first-leaf trace at the same depth (traces are equivariant, so
  no automorphic image of the reference leaf lies below such a branch);
* orbit pruning skips a candidate only when a product of already-verified
  automorphisms fixing the current prefix maps a processed sibling to it;
* after a successful leaf the search jumps back to the deepest node shared
  with the first-leaf path, because the new automorphism maps the entire
  abandoned subtree onto the already-explored first-path subtree.

The group's order and membership tests come from the search, not from a
Schreier-Sims run. The first-leaf path b_0, b_1, ... is a base: individualizing
it refines to a discrete partition, which only the identity fixes. Each
found generator fixes b_0..b_{i-1} and maps b_i to another child of the
first-path node at depth i, where i is the depth at which its leaf's path
leaves the first path. Every child of that node in the orbit of b_i under
the stabilizer of b_0..b_{i-1} is either explored, and then yields such a
generator, or pruned as an image of an explored child under generators that
fix the prefix. So for every i the generators fixing b_0..b_{i-1} have the
full stabilizer orbit of b_i, and by induction from the trivial stabilizer
of the whole path they generate that stabilizer: the certified generators
are a strong generating set relative to the path (McKay & Piperno,
"Practical graph isomorphism II", 2014). ``PermGroup.from_strong_generators``
turns that into a chain by orbit enumeration alone, and |Aut| is the product
of the orbit lengths.

Each search keeps one backtrackable ``Partition`` (``_refine_py``) for its
whole run: a node individualizes a vertex of its target cell in place,
refines, recurses, and undoes the trail back to its mark, so the partition
is the node's own again for the next candidate. A node costs its splitting
work and the size of its target cell, not a copy of all n vertices. The
target cell is found among the non-singleton cells only. Orbit pruning is a
union-find over the target cell's vertices: generators found so far are
merged into it lazily, only when a candidate comes up after another one is
done, and only those that fix the path prefix pointwise, which are the
automorphisms known to fix the node's partition and so to map the target
cell onto itself.

An exhaustive enumeration oracle (count_automorphisms_brute) provides an
independent count for fixtures with small groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ScaleGuardExceeded
from .graphs import Graph
from .perms import PermGroup, Permutation
from .refinement import make_kernel

# An ordered partition is a list of disjoint vertex lists covering 0..n-1;
# cell order is significant and each cell is kept sorted ascending.
OrderedPartition = list[list[int]]


@dataclass(frozen=True)
class AutResult:
    """Automorphism group plus search telemetry."""

    group: PermGroup
    node_count: int


def is_automorphism(g: Graph, p: Permutation) -> bool:
    """Edge-by-edge check that p preserves adjacency of g: a permutation
    that maps every edge to an edge maps the edge set onto itself."""
    return p.degree == g.n and g.maps_edges_into(p.images, g)


def _check_partition(g: Graph, cells) -> OrderedPartition:
    out = [sorted(c) for c in cells]
    flat = sorted(v for c in out for v in c)
    if flat != list(range(g.n)):
        raise ValueError("partition must cover 0..n-1 exactly once")
    if any(not c for c in out):
        raise ValueError("partition cells must be non-empty")
    return out


def refine(g: Graph,
           partition: OrderedPartition | None = None) -> OrderedPartition:
    """Coarsest equitable refinement of a partition (default: unit partition).

    On the unit partition this is the root partition of the automorphism and
    isomorphism searches.
    """
    cells = _check_partition(g, partition if partition is not None
                             else [list(range(g.n))])
    kernel = make_kernel(g.n, g.adj)
    refined, _ = kernel.refine(cells, list(range(len(cells))))
    return refined


class _AutSearch:
    def __init__(self, g: Graph, max_nodes: int | None):
        self.g = g
        self.n = g.n
        self.part = make_kernel(g.n, g.adj).partition([list(range(g.n))])
        self.max_nodes = max_nodes
        self.node_count = 0
        self.path: list[int] = []
        self.base: list[int] = []
        self.base_traces: list[tuple] = []
        self.first_leaf: list[int] | None = None
        self.gens: list[Permutation] = []

    def run(self) -> None:
        self.base_traces.append(self.part.refine([0]))
        self._node(0)

    def _bump(self) -> None:
        self.node_count += 1
        if self.max_nodes is not None and self.node_count > self.max_nodes:
            raise ScaleGuardExceeded(
                f"automorphism search exceeded {self.max_nodes} nodes")

    def _node(self, depth: int) -> int | None:
        """Explore the node the partition is at; returns a backjump depth
        or None. The partition is back at the node on return."""
        self._bump()
        part = self.part
        if part.is_discrete():
            return self._leaf(part.order)
        t = part.target()
        candidates = part.cell(t)
        # Union-find over the target cell (see the module docstring);
        # done_roots holds the roots of the done candidates, refreshed after
        # each merge.
        parent: dict[int, int] = {}
        merged = 0
        done_roots: set[int] = set()

        def find(x: int) -> int:
            root = parent.get(x, x)
            while root != x:
                up = parent.get(root, root)
                parent[x] = up
                x, root = root, up
            return x

        for v in candidates:
            if done_roots and merged < len(self.gens):
                path = self.path
                for p in self.gens[merged:]:
                    images = p.images
                    if list(map(images.__getitem__, path)) != path:
                        continue
                    for x in candidates:
                        a, b = find(x), find(images[x])
                        if a != b:
                            parent[a] = b
                merged = len(self.gens)
                done_roots = {find(x) for x in done_roots}
            root = find(v)
            if root in done_roots:
                continue
            mark = len(part.trail)
            trace = part.individualize(t, v)
            if self.first_leaf is None:
                self.base_traces.append(trace)
            elif trace != self.base_traces[depth + 1]:
                part.undo(mark)
                done_roots.add(root)
                continue
            self.path.append(v)
            jump = self._node(depth + 1)
            self.path.pop()
            part.undo(mark)
            done_roots.add(root)
            if jump is not None and jump < depth:
                return jump
        return None

    def _leaf(self, leaf: list[int]) -> int | None:
        if self.first_leaf is None:
            self.first_leaf = list(leaf)
            self.base = list(self.path)
            return None
        images = [0] * self.n
        for ref, img in zip(self.first_leaf, leaf):
            images[ref] = img
        p = Permutation(tuple(images))
        if p.is_identity() or not is_automorphism(self.g, p):
            return None
        self.gens.append(p)
        fork = 0
        for a, b in zip(self.path, self.base):
            if a != b:
                break
            fork += 1
        return fork


def automorphism_group(g: Graph, max_nodes: int | None = None) -> AutResult:
    """Automorphism group of g with every generator certified edge-by-edge.

    The group's chain is built from the search itself, with no Schreier
    sifting: its base is the first-leaf path, without the points that
    every generator fixes, and its strong generators are the certified
    generators.
    """
    search = _AutSearch(g, max_nodes)
    search.run()
    group = PermGroup.from_strong_generators(g.n, search.base, search.gens)
    return AutResult(group, search.node_count)


class _IsoSearch:
    def __init__(self, g: Graph, h: Graph, max_nodes: int | None):
        self.g = g
        self.h = h
        unit = [list(range(g.n))]
        self.pg = make_kernel(g.n, g.adj).partition(unit)
        self.ph = make_kernel(h.n, h.adj).partition(unit)
        self.max_nodes = max_nodes
        self.node_count = 0

    def run(self) -> list[int] | None:
        if self.pg.refine([0]) != self.ph.refine([0]):
            return None
        return self._node()

    def _bump(self) -> None:
        self.node_count += 1
        if self.max_nodes is not None and self.node_count > self.max_nodes:
            raise ScaleGuardExceeded(
                f"isomorphism search exceeded {self.max_nodes} nodes")

    def _node(self) -> list[int] | None:
        """Pair g's first target vertex with each vertex of h's cell at the
        same start. Equal traces give both partitions the same cell
        starts. The partitions are back at the node on a None return."""
        self._bump()
        pg, ph = self.pg, self.ph
        if pg.is_discrete():
            mapping = [0] * self.g.n
            for v, w in zip(pg.order, ph.order):
                mapping[v] = w
            return mapping if self.g.maps_edges_into(mapping, self.h) else None
        t = pg.target()
        mark_g = len(pg.trail)
        trace_g = pg.individualize(t, pg.order[t])
        mark_h = len(ph.trail)
        for w in ph.cell(t):
            if ph.individualize(t, w) == trace_g:
                found = self._node()
                if found is not None:
                    return found
            ph.undo(mark_h)
        pg.undo(mark_g)
        return None


def is_isomorphic(g: Graph, h: Graph,
                  max_nodes: int | None = None) -> list[int] | None:
    """Certified isomorphism from g to h as an image list, or None.

    Both graphs are refined side by side with paired partitions; branches
    survive only while the refinement traces agree, so a returned mapping
    is always verified edge-by-edge and exhaustion certifies
    non-isomorphism.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    if g.degree_sequence() != h.degree_sequence():
        return None
    return _IsoSearch(g, h, max_nodes).run()


def count_automorphisms_brute(g: Graph) -> int:
    """Exhaustive automorphism count: try all degree-respecting bijections.

    Independent of the refinement search; intended as an oracle for small
    fixtures (roughly |Aut| <= 1e5 and n <= 12).
    """
    n = g.n
    adj = g.adj
    deg = [adj[v].bit_count() for v in range(n)]
    images = [0] * n
    used = [False] * n
    count = 0

    def rec(u: int) -> None:
        nonlocal count
        if u == n:
            count += 1
            return
        au = adj[u]
        for w in range(n):
            if used[w] or deg[w] != deg[u]:
                continue
            aw = adj[w]
            ok = True
            for t in range(u):
                if (au >> t) & 1 != (aw >> images[t]) & 1:
                    ok = False
                    break
            if ok:
                images[u] = w
                used[w] = True
                rec(u + 1)
                used[w] = False

    rec(0)
    return count
