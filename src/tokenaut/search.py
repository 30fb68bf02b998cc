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


def _target_cell(cells: OrderedPartition) -> int:
    """Index of the first smallest non-singleton cell."""
    best = -1
    best_len = None
    for i, c in enumerate(cells):
        if len(c) > 1 and (best_len is None or len(c) < best_len):
            best, best_len = i, len(c)
    return best


class _AutSearch:
    def __init__(self, g: Graph, max_nodes: int | None):
        self.g = g
        self.n = g.n
        self.kernel = make_kernel(g.n, g.adj)
        self.max_nodes = max_nodes
        self.node_count = 0
        self.path: list[int] = []
        self.base: list[int] = []
        self.base_traces: list[tuple] = []
        self.first_leaf: list[int] | None = None
        self.gens: list[Permutation] = []
        self.invs: list[Permutation] = []

    def run(self) -> None:
        cells, trace = self.kernel.refine([list(range(self.n))], [0])
        self.base_traces.append(trace)
        self._node(cells, 0)

    def _bump(self) -> None:
        self.node_count += 1
        if self.max_nodes is not None and self.node_count > self.max_nodes:
            raise ScaleGuardExceeded(
                f"automorphism search exceeded {self.max_nodes} nodes")

    def _node(self, cells: OrderedPartition, depth: int) -> int | None:
        """Explore one node; returns a backjump depth or None."""
        self._bump()
        if len(cells) == self.n:
            return self._leaf(cells)
        t = _target_cell(cells)
        candidates = cells[t]
        done: set[int] = set()
        for v in candidates:
            if v in done or (done and v in self._closure(done)):
                done.add(v)
                continue
            rest = [u for u in candidates if u != v]
            child = cells[:t] + [[v], rest] + cells[t + 1:]
            child, trace = self.kernel.refine(child, [t, t + 1])
            if self.first_leaf is None:
                self.base_traces.append(trace)
            elif trace != self.base_traces[depth + 1]:
                done.add(v)
                continue
            self.path.append(v)
            jump = self._node(child, depth + 1)
            self.path.pop()
            done.add(v)
            if jump is not None and jump < depth:
                return jump
        return None

    def _leaf(self, cells: OrderedPartition) -> int | None:
        leaf = [c[0] for c in cells]
        if self.first_leaf is None:
            self.first_leaf = leaf
            self.base = list(self.path)
            return None
        images = [0] * self.n
        for ref, img in zip(self.first_leaf, leaf):
            images[ref] = img
        p = Permutation(tuple(images))
        if p.is_identity() or not is_automorphism(self.g, p):
            return None
        self.gens.append(p)
        self.invs.append(p.inverse())
        fork = 0
        for a, b in zip(self.path, self.base):
            if a != b:
                break
            fork += 1
        return fork

    def _closure(self, seeds: set[int]) -> set[int]:
        """Orbit closure of seeds under found automorphisms fixing the
        current path prefix pointwise."""
        prefix = self.path
        gens = []
        for g, g_inv in zip(self.gens, self.invs):
            if all(g(b) == b for b in prefix):
                gens.append(g)
                gens.append(g_inv)
        out = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = g(x)
                    if y not in out:
                        out.add(y)
                        nxt.append(y)
            frontier = nxt
        return out


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
        self.kg = make_kernel(g.n, g.adj)
        self.kh = make_kernel(h.n, h.adj)
        self.max_nodes = max_nodes
        self.node_count = 0

    def run(self) -> list[int] | None:
        unit = [list(range(self.g.n))]
        cells_g, trace_g = self.kg.refine(unit, [0])
        cells_h, trace_h = self.kh.refine(unit, [0])
        if trace_g != trace_h:
            return None
        return self._node(cells_g, cells_h)

    def _bump(self) -> None:
        self.node_count += 1
        if self.max_nodes is not None and self.node_count > self.max_nodes:
            raise ScaleGuardExceeded(
                f"isomorphism search exceeded {self.max_nodes} nodes")

    def _node(self, cells_g, cells_h) -> list[int] | None:
        self._bump()
        if len(cells_g) == self.g.n:
            mapping = [0] * self.g.n
            for cg, ch in zip(cells_g, cells_h):
                mapping[cg[0]] = ch[0]
            return mapping if self.g.maps_edges_into(mapping, self.h) else None
        t = _target_cell(cells_g)
        v = cells_g[t][0]
        rest_g = [u for u in cells_g[t] if u != v]
        child_g = cells_g[:t] + [[v], rest_g] + cells_g[t + 1:]
        child_g, trace_g = self.kg.refine(child_g, [t, t + 1])
        for w in cells_h[t]:
            rest_h = [u for u in cells_h[t] if u != w]
            child_h = cells_h[:t] + [[w], rest_h] + cells_h[t + 1:]
            child_h, trace_h = self.kh.refine(child_h, [t, t + 1])
            if trace_h != trace_g:
                continue
            found = self._node(child_g, child_h)
            if found is not None:
                return found
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
