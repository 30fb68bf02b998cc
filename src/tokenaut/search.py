"""Automorphism-group and isomorphism search by individualization-refinement.

One walker serves both questions. It starts from the equitable refinement of
the unit partition (of the colour cells, on a twin quotient), whose first
split is by degree and is recorded in the root trace, and individualizes
one vertex of a deterministically chosen target cell (first smallest
non-singleton) per level, re-refining each time.
Leaves are discrete partitions. Each leaf is compared position by position
with a reference leaf, and the resulting map is accepted only after an
explicit edge-by-edge check (an automorphism search also tries this at
inner nodes, see below):

* automorphisms of g: the reference is the walk's own first leaf, found
  lazily, and each accepted map is a generator;
* an isomorphism from g to h: the walk is over h's tree, and the reference
  is g's first path (at every level, the first vertex of the target cell),
  taken in a partition of g one level at a time, when h's walk first
  reaches that depth, so a pair rejected near h's root never pays for the
  rest of g's path. The first accepted map ends the walk. A leaf that
  fails against g's path is compared with h's own first leaf, as in an
  automorphism walk of h, and a map that passes the edge check on h is
  kept as a generator of Aut(h) (see below).

Pruning never drops a map the walk is looking for:

* trace pruning removes a branch only when its refinement trace differs
  from the reference path's trace at the same depth (traces are
  equivariant, so no image of the reference leaf lies below such a
  branch). The refinement is handed that trace and stops at the first
  splitter whose events differ, as in Traces, so a pruned branch costs
  only the prefix of its trace that matched;
* orbit pruning skips a candidate only when a product of already-verified
  automorphisms fixing the current prefix maps a processed sibling to it;
* after a new automorphism the walk jumps back to the deepest node shared
  with the first-leaf path, because the automorphism maps the entire
  abandoned subtree onto the already-explored first-path subtree. An
  isomorphism jumps back past the root.

An automorphism search tests a node off the first path before it refines
any child, with saucy's position map (Darga, Sakallah & Markov, "Faster
symmetry discovery using sparsity of symmetries", DAC 2008); nauty and
Traces likewise stop a descent once its automorphism is known. While the
first leaf is unknown the walk is on the first path, and it keeps the
vertex order of that path's node at each depth. A later node at depth d
that is not discrete matched the first path's traces, so its cells have
the same starts and sizes as the first-path node at depth d. Sending the
vertex at each position p of that node's order to the vertex at p of
this node's order is a bijection, and if it passes the edge check it is
kept exactly as a leaf's map would be: appended as a generator, with a
backjump to the fork. Otherwise the node is refined and descended as
before. This is sound for the same reason a leaf's map is. Say the
node's path starts b_0, ..., b_{i-1}, v with v != b_i at the fork depth i.
At each depth j < d, both paths individualized their vertex at the start
of the same target cell (one per depth, chosen on the first path), and a
singleton cell never moves or splits again. So b_0, ..., b_{i-1} sit at
the same positions in both orders, and b_i sits where v does: the map
fixes the prefix, sends b_i to v, and passed the edge check, which is all
that the argument below and the backjump ask of a generator. On the
paper's families the check finds most generators: F2(Q5) takes 51 nodes,
not 78, and F6(K_{2,12})'s twin quotient 23, not 78, with the same
generators and base. An isomorphism walk still compares leaves only.

An isomorphism walk prunes with the automorphisms of h it finds, as
nauty prunes its search with the automorphisms it finds. Its first-leaf path b_0, b_1, ... is the path of h's first leaf,
and a later leaf whose map from that leaf passes the edge check on h
gives an automorphism s of h. As above, s fixes b_0, ..., b_{i-1} and
sends b_i to v, where the leaf's path leaves the first path at depth i
by taking v. Refinement, traces and target cells (chosen by position)
are equivariant, so s maps the subtree below b_i onto the subtree below
v. If some leaf below v gave an isomorphism f from g, its preimage under
s would be a leaf below b_i, with the same traces, whose map is s^-1 f,
again an isomorphism. That subtree was walked before v's and held none,
since any isomorphism ends the walk, so v's subtree holds none either,
and the walk jumps back to the fork. Orbit pruning holds by the same
argument: a prefix-fixing automorphism of h maps a done candidate's
subtree, which held no isomorphism, onto the candidate's. On the A + A + B
against A + B + B cubic pairs of the tests, rejections take 34 to 130
nodes instead of 1,493 to 3,255. These automorphisms come only from leaves
of h that match g's traces, so a rejection whose branches all fail above
the leaves gets no pruning from them.

The group's order and membership tests come from the search, not from a
Schreier-Sims run. The first-leaf path b_0, b_1, ... is a base: individualizing
it refines to a discrete partition, which only the identity fixes. Each
found generator fixes b_0..b_{i-1} and maps b_i to another child of the
first-path node at depth i, where i is the depth at which the path of
the node that found it leaves the first path. Every child of that node
in the orbit of b_i under the stabilizer of b_0..b_{i-1} is either
explored, and then yields such a generator, or pruned as an image of an
explored child under generators that fix the prefix. So for every i the
generators fixing b_0..b_{i-1} have the full stabilizer orbit of b_i,
and by induction from the trivial stabilizer of the whole path they
generate that stabilizer: the certified generators
are a strong generating set relative to the path (McKay & Piperno,
"Practical graph isomorphism II", 2014). At the first leaf the walk opens
a chain with one empty level per path point (``PermGroup._on_base``), and
each generator it finds joins it by ``PermGroup._grow``. A generator
found at fork depth i fixes b_0..b_{i-1}, so its sift passes levels
0..i-1, and it sends b_i to a candidate that orbit pruning did not skip,
which is not in level i's orbit: the residue is the generator itself, it
joins levels 0..i, and their orbits are closed under it. The chain is
that of the strong generating set, and |Aut| is the product of the orbit
lengths.

An automorphism walk can be seeded with known automorphisms, each checked
edge by edge first. ``verify`` seeds it with the paper's generators, which
their constructions have checked, so it hands them to
``_automorphism_group``, which does not check them again. McKay & Piperno
prune nauty's tree with the stabilizer orbits of automorphisms known
beforehand in the same way. The walk descends its first path as before, so
at the first leaf the base b_0, b_1, ... is known before any node off the
path is visited. The chain opened there is first grown as a chain of H, the
group the known automorphisms generate, on its levels fixed in advance: by
the known automorphisms, then by seeded random elements of H (Seress 2003,
section 4.3; ``PermGroup._grow_randomly``) until its orbit-length product
reaches the product of the first path's target-cell sizes, or
``_STALL_SIFTS`` elements in a row sift to the identity, after which it is
completed by Schreier-Sims. An automorphism fixing b_0..b_{i-1} keeps the
depth-i equitable partition, so level i's orbit lies in b_i's target cell;
at that product every level's orbit is its whole cell, and so Aut's basic
orbit. Either way the chain's order is now |H|, which the walk records as
``AutResult.known_order`` before any generator of its own joins: a
completed chain is H's, and its levels sit on a base of Aut, which
contains H, so completing it never opens a level; a chain that reached
the product has |H| at least that product, which is at least |Aut|. A
generator the walk finds later joins the same chain, on levels 0..i for
its fork depth i. Back on the first path, the node at depth i skips every
candidate in the orbit of b_i on level i, as an unseeded walk's node does.

Why the answer stays exact. Each level-i element lies in Aut and fixes
b_0..b_{i-1}, so it maps the subtree of b_i, which was walked first, onto
the subtree of the candidate it sends b_i to: a skipped candidate is
pruned by orbits, as above. Every child of the depth-i first-path node
that lies in b_i's orbit under the stabilizer of b_0..b_{i-1} in Aut is
therefore either explored, and then yields a generator that joins level
i, or pruned, and then is already in the level's orbit (an image under
found generators that fix the prefix, which joined level i too, or a
skipped candidate). So each level's orbit is the whole basic orbit of
Aut, and |Aut| is the product of the orbit lengths. Each orbit point's
transversal element lies in the stabilizer, so sifting decides membership
as in any chain. The levels' groups are nested, and each acts on its
orbit, so the level-0 group has at least that order: the known and the
found automorphisms, which generate it, generate Aut. If the walk found
no generator, every level's group lies in H, so H = Aut. Isomorphism walks
grow no chain; a graph with twins grows it in its quotient's walk (below).

Graphs with twins are searched in their twin quotient (Anders, Schweitzer &
Stiess, "Engineering a Preprocessor for Symmetry Detection", SEA 2023). Two
vertices are open twins when their neighbour lists are equal; twins are
never adjacent, since there are no loops. The twin classes C_1, ..., C_r
each list their members c_0 < c_1 < ... in ascending order, and the
quotient Q is the subgraph induced on the classes' first members, searched
from initial cells that group the classes by size, in ascending size order.
An automorphism of g maps twins to twins, so Aut(g) acts on the classes,
and what it induces is an automorphism of Q that keeps every class size:
a coloured automorphism. Any permutation that maps each class onto itself
keeps every adjacency row, so the kernel of the action is T = prod Sym(C).
Conversely, the order-preserving lift of a coloured automorphism s of Q,
c_j of C_i to c_j of C_s(i), keeps adjacency (between different classes it
is Q's, inside one there is none), and lifting is a homomorphism. So Aut(g)
is T extended by the lifted group L, and |Aut(g)| = prod |C|! * |Aut(Q)|.

So the group of a graph with twins, a ``TwinGroup``, holds only the
classes and the quotient's chain, at the quotient's degree: its order is
prod |C|! times the quotient chain's. A permutation p lies in it exactly
when p maps every class onto a class and the class permutation it induces
lies in the quotient's group: p is then t * l, with l the lift of that
class permutation and t = p * l^-1 in T. The class permutation is read off
the points p moves, and a class none of them is in stays in place. A class
with a moved member maps into the class of that member's image, which
every moved member must share, and a class that goes elsewhere must have
every member moved (the class-size check). Then each class maps into one
class, and as p is onto, every class is hit: the class map is a bijection,
and each class maps onto a class of its own size. The lifts of the
generators the quotient's walk finds are built and certified edge by edge
on g at once; they are few.

Known automorphisms of a graph with twins seed the quotient's walk through
their class images, each read off the points it moves by the same rule.
The class image of an automorphism of g is a coloured automorphism of Q,
so a chain of the group the images generate, grown on Q's first-leaf path,
prunes Q's first path exactly as a twin-free walk's chain prunes its own:
the argument above holds word for word in the coloured group of Q. The
identity images, those of automorphisms that keep every class in place,
and repeated images are dropped; when none is left, the walk is unseeded.
Its chain, with the found generators joined, is the quotient's chain, and
its levels' generators are a strong generating set of Aut(Q) relative to
the path: level i's generators fix b_0..b_{i-1}, and with each level's
orbit the whole basic orbit, by induction from the deepest level they
generate each stabilizer. When the known twin transpositions (a known
automorphism that moves two points, keeping every class in place) connect
every class, they generate T, so the group H of the known automorphisms
contains T, the kernel of its action on the classes, and |H| = |T| times
the order of the group I its class images generate, which the quotient's
walk records as a twin-free walk records |H|. If the walk found no
generator of its own, I = Aut(Q) and H = Aut(g). If some class is not
connected, H may still be Aut(g), but the walk cannot tell, and
``bounded_order`` takes |H| at g's degree under the bound |Aut(g)|: the
one case that grows a second chain.

The base and strong generators that ``aut`` reports list are read off the
classes and the quotient's chain. The strong generators are the lifts of
the quotient chain's strong generators (unseeded, the found ones, already
lifted; a seeded chain's others are lifted and certified on first use)
and each class's adjacent transpositions (c_j c_{j+1}), each certified by
the equal neighbour lists of c_j and c_{j+1}. They are a
strong generating set relative to the lifted search path (the first
members of the path's classes), then, for each class of two or more
members, in class order, its members after the first if the class is on
the path, or all of them if not. An element t * l (t in T, l lifting s)
fixes the first member of C_i exactly when s fixes C_i and t fixes that
member. So the stabilizer of the first i lifted points is the quotient
stabilizer of the first i path points, lifted, which its lifted strong
generators generate, times T's elements that fix those members, which the
other classes' transpositions and (c_1 c_2), (c_2 c_3), ... of the fixed
classes generate. Past the path the lifted part is trivial, and the
adjacent transpositions of c_a, ..., c_b are a strong generating set of
Sym{c_a, ..., c_b} relative to c_a, c_{a+1}, .... The reported base drops
the trivial levels, as a walk's chain does. A path point's
orbit is the union of the classes in its quotient level's orbit: trivial
exactly when the point is not in the quotient chain's base and its class
has one member. A class's member before its last is moved by (c_j
c_{j+1}), which fixes the points before it, and its last is fixed once the
others are. A twin-free graph, with every class a singleton, is searched
as it is, and its group is the chain of its own search.

The walker keeps one backtrackable ``Partition`` (``refinement``) for its
whole run: a node individualizes a vertex of its target cell in place,
refines, recurses, and undoes the trail back to its mark, so the partition
is the node's own again for the next candidate. A node costs its splitting
work and the size of its target cell, not a copy of all n vertices. A
node whose trace matched the reference path's has the same cell starts and
sizes as the reference path's node at its depth, so the target cell is
chosen once per depth, on the reference path, and reused by every other
node there. A backjump leaves the undo to the node it lands on, so a found
isomorphism returns without undoing its path. Orbit pruning is a
union-find over the target cell's vertices: generators found so far are
merged into it lazily, only when a candidate comes up after another one is
done, and only those that fix the path prefix pointwise, which are the
automorphisms known to fix the node's partition and so to map the target
cell onto itself. An isomorphism walk merges the automorphisms of h it has
found in the same way.

An exhaustive enumeration oracle (count_automorphisms_brute) provides an
independent count for fixtures with small groups.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import accumulate
from math import factorial, prod

from .errors import CertificationError, ScaleGuardExceeded
from .graphs import Graph
from .perms import PermGroup, Permutation, _distinct, _id_images, bounded_order
from .refinement import Partition

# An ordered partition is a list of disjoint vertex lists covering 0..n-1;
# cell order is significant and each cell is kept sorted ascending.
OrderedPartition = list[list[int]]


class AutResult:
    """Automorphism group plus search telemetry. ``node_count`` counts the
    nodes of the search tree that was walked: g's own, or, when g has twins,
    that of its twin quotient. ``known_order`` is the order of the group
    the known automorphisms generate, 1 when there are none."""

    __slots__ = ("group", "node_count", "known_order")

    def __init__(self, group: PermGroup | TwinGroup, node_count: int,
                 known_order: int = 1):
        self.group = group
        self.node_count = node_count
        self.known_order = known_order


def is_automorphism(g: Graph, p: Permutation) -> bool:
    """Edge-by-edge check that p preserves adjacency of g: a permutation
    that maps every edge to an edge maps the edge set onto itself. Only
    the edges at the vertices p moves are visited (``Graph.maps_edges_into``)."""
    return p.degree == g.n and g.maps_edges_into(p.images, g)


def certify(gens: list[Permutation], g: Graph, what: str) -> None:
    """Raise ``CertificationError`` naming ``what`` unless every
    permutation in ``gens`` is an automorphism of g."""
    for p in gens:
        if not is_automorphism(g, p):
            raise CertificationError(f"{what} failed the edge check")


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

    On the unit partition this is the root partition of the search tree.
    """
    cells = _check_partition(g, partition if partition is not None
                             else [list(range(g.n))])
    part = Partition(g.nbrs, cells)
    part.refine(_starts(cells))
    return part.cells()


def _starts(cells: OrderedPartition) -> list[int]:
    """The start position of each cell in the partition's vertex order."""
    return list(accumulate(map(len, cells[:-1]), initial=0))


class _Search:
    """Walk the tree of g, comparing each leaf with a reference leaf: g's
    own first leaf, or the first leaf of ``source``, an isomorphism
    candidate for g. Either way the reference path is extended one level
    the first time the walk reaches a depth. An isomorphism walk also
    compares a leaf that fails with g's own first leaf, for automorphisms
    of g, and an automorphism walk compares each inner node off its first
    path with that path's node at the same depth. ``cells`` colours g's
    automorphism search: the tree starts from them instead of the unit
    partition, and every leaf map keeps each of them in place. At its first
    leaf an automorphism walk opens a chain on the first-leaf path, and
    every generator it finds joins it. ``known``, certified automorphisms
    of g, seed that chain: their group's chain is grown on it first, and
    its orbits prune the first path's nodes (see the module docstring)."""

    def __init__(self, g: Graph, max_nodes: int | None,
                 source: Graph | None = None,
                 cells: OrderedPartition | None = None,
                 known: tuple[Permutation, ...] = ()):
        self.g = g
        self.iso = source is not None
        self.source = source
        cells = cells or [list(range(g.n))]
        # The root refines against every initial cell.
        self.starts = _starts(cells)
        self.part = Partition(g.nbrs, cells)
        # The partition the reference path is taken in: the walk's own, or
        # one of the source graph, whose order ends as the reference leaf.
        self.ref = (Partition(source.nbrs, [list(range(source.n))])
                    if self.iso else self.part)
        self.max_nodes = max_nodes
        self.node_count = 0
        self.path: list[int] = []
        self.base: list[int] = []
        self.traces: list[tuple] = []
        self.targets: list[int] = []
        # The size of the reference path's target cell at each depth.
        self.target_sizes: list[int] = []
        self.first_leaf: list[int] | None = None
        # The first path's vertex order at each inner depth.
        self.snapshots: list[list[int]] = []
        self.gens: list[Permutation] = []
        self.mapping: list[int] | None = None
        self.known = known
        # An automorphism walk's chain of <known, gens> on the first-leaf
        # path, once that path is known, and |<known>|, read off it before
        # any found generator joins.
        self.chain: PermGroup | None = None
        self.known_order = 1

    def run(self) -> None:
        self.traces.append(self.ref.refine(self.starts))
        if self.iso and self.part.refine(self.starts,
                                         self.traces[0]) is None:
            return
        self._node(0)

    def _bump(self) -> None:
        self.node_count += 1
        if self.max_nodes is not None and self.node_count > self.max_nodes:
            what = "isomorphism" if self.iso else "automorphism"
            raise ScaleGuardExceeded(
                f"{what} search exceeded {self.max_nodes} nodes")

    def _node(self, depth: int) -> int | None:
        """Explore the node the partition is at; returns a backjump depth
        or None. The partition is back at the node on a return of None or
        of its own depth; the node a backjump lands on undoes the rest."""
        self._bump()
        part = self.part
        if part.is_discrete():
            return self._leaf(part.order)
        # A node reached before the first leaf is on the first path.
        on_path = self.first_leaf is None
        if not self.iso:
            if on_path:
                self.snapshots.append(list(part.order))
            else:
                jump = self._accept(self.snapshots[depth], part.order)
                if jump is not None:
                    return jump
        # Equal traces give equal cell starts and sizes, so a node has the
        # target cell of the reference path's node at its depth.
        if depth == len(self.targets):
            self._extend()
        t = self.targets[depth]
        candidates = part.cell(t)
        # Union-find over the target cell (see the module docstring);
        # done_roots holds the roots of the done candidates, refreshed after
        # each merge.
        parent: dict[int, int] = {}
        merged = 0
        done_roots: set[int] = set()
        # b_i's orbit in the seeded chain's level at this first-path node,
        # taken once the first candidate, b_i, is done.
        orbit = None

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
            if root in done_roots or orbit is not None and v in orbit:
                continue
            mark = len(part.trail)
            if depth + 1 == len(self.traces):
                self.traces.append(part.individualize(t, v))
            elif part.individualize(t, v, self.traces[depth + 1]) is None:
                part.undo(mark)
                done_roots.add(root)
                continue
            self.path.append(v)
            jump = self._node(depth + 1)
            self.path.pop()
            if jump is not None and jump < depth:
                return jump
            part.undo(mark)
            done_roots.add(root)
            if on_path and self.chain is not None:
                orbit = self.chain._levels[depth].inv
        return None

    def group(self) -> PermGroup:
        """The chain of the group a finished automorphism walk found: the
        chain it grew on its first-leaf path, whose generators are the
        known ones and the found ones."""
        self.chain.generators += tuple(self.gens)
        self.chain._drop_trivial_levels()
        return self.chain

    def _extend(self) -> None:
        """Take the reference path one level deeper. The walk's own first
        descent is its reference path, so it records the trace of its
        first child itself; the source's path individualizes the first
        vertex of its target cell here."""
        ref = self.ref
        t = ref.target()
        self.targets.append(t)
        self.target_sizes.append(ref.size[t])
        if self.iso:
            self.traces.append(ref.individualize(t, ref.order[t]))

    def _leaf(self, leaf: list[int]) -> int | None:
        """Compare a leaf with the source's reference leaf, if any, then
        with the walk's own first leaf. Returns the backjump depth or None:
        -1 for an isomorphism, which ends the walk."""
        if self.iso:
            # The source's path is as deep as this leaf, so its order is
            # its leaf.
            images = _position_map(self.ref.order, leaf)
            if self.source.maps_edges_into(images, self.g):
                self.mapping = images
                return -1
        if self.first_leaf is None:
            self.first_leaf = list(leaf)
            self.base = list(self.path)
            if not self.iso:
                self.chain = PermGroup._on_base(self.g.n, self.base,
                                                self.known)
            if self.known:
                # Level i's orbit lies in b_i's target cell, so the cells'
                # product bounds the chain's order (see the module
                # docstring).
                bound = prod(self.target_sizes)
                self.chain._grow_randomly(bound)
                self.known_order = self.chain.order()
                assert self.known_order <= bound
            return None
        return self._accept(self.first_leaf, leaf)

    def _accept(self, ref: list[int], order: list[int]) -> int | None:
        """Keep the position map ref[p] -> order[p] as a generator if it is
        an automorphism of the walk's graph, jumping back to the fork.
        Returns the backjump depth or None."""
        images = _position_map(ref, order)
        if not self.g.maps_edges_into(images, self.g):
            return None
        images = tuple(images)
        self.gens.append(Permutation(images))
        if self.chain is not None:
            self.chain._grow(images)
        fork = 0
        for a, b in zip(self.path, self.base):
            if a != b:
                break
            fork += 1
        return fork


def _position_map(ref: list[int], order: list[int]) -> list[int]:
    """The images of the map sending ref[p] to order[p] for every p."""
    images = [0] * len(ref)
    for a, b in zip(ref, order):
        images[a] = b
    return images


def _twin_classes(g: Graph) -> list[list[int]]:
    """Open-twin classes of g: vertices with equal neighbour lists, so the
    isolated vertices form one class. Each class is ascending, and the
    classes come in order of their first member."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, nb in enumerate(g.nbrs):
        classes.setdefault(nb, []).append(v)
    return list(classes.values())


def _quotient_search(g: Graph, classes: list[list[int]],
                     max_nodes: int | None,
                     known: tuple[Permutation, ...] = ()) -> _Search:
    """The walk over g's twin quotient: the graph induced on each class's
    first member, coloured by class size in ascending order, seeded with
    ``known``, coloured automorphisms of the quotient."""
    sizes = sorted({len(c) for c in classes})
    cells = [[i for i, c in enumerate(classes) if len(c) == s] for s in sizes]
    search = _Search(g.induced([c[0] for c in classes]), max_nodes,
                     cells=cells, known=known)
    search.run()
    return search


def _lift(g: Graph, classes: list[list[int]],
          gens: list[Permutation]) -> list[Permutation]:
    """The order-preserving lifts to g of the quotient's generators ``gens``
    (see the module docstring), each certified edge by edge on g."""
    # The quotient's maps keep its initial cells, so each lifts class onto
    # class of the same size, member by member in ascending order.
    lifted = []
    for p in gens:
        images = [0] * g.n
        for c, d in zip(classes, map(classes.__getitem__, p.images)):
            for u, w in zip(c, d):
                images[u] = w
        lifted.append(Permutation._raw(tuple(images)))
    certify(lifted, g, "a lifted quotient generator")
    return lifted


def _class_of(n: int, classes: list[list[int]]) -> list[int]:
    """The index of each vertex's twin class."""
    class_of = [0] * n
    for i, c in enumerate(classes):
        for v in c:
            class_of[v] = i
    return class_of


def _class_image(classes: list[list[int]], class_of: list[int],
                 p: Permutation, moved: list[int]) -> Permutation | None:
    """The permutation p induces on the classes, or None unless p maps
    every class onto a class. Only the points p moves, ``moved``, are
    visited: a class none of them is in stays in place."""
    images = p.images
    target: dict[int, int] = {}
    count: dict[int, int] = {}
    for v in moved:
        i, j = class_of[v], class_of[images[v]]
        if target.setdefault(i, j) != j:
            return None
        count[i] = count.get(i, 0) + 1
    identity = _id_images(len(classes))
    q = None
    for i, j in target.items():
        if j == i:
            continue
        # A class with a fixed member stays in place, so one that goes
        # elsewhere has every member moved.
        if count[i] != len(classes[i]):
            return None
        if q is None:
            q = list(identity)
        q[i] = j
    # Every class now maps into one class, and p is onto, so every class
    # is hit: q is a bijection, and each class maps onto a class of its
    # own size. An image that moves no class is the cached identity, and
    # the others share its points, as a chain's elements do.
    return Permutation._raw(identity if q is None else tuple(q))


def _class_images(classes: list[list[int]], class_of: list[int],
                  gens: Iterable[Permutation]
                  ) -> tuple[list[Permutation | None], list[list[int]]]:
    """The class image of each of ``gens`` (``_class_image``), read from
    the points it moves, and the two moved points of each twin
    transposition among them: a generator that moves two points and keeps
    every class in place."""
    images, pairs = [], []
    for p in gens:
        moved = p.moved_points()
        q = _class_image(classes, class_of, p, moved)
        images.append(q)
        if len(moved) == 2 and q is not None and q.is_identity():
            pairs.append(moved)
    return images, pairs


def _twins_spanned(classes: list[list[int]], pairs: list[list[int]]) -> bool:
    """Whether the transpositions ``pairs`` connect every twin class, so
    that they generate T = prod Sym(C)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return all(len({find(v) for v in c}) == 1 for c in classes if len(c) > 1)


class TwinGroup:
    """Aut(g) of a graph g with twins, held as T extended by the lifted
    quotient group (see the module docstring): the twin classes and the
    quotient's chain, at the quotient's degree. ``order``, ``contains``,
    ``orbit``, ``base`` and ``generator_count`` need nothing more; the
    strong generators the reports list are built on first use.
    ``class_of`` is each vertex's class index (``_class_of``), ``path`` is
    the quotient's search path, ``found`` are the generators its walk
    found, and ``lifted`` are their certified lifts, in the same order."""

    def __init__(self, g: Graph, classes: list[list[int]],
                 class_of: list[int], path: list[int], quotient: PermGroup,
                 found: list[Permutation], lifted: list[Permutation]):
        self.degree = g.n
        self.classes = classes
        self.quotient = quotient
        self.class_of = class_of
        # What the base and generators are read from.
        self._g = g
        self._path = path
        self._found = found
        self._lifted = lifted

    def twin_order(self) -> int:
        """|T|, the product of the classes' factorials."""
        return prod(factorial(len(c)) for c in self.classes)

    def order(self) -> int:
        return self.twin_order() * self.quotient.order()

    def class_image(self, p: Permutation) -> Permutation | None:
        """The permutation p induces on the classes, or None unless p maps
        every class onto a class (``_class_image``)."""
        return _class_image(self.classes, self.class_of, p, p.moved_points())

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        q = self.class_image(p)
        return q is not None and self.quotient.contains(q)

    def _strong_lifts(self) -> list[Permutation]:
        """The certified lifts of the quotient chain's strong generators,
        which are its first level's: a generator joins levels 0..i, and
        level i's orbit is then not trivial, so no level that holds one is
        dropped. Unseeded, they are the generators the walk found, already
        lifted; a seeded chain's others are lifted here."""
        levels = self.quotient._levels
        strong = [Permutation._raw(s)
                  for s in (levels[0].gens if levels else ())]
        lifts = {q.images: p for q, p in zip(self._found, self._lifted)}
        rest = [q for q in strong if q.images not in lifts]
        lifts.update(zip((q.images for q in rest),
                         _lift(self._g, self.classes, rest)))
        return [lifts[q.images] for q in strong]

    @property
    def base(self) -> tuple[int, ...]:
        """The base of the module docstring, without its trivial levels."""
        quotient_base = set(self.quotient.base)
        base = [self.classes[b][0] for b in self._path
                if b in quotient_base or len(self.classes[b]) > 1]
        on_path = set(self._path)
        for i, c in enumerate(self.classes):
            if len(c) > 1:
                base.extend(c[1:-1] if i in on_path else c[:-1])
        return tuple(base)

    @cached_property
    def generators(self) -> tuple[Permutation, ...]:
        """The lifted strong generators, then each class's adjacent
        transpositions. A transposition (a b) is certified by a's and b's
        equal neighbour lists."""
        gens = self._strong_lifts()
        nbrs = self._g.nbrs
        identity = _id_images(self.degree)
        for c in self.classes:
            for a, b in zip(c, c[1:]):
                if nbrs[a] != nbrs[b]:
                    raise CertificationError(
                        "a twin transposition failed the edge check")
                images = list(identity)
                images[a], images[b] = b, a
                gens.append(Permutation._raw(tuple(images)))
        return tuple(gens)

    def generator_count(self) -> int:
        """How many ``generators`` there are, without building them: a lift
        per strong generator of the quotient chain, and a transposition per
        class member after the first."""
        levels = self.quotient._levels
        strong = len(levels[0].gens) if levels else 0
        return strong + self.degree - len(self.classes)

    def elements(self) -> Iterator[Permutation]:
        """All group elements (intended for small groups only)."""
        return PermGroup(self.degree, self.generators).elements()

    def orbit(self, point: int) -> frozenset[int]:
        """The members of the classes in the quotient orbit of
        ``point``'s class."""
        return frozenset(v for i in self.quotient.orbit(self.class_of[point])
                         for v in self.classes[i])

    to_report = PermGroup.to_report

    def __repr__(self):
        return f"<TwinGroup degree={self.degree} order={self.order()}>"


def automorphism_group(g: Graph, max_nodes: int | None = None,
                       known: Iterable[Permutation] = ()) -> AutResult:
    """Automorphism group of g with every generator certified edge-by-edge.

    The group's chain is grown by the search itself, with no Schreier
    generator formed: its base is the first-leaf path, without the points
    that every generator fixes, and its strong generators are the certified
    generators. When g has twins, the search runs on the twin quotient,
    and the group is a ``TwinGroup``: the twin classes and the quotient's
    chain, with the quotient's generators lifted to g and certified there
    (see the module docstring).

    ``known`` are automorphisms of g, each checked edge by edge here
    (``CertificationError`` otherwise). They seed the walk: the chain is
    that of their group on the first-leaf path, grown by random elements
    and by the generators the walk finds, and its orbits prune the first
    path. The group's generators are then ``known`` and the found ones. On
    a graph with twins the quotient's walk is seeded with their class
    images, and its chain's generators are those images and the found ones.
    The result's ``known_order`` is the order of the group ``known``
    generates (see the module docstring).
    """
    known = tuple(known)
    certify(known, g, "a known automorphism")
    return _automorphism_group(g, max_nodes, known)


def _automorphism_group(g: Graph, max_nodes: int | None,
                        known: tuple[Permutation, ...]) -> AutResult:
    """``automorphism_group`` for ``known`` automorphisms of g that the
    caller has already certified edge by edge."""
    classes = _twin_classes(g)
    if len(classes) == g.n:
        search = _Search(g, max_nodes, known=known)
        search.run()
        return AutResult(search.group(), search.node_count,
                         search.known_order)
    # An automorphism of g maps each class onto a class, so its class image
    # is a coloured automorphism of the quotient; the identity images and
    # repeats are dropped, and the rest seed the quotient's walk.
    class_of = _class_of(g.n, classes)
    images, pairs = _class_images(classes, class_of, known)
    seeds = _distinct(len(classes), images)
    search = _quotient_search(g, classes, max_nodes, seeds)
    quotient = search.group()
    lifted = _lift(g, classes, search.gens)
    group = TwinGroup(g, classes, class_of, search.base, quotient,
                      search.gens, lifted)
    # Twin transpositions that connect each class give T, the kernel, so
    # |<known>| is |T| times the order of the class images' group.
    if _twins_spanned(classes, pairs):
        known_order = group.twin_order() * search.known_order
    else:
        known_order = (bounded_order(known, group.order(), g.n)
                       if known else 1)
    return AutResult(group, search.node_count, known_order)


def is_isomorphic(g: Graph, h: Graph,
                  max_nodes: int | None = None) -> list[int] | None:
    """Certified isomorphism from g to h as an image list, or None.

    h's tree is walked against g's first path; branches survive only while
    their refinement traces agree with it, and automorphisms of h found on
    the way prune the rest of h's tree. A returned mapping is always
    verified edge-by-edge, and exhaustion certifies non-isomorphism.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    if g.degree_sequence() != h.degree_sequence():
        return None
    search = _Search(h, max_nodes, source=g)
    search.run()
    return search.mapping


def count_automorphisms_brute(g: Graph) -> int:
    """Exhaustive automorphism count: try all degree-respecting bijections.

    Independent of the refinement search; intended as an oracle for small
    fixtures (roughly |Aut| <= 1e5 and n <= 12).
    """
    n = g.n
    adj = [sum(1 << v for v in nb) for nb in g.nbrs]
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
