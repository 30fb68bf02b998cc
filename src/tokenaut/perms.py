"""Permutations, stabilizer chains and exact group orders.

Composition is fixed as (p * q)(i) = p(q(i)): the right factor acts
first, matching ordinary function composition. All group orders are exact
Python integers, and every routine here is deterministic: two runs on the
same input produce the same base, the same order, and the same membership
verdicts.

A chain is a base b_0, b_1, ... with one level per base point. Level i
holds strong generators that fix b_0..b_{i-1}, the orbit of b_i under them
and, for every orbit point x, the inverse u_x^-1 of a transversal element
with u_x(b_i) = x, which is exactly what sifting multiplies by, so sifting
never inverts; a level whose base point the element already fixes is
skipped. The order is the product of the orbit lengths. Each strong
generator g is inverted once, when it joins the chain, and g^-1 is stored
beside g, so a new orbit point y = g(x) gets u_y^-1 = u_x^-1 g^-1 as one
product, with no inversion (Seress 2003, section 4.1).

Every chain grows by one step, ``PermGroup._grow``: sift an element, make
a nontrivial residue a strong generator of the levels it passed (opening a
level at its first moved point if it passed them all) and close their
orbits. The step is used three ways:

* ``PermGroup(degree, generators)`` grows each generator, then completes
  the chain by the deterministic Schreier-Sims algorithm (Seress,
  *Permutation Group Algorithms*, 2003, section 4.2): deepest level first,
  each (orbit point, strong generator) pair's Schreier generator is sifted
  through the deeper levels once, and a residue joins the chain where it
  stopped. Transversals only grow, so a Schreier generator that sifted
  once keeps sifting.
* ``bounded_order(generators, bound)`` returns the order of a group whose
  order is known to be at most ``bound``. It grows the chain by the
  generators and then by seeded random elements (``_grow_randomly``), and
  stops as soon as the orbit-length product, a lower bound on the order,
  reaches ``bound`` (Seress 2003, section 4.3). If the group turns out
  smaller, it completes the chain it has grown.
* An automorphism search (``tokenaut.search``) opens one level per point
  of its first-leaf path, a base of the graph's group (``_on_base``), so no
  level is ever opened at a first moved point. A seeded search grows that
  chain by its known automorphisms and the same random elements, up to a
  bound its first path proves; then each automorphism the search finds is
  grown in.

In every chain each level's generators lie in the pointwise stabilizer of
the earlier base points, so each orbit is contained in the true basic
orbit and the orbit-length product never exceeds the group's order.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import compress, count
from operator import itemgetter, ne


@lru_cache(maxsize=None)
def _id_images(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _invert(images: tuple[int, ...]) -> tuple[int, ...]:
    # Points come from the cached identity rather than enumerate(), so that
    # every stored tuple shares one int object per point above 256.
    inv = [0] * len(images)
    for i, v in zip(_id_images(len(images)), images):
        inv[v] = i
    return tuple(inv)


class Permutation:
    """Permutation of 0..n-1 stored as its image tuple. Two permutations
    are equal when their image tuples are."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        self.images = images

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        """Skip validation; products and inverses of valid permutations
        are again valid, and chain construction does millions of them."""
        p = object.__new__(cls)
        p.images = images
        return p

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash((self.images,))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._raw(_id_images(n))

    @staticmethod
    def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            for i, v in enumerate(cyc):
                if not 0 <= v < n:
                    raise ValueError(f"cycle point {v} out of range 0..{n - 1}")
                if v in seen:
                    raise ValueError(f"point {v} appears twice across cycles")
                seen.add(v)
                images[v] = cyc[(i + 1) % len(cyc)]
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(p * q)(i) = p(q(i)); q acts first."""
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch in composition")
        s = self.images
        if len(s) < 2:  # a one-item getter returns the item, not a tuple
            return other
        return Permutation._raw(itemgetter(*other.images)(s))

    def inverse(self) -> "Permutation":
        return Permutation._raw(_invert(self.images))

    def is_identity(self) -> bool:
        return self.images == _id_images(len(self.images))

    def min_moved(self) -> int | None:
        for i, v in enumerate(self.images):
            if i != v:
                return i
        return None

    def moved_points(self) -> list[int]:
        """The points p moves, in ascending order."""
        points = _id_images(len(self.images))
        return list(compress(points, map(ne, self.images, points)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return f"<id on {self.degree}>"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def permutation_to_str(p: Permutation) -> str:
    """One-line image array, e.g. '[1,2,0]'."""
    return "[" + ",".join(map(str, p.images)) + "]"


def permutation_from_str(s: str) -> Permutation:
    body = s.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected '[i0,i1,...]', got {s!r}")
    inner = body[1:-1].strip()
    images = tuple(int(t) for t in inner.split(",")) if inner else ()
    return Permutation(images)


class _Level:
    """One stabilizer-chain level.

    ``point`` is the base point b. ``gens`` holds the image tuples of the
    strong generators that fix every earlier base point, in insertion
    order; the list is only ever appended to, so an index names the same
    generator for the life of the chain. ``ginv[i]`` is the image tuple of
    ``gens[i]``'s inverse, computed once when the generator was inserted.
    ``orbit`` lists the orbit of b in discovery order and ``inv[x]`` is the
    image tuple of u_x^-1, where u_x(b) = x. Only these inverse
    transversal elements are stored. ``done[p]`` counts the generators
    already paired with ``orbit[p]`` to look for new orbit points, and
    ``tested[p]`` those whose Schreier generator u_{g(x)}^-1 g u_x was
    sifted through the deeper levels.
    """

    __slots__ = ("point", "gens", "ginv", "orbit", "inv", "done", "tested")

    def __init__(self, point: int, identity: tuple[int, ...]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.ginv: list[tuple[int, ...]] = []
        self.orbit = [point]
        self.inv = {point: identity}
        self.done = [0]
        self.tested = [0]

    def close_orbit(self) -> None:
        """Extend the orbit by every unprocessed (point, generator) pair
        until it is closed under ``gens``; no Schreier generator is formed.
        A new point y = g(x) gets u_y = g u_x, stored as u_x^-1 g^-1."""
        orbit, inv, done, tested = self.orbit, self.inv, self.done, self.tested
        gens, ginv = self.gens, self.ginv
        for p, x in enumerate(orbit):  # the orbit grows while it is walked
            if done[p] == len(gens):
                continue
            vx = inv[x]
            for k in range(done[p], len(gens)):
                y = gens[k][x]
                if y not in inv:
                    gi = ginv[k]
                    # x is the base point: u_x = 1, so u_y^-1 = g^-1. The
                    # getter forms the product with no list in between; a
                    # level with a second orbit point has degree >= 2, so
                    # it returns a tuple.
                    inv[y] = gi if p == 0 else itemgetter(*gi)(vx)
                    orbit.append(y)
                    done.append(0)
                    tested.append(0)
            done[p] = len(gens)


def _distinct(degree: int, generators: Iterable[Permutation]) -> tuple[Permutation, ...]:
    """The non-identity generators, each once, in first-seen order."""
    gens = []
    seen = {_id_images(degree)}
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        if g.images not in seen:
            seen.add(g.images)
            gens.append(g)
    return tuple(gens)


class PermGroup:
    """Permutation group with a stabilizer chain.

    The constructor builds the chain by deterministic Schreier-Sims;
    ``_on_base`` opens one for growth on a known base.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        self.degree = degree
        self.generators: tuple[Permutation, ...] = _distinct(degree, generators)
        self._levels: list[_Level] = []
        self._identity = _id_images(degree)
        for g in self.generators:
            self._grow(g.images)
        self._complete()

    @classmethod
    def _on_base(cls, degree: int, base: Sequence[int],
                generators: Iterable[Permutation]) -> "PermGroup":
        """A chain for ``generators`` with an empty level per point of
        ``base``, grown by nothing yet. Growth opens a level at an
        element's first moved point only when the element fixes every base
        point, so none is opened when ``base`` is a base of a group that
        contains the generators."""
        if len(set(base)) != len(base) or any(not 0 <= b < degree for b in base):
            raise ValueError("base points must be distinct points of 0..degree-1")
        group = cls(degree)
        group.generators = _distinct(degree, generators)
        group._levels = [_Level(b, group._identity) for b in base]
        return group

    def _drop_trivial_levels(self) -> None:
        """Drop the levels whose orbit is only their base point."""
        self._levels = [lv for lv in self._levels if len(lv.orbit) > 1]

    # -- chain construction -----------------------------------------

    def _sift(self, p: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Strip p through the chain; returns (residue, failing level)."""
        levels = self._levels
        for i in range(start, len(levels)):
            lv = levels[i]
            x = p[lv.point]
            if x == lv.point:
                continue
            v = lv.inv.get(x)
            if v is None:
                return p, i
            # A level with a second orbit point has degree >= 2, so the
            # getter returns a tuple.
            p = itemgetter(*p)(v)
        return p, len(levels)

    def _insert(self, residue: tuple[int, ...], j: int) -> None:
        """Make a nontrivial element that fixes b_0..b_{j-1} a strong
        generator of levels 0..j, opening level j if it is new."""
        if j == len(self._levels):
            point = Permutation._raw(residue).min_moved()
            self._levels.append(_Level(point, self._identity))
        inverse = _invert(residue)
        for lv in self._levels[:j + 1]:
            lv.gens.append(residue)
            lv.ginv.append(inverse)

    def _grow(self, p: tuple[int, ...]) -> bool:
        """Sift p; insert a nontrivial residue and close the orbits of the
        levels it joins. Returns whether the chain grew."""
        residue, j = self._sift(p)
        if residue == self._identity:
            return False
        self._insert(residue, j)
        for lv in self._levels[:j + 1]:
            lv.close_orbit()
        return True

    def _grow_randomly(self, bound: int) -> bool:
        """Grow the chain by the generators, then by seeded
        product-replacement random elements of the group they generate
        (Seress 2003, section 4.3), until the orbit-length product reaches
        ``bound`` or ``_STALL_SIFTS`` elements in a row sift to the
        identity. Returns whether it stopped on such a stall."""
        for g in self.generators:
            self._grow(g.images)
        if self.order() >= bound:
            return False
        if self.degree < 2:  # no permutation but the identity to grow by
            return True
        rng = random.Random(_RANDOM_SEED)
        slots = [g.images for g in self.generators] or [self._identity]
        slots = (slots * _SLOTS)[:max(_SLOTS, len(slots))]
        acc = self._identity
        stall = 0
        # One product-replacement step with an accumulator per element; the
        # first steps only warm the slots up.
        for step in count(-(_WARMUP * len(slots) // _SLOTS)):
            i, j = _two_slots(rng, len(slots))
            a, b = (slots[i], slots[j]) if rng.random() < 0.5 else (slots[j], slots[i])
            slots[i] = itemgetter(*b)(a)
            acc = itemgetter(*slots[i])(acc)
            if step < 0:
                continue
            stall = 0 if self._grow(acc) else stall + 1
            if stall == _STALL_SIFTS:
                return True
            if self.order() >= bound:
                return False

    def _complete(self) -> None:
        """Schreier-Sims on the chain as grown so far.

        An insertion at level j gives levels 0..j a new generator and
        leaves deeper levels untouched, so the levels with untested pairs
        are always 0..i. The deepest is processed first, so every sift
        runs against levels that are already complete; an insertion it
        causes lies deeper and is completed before the walk resumes.
        """
        i = len(self._levels) - 1
        while i >= 0:
            j = self._schreier(i)
            i = i - 1 if j is None else j

    def _schreier(self, i: int) -> int | None:
        """Close level i's orbit and sift the Schreier generator of every
        untested (orbit point, generator) pair; stop at the first that
        leaves a residue, insert it and return the level it went to.

        Each pair is tested once. Transversals only grow, so a Schreier
        generator that sifted once sifts again later, and one whose
        residue was inserted sifts once the deeper levels are complete.
        """
        lv = self._levels[i]
        lv.close_orbit()
        ident = self._identity
        inv, tested, gens = lv.inv, lv.tested, lv.gens
        for p, x in enumerate(lv.orbit):
            if tested[p] == len(gens):
                continue
            ux = _invert(inv[x])
            for k in range(tested[p], len(gens)):
                g = gens[k]
                # u_{g(x)}^-1 g u_x fixes b; the level has degree >= 2.
                s = itemgetter(*itemgetter(*ux)(g))(inv[g[x]])
                if s == ident:
                    continue
                residue, j = self._sift(s, i + 1)
                if residue != ident:
                    tested[p] = k + 1
                    self._insert(residue, j)
                    return j
            tested[p] = len(gens)
        return None

    # -- queries ------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lv.point for lv in self._levels)

    def order(self) -> int:
        total = 1
        for lv in self._levels:
            total *= len(lv.orbit)
        return total

    def generator_count(self) -> int:
        return len(self.generators)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        residue, _ = self._sift(p.images)
        return residue == self._identity

    def elements(self) -> Iterator[Permutation]:
        """All group elements (intended for small groups only)."""
        forward = [[_invert(v) for v in lv.inv.values()] for lv in self._levels]

        def rec(i: int) -> Iterator[tuple[int, ...]]:
            if i == len(forward):
                yield self._identity
                return
            for u in forward[i]:
                for tail in rec(i + 1):
                    yield tuple([u[j] for j in tail])

        return (Permutation._raw(p) for p in rec(0))

    def orbit(self, point: int) -> frozenset[int]:
        seen = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = g(x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def to_report(self) -> dict:
        """Structured description: degree, generators, base, decimal order."""
        return {
            "degree": self.degree,
            "generators": [permutation_to_str(g) for g in self.generators],
            "base": list(self.base),
            "order": str(self.order()),
        }

    def __repr__(self):
        return f"<PermGroup degree={self.degree} order={self.order()}>"


def _degree_of(gens: list[Permutation], degree: int | None) -> int:
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = gens[0].degree
    return degree


def schreier_sims(generators: Iterable[Permutation], degree: int | None = None) -> PermGroup:
    """Group generated by ``generators`` with a verified stabilizer chain."""
    gens = list(generators)
    return PermGroup(_degree_of(gens, degree), gens)


# PermGroup._grow_randomly's random elements: the seed of their generator,
# the least number of slots of the product-replacement state (there is one
# slot per generator when there are more), the warm-up steps per _SLOTS
# slots before the first element is used, and the run of consecutive random
# elements sifting to the identity after which growth stops (and
# bounded_order completes the chain). A uniformly random element sifts
# through an incomplete chain with probability at most 1/2, so a stall on a
# group of order ``bound`` is rare, and it costs only time. The warm-up
# grows with the slots because a slot holding the only generator outside a
# large normal subgroup, as the Y-lifts are beside the side swaps of
# F_5(K_{2,10}), needs that long to spread: with a fixed 50 steps, 30
# elements in a row sifted to the identity there.
_RANDOM_SEED = 2003
_SLOTS = 10
_WARMUP = 50
_STALL_SIFTS = 30


def _two_slots(rng: random.Random, size: int) -> tuple[int, int]:
    """Two distinct indices below ``size``, the pair that
    ``rng.sample(range(size), 2)`` returns, drawn by the same ``randrange``
    calls at under half its cost: CPython's ``sample`` draws the second
    index from a pool with the first one's place refilled by the last
    item while ``size`` is at most 21, its small-set size for two draws,
    and redraws a repeat above that."""
    i = rng.randrange(size)
    if size <= 21:
        j = rng.randrange(size - 1)
        return i, size - 1 if j == i else j
    j = rng.randrange(size)
    while j == i:
        j = rng.randrange(size)
    return i, j


def bounded_order(generators: Iterable[Permutation], bound: int,
                  degree: int | None = None) -> int:
    """Exact order of the group generated by ``generators``, given an upper
    bound on it, such as the order of a group that contains them.

    The chain grows by the generators, then by seeded product-replacement
    random elements. Every level's generators fix the earlier base points,
    so the orbit-length product is a lower bound on the order, and the
    routine returns ``bound`` as soon as the product reaches it. After
    ``_STALL_SIFTS`` consecutive random elements sift to the identity, it
    completes the chain by Schreier-Sims, so a group smaller than
    ``bound`` still gets its exact order: the levels' generators are
    products of the generators, each of which was grown in first. Raises
    ValueError when the order passes ``bound``, which is then not an upper
    bound.
    """
    gens = list(generators)
    degree = _degree_of(gens, degree)
    if bound < 1:
        raise ValueError(f"bound must be a positive order, got {bound}")
    group = PermGroup._on_base(degree, (), gens)
    if group._grow_randomly(bound):
        group._complete()
    order = group.order()
    if order > bound:
        raise ValueError(f"bound {bound} is below the group order")
    return order
