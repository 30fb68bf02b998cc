"""Token graphs: configurations of k unlabeled tokens on a base graph.

The k-token graph of G has one vertex per k-subset of V(G); two subsets
are adjacent iff their symmetric difference is an edge of G (slide one
token along an edge). Vertices are numbered by the colex rank of their
subset, so the vertex set is exactly 0..C(n,k)-1.

The graph is built by token moves: each configuration's neighbour list
collects the ranks of the configurations reached by moving one of its
tokens to a free base neighbour, so each token-graph edge is found once
from either end, and each row is made once from its list. A map on
configurations becomes a permutation of ranks through one rank index, a
dict from each sorted configuration to its rank: a configuration that is
not a sorted k-subset of 0..n-1 misses it, so the lookup is also the
validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from . import subsets
from .graphs import Graph


@dataclass(frozen=True)
class TokenGraph:
    """A token graph together with its base graph and rank bookkeeping."""

    base: Graph
    k: int
    graph: Graph
    configs: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.base.n

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """The rank index of ``configs``, built on first use."""
        return rank_index(self.configs)

    def rank_of(self, members) -> int:
        """Vertex rank of a k-subset of the base's vertices; configs[r] is
        the configuration at rank r."""
        return config_images(self.index, [members], lambda a: a)[0]


def token_graph(base: Graph, k: int) -> TokenGraph:
    """Build the k-token graph of ``base``.

    Edges come from sliding one token: for each configuration A, each token
    u in A and each base neighbour v of u not in A, A's neighbour list gets
    the rank of (A - {u}) + {v}, looked up by bitmask. The edge back to A
    is found when that configuration is processed, so each list is built
    once, and the graph's rows and neighbour table are made from the lists.
    """
    n = base.n
    if n < 2:
        raise ValueError("token graph needs a base with at least 2 vertices")
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={n}")
    configs = tuple(subsets.ksubsets(n, k))
    bit = [1 << v for v in range(n)]
    masks = [sum(map(bit.__getitem__, sub)) for sub in configs]
    rank_of_mask = rank_index(masks)
    nbits = [[bit[v] for v in nb] for nb in base.nbrs]
    nbrs = []
    for sub, m in zip(configs, masks):
        moves = [rank_of_mask[m ^ bit[u] | b]
                 for u in sub for b in nbits[u] if not m & b]
        moves.sort()
        nbrs.append(moves)
    label = f"F{k}({base.label})" if base.label else f"F{k}"
    return TokenGraph(base, k, Graph.from_nbrs(nbrs, label), configs)


def rank_index(configs: Sequence) -> dict:
    """Map each entry of ``configs``, a configuration or its bitmask, to
    its position, its rank."""
    return dict(zip(configs, range(len(configs))))


def config_images(index: dict[tuple[int, ...], int],
                  configs: Iterable[tuple[int, ...]],
                  image: Callable[[tuple[int, ...]], Iterable[int]]
                  ) -> tuple[int, ...]:
    """Rank table of a map on configurations.

    Entry r is the rank in ``index`` of image(A) for the r-th configuration
    A of ``configs``; the image may have another size than A, as long as
    ``index`` ranks subsets of its size. Raises ValueError when an image
    is not in ``index``: a repeated member, a point outside the base or a
    wrong size.
    """
    try:
        return tuple([index[tuple(sorted(image(a)))] for a in configs])
    except KeyError as missing:
        raise ValueError(f"{list(missing.args[0])} is not a configuration "
                         f"of this rank index") from None


def complement_map(n: int, k: int) -> tuple[int, ...]:
    """Rank table of the complement bijection from k-subsets to (n-k)-subsets.

    Entry r is the colex rank (among (n-k)-subsets) of the complement of
    the rank-r k-subset. Applying the table for (n, k) and then (n, n-k)
    gives the identity.
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return config_images(rank_index(tuple(subsets.ksubsets(n, n - k))),
                         subsets.ksubsets(n, k), frozenset(range(n)).difference)
