"""Token graphs: configurations of k unlabeled tokens on a base graph.

The k-token graph of G has one vertex per k-subset of V(G); two subsets
are adjacent iff their symmetric difference is an edge of G (slide one
token along an edge). Vertices are numbered by the colex rank of their
subset, so the vertex set is exactly 0..C(n,k)-1.

The graph is built by token moves: each configuration's neighbour list
collects the ranks of the configurations reached by moving one of its
tokens to a free base neighbour, so each token-graph edge is found once
from either end, and each row is made once from its list. Moves are looked
up in one rank index, a dict from each configuration's bitmask (bit v set
for each token on v) to its rank, which the token graph keeps. A map on
configurations becomes a permutation of ranks through the same index: the
image masks are built column by column, token by token, and a mask that is
no k-subset of 0..n-1 misses the index, so the lookup is also the
validation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import partial, reduce
from operator import or_

from . import subsets
from .graphs import Graph


class TokenGraph:
    """A token graph together with its base graph and rank bookkeeping:
    configs[r] is the configuration at rank r, and rank_of_mask maps each
    configuration's bitmask to its rank."""

    __slots__ = ("base", "k", "graph", "configs", "rank_of_mask")

    def __init__(self, base: Graph, k: int, graph: Graph,
                 configs: tuple[tuple[int, ...], ...],
                 rank_of_mask: dict[int, int]):
        self.base = base
        self.k = k
        self.graph = graph
        self.configs = configs
        self.rank_of_mask = rank_of_mask

    @property
    def n(self) -> int:
        return self.base.n


def token_graph(base: Graph, k: int) -> TokenGraph:
    """Build the k-token graph of ``base``.

    Edges come from sliding one token: for each configuration A, each token
    u in A and each base neighbour v of u not in A, A's neighbour list gets
    the rank of (A - {u}) + {v}, looked up by bitmask. The edge back to A
    is found when that configuration is processed, so each list is built
    once, and the lists become the graph.
    """
    n = base.n
    if n < 2:
        raise ValueError("token graph needs a base with at least 2 vertices")
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={n}")
    configs, rank_of_mask = config_index(n, k)
    bit = [1 << v for v in range(n)]
    nbits = [[bit[v] for v in nb] for nb in base.nbrs]
    nbrs = []
    for sub, m in zip(configs, rank_of_mask):
        moves = [rank_of_mask[m ^ bit[u] | b]
                 for u in sub for b in nbits[u] if not m & b]
        moves.sort()
        nbrs.append(moves)
    label = f"F{k}({base.label})" if base.label else f"F{k}"
    return TokenGraph(base, k, Graph(nbrs, label), configs,
                      rank_of_mask)


def config_index(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...],
                                          dict[int, int]]:
    """The k-subsets of 0..n-1 in rank order, and the rank index of their
    bitmasks, in the same order."""
    configs = tuple(subsets.ksubsets(n, k))
    masks = lift_masks(configs, range(n))
    return configs, dict(zip(masks, range(len(configs))))


def lift_masks(configs: Sequence[tuple[int, ...]],
               points: Sequence[int]) -> Iterable[int]:
    """The bitmask of {points[a] : a in A} for each A of ``configs``, in
    order, built a column (one token of every configuration) at a time."""
    bit = [1 << p for p in points]
    return reduce(partial(map, or_),
                  [map(bit.__getitem__, column) for column in zip(*configs)])


def mask_ranks(rank_of_mask: dict[int, int],
               masks: Iterable[int]) -> tuple[int, ...]:
    """Rank table of a map on configurations: entry r is the rank in
    ``rank_of_mask`` of the r-th of ``masks``, the image of the
    configuration at rank r. Raises ValueError when an image is not in
    the index: a point repeated (its bits merge), a point outside the base
    or a wrong size.
    """
    try:
        return tuple(map(rank_of_mask.__getitem__, masks))
    except KeyError as missing:
        mask = missing.args[0]
        members = [v for v in range(mask.bit_length()) if mask >> v & 1]
        raise ValueError(f"{members} is not a configuration "
                         f"of this rank index") from None
