"""Token graphs: configurations of k unlabeled tokens on a base graph.

The k-token graph of G has one vertex per k-subset of V(G); two subsets
are adjacent iff their symmetric difference is an edge of G (slide one
token along an edge). Vertices are numbered by the colex rank of their
subset, so the vertex set is exactly 0..C(n,k)-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable

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

    def rank_of(self, members) -> int:
        """Vertex rank of a k-subset of the base's vertices; configs[r] is
        the configuration at rank r."""
        members = tuple(members)
        if len(members) != self.k:
            raise ValueError(f"{sorted(members)} is not a {self.k}-subset")
        return subsets.rank(members, self.base.n)


def token_graph(base: Graph, k: int) -> TokenGraph:
    """Build the k-token graph of ``base``.

    Edges come from sliding one token: for each configuration A and each
    base edge uv with u in A, v not in A, connect A to (A - {u}) + {v}.
    """
    n = base.n
    if n < 2:
        raise ValueError("token graph needs a base with at least 2 vertices")
    if not (1 <= k <= n - 1):
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={n}")
    configs = tuple(subsets.ksubsets(n, k))
    nv = comb(n, k)
    masks = [0] * nv
    for r, sub in enumerate(configs):
        m = 0
        for v in sub:
            m |= 1 << v
        masks[r] = m
    rank_of_mask = {m: r for r, m in enumerate(masks)}
    edges_base = base.edges()
    adj = [0] * nv
    for r, m in enumerate(masks):
        for u, v in edges_base:
            if (m >> u) & 1 and not (m >> v) & 1:
                s = rank_of_mask[m ^ (1 << u) | (1 << v)]
            elif (m >> v) & 1 and not (m >> u) & 1:
                s = rank_of_mask[m ^ (1 << v) | (1 << u)]
            else:
                continue
            adj[r] |= 1 << s
            adj[s] |= 1 << r
    label = f"F{k}({base.label})" if base.label else f"F{k}"
    return TokenGraph(base, k, Graph(nv, tuple(adj), label), configs)


def config_images(n: int, configs: Iterable[tuple[int, ...]],
                  image: Callable[[tuple[int, ...]], Iterable[int]]
                  ) -> tuple[int, ...]:
    """Rank table of a map on configurations of {0..n-1}.

    Entry r is the colex rank of image(A) for the r-th configuration A of
    ``configs``; the image may have another size than A.
    """
    return tuple(subsets.rank(image(a), n) for a in configs)


def complement_map(n: int, k: int) -> tuple[int, ...]:
    """Rank table of the complement bijection from k-subsets to (n-k)-subsets.

    Entry r is the colex rank (among (n-k)-subsets) of the complement of
    the rank-r k-subset. Applying the table for (n, k) and then (n, n-k)
    gives the identity.
    """
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return config_images(n, subsets.ksubsets(n, k), set(range(n)).difference)
