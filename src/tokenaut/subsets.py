"""Colex ranking of k-subsets of {0..n-1} (the combinadic bijection).

The rank of a sorted subset (a_0 < a_1 < ... < a_{k-1}) is
sum_i C(a_i, i+1), which enumerates subsets in colexicographic order:
rank 0 is {0..k-1} and rank C(n,k)-1 is {n-k..n-1}. Ranks only depend on
the subset, not on n, so the same subset keeps its rank when n grows.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import comb


def rank(members: Iterable[int], n: int) -> int:
    """Colex rank of a k-subset of {0..n-1}."""
    sub = sorted(members)
    if len(set(sub)) != len(sub):
        raise ValueError(f"subset has repeated members: {sub}")
    if sub and not (0 <= sub[0] and sub[-1] < n):
        raise ValueError(f"subset {sub} out of range for n={n}")
    return sum(comb(a, i + 1) for i, a in enumerate(sub))


def unrank(r: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of rank: the k-subset of {0..n-1} with colex rank r."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not (0 <= r < comb(n, k)):
        raise ValueError(f"rank {r} out of range for C({n},{k})={comb(n, k)}")
    out = [0] * k
    for i in range(k, 0, -1):
        # largest a with C(a, i) <= r: members are recovered top down
        a = i - 1
        while comb(a + 1, i) <= r:
            a += 1
        out[i - 1] = a
        r -= comb(a, i)
    return tuple(out)


def ksubsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of {0..n-1} in colex order (i.e. ascending rank)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    # In colex order the j-subsets of {0..i} are those of {0..i-1}, then
    # the (j-1)-subsets of {0..i-1}, each with i added. Sizes below
    # k - (n-1-i) cannot reach k with the points left, so are not grown.
    levels = [[()]] + [[] for _ in range(k)]
    for i in range(n):
        for j in range(min(k, i + 1), max(0, k - n + i), -1):
            levels[j] += [c + (i,) for c in levels[j - 1]]
    return iter(levels[k])
