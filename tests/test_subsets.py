"""Colexicographic combinadic ranking."""

from itertools import combinations
from math import comb

import pytest

from tokenaut import ksubsets, rank, unrank


def test_colex_table_n4_k2():
    # frozen colex order for n=4, k=2
    expected = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert list(ksubsets(4, 2)) == expected
    for r, sub in enumerate(expected):
        assert rank(sub, 4) == r
        assert unrank(r, 4, 2) == sub


def test_rank_unrank_round_trip_exhaustive():
    for n in range(1, 9):
        for k in range(0, n + 1):
            seen = set()
            for sub in combinations(range(n), k):
                r = rank(sub, n)
                assert 0 <= r < comb(n, k)
                assert unrank(r, n, k) == sub
                seen.add(r)
            assert len(seen) == comb(n, k)


def test_colex_order_is_reverse_tuple_order():
    for n in (5, 7):
        for k in (2, 3):
            subs = list(ksubsets(n, k))
            keys = [s[::-1] for s in subs]
            assert keys == sorted(keys)
            assert [rank(s, n) for s in subs] == list(range(comb(n, k)))


def test_extremes():
    assert rank((0, 1, 2), 6) == 0
    for n in (4, 6):
        for k in (1, 2, 3):
            assert unrank(comb(n, k) - 1, n, k) == tuple(range(n - k, n))


def test_rank_accepts_any_order_and_validates():
    assert rank([3, 0], 4) == rank([0, 3], 4)
    with pytest.raises(ValueError):
        rank([0, 0], 4)
    with pytest.raises(ValueError):
        rank([0, 4], 4)
    with pytest.raises(ValueError):
        unrank(6, 4, 2)
    with pytest.raises(ValueError):
        unrank(-1, 4, 2)


def test_sizes_out_of_range_are_refused():
    with pytest.raises(ValueError, match="^need 0 <= k <= n, got k=3, n=2$"):
        unrank(0, 2, 3)
    with pytest.raises(ValueError, match="^need k >= 0, got k=-1$"):
        ksubsets(3, -1)
