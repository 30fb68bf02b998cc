"""Bitmask rows for the test references: bit v of row u is set when u and
v are adjacent. The references build graphs row by row and hand them to
``Graph`` as neighbour lists."""

from tokenaut import Graph


def graph_from_rows(rows, label=None):
    """The graph whose vertex u has the set bits of ``rows[u]`` as its
    neighbours, checked by the ``Graph`` constructor."""
    return Graph([[v for v in range(row.bit_length()) if row >> v & 1]
                  for row in rows], label)


def rows_of(g):
    """g's adjacency rows as bitmasks."""
    return tuple(sum(1 << v for v in nb) for nb in g.nbrs)
