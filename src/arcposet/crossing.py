"""Crossing relation on index pairs and exact clique search over it.

A pair {a, b} crosses {c, d} when the four integers are distinct and
interleave: min{a,b} < min{c,d} < max{a,b} < max{c,d} (either way round).
The same relation serves arcs of a diagram, nonzero entries of a symmetric
matrix, and diagonals of a polygon.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

Pair = tuple[int, int]


def pairs_cross(p: Pair, q: Pair) -> bool:
    a, b = min(p), max(p)
    c, d = min(q), max(q)
    return (a < c < b < d) or (c < a < d < b)


def crossing_adjacency(pairs: Sequence[Pair]) -> list[int]:
    """Bitmask adjacency of the crossing graph on ``pairs``."""
    n = len(pairs)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if pairs_cross(pairs[i], pairs[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def masked_clique_exists(adj: list[int], candidates: int, size: int) -> bool:
    """True iff the graph restricted to ``candidates`` has a clique of ``size``."""
    if size <= 0:
        return True
    if candidates.bit_count() < size:
        return False
    rest = candidates
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if masked_clique_exists(adj, rest & adj[v], size - 1):
            return True
        # v excluded: remaining candidates are exactly `rest`
        if rest.bit_count() < size:
            return False
    return False


def max_crossing_clique(pairs: Sequence[Pair]) -> int:
    """Size of a maximum set of mutually crossing pairs (exact, branch and bound)."""
    adj = crossing_adjacency(pairs)
    n = len(pairs)
    best = 0
    while best < n and masked_clique_exists(adj, (1 << n) - 1, best + 1):
        best += 1
    return best


def noncrossing_subset_masks(pairs: Sequence[Pair], k: int) -> Iterator[int]:
    """All subsets of ``pairs`` (as bitmasks, empty included) without k+1
    mutually crossing members, each yielded exactly once."""
    adj = crossing_adjacency(pairs)
    n = len(pairs)

    def extend(mask: int, start: int) -> Iterator[int]:
        yield mask
        for i in range(start, n):
            # adding i is legal unless its chosen crossing-neighbours contain
            # a k-clique (which together with i would make k+1)
            if not masked_clique_exists(adj, mask & adj[i], k):
                yield from extend(mask | (1 << i), i + 1)

    yield from extend(0, 0)
