"""Crossing relation on index pairs and exact clique search over it.

A pair {a, b} crosses {c, d} when the four integers are distinct and
interleave: min{a,b} < min{c,d} < max{a,b} < max{c,d} (either way round).
The same relation serves arcs of a diagram, nonzero entries of a symmetric
matrix, and diagonals of a polygon.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import InvalidArgumentError, ResourceLimitError

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
    """True iff the graph restricted to ``candidates`` has a clique of ``size``.

    A depth-first search takes each candidate v, lowest first, and looks
    for the rest of the clique among the later candidates adjacent to v
    before it goes on without v.  A stack, not recursion, holds the
    candidates still to try at each depth, so a clique of any size is
    searched for."""
    if size <= 1:
        return size <= 0 or candidates != 0
    # the candidates left at each shallower depth, as nested (rest, size,
    # shallower) tuples: the common shallow call allocates no list
    pending = None
    rest = candidates
    while True:
        while rest.bit_count() >= size:
            v = rest & -rest
            rest ^= v
            near = rest & adj[v.bit_length() - 1]
            if size == 2:  # a 2-clique is an edge
                if near:
                    return True
            elif near.bit_count() >= size - 1:
                pending = (rest, size, pending)  # v excluded, tried after v included
                rest, size = near, size - 1
        if pending is None:
            return False
        rest, size, pending = pending


def is_k_noncrossing(pairs: Sequence[Pair], k: int) -> bool:
    """No k+1 mutually crossing members of ``pairs`` (exact clique search):
    the arcs of a diagram or the nonzero positions of a matrix."""
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    adj = crossing_adjacency(pairs)
    return not masked_clique_exists(adj, (1 << len(adj)) - 1, k + 1)


def _blocked(adj: list[int], mask: int, i: int, candidates: int, k: int) -> int:
    """The pairs among ``candidates``, each addable to the k-noncrossing
    ``mask``, that adding pair i blocks: those that cross i and whose
    neighbours in the mask crossing i hold a (k-1)-clique.  Such a pair
    was addable, so any k-clique among its chosen neighbours contains i.

    One walk over the (k-1)-cliques of the mask pairs crossing i ORs in
    each clique's common crossing set: the candidates crossing i and every
    member.  A partial clique whose common set holds no pair not yet found
    blocked is not extended.  At k = 1 the empty clique is the only one,
    and every candidate crossing i is blocked."""
    common = adj[i] & candidates
    if k == 1:
        return common
    blocked = 0
    # the partial cliques still to extend, as nested (rest, common, size,
    # shallower) tuples: ``rest`` holds the pairs that may extend one,
    # ``common`` its common candidates not yet found blocked, ``size`` the
    # members still to pick
    pending = None
    rest, size = mask & adj[i], k - 1
    while True:
        while common and rest.bit_count() >= size:
            v = rest & -rest
            rest ^= v
            j = v.bit_length() - 1
            shared = common & adj[j]
            if not shared:
                continue
            if size == 1:
                blocked |= shared
                common ^= shared
            elif (near := rest & adj[j]).bit_count() >= size - 1:
                pending = (rest, common, size, pending)  # v excluded, tried after v included
                rest, common, size = near, shared, size - 1
        if pending is None:
            return blocked
        rest, common, size, pending = pending
        common &= ~blocked


def noncrossing_subset_masks(pairs: Sequence[Pair], k: int) -> Iterator[int]:
    """All subsets of ``pairs`` (as bitmasks, empty included) without k+1
    mutually crossing members, each yielded exactly once, in the order of
    a depth-first search that adds pairs in increasing index order.

    Each node carries the later pairs still addable to its mask, less
    those that adding a pair blocks (``_blocked``)."""
    adj = crossing_adjacency(pairs)

    def extend(mask: int, addable: int) -> Iterator[int]:
        yield mask
        while addable:
            bit = addable & -addable
            addable ^= bit
            i = bit.bit_length() - 1
            yield from extend(mask | bit, addable & ~_blocked(adj, mask, i, addable, k))

    # at k <= 0 even a single pair is too many
    yield from extend(0, (1 << len(pairs)) - 1 if k > 0 else 0)


# The collecting searches recurse once per step: the facet search of
# ``maximal_noncrossing_masks`` per pair it adds, the matrix search per
# position and the matching search per site.  Python's default recursion
# limit of 1000 leaves room for this many and for the callers' frames.
SEARCH_DEPTH = 500


def check_search_depth(depth: int, what: str) -> None:
    """Refuse (:class:`ResourceLimitError`) a collecting search that would
    recurse ``depth`` levels deep, more than ``SEARCH_DEPTH``, before it
    starts; ``what`` says what the levels are."""
    if depth > SEARCH_DEPTH:
        raise ResourceLimitError(f"{what}, over the search depth limit of {SEARCH_DEPTH}", bound=SEARCH_DEPTH)


def maximal_noncrossing_masks(pairs: Sequence[Pair], k: int, cap: int) -> list[int]:
    """The maximal subsets of ``pairs`` without k+1 mutually crossing
    members (as bitmasks), each listed once, from one exact search.

    A cone pair lies in no k+1 mutually crossing pairs, so it can join any
    such subset: it is in every maximal one, and a set is k-noncrossing
    exactly when its non-cone ("core") part is.  The search therefore runs
    on the core pairs only and ORs the cone mask into each result.  A node
    holds a k-noncrossing core mask, the core pairs it may still take
    (``addable``) and the pairs skipped on the way to it that are still
    addable (``pending``); a skipped pair, once blocked, stays blocked,
    since masks only grow.  A node is maximal exactly when both sets are
    empty.  ``cap`` bounds the nodes visited.

    For any u addable or pending, every maximal set below a node holds u
    or an addable pair crossing u: without u it closes k+1 mutually
    crossing pairs with u, and the mask plus u is k-noncrossing, so one of
    them was added below the node and crosses u.  So a node branches only
    on the shortest such list, and each pair branched on turns pending for
    the branches after it (the pivoting of Bron and Kerbosch for maximal
    cliques).  A maximal set below a node leaves a pending pair u out only
    when its pairs crossing u hold a k-clique, and it lies in the mask plus
    the addable pairs; so a node is dead once, for some pending u, the
    pairs of the mask and the addable ones that cross u hold no k-clique
    (``masked_clique_exists``).  At k = 1 that is a pending pair crossing
    no addable pair, since u crosses no pair of the mask.

    Both sets hold pairs addable to the node's mask, so ``_blocked`` is
    the only test made when a child's two sets are filtered.
    """
    adj = crossing_adjacency(pairs)
    cone = 0
    core = 0
    for i in range(len(pairs)):
        if masked_clique_exists(adj, adj[i], k):
            core |= 1 << i
        else:
            cone |= 1 << i
    facets: list[int] = []
    nodes = 0

    def search(mask: int, addable: int, pending: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise ResourceLimitError(f"complex search exceeded {cap} subsets", bound=cap)
        if not addable:
            if not pending:
                facets.append(mask | cone)
            return
        # a pending pair that no k-clique of the mask and the addable pairs
        # crosses can no longer be blocked; otherwise branch on the shortest
        # list, pending pairs first
        branch = addable
        rest = pending
        reach = mask | addable
        while rest:
            u = rest & -rest
            rest ^= u
            crossing = adj[u.bit_length() - 1]
            options = crossing & addable
            if not options or (k > 1 and not masked_clique_exists(adj, reach & crossing, k)):
                return
            if options.bit_count() < branch.bit_count():
                branch = options
        rest = addable
        while rest and branch & (branch - 1):  # one pair is as short as it gets
            u = rest & -rest
            rest ^= u
            options = (adj[u.bit_length() - 1] | u) & addable
            if options.bit_count() < branch.bit_count():
                branch = options
        while branch:
            bit = branch & -branch
            branch ^= bit
            blocked = _blocked(adj, mask, bit.bit_length() - 1, addable | pending, k)
            addable ^= bit
            search(mask | bit, addable & ~blocked, pending & ~blocked)
            pending |= bit

    search(0, core, 0)
    return facets
