"""Exhaustive construction of the diagram and matrix families as posets.

Six families are built here:

* S(n, k)        -- non-trivial k-noncrossing diagrams of length n, ordered
                    by arc-set inclusion;
* Sstar(m, k)    -- the sub-family using only non-k-relevant arcs;
* So(m, k)       -- the sub-family using only k-relevant arcs;
* M(m, k, r)     -- tautology-bounded matrices ordered by domination;
* P(f, k, r)     -- regular proper diagrams with f free sites, ordered by
                    block-matrix domination;
* D(f, k, r)     -- proper diagrams with f free sites, ordered by
                    suppression reachability.

Every family is held as its cover digraph, and put together one way:
its member texts and covers go to ``FinitePoset.from_texts``, so no
member is built before ``elements`` is read.  M and P get their covers
as unit steps on flat keys; S, So and Sstar keep each member as its mask
over the arc pool, covered by the members with one arc more; D is grown
from the trivial diagram by one-arc insertions, and its covers are its
one-arc suppressions.  The binary-diagram scan and the suppression
relation stay as oracles for the tests and ``verify``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import comb
from operator import mul

from .crossing import check_search_depth, crossing_adjacency, is_k_noncrossing, masked_clique_exists, noncrossing_subset_masks
from .diagram import (
    Arc,
    Diagram,
    arcs_text,
    block_pair_counts,
    free_sites,
    is_proper,
    is_regular,
    partner_arcs,
    site_table,
    suppress_arc,
    tautology_number,
)
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .matrix import (
    SymmetricMatrix,
    entry_cost,
    enumerate_matrix_keys,
    key_text,
    matrices_from_keys,
    upper_positions,
)
from .poset import FinitePoset, mask_bits, plus_one_covers
from .transform import is_k_relevant, layout_key


# ---------------------------------------------------------------------------
# arc pools and diagram enumeration


def admissible_arcs(n: int) -> list[Arc]:
    """All legal arcs for length n (no adjacent-site arcs, no full span)."""
    if n < 2:
        raise InvalidArgumentError(f"length must be >= 2, got {n}")
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if 1 < b - a < n - 1]


def relevant_arcs(m: int, k: int) -> list[Arc]:
    """The k-relevant admissible arcs (endpoint gap in (k, m-k))."""
    return [arc for arc in admissible_arcs(m) if is_k_relevant(arc, m, k)]


def nonrelevant_arcs(m: int, k: int) -> list[Arc]:
    return [arc for arc in admissible_arcs(m) if not is_k_relevant(arc, m, k)]


def _site_matchings(n: int, proper: bool) -> list[tuple[tuple[int, ...], int]]:
    """The one matching search: every binary arc set of length n (the
    empty one included), or with ``proper`` every proper one, as its
    partner tuple (index 0 unused, 0 at a free site) and its fiber key.

    Sites are matched left to right: each site is left free first, then
    joined to each later site in turn.  ``free[s]`` counts the free sites
    among 1..s, so a non-free site s lies in block ``free[s] + 1`` and an
    arc (a, b) covers ``free[b] - free[a]`` free sites.  With ``proper``,
    an arc is dropped as it closes when it covers no free site, and a
    complete matching is listed only when it has an arc and none of its
    arcs covers every free site.  The fiber key codes the block-pair
    counts as one integer: the arc (a, b) adds one to the digit of width
    ``width`` bits at place ``free[a] * (n + 1) + free[b]``, and no digit
    carries, as no block pair holds more than n // 2 arcs.  So two
    matchings share a key just when their block matrices are equal.
    """
    check_matching_depth(n)
    width = max(n // 2, 1).bit_length()
    place = [[1 << width * (i * (n + 1) + j) for j in range(n + 1)] for i in range(n + 1)]
    partner = [0] * (n + 1)
    free = [0] * (n + 1)
    found = []

    def match(site: int, key: int) -> None:
        if site > n:
            if not proper or _covers_some_but_not_all(partner, free, n):
                found.append((tuple(partner), key))
            return
        start = partner[site]
        if start and start < site:  # the site ends the arc from an earlier site
            covered = free[site] = free[site - 1]
            if not (proper and covered == free[start]):  # else the arc covers no free site
                match(site + 1, key + place[free[start]][covered])
            return
        free[site] = free[site - 1] + 1  # the site stays free first
        match(site + 1, key)
        free[site] -= 1
        last = n if site > 1 else n - 1  # the arc (1, n) spans n - 1 steps
        for end in range(site + 2, last + 1):
            if not partner[end]:
                partner[site], partner[end] = end, site
                match(site + 1, key)
                partner[site] = partner[end] = 0

    match(1, 0)
    return found


def _covers_some_but_not_all(partner: list[int], free: list[int], n: int) -> bool:
    """For a complete matching whose arcs each cover a free site: it has
    an arc, and no arc covers every free site.  Such an arc would start
    before the first free site, so only those sites are read."""
    total = free[n]
    if total == n:
        return False  # no arc
    site = 1
    while not free[site]:
        if free[partner[site]] == total:
            return False
        site += 1
    return True


def check_matching_depth(n: int) -> None:
    """Refuse (:class:`ResourceLimitError`) a matching search on length n,
    which recurses once per site, when n is over ``SEARCH_DEPTH``."""
    check_search_depth(n, f"a matching of length {n} has {n} sites")


def enumerate_binary_diagrams(n: int):
    """All binary diagrams of length n (plus the trivial one), by matching
    sites left to right."""
    for partner, _ in _site_matchings(n, proper=False):
        yield Diagram(n, partner_arcs(partner))


def proper_matchings(n: int):
    """The partner tuple and fiber key of every proper diagram of length n,
    in the order of ``enumerate_binary_diagrams``: ``_site_matchings``
    tests properness as it matches, and the key is equal for two
    diagrams just when their block matrices are."""
    return _site_matchings(n, proper=True)


def enumerate_proper_diagrams(n: int):
    """All proper diagrams of length n, as ``proper_matchings`` finds them."""
    for partner, _ in proper_matchings(n):
        yield Diagram(n, partner_arcs(partner))


# ---------------------------------------------------------------------------
# diagram families ordered by inclusion


def _inclusion_family(n: int, k: int, pool: list[Arc], cap: int) -> FinitePoset:
    """Non-trivial k-noncrossing diagrams of length n on the ascending ``pool``
    under inclusion, held as masks until read; ``cap`` bounds the masks."""
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    masks = []
    for mask in noncrossing_subset_masks(pool, k):
        if mask:
            masks.append(mask)
            if len(masks) > cap:
                raise ResourceLimitError(f"family exceeds cap {cap}", bound=cap)

    def arcs(t: int) -> list[Arc]:
        return [pool[i] for i in mask_bits(masks[t])]

    texts = [arcs_text(n, arcs(t)) for t in range(len(masks))]
    return FinitePoset.from_texts(texts, plus_one_covers(masks), lambda order: [Diagram(n, arcs(t)) for t in order])


def build_S(n: int, k: int, cap: int = 1_000_000) -> FinitePoset:
    """Non-trivial k-noncrossing diagrams of length n under arc inclusion."""
    return _inclusion_family(n, k, admissible_arcs(n), cap)


def build_So(m: int, k: int, cap: int = 1_000_000) -> FinitePoset:
    """The k-relevant sub-family of S(m, k)."""
    return _inclusion_family(m, k, relevant_arcs(m, k), cap)


def build_Sstar(m: int, k: int, cap: int = 1_000_000) -> FinitePoset:
    """The non-k-relevant sub-family of S(m, k) (always k-noncrossing)."""
    return _inclusion_family(m, k, nonrelevant_arcs(m, k), cap)


# ---------------------------------------------------------------------------
# matrix families under domination, by unit steps on flat keys


def _order_ideal_index(keys: list[tuple[int, ...]]) -> tuple[list[int], dict[int, int], bytearray]:
    """(steps, index, maximal) of distinct nonnegative integer vectors
    (else :class:`InvalidArgumentError`).

    Keys are coded as integers in a base above every entry plus one, so a
    unit step on entry p adds ``steps[p]`` and never carries; ``index``
    maps the codes, in key order, to key positions.  The keys together
    with the zero vector must be closed under lowering one entry by one,
    else :class:`InvariantError`: an order ideal under unit steps.  Each
    key found one step below another is not maximal, so ``maximal`` flags
    the keys no unit step leaves the family from.
    """
    base = max(map(max, keys)) + 2
    steps = [base**p for p in range(len(keys[0]))]
    index = {sum(map(mul, key, steps)): t for t, key in enumerate(keys)}
    if len(index) != len(keys):
        raise InvalidArgumentError("duplicate keys")
    maximal = bytearray(b"\x01") * len(keys)
    for key, code in zip(keys, index):
        for step in compress(steps, key):  # the steps down from the key
            below = index.get(code - step)
            if below is not None:
                maximal[below] = 0
            elif code != step:
                p = steps.index(step)
                down = key[:p] + (key[p] - 1,) + key[p + 1 :]
                raise InvariantError(f"family not closed under decrements: has {key}, lacks {down}")
    return steps, index, maximal


def unit_step_covers(keys: list[tuple[int, ...]]) -> list[list[int]]:
    """Cover digraph of nonnegative integer vectors under entrywise order.

    When the family together with the zero vector is closed under lowering
    one entry by one (else :class:`InvariantError`), it is an order ideal
    in which every strict domination refines into unit steps, so the
    covers of a key are exactly its +1 steps on one entry that stay inside
    the family, listed by entry.
    """
    if not keys:
        return []
    steps, index, _ = _order_ideal_index(keys)
    ups = ([code + step for step in steps] for code in index)
    return [[t for t in map(index.get, up) if t is not None] for up in ups]


def order_ideal_ranks(keys: list[tuple[int, ...]]) -> tuple[int, bool, tuple[int, ...] | None]:
    """(rank_length, pure, witness) of distinct nonnegative integer vectors
    under entrywise order, in one pass over the keys and no cover lists.

    The family is an order ideal under unit steps (checked as in
    ``unit_step_covers``), so every cover raises the entry sum by one and
    every minimal key has sum 1, or is the zero vector.  The rank of a key
    is thus its sum above the bottom, and every maximal chain runs from
    the bottom to a maximal key: the family is pure exactly when every
    maximal key has the top sum.  ``witness`` is the first maximal key
    whose sum is below the top, None when pure.
    """
    if not keys:
        raise InvalidArgumentError("empty poset has no rank")
    _, _, maximal = _order_ideal_index(keys)
    sums = [sum(key) for key in compress(keys, maximal)]
    top = max(sums)
    witness = next((key for key, total in zip(compress(keys, maximal), sums) if total < top), None)
    bottom = 1 if any(min(keys)) else 0  # the zero vector is the least key
    return top - bottom, witness is None, witness


def matrix_family_covers(
    m: int, k: int, r: int, cap: int = 10_000_000
) -> tuple[list[SymmetricMatrix], list[list[int]]]:
    """The matrix family M^r_{m,k} with its domination cover digraph, keyed
    by upper-triangle value tuples."""
    keys = enumerate_matrix_keys(m, k, r, cap=cap)
    return matrices_from_keys(m, keys), unit_step_covers(keys)


def build_M(m: int, k: int, r: int, cap: int = 10_000_000) -> FinitePoset:
    """The tautology-bounded matrix family under entrywise domination,
    ordered by the key texts of its upper-triangle keys; the matrices are
    built on the first read of ``elements``."""
    keys = enumerate_matrix_keys(m, k, r, cap=cap)
    positions = upper_positions(m)
    texts = [key_text(m, positions, key) for key in keys]
    return FinitePoset.from_texts(
        texts, unit_step_covers(keys), lambda order: matrices_from_keys(m, [keys[t] for t in order])
    )


def build_P(f: int, k: int, r: int, cap: int = 10_000_000) -> FinitePoset:
    """Regular proper diagrams with f free sites, k-noncrossing, tautology
    at most r, ordered by block-matrix domination: beta_inverse carries
    M^r_{f+1,k} and its covers over, member by member, here by laying out
    each upper-triangle key with ``layout_key``; a layout that is not
    regular or has other block-pair counts raises :class:`InvariantError`
    here, before the poset is put together."""
    if f < 3:
        raise InvalidArgumentError(f"f must be >= 3, got {f}")
    keys = enumerate_matrix_keys(f + 1, k, r, cap=cap)
    layouts = []
    for key in keys:
        arcs, regular, exact = layout_key(f + 1, key)
        if not (regular and exact):
            raise InvariantError(f"the layout {arcs} of key {key} is not the regular diagram of its counts")
        layouts.append(arcs)
    return _proper_poset(f, layouts, unit_step_covers(keys))


def _proper_poset(f: int, layouts: list[tuple[Arc, ...]], covers) -> FinitePoset:
    """The binary diagrams with f free sites and these ascending arc tuples, made when read."""
    texts = [arcs_text(f + 2 * len(arcs), arcs) for arcs in layouts]
    return FinitePoset.from_texts(
        texts, covers, lambda order: [Diagram(f + 2 * len(layouts[t]), layouts[t]) for t in order]
    )


# ---------------------------------------------------------------------------
# proper-diagram family under suppression reachability


def proper_length_bound(f: int, r: int) -> int:
    """Largest length of a proper diagram with f free sites and tautology
    at most r: each of the comb(f+1, 2) - 1 - f usable block pairs carries
    one free arc, every further arc costs tautology."""
    return f + 2 * (comb(f + 1, 2) - 1 - f + r)


@lru_cache(maxsize=1 << 16)
def suppression_descendants(diagram: Diagram) -> frozenset[Diagram]:
    """The diagram together with everything reachable by suppressing arcs."""
    reached = {diagram}
    for arc in diagram.arcs:
        reached |= suppression_descendants(suppress_arc(diagram, arc))
    return frozenset(reached)


def suppression_leq(small: Diagram, large: Diagram) -> bool:
    """True iff ``small`` arises from ``large`` by a (possibly empty)
    sequence of arc suppressions."""
    return small in suppression_descendants(large)


def _proper_insertions(arcs: tuple[Arc, ...], f: int, k: int, r: int):
    """Arc tuples of the members of D(f, k, r) that arise from ``arcs`` (a
    member, or the trivial diagram of length f) by inserting one arc.

    The new arc's endpoints go into the gaps after sites g1 < g2 of the
    diagram, so the arc wraps its sites g1+1..g2: it covers the free sites
    among them, joins blocks block[g1] and block[g2] of the site table
    (block[t] counts the free sites up to t, plus one), and crosses each
    arc with one endpoint wrapped.
    Insertion keeps every other arc's covered free sites, crossings and
    block pair, so the new diagram is a member iff the new arc covers at
    least one free site and not all of them, its crossing neighbours hold
    no k-clique, and the ``entry_cost`` of one more arc on its block pair
    fits the member's room under r.
    """
    n = f + 2 * len(arcs)
    arc_at = {}
    for t, (a, b) in enumerate(arcs):
        arc_at[a] = arc_at[b] = 1 << t
    table = site_table(n, arcs)
    block = table.block
    pairs = block_pair_counts(table, arcs)
    room = r - sum(entry_cost(i, j, count) for (i, j), count in pairs.items())

    # fits[i][j]: one more arc on blocks i < j covers some free site but not
    # all (0 < j - i < f), and what it adds to their entry's cost fits the room
    fits = [[False] * (f + 2) for _ in range(f + 2)]
    for i in range(1, f + 1):
        for j in range(i + 1, min(i + f, f + 2)):
            count = pairs[i, j]
            fits[i][j] = entry_cost(i, j, count + 1) - entry_cost(i, j, count) <= room
    adjacency = crossing_adjacency(arcs)
    for g1 in range(n):
        wrapped = 0  # the arcs with exactly one endpoint among g1+1..g2
        for g2 in range(g1 + 1, n + 1):
            wrapped ^= arc_at.get(g2, 0)
            if not fits[block[g1]][block[g2]]:
                continue
            if masked_clique_exists(adjacency, wrapped, k):
                continue
            shifted = [(a + (a > g1) + (a > g2), b + (b > g1) + (b > g2)) for a, b in arcs]
            yield tuple(sorted([*shifted, (g1 + 1, g2 + 2)]))


def _suppressed(arcs: tuple[Arc, ...], arc: Arc) -> tuple[Arc, ...]:
    """``suppress_arc`` on the arc tuple of a binary diagram."""
    a, b = arc
    return tuple((s - (s > a) - (s > b), t - (t > a) - (t > b)) for s, t in arcs if (s, t) != arc)


def build_D(f: int, k: int, r: int, cap: int = 10_000_000) -> FinitePoset:
    """Proper diagrams with f free sites, k-noncrossing, tautology at most
    r, ordered by suppression reachability.

    Suppressing an arc of a member with two or more arcs gives a member:
    it keeps the free sites and their order, so every other arc covers
    the same free sites and the diagram stays proper; it deletes a vertex
    of the crossing graph, so the diagram stays k-noncrossing; and it
    lowers one block-matrix entry by one, which does not raise that
    entry's ``entry_cost``.  Hence every member with more than one arc is a
    one-arc insertion into a member, and every member with one arc is an
    insertion into the trivial diagram of length f: the members are grown
    level by level (a level is an arc count) from that diagram.  A
    suppression removes exactly one arc, so nothing lies strictly between
    a member and its one-arc suppressions, and every chain of suppressions
    stays in D: the covers are exactly the one-arc suppressions.  A
    suppression that is neither trivial nor a member raises
    :class:`InvariantError`.  ``cap`` bounds the members.
    """
    if f < 2:
        raise InvalidArgumentError(f"f must be >= 2, got {f}")
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if r < 0:
        raise InvalidArgumentError(f"r must be >= 0, got {r}")
    index: dict[tuple[Arc, ...], int] = {}
    level: list[tuple[Arc, ...]] = [()]
    while level:
        grown = []
        for arcs in level:
            for bigger in _proper_insertions(arcs, f, k, r):
                if bigger not in index:
                    index[bigger] = len(index)
                    if len(index) > cap:
                        raise ResourceLimitError(f"family exceeds cap {cap}", bound=cap)
                    grown.append(bigger)
        level = grown
    succ: list[list[int]] = [[] for _ in index]
    for arcs, t in index.items():
        if len(arcs) == 1:
            continue  # its suppression is the trivial diagram
        for arc in arcs:
            lower = index.get(_suppressed(arcs, arc))
            if lower is None:
                text = arcs_text(f + 2 * len(arcs), arcs)
                raise InvariantError(f"suppressing {arc} of {text} leaves D({f},{k},{r})")
            succ[lower].append(t)
    return _proper_poset(f, list(index), succ)


# ---------------------------------------------------------------------------
# membership and dispatch


def in_proper_family(diagram: Diagram, f: int, k: int, r: int) -> bool:
    """Membership in D(f, k, r)."""
    return (
        is_proper(diagram)
        and len(free_sites(diagram)) == f
        and is_k_noncrossing(diagram.arcs, k)
        and tautology_number(diagram) <= r
    )


def in_regular_family(diagram: Diagram, f: int, k: int, r: int) -> bool:
    """Membership in P(f, k, r)."""
    return in_proper_family(diagram, f, k, r) and is_regular(diagram)


# each family's parameters, one letter each, in the builder's order
_FAMILY_PARAMS = {"S": "nk", "So": "mk", "Sstar": "mk", "M": "mkr", "P": "fkr", "D": "fkr"}


def family_names() -> list[str]:
    return list(_FAMILY_PARAMS)


def build_family(name: str, *, cap: int | None = None, **params: int) -> FinitePoset:
    """Dispatch on a family name; see the module docstring for parameters."""
    if name not in _FAMILY_PARAMS:
        raise InvalidArgumentError(f"unknown family {name!r}")
    names = tuple(_FAMILY_PARAMS[name])
    for label in params:
        if label not in names:
            raise InvalidArgumentError(f"family {name} takes {', '.join(names)}, not {label!r}")
    for label in names:
        if label not in params:
            raise InvalidArgumentError(f"parameter {label} is required")
    # looked up per call, so that a builder rebound on the module is used
    builders = {"S": build_S, "So": build_So, "Sstar": build_Sstar}
    builder = {**builders, "M": build_M, "P": build_P, "D": build_D}[name]
    return builder(*(params[label] for label in names), **({} if cap is None else {"cap": cap}))
