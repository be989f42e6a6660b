"""Diagram-to-diagram and diagram-to-matrix constructions.

``regular_arcs`` lays out the unique regular diagram of a set of
block-pair counts directly, and is the one construction of it:
``canonicalize`` lays out the counts of a diagram's site table,
``realize_matrix`` and ``beta_inverse`` those of a validated
``SymmetricMatrix``, and ``layout_key`` those of a flat family key, with
the check, in one pass over the layout, that it is regular and has
exactly the key's counts (``build_P`` and the ``verify`` checks use it).
Also here: the swap involution and swap orbits on partner tuples, the two
equivalence tests, the dual and blow-up constructions, and the named
structure-preserving maps between diagram and matrix families.  The
definitional route to the regular form, strict swaps until no local
crossing is left, is checked in ``verify``, one strict swap per proper
diagram.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Mapping
from itertools import accumulate
from operator import not_

from .crossing import is_k_noncrossing
from .diagram import (
    Arc,
    Diagram,
    adjacency_matrix,
    arcs_error,
    arcs_text,
    block_matrix,
    block_pair_counts,
    covered_free_sites,
    free_sites,
    is_proper,
    is_regular,
    locally_ordered,
    partner_arcs,
    site_table,
    table_is_proper,
)
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError, require_int
from .matrix import SymmetricMatrix, family_membership, r_value, upper_positions


# ---------------------------------------------------------------------------
# swaps


def swapped_partners(partner, site: int) -> tuple[int, ...]:
    """The partner tuple after the swap at ``site``: the non-free sites
    ``site`` and ``site + 1`` exchange their partners, and those partners
    point back at the exchanged sites.  Four entries change; no arc joins
    the two sites, as an arc spans more than one step."""
    p, q = partner[site], partner[site + 1]
    swapped = list(partner)
    swapped[site], swapped[site + 1], swapped[p], swapped[q] = q, p, site + 1, site
    return tuple(swapped)


def swap(diagram: Diagram, site: int) -> Diagram:
    """Exchange arc partners between the adjacent non-free sites ``site``
    and ``site + 1``.  The block list and block matrix are unchanged."""
    require_int(site, "swap site")
    table = site_table(diagram.length, diagram.arcs)
    if not table_is_proper(table, diagram.arcs):
        raise InvalidArgumentError("swap requires a proper diagram")
    if not 1 <= site < diagram.length:
        raise InvalidArgumentError(f"swap site {site} out of range")
    for end in (site, site + 1):
        if not table.partner[end]:
            raise InvalidArgumentError(f"site {end} is free; swap needs two non-free sites")
    return Diagram(diagram.length, partner_arcs(swapped_partners(table.partner, site)))


def swap_orbit(diagram: Diagram, cap: int = 1_000_000) -> set[Diagram]:
    """All diagrams reachable from the proper ``diagram`` by sequences of
    swaps, found by ``swap_orbit_partners``."""
    table = site_table(diagram.length, diagram.arcs)
    if not table_is_proper(table, diagram.arcs):
        raise InvalidArgumentError("swap orbit requires a proper diagram")
    n = diagram.length
    orbit = swap_orbit_partners(tuple(table.partner), cap)
    return {Diagram(n, partner_arcs(partner)) for partner in orbit}


def swap_orbit_partners(partner: tuple[int, ...], cap: int = 1_000_000) -> set[tuple[int, ...]]:
    """The partner tuples reachable by sequences of swaps from the partner
    tuple of a proper diagram.

    A swap keeps the free sites, so the swap sites (two adjacent non-free
    sites) are read once from ``partner``.  It also keeps every block
    pair, so a swap of a proper diagram is proper once its two moved arcs
    are arcs: each swap is checked in O(1) to leave both sites non-free
    and both moved arcs spanning more than one step, and a failure raises
    :class:`InvariantError`.
    """
    sites = [s for s in range(1, len(partner) - 1) if partner[s] and partner[s + 1]]
    seen = {partner}
    queue = deque(seen)
    while queue:
        current = queue.popleft()
        for site in sites:
            neighbour = swapped_partners(current, site)
            if neighbour in seen:
                continue
            p, q = neighbour[site], neighbour[site + 1]
            if not (p and q and abs(p - site) > 1 and abs(q - site - 1) > 1):
                text = arcs_text(len(partner) - 1, partner_arcs(current))
                raise InvariantError(
                    f"the swap at {site} of {text} fails: it leaves partners {p} and {q} at sites {site} and {site + 1}"
                )
            if len(seen) >= cap:
                raise ResourceLimitError(f"swap orbit exceeds cap {cap}", bound=cap)
            seen.add(neighbour)
            queue.append(neighbour)
    return seen


# ---------------------------------------------------------------------------
# canonical regular representative


def canonicalize(diagram: Diagram) -> Diagram:
    """The unique regular diagram equivalent to ``diagram``: the layout of
    the block-pair counts of its site table, which has its length."""
    table = site_table(diagram.length, diagram.arcs)
    if not table_is_proper(table, diagram.arcs):
        raise InvalidArgumentError("canonicalize requires a proper diagram")
    pairs = block_pair_counts(table, diagram.arcs)
    return Diagram(diagram.length, regular_arcs(pairs))


# ---------------------------------------------------------------------------
# equivalence


def equivalent(first: Diagram, second: Diagram) -> bool:
    """Equality of block matrices (the matrix-side characterization): of free-site and block-pair counts."""
    one, two = (site_table(d.length, d.arcs) for d in (first, second))
    if not (table_is_proper(one, first.arcs) and table_is_proper(two, second.arcs)):
        raise InvalidArgumentError("equivalence is defined on proper diagrams")
    return (one.free_count, block_pair_counts(one, first.arcs)) == (two.free_count, block_pair_counts(two, second.arcs))


def equivalent_by_definition(first: Diagram, second: Diagram) -> bool:
    """Existence of a free-site-preserving arc bijection (the definition,
    kept independent of block matrices as an oracle for ``equivalent``)."""
    if not is_proper(first) or not is_proper(second):
        raise InvalidArgumentError("equivalence is defined on proper diagrams")
    return first.length == second.length and free_site_profile(first) == free_site_profile(second)


def free_site_profile(diagram: Diagram) -> Counter:
    """The multiset of the free-site sets its arcs cover, as literal site
    sets.  A free-site-preserving bijection pairs each arc with one covering
    the same free sites, so two diagrams of one length have one exactly
    when their profiles agree."""
    return Counter(covered_free_sites(diagram, arc) for arc in diagram.arcs)


# ---------------------------------------------------------------------------
# dual and blow-up


def dual(diagram: Diagram) -> Diagram:
    """Insert a half-site between every adjacent site pair, delete the free
    sites, and relabel.  The result has length 2n-1-f and n-1 free sites."""
    n = diagram.length
    free = set(free_sites(diagram))
    # double the scale: site s sits at 2s, the half-site i+1/2 at 2i+1
    positions = sorted(
        [2 * s for s in range(1, n + 1) if s not in free] + [2 * i + 1 for i in range(1, n)]
    )
    relabel = {pos: new for new, pos in enumerate(positions, start=1)}
    arcs = [(relabel[2 * a], relabel[2 * b]) for a, b in diagram.arcs]
    return Diagram(len(positions), arcs)


def blow_up(diagram: Diagram) -> Diagram:
    """Split every site supporting b >= 2 arcs into b consecutive sites
    carrying one arc each, partners in ascending order; the block matrix is
    preserved."""
    partners: dict[int, list[int]] = {s: [] for s in range(1, diagram.length + 1)}
    for a, b in diagram.arcs:
        partners[a].append(b)
        partners[b].append(a)
    new_site: dict[Arc, int] = {}  # (old site, partner) -> new site
    length = 0
    for site, ends in partners.items():
        if not ends:
            length += 1  # a free site stays one site
        for partner in sorted(ends):
            length += 1
            new_site[site, partner] = length
    return Diagram(length, [(new_site[a, b], new_site[b, a]) for a, b in diagram.arcs])


# ---------------------------------------------------------------------------
# realization of block matrices


def regular_arcs(pairs: Mapping[tuple[int, int], int]) -> tuple[Arc, ...]:
    """The ascending arcs of the regular diagram with ``pairs[i, j]`` arcs
    between blocks i < j (1-indexed; zero counts and pairs with i >= j are
    ignored).  The number of blocks is not needed: blocks past the last one
    used only add free sites at the right end.  With m blocks, the diagram
    has length m - 1 plus twice the arc count.

    The blocks are laid out left to right with one free site between
    neighbours.  Block i holds first the endpoints of its arcs to earlier
    blocks, nearest partner block first, then those of its arcs to later
    blocks, farthest partner block first, and parallel arcs nest.  Two arcs
    with endpoints in a common block then nest or lie side by side, so no
    local crossing arises.

    The arcs come out ascending, with no sort of the arcs: the left slots
    (those whose partner block is later) are walked in layout order, block
    by block and farthest partner first, and each emits its nested arcs
    outermost first, so the left ends rise.  A right slot's first site is
    its block's first site plus the arcs into that block from nearer
    earlier blocks.
    """
    # the left slots in layout order: by block, then farthest partner first
    rows = sorted([(i, -j, count) for (i, j), count in pairs.items() if i < j and count])
    if not rows:
        return ()
    blocks = -min([j for _, j, _ in rows])
    into = [0] * (blocks + 1)  # arcs into each block from earlier blocks
    ends = [0] * (blocks + 1)  # endpoints in each block
    for i, j, count in rows:
        into[-j] += count
        ends[i] += count
        ends[-j] += count
    # the first site of each block: after the earlier blocks' ends and b - 1 free sites
    first = [b + sites for b, sites in enumerate(accumulate(ends, initial=0))]
    nearer = into[:]  # per block, the arcs into it from blocks after the current one
    arcs = []
    block = 0
    for i, j, count in rows:
        if i != block:
            block, left = i, first[i] + into[i]
        nearer[-j] -= count
        right = first[-j] + nearer[-j] + count - 1
        if count == 1:
            arcs.append((left, right))
        else:
            arcs += [(left + t, right - t) for t in range(count)]
        left += count
    return tuple(arcs)


def layout_key(order: int, key: tuple[int, ...]) -> tuple[tuple[Arc, ...], bool, bool]:
    """Lay out the block-pair counts of an upper-triangle key over
    ``upper_positions(order)``, the flat form of a family matrix.  Returns
    the arcs, whether they form a regular diagram of length
    order - 1 + 2 * size with order - 1 free sites, and whether its
    block-pair counts are exactly the key's: equal on every upper position,
    and no other pair, such as a diagonal one, present.

    One pass checks the layout: one partner array and one block array, as
    in ``site_table`` but with no table built, then the regularity walk of
    ``table_is_regular`` and one count of the arcs per block pair.  The
    free-site count stands in for the binary test."""
    pairs = {pair: value for pair, value in zip(upper_positions(order), key) if value}
    arcs = regular_arcs(pairs)
    length = order - 1 + 2 * len(arcs)
    if arcs_error(length, arcs) is not None:
        return arcs, False, False
    partner = [0] * (length + 1)
    for a, b in arcs:
        partner[a], partner[b] = b, a
    block = list(accumulate(map(not_, partner)))  # one more than the free sites up to each site
    counts = {}
    for a, b in arcs:
        pair = block[a], block[b]
        counts[pair] = counts.get(pair, 0) + 1
    # of the 2 * len(arcs) + order - 1 sites, order - 1 are free just when
    # no site holds two arcs
    regular = bool(arcs) and block[-1] == order and locally_ordered(partner)
    return arcs, regular, counts == pairs


def realize_matrix(matrix: SymmetricMatrix, cap: int = 1_000_000) -> Diagram:
    """The regular diagram whose block matrix is ``matrix``, laid out by
    ``regular_arcs``.  Raises ``ResourceLimitError`` before building
    anything when the diagram would have more than ``cap`` arcs.
    """
    m = matrix.order
    rows = matrix.rows
    if matrix.is_trivial():
        raise InvalidArgumentError("cannot realize the trivial matrix")
    for i in range(m):
        if rows[i][i]:
            raise InvalidArgumentError(f"nonzero diagonal entry at ({i + 1},{i + 1})")
    if m >= 2 and rows[0][m - 1]:
        raise InvalidArgumentError(f"nonzero rainbow entry at (1,{m})")
    pairs = {(i + 1, j + 1): rows[i][j] for i in range(m) for j in range(i + 1, m) if rows[i][j]}
    size = sum(pairs.values())
    if size > cap:
        raise ResourceLimitError(f"realization has {size} arcs, over cap {cap}", bound=cap)
    return Diagram(m - 1 + 2 * size, regular_arcs(pairs))


# ---------------------------------------------------------------------------
# named maps


def tau(diagram: Diagram) -> SymmetricMatrix:
    """Adjacency-matrix map on non-trivial diagrams."""
    if diagram.is_trivial():
        raise InvalidArgumentError("tau requires a non-trivial diagram")
    return adjacency_matrix(diagram)


def tau_inverse(matrix: SymmetricMatrix) -> Diagram:
    """Diagram whose adjacency matrix is ``matrix`` (a base-family member)."""
    if not family_membership(matrix, "M", matrix.order):
        raise InvalidArgumentError(
            "tau_inverse requires a non-trivial (0,1)-matrix with zero "
            "diagonal, semi-diagonal and rainbow entries"
        )
    return Diagram(matrix.order, matrix.nonzero_positions())


def beta(diagram: Diagram, k: int, r: int) -> SymmetricMatrix:
    """Block-matrix map restricted to regular members of the diagram family
    with tautology bound ``r`` and crossing bound ``k``."""
    if not is_regular(diagram):
        raise InvalidArgumentError("beta requires a regular diagram")
    if not is_k_noncrossing(diagram.arcs, k):
        raise InvalidArgumentError(f"diagram is not {k}-noncrossing")
    result = block_matrix(diagram)
    if r_value(result) > r:
        raise InvalidArgumentError(
            f"tautology number {r_value(result)} exceeds bound {r}"
        )
    return result


def beta_inverse(matrix: SymmetricMatrix, k: int, r: int) -> Diagram:
    """The unique regular diagram whose block matrix is ``matrix``."""
    if not family_membership(matrix, "Mr", matrix.order, k, r):
        raise InvalidArgumentError(
            f"matrix is not in the order-{matrix.order} {k}-noncrossing "
            f"family with tautology bound {r}"
        )
    return realize_matrix(matrix)


# ---------------------------------------------------------------------------
# relevant arcs, the triangulation correspondence, and the splitting map


def is_k_relevant(arc: Arc, m: int, k: int) -> bool:
    """Endpoint gap strictly between k and m - k."""
    a, b = arc
    return k < b - a < m - k


def _normalize_diagonal(diagonal) -> Arc:
    if isinstance(diagonal, str):
        left, _, right = diagonal.partition("-")
        diagonal = (int(left), int(right))
    a, b = diagonal
    return (min(a, b), max(a, b))


def theta(face, m: int, k: int) -> Diagram:
    """Diagram for a face of the relevant-diagonal complex: diagonal i-j
    becomes the arc (i, j)."""
    arcs = sorted(_normalize_diagonal(d) for d in face)
    if not arcs:
        raise InvalidArgumentError("theta requires a non-empty face")
    for arc in arcs:
        if not is_k_relevant(arc, m, k):
            raise InvalidArgumentError(f"diagonal {arc[0]}-{arc[1]} is not {k}-relevant")
    diagram = Diagram(m, arcs)
    if not is_k_noncrossing(diagram.arcs, k):
        raise InvalidArgumentError(f"face contains {k + 1} pairwise crossing diagonals")
    return diagram


def theta_inverse(diagram: Diagram, k: int) -> frozenset[str]:
    """Face of the relevant-diagonal complex for an all-relevant diagram."""
    if diagram.is_trivial():
        raise InvalidArgumentError("theta_inverse requires a non-trivial diagram")
    for arc in diagram.arcs:
        if not is_k_relevant(arc, diagram.length, k):
            raise InvalidArgumentError(f"arc {arc} is not {k}-relevant")
    return frozenset(f"{a}-{b}" for a, b in diagram.arcs)


class BottomMarker:
    """Tagged sentinel adjoined below a poset (never a trivial diagram)."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        self.tag = tag

    def __repr__(self) -> str:
        return self.tag


BOTTOM_STAR = BottomMarker("0*")
BOTTOM_RELEVANT = BottomMarker("0^o")


def kappa(diagram: Diagram, k: int):
    """Split a diagram into its non-k-relevant and k-relevant sub-diagrams,
    using the bottom markers when a part is empty."""
    if diagram.is_trivial():
        raise InvalidArgumentError("kappa requires a non-trivial diagram")
    if not is_k_noncrossing(diagram.arcs, k):
        raise InvalidArgumentError(f"diagram is not {k}-noncrossing")
    m = diagram.length
    star_arcs = [e for e in diagram.arcs if not is_k_relevant(e, m, k)]
    relevant_arcs = [e for e in diagram.arcs if is_k_relevant(e, m, k)]
    star_part = Diagram(m, star_arcs) if star_arcs else BOTTOM_STAR
    relevant_part = Diagram(m, relevant_arcs) if relevant_arcs else BOTTOM_RELEVANT
    return star_part, relevant_part
