"""Diagram-to-diagram and diagram-to-matrix constructions.

Swaps and canonicalization to the unique regular representative, the two
equivalence tests, the dual and blow-up constructions, realization of a
matrix as a block matrix, and the named structure-preserving maps between
diagram and matrix families.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction

from .diagram import (
    Arc,
    Diagram,
    adjacency_matrix,
    block_list,
    block_matrix,
    covered_free_sites,
    crossing_count,
    free_sites,
    is_k_noncrossing,
    is_proper,
    is_regular,
)
from .errors import InvalidArgumentError, ResourceLimitError
from .matrix import SymmetricMatrix, family_membership, r_value
from .crossing import pairs_cross


# ---------------------------------------------------------------------------
# swaps


def _arc_at(diagram: Diagram, site: int) -> Arc:
    arcs = diagram.supports(site)
    if not arcs:
        raise InvalidArgumentError(f"site {site} is free; swap needs two non-free sites")
    return arcs[0]


def swap(diagram: Diagram, site: int) -> Diagram:
    """Exchange arc partners between the adjacent non-free sites ``site``
    and ``site + 1``.  The block list and block matrix are unchanged."""
    if not is_proper(diagram):
        raise InvalidArgumentError("swap requires a proper diagram")
    if not 1 <= site < diagram.length:
        raise InvalidArgumentError(f"swap site {site} out of range")
    e1 = _arc_at(diagram, site)
    e2 = _arc_at(diagram, site + 1)
    if e1 == e2:
        raise InvalidArgumentError(f"sites {site} and {site + 1} share the arc {e1}")
    r1 = e1[0] if e1[1] == site else e1[1]
    r2 = e2[0] if e2[1] == site + 1 else e2[1]
    replaced = [e for e in diagram.arcs if e not in (e1, e2)]
    replaced.append(tuple(sorted((site, r2))))
    replaced.append(tuple(sorted((site + 1, r1))))
    return Diagram(diagram.length, replaced)


def legal_swap_sites(diagram: Diagram) -> tuple[int, ...]:
    """Sites at which the swap preconditions hold."""
    non_free = {s for arc in diagram.arcs for s in arc}
    return tuple(
        s
        for s in range(1, diagram.length)
        if s in non_free and s + 1 in non_free and _arc_at(diagram, s) != _arc_at(diagram, s + 1)
    )


def is_strict_swap(diagram: Diagram, site: int) -> bool:
    """True iff the swap at ``site`` removes exactly one crossing."""
    return crossing_count(swap(diagram, site)) == crossing_count(diagram) - 1


def swap_orbit(diagram: Diagram, cap: int = 1_000_000) -> set[Diagram]:
    """All diagrams reachable from ``diagram`` by sequences of swaps."""
    seen = {diagram}
    queue = deque([diagram])
    while queue:
        current = queue.popleft()
        for site in legal_swap_sites(current):
            neighbour = swap(current, site)
            if neighbour not in seen:
                if len(seen) >= cap:
                    raise ResourceLimitError(f"swap orbit exceeds cap {cap}", bound=cap)
                seen.add(neighbour)
                queue.append(neighbour)
    return seen


# ---------------------------------------------------------------------------
# canonical regular representative


def canonicalize(diagram: Diagram) -> Diagram:
    """The unique regular diagram equivalent to ``diagram``.

    While some block supports a local crossing, apply the strict swap on a
    pair of adjacent crossing arcs incident with the leftmost such block
    (smallest lower supporting site first); the crossing count strictly
    decreases, so this terminates.
    """
    if not is_proper(diagram):
        raise InvalidArgumentError("canonicalize requires a proper diagram")
    current = diagram
    while True:
        decomposition = block_list(current)
        offending = _leftmost_nonregular_block(current, decomposition)
        if offending is None:
            return current
        site = _strict_swap_site(current, decomposition, offending)
        current = swap(current, site)


def _leftmost_nonregular_block(diagram: Diagram, decomposition) -> int | None:
    arcs = diagram.arcs
    worst: int | None = None
    for a in range(len(arcs)):
        for b in range(a + 1, len(arcs)):
            if not pairs_cross(arcs[a], arcs[b]):
                continue
            blocks_a = {decomposition.block_index_of(s) for s in arcs[a]}
            blocks_b = {decomposition.block_index_of(s) for s in arcs[b]}
            for shared in blocks_a & blocks_b:
                if worst is None or shared < worst:
                    worst = shared
    return worst


def _strict_swap_site(diagram: Diagram, decomposition, block_index: int) -> int:
    """Smallest site of an adjacent crossing arc pair incident with the block."""
    fallback: int | None = None
    for site in legal_swap_sites(diagram):
        e1 = _arc_at(diagram, site)
        e2 = _arc_at(diagram, site + 1)
        if not pairs_cross(e1, e2):
            continue
        if fallback is None:
            fallback = site
        blocks1 = {decomposition.block_index_of(s) for s in e1}
        blocks2 = {decomposition.block_index_of(s) for s in e2}
        if block_index in blocks1 and block_index in blocks2:
            return site
    if fallback is not None:
        return fallback
    raise AssertionError("non-regular diagram without an adjacent crossing pair")


# ---------------------------------------------------------------------------
# equivalence


def equivalent(first: Diagram, second: Diagram) -> bool:
    """Equality of block matrices (the matrix-side characterization)."""
    if not is_proper(first) or not is_proper(second):
        raise InvalidArgumentError("equivalence is defined on proper diagrams")
    return block_matrix(first) == block_matrix(second)


def equivalent_by_definition(first: Diagram, second: Diagram) -> bool:
    """Existence of a free-site-preserving arc bijection (the definition,
    kept independent of block matrices as an oracle for ``equivalent``)."""
    if not is_proper(first) or not is_proper(second):
        raise InvalidArgumentError("equivalence is defined on proper diagrams")
    if first.length != second.length:
        return False
    # the bijection pairs each arc with one covering the same free sites,
    # as literal site sets; a bijection exists iff the multisets agree
    profile_first = Counter(covered_free_sites(first, arc) for arc in first.arcs)
    profile_second = Counter(covered_free_sites(second, arc) for arc in second.arcs)
    return profile_first == profile_second


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
    carrying one arc each; the block matrix is preserved."""
    positions = {Fraction(s) for s in range(1, diagram.length + 1)}
    arcs = [(Fraction(a), Fraction(b)) for a, b in diagram.arcs]
    while True:
        support: dict[Fraction, list[Fraction]] = {}
        for a, b in arcs:
            support.setdefault(a, []).append(b)
            support.setdefault(b, []).append(a)
        crowded = sorted(pos for pos, partners in support.items() if len(partners) >= 2)
        if not crowded:
            break
        site = crowded[0]
        partners = sorted(support[site])
        following = min((p for p in positions if p > site), default=site + 1)
        step = (following - site) / (len(partners) + 1)
        positions.discard(site)
        new_sites = [site + step * (i + 1) for i in range(len(partners))]
        positions.update(new_sites)
        arcs = [e for e in arcs if site not in e]
        for fresh, partner in zip(new_sites, partners):
            arcs.append((min(fresh, partner), max(fresh, partner)))
    ordered = sorted(positions)
    relabel = {pos: new for new, pos in enumerate(ordered, start=1)}
    return Diagram(len(ordered), [(relabel[a], relabel[b]) for a, b in arcs])


# ---------------------------------------------------------------------------
# realization of block matrices


class _SiteBuilder:
    """Working diagram over fractional positions, supporting insertion of a
    new non-free site at the right end of a block."""

    def __init__(self, diagram: Diagram):
        self.positions = [Fraction(s) for s in range(1, diagram.length + 1)]
        self.free = sorted(Fraction(s) for s in free_sites(diagram))
        self.arcs = [(Fraction(a), Fraction(b)) for a, b in diagram.arcs]

    def insert_site(self, block_index: int) -> Fraction:
        """New position at the right end of block ``block_index`` (1-based,
        blocks bounded by the free sites)."""
        if block_index <= len(self.free):
            boundary = self.free[block_index - 1]
            previous = max((p for p in self.positions if p < boundary), default=Fraction(0))
            fresh = (previous + boundary) / 2
        else:
            fresh = max(self.positions) + 1
        self.positions.append(fresh)
        return fresh

    def add_arc(self, a: Fraction, b: Fraction) -> None:
        self.arcs.append((min(a, b), max(a, b)))

    def to_diagram(self) -> Diagram:
        ordered = sorted(self.positions)
        relabel = {pos: new for new, pos in enumerate(ordered, start=1)}
        return Diagram(len(ordered), [(relabel[a], relabel[b]) for a, b in self.arcs])


def realize_matrix(matrix: SymmetricMatrix) -> Diagram:
    """A proper diagram whose block matrix equals ``matrix``.

    Construction: realize the (0,1) part with zeroed semi-diagonals as an
    adjacency matrix, dualize and blow up, then re-insert one tiny arc per
    nonzero semi-diagonal index and extra parallel arcs for every entry
    exceeding one (stripped indices left to right, excess in row-major
    order, new sites at the right end of each target block).
    """
    m = matrix.order
    if matrix.is_trivial():
        raise InvalidArgumentError("cannot realize the trivial matrix")
    for i in range(1, m + 1):
        if matrix.entry(i, i):
            raise InvalidArgumentError(f"nonzero diagonal entry at ({i},{i})")
    if m >= 2 and matrix.entry(1, m):
        raise InvalidArgumentError(f"nonzero rainbow entry at (1,{m})")

    semi_indices = [i for i in range(1, m) if matrix.entry(i, i + 1)]
    core_positions = [
        (i, j) for i, j in matrix.nonzero_positions() if j != i + 1
    ]
    if core_positions:
        base = blow_up(dual(Diagram(m, core_positions)))
    else:
        base = Diagram(m - 1)

    builder = _SiteBuilder(base)
    for i in semi_indices:
        builder.add_arc(builder.insert_site(i), builder.insert_site(i + 1))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            excess = matrix.entry(i, j) - min(1, matrix.entry(i, j))
            for _ in range(excess):
                builder.add_arc(builder.insert_site(i), builder.insert_site(j))
    return builder.to_diagram()


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
    if not is_k_noncrossing(diagram, k):
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
    return canonicalize(realize_matrix(matrix))


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
    if not is_k_noncrossing(diagram, k):
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
    if not is_k_noncrossing(diagram, k):
        raise InvalidArgumentError(f"diagram is not {k}-noncrossing")
    m = diagram.length
    star_arcs = [e for e in diagram.arcs if not is_k_relevant(e, m, k)]
    relevant_arcs = [e for e in diagram.arcs if is_k_relevant(e, m, k)]
    star_part = Diagram(m, star_arcs) if star_arcs else BOTTOM_STAR
    relevant_part = Diagram(m, relevant_arcs) if relevant_arcs else BOTTOM_RELEVANT
    return star_part, relevant_part
