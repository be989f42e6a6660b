"""Arc diagrams on a linear backbone.

A diagram has sites 1..n joined by implicit backbone edges and a set of
arcs (s1, s2) with 1 < s2 - s1 < n - 1, drawn as semicircles above the
line.  This module holds the diagram value type, its text format, and the
structural predicates everything else is built from: free sites, blocks,
the block matrix, crossings, regularity, properness, the tautology
number, and arc suppression.

The predicates read one site table, built in a single O(n) pass over the
sites by ``site_table``: each site's partner (0 when the site is free,
``MULTI`` when it supports two or more arcs) and, for a non-free site,
the 1-based index of its block, which is one more than the number of
free sites to its left.  An arc (a, b) of a binary diagram therefore
covers block[b] - block[a] free sites.  The table is built from a length
and a sorted arc tuple; its partner array, as a tuple, is the flat form
the matching search, the swap layer and the regular-form check run on
(``partner_arcs`` reads the arc tuple back), so they build ``Diagram``
objects only at their boundary.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from operator import not_
from typing import NamedTuple

from .crossing import pairs_cross
from .errors import InvalidArgumentError, require_int
from .matrix import SymmetricMatrix, p_value, r_value

Arc = tuple[int, int]


@dataclass(frozen=True)
class Diagram:
    """Immutable diagram: a length and a canonically sorted tuple of arcs."""

    length: int
    arcs: tuple[Arc, ...]

    def __init__(self, length: int, arcs: Iterable[Arc] = ()):
        object.__setattr__(self, "length", require_int(length, "diagram length"))
        pairs = [(a, b) for a, b in arcs]
        if not {int}.issuperset(map(type, chain.from_iterable(pairs))):
            for site in chain.from_iterable(pairs):
                require_int(site, "arc endpoint")
        object.__setattr__(self, "arcs", tuple(sorted(pairs)))
        self._validate()

    def _validate(self) -> None:
        if self.length < 2:
            raise InvalidArgumentError(f"diagram length must be >= 2, got {self.length}")
        error = arcs_error(self.length, self.arcs)
        if error is not None:
            raise InvalidArgumentError(error)

    @property
    def size(self) -> int:
        return len(self.arcs)

    def is_trivial(self) -> bool:
        return not self.arcs

    def supports(self, site: int) -> tuple[Arc, ...]:
        """Arcs supported by ``site`` (endpoint incidence, not coverage)."""
        return tuple(arc for arc in self.arcs if site in arc)

    def key(self) -> str:
        return to_text(self)

    def __str__(self) -> str:
        return to_text(self)


def arcs_error(length: int, arcs: tuple[Arc, ...]) -> str | None:
    """Why ``arcs`` is not the strictly ascending arc tuple of a diagram of
    ``length``, or None when it is."""
    previous = None
    for arc in arcs:
        a, b = arc
        if not 1 < b - a < length - 1:
            return f"arc ({a},{b}) violates 1 < s2-s1 < n-1 for length {length}"
        if a < 1 or b > length:
            return f"arc ({a},{b}) out of range 1..{length}"
        if previous == arc:
            return f"arc ({a},{b}) is repeated"
        if previous is not None and previous > arc:
            return f"arcs {previous} and {arc} are not in ascending order"
        previous = arc
    return None


# ---------------------------------------------------------------------------
# the site table

MULTI = -1  # the partner entry of a site supporting two or more arcs


class SiteTable(NamedTuple):
    """Per site s in 1..n (index 0 unused): ``partner[s]`` is the other end
    of the arc at s, 0 if s is free and ``MULTI`` if s supports several
    arcs; ``block[s]`` is the 1-based index of the block holding s when s
    is non-free, and of the block just right of s when s is free.
    ``free_count`` is the number of free sites."""

    partner: list[int]
    block: list[int]
    free_count: int


def site_table(length: int, arcs: Iterable[Arc]) -> SiteTable:
    """The site table of the diagram with this length and these arcs."""
    partner = [0] * (length + 1)
    for a, b in arcs:
        partner[a] = MULTI if partner[a] else b
        partner[b] = MULTI if partner[b] else a
    return table_from_partners(partner)


def table_from_partners(partner: list[int]) -> SiteTable:
    """The site table with this partner array (index 0 unused)."""
    # entry s counts the free sites up to s, plus one (index 0 counts as free)
    block = list(accumulate(map(not_, partner)))
    return SiteTable(partner, block, block[-1] - 1)


def partner_arcs(partner) -> tuple[Arc, ...]:
    """The ascending arc tuple of a binary diagram from its partner tuple
    (or list) as in ``SiteTable.partner``."""
    return tuple([(s, p) for s, p in enumerate(partner) if p > s])


def _table_is_binary(table: SiteTable, arcs: tuple[Arc, ...]) -> bool:
    """Non-trivial and each site supports at most one arc."""
    return bool(arcs) and MULTI not in table.partner


def table_is_proper(table: SiteTable, arcs: tuple[Arc, ...]) -> bool:
    """Binary, and every arc covers at least one free site but not all."""
    if not _table_is_binary(table, arcs):
        return False
    block, free_count = table.block, table.free_count
    return all(0 < block[b] - block[a] < free_count for a, b in arcs)


def block_pair_counts(table: SiteTable, arcs: tuple[Arc, ...]) -> Counter:
    """Arcs per 1-indexed block pair (i, j) with i <= j."""
    block = table.block
    return Counter((block[a], block[b]) for a, b in arcs)


# ---------------------------------------------------------------------------
# text format: `n=<int>; arcs=(a1,b1),(a2,b2),...` with sorted arcs

# numbers are ASCII digits: ``\d`` would match any script's
_ARC_RE = re.compile(r"\((\d+),(\d+)\)", re.ASCII)
_TEXT_RE = re.compile(r"^n=(\d+); arcs=((?:\(\d+,\d+\))(?:,\(\d+,\d+\))*)?$", re.ASCII)


def arcs_text(length: int, arcs: tuple[Arc, ...]) -> str:
    """The text of the diagram with this length and ascending arc tuple,
    read without building it: the one statement of the text format."""
    return f"n={length}; arcs=" + ",".join([f"({a},{b})" for a, b in arcs])


def to_text(diagram: Diagram) -> str:
    return arcs_text(diagram.length, diagram.arcs)


def parse(text: str) -> Diagram:
    match = _TEXT_RE.match(text.strip())
    if match is None:
        raise InvalidArgumentError(f"malformed diagram text: {text!r}")
    length = int(match.group(1))
    arcs = [(int(a), int(b)) for a, b in _ARC_RE.findall(match.group(2) or "")]
    for a, b in arcs:
        if b <= a:
            raise InvalidArgumentError(f"arc ({a},{b}) must have s1 < s2")
    return Diagram(length, arcs)


# ---------------------------------------------------------------------------
# free sites and blocks


def _table(diagram: Diagram) -> SiteTable:
    return site_table(diagram.length, diagram.arcs)


def free_sites(diagram: Diagram) -> tuple[int, ...]:
    """Sites supporting no arc, ascending."""
    partner = _table(diagram).partner
    return tuple(s for s in range(1, diagram.length + 1) if not partner[s])


def covered_free_sites(diagram: Diagram, arc: Arc) -> frozenset[int]:
    """Free sites strictly between the endpoints of ``arc``."""
    a, b = arc
    return frozenset(s for s in free_sites(diagram) if a < s < b)


def block_list(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """The f+1 maximal non-free intervals between the f free sites, empty
    blocks included."""
    table = _table(diagram)
    blocks: list[list[int]] = [[] for _ in range(table.free_count + 1)]
    for site in range(1, diagram.length + 1):
        if table.partner[site]:
            blocks[table.block[site] - 1].append(site)
    return tuple(map(tuple, blocks))


def block_matrix(diagram: Diagram) -> SymmetricMatrix:
    """Symmetric matrix of order f+1 counting arcs incident with each block
    pair; an arc with both endpoints in one block counts once on the
    diagonal."""
    table = _table(diagram)
    return SymmetricMatrix.from_entries(table.free_count + 1, block_pair_counts(table, diagram.arcs))


def adjacency_matrix(diagram: Diagram) -> SymmetricMatrix:
    """Order-n (0,1)-matrix with entry (i,j) = 1 iff (i,j) is an arc."""
    entries = {arc: 1 for arc in diagram.arcs}
    return SymmetricMatrix.from_entries(diagram.length, entries)


# ---------------------------------------------------------------------------
# predicates


def is_binary(diagram: Diagram) -> bool:
    """Non-trivial and each site supports at most one arc."""
    return _table_is_binary(_table(diagram), diagram.arcs)


def is_proper(diagram: Diagram) -> bool:
    """Binary, every arc covers at least one free site, and no arc covers
    all of them."""
    return table_is_proper(_table(diagram), diagram.arcs)


def crossing_count(diagram: Diagram) -> int:
    return sum(1 for e1, e2 in combinations(diagram.arcs, 2) if pairs_cross(e1, e2))


def local_crossing_count(diagram: Diagram) -> int:
    """Crossing arc pairs supported at two sites of a common block."""
    block = _table(diagram).block
    # arcs ascend, so (a, b) before (c, d) cross iff a < c < b < d
    return sum(
        1
        for (a, b), (c, d) in combinations(diagram.arcs, 2)
        if a < c < b < d and {block[a], block[b]} & {block[c], block[d]}
    )


def table_is_regular(table: SiteTable, arcs: tuple[Arc, ...]) -> bool:
    """Binary, and no two arcs cross at sites of a common block.
    ``local_crossing_count`` counts the crossings by the pair scan instead."""
    return _table_is_binary(table, arcs) and locally_ordered(table.partner)


def locally_ordered(partner) -> bool:
    """No two arcs of the binary partner array ``partner`` cross at sites
    of a common block.

    One pass over the sites: along each block, the arcs to earlier sites
    must come first and each group's partners descend, so the key
    ``(partner > site, -partner)`` strictly increases from every non-free
    site to a non-free right neighbour."""
    for site in range(1, len(partner) - 1):
        p, q = partner[site], partner[site + 1]
        if p and q and (p > site, -p) >= (q > site + 1, -q):
            return False
    return True


def is_regular(diagram: Diagram) -> bool:
    return table_is_regular(_table(diagram), diagram.arcs)


def parallel_classes(diagram: Diagram) -> tuple[tuple[Arc, ...], ...]:
    """Arcs grouped by their covered-free-site set, in canonical order.

    An arc's ends are non-free, so the free sites it covers are those
    numbered block[a] to block[b] - 1 from the left: the range names the
    set, and every empty range is the empty set."""
    block = _table(diagram).block
    groups: dict[range, list[Arc]] = {}
    for a, b in diagram.arcs:
        groups.setdefault(range(block[a], block[b]), []).append((a, b))
    return tuple(tuple(group) for group in sorted(groups.values()))


# ---------------------------------------------------------------------------
# arc suppression


def suppress_arc(diagram: Diagram, arc: Arc) -> Diagram:
    """Remove the arc and any endpoint it leaves free, relabelling the
    remaining sites consecutively from 1 (free-site count is preserved)."""
    if tuple(arc) not in diagram.arcs:
        raise InvalidArgumentError(f"arc {tuple(arc)} is not in the diagram")
    remaining = [e for e in diagram.arcs if e != tuple(arc)]
    still_used = {s for e in remaining for s in e}
    removed = {s for s in arc if s not in still_used}
    kept = [s for s in range(1, diagram.length + 1) if s not in removed]
    relabel = {old: new for new, old in enumerate(kept, start=1)}
    return Diagram(len(kept), [(relabel[a], relabel[b]) for a, b in remaining])


def tautology_number(diagram: Diagram) -> int:
    """Tautology number of the block matrix (parallel excess plus
    semi-diagonal sum)."""
    return r_value(block_matrix(diagram))


def p_value_of_diagram(diagram: Diagram) -> int:
    """Parallel excess of the block matrix."""
    return p_value(block_matrix(diagram))
