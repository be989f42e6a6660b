"""Arc diagrams on a linear backbone.

A diagram has sites 1..n joined by implicit backbone edges and a set of
arcs (s1, s2) with 1 < s2 - s1 < n - 1, drawn as semicircles above the
line.  This module holds the diagram value type, its text format, and the
structural predicates everything else is built from: free sites, blocks,
the block matrix, crossings, regularity, properness, k-noncrossing, the
tautology number, and the two arc-removal operations.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .crossing import max_crossing_clique, pairs_cross
from .errors import InvalidArgumentError
from .matrix import SymmetricMatrix

Arc = tuple[int, int]


@dataclass(frozen=True)
class Diagram:
    """Immutable diagram: a length and a canonically sorted tuple of arcs."""

    length: int
    arcs: tuple[Arc, ...]

    def __init__(self, length: int, arcs: Iterable[Arc] = ()):
        object.__setattr__(self, "length", int(length))
        normalized = sorted({(int(a), int(b)) for a, b in arcs})
        object.__setattr__(self, "arcs", tuple(normalized))
        self._validate()

    def _validate(self) -> None:
        if self.length < 2:
            raise InvalidArgumentError(f"diagram length must be >= 2, got {self.length}")
        for a, b in self.arcs:
            if not 1 < b - a < self.length - 1:
                raise InvalidArgumentError(
                    f"arc ({a},{b}) violates 1 < s2-s1 < n-1 for length {self.length}"
                )
            if a < 1 or b > self.length:
                raise InvalidArgumentError(f"arc ({a},{b}) out of range 1..{self.length}")

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


# ---------------------------------------------------------------------------
# text format: `n=<int>; arcs=(a1,b1),(a2,b2),...` with sorted arcs

_ARC_RE = re.compile(r"\((\d+),(\d+)\)")
_TEXT_RE = re.compile(r"^n=(\d+); arcs=((?:\(\d+,\d+\))(?:,\(\d+,\d+\))*)?$")


def to_text(diagram: Diagram) -> str:
    arcs = ",".join(f"({a},{b})" for a, b in diagram.arcs)
    return f"n={diagram.length}; arcs={arcs}"


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


def free_sites(diagram: Diagram) -> tuple[int, ...]:
    """Sites supporting no arc, ascending."""
    used = {s for arc in diagram.arcs for s in arc}
    return tuple(s for s in range(1, diagram.length + 1) if s not in used)


def covered_free_sites(diagram: Diagram, arc: Arc) -> frozenset[int]:
    """Free sites strictly between the endpoints of ``arc``."""
    a, b = arc
    return frozenset(s for s in free_sites(diagram) if a < s < b)


@dataclass(frozen=True)
class BlockDecomposition:
    """Free sites u_1 < ... < u_f and the f+1 maximal non-free intervals
    between them (empty blocks included), with sentinels u_0 = 0 and
    u_{f+1} = n+1."""

    free_sites: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    def block_index_of(self, site: int) -> int:
        """1-based index of the block containing a non-free ``site``."""
        for i, block in enumerate(self.blocks, start=1):
            if site in block:
                return i
        raise InvalidArgumentError(f"site {site} is free or out of range")


def block_list(diagram: Diagram) -> BlockDecomposition:
    free = free_sites(diagram)
    bounds = (0, *free, diagram.length + 1)
    blocks = tuple(
        tuple(range(bounds[i] + 1, bounds[i + 1])) for i in range(len(free) + 1)
    )
    return BlockDecomposition(free, blocks)


def block_matrix(diagram: Diagram) -> SymmetricMatrix:
    """Symmetric matrix of order f+1 counting arcs incident with each block
    pair; an arc with both endpoints in one block counts once on the
    diagonal."""
    decomposition = block_list(diagram)
    order = len(decomposition.blocks)
    index = {}
    for i, block in enumerate(decomposition.blocks, start=1):
        for site in block:
            index[site] = i
    entries: dict[tuple[int, int], int] = {}
    for a, b in diagram.arcs:
        i, j = index[a], index[b]
        if i > j:
            i, j = j, i
        entries[(i, j)] = entries.get((i, j), 0) + 1
    return SymmetricMatrix.from_entries(order, entries)


def adjacency_matrix(diagram: Diagram) -> SymmetricMatrix:
    """Order-n (0,1)-matrix with entry (i,j) = 1 iff (i,j) is an arc."""
    entries = {arc: 1 for arc in diagram.arcs}
    return SymmetricMatrix.from_entries(diagram.length, entries)


# ---------------------------------------------------------------------------
# predicates


def is_binary(diagram: Diagram) -> bool:
    """Non-trivial and each site supports at most one arc."""
    if diagram.is_trivial():
        return False
    used: set[int] = set()
    for arc in diagram.arcs:
        for s in arc:
            if s in used:
                return False
            used.add(s)
    return True


def is_proper(diagram: Diagram) -> bool:
    """Binary, every arc covers at least one free site, and no arc covers
    all of them."""
    if not is_binary(diagram):
        return False
    free = free_sites(diagram)
    for a, b in diagram.arcs:
        covered = sum(1 for s in free if a < s < b)
        if not covered or covered == len(free):
            return False
    return True


def crossing_count(diagram: Diagram) -> int:
    return sum(1 for e1, e2 in combinations(diagram.arcs, 2) if pairs_cross(e1, e2))


def _is_local_crossing(decomposition: BlockDecomposition, e1: Arc, e2: Arc) -> bool:
    blocks1 = {decomposition.block_index_of(s) for s in e1}
    blocks2 = {decomposition.block_index_of(s) for s in e2}
    return bool(blocks1 & blocks2)


def local_crossing_count(diagram: Diagram) -> int:
    """Crossing arc pairs supported at two sites of a common block."""
    decomposition = block_list(diagram)
    return sum(
        1
        for e1, e2 in combinations(diagram.arcs, 2)
        if pairs_cross(e1, e2) and _is_local_crossing(decomposition, e1, e2)
    )


def is_regular(diagram: Diagram) -> bool:
    return is_binary(diagram) and local_crossing_count(diagram) == 0


def is_k_noncrossing(diagram: Diagram, k: int) -> bool:
    """No k+1 mutually crossing arcs (exact maximum-clique search)."""
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    return max_crossing_clique(diagram.arcs) <= k


def classify_arc(diagram: Diagram, arc: Arc) -> str:
    """'degenerate' (covers no free site), 'tiny' (exactly one) or 'ordinary'."""
    _require_arc(diagram, arc)
    covered = covered_free_sites(diagram, arc)
    if not covered:
        return "degenerate"
    if len(covered) == 1:
        return "tiny"
    return "ordinary"


def parallel_classes(diagram: Diagram) -> tuple[tuple[Arc, ...], ...]:
    """Arcs grouped by their covered-free-site set, in canonical order."""
    groups: dict[frozenset[int], list[Arc]] = {}
    for arc in diagram.arcs:
        groups.setdefault(covered_free_sites(diagram, arc), []).append(arc)
    return tuple(tuple(group) for _, group in sorted(groups.items(), key=lambda kv: kv[1]))


# ---------------------------------------------------------------------------
# arc removal


def _require_arc(diagram: Diagram, arc: Arc) -> None:
    if tuple(arc) not in diagram.arcs:
        raise InvalidArgumentError(f"arc {tuple(arc)} is not in the diagram")


def delete_arc(diagram: Diagram, arc: Arc) -> Diagram:
    """Remove the arc; length unchanged."""
    _require_arc(diagram, arc)
    return Diagram(diagram.length, [e for e in diagram.arcs if e != tuple(arc)])


def suppress_arc(diagram: Diagram, arc: Arc) -> Diagram:
    """Remove the arc and any endpoint it leaves free, relabelling the
    remaining sites consecutively from 1 (free-site count is preserved)."""
    _require_arc(diagram, arc)
    remaining = [e for e in diagram.arcs if e != tuple(arc)]
    still_used = {s for e in remaining for s in e}
    removed = {s for s in arc if s not in still_used}
    kept = [s for s in range(1, diagram.length + 1) if s not in removed]
    relabel = {old: new for new, old in enumerate(kept, start=1)}
    return Diagram(len(kept), [(relabel[a], relabel[b]) for a, b in remaining])


def tautology_number(diagram: Diagram) -> int:
    """Tautology number of the block matrix (parallel excess plus
    semi-diagonal sum)."""
    return block_matrix(diagram).r_value()


def p_value_of_diagram(diagram: Diagram) -> int:
    """Parallel excess of the block matrix."""
    return block_matrix(diagram).p_value()
