"""Finite posets held as cover digraphs.

Elements are kept in a canonical order with the upper covers of each; the
dense order matrix is built lazily, and capped.  Provides chains and
purity, covers, intervals, bottom adjunction, direct products,
isomorphism testing, order-map classification, and DOT/stats export.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Iterable, Mapping
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError

# largest dense order matrix (n * n one-byte cells) a poset will allocate
LEQ_BYTE_CAP = 1 << 28


def _dense_order_matrix(n: int) -> np.ndarray:
    if n * n > LEQ_BYTE_CAP:
        message = f"{n}x{n} order matrix exceeds {LEQ_BYTE_CAP} bytes"
        raise ResourceLimitError(message, bound=LEQ_BYTE_CAP)
    return np.zeros((n, n), dtype=bool)


def topological_order(succ: list[list[int]]) -> list[int]:
    """Topological order of an acyclic cover digraph given as adjacency lists."""
    indeg = [0] * len(succ)
    for outs in succ:
        for j in outs:
            indeg[j] += 1
    queue = deque(i for i, d in enumerate(indeg) if d == 0)
    order = []
    while queue:
        i = queue.popleft()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(order) != len(succ):
        raise InvalidArgumentError("cover digraph has a cycle")
    return order


def chain_stats_from_covers(succ: list[list[int]]) -> tuple[int, bool]:
    """(rank_length, pure) of the poset whose cover digraph is ``succ``.

    Pure means every maximal chain has the same length: each element's
    shortest and longest cover paths down to a source agree, likewise up
    to a sink, and the two sum to the same total everywhere.
    """
    if not succ:
        raise InvalidArgumentError("empty poset has no rank")
    n = len(succ)
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, outs in enumerate(succ):
        for j in outs:
            pred[j].append(i)
    order = topological_order(succ)
    min_down = [0] * n
    max_down = [0] * n
    for i in order:
        if pred[i]:
            min_down[i] = 1 + min(min_down[p] for p in pred[i])
            max_down[i] = 1 + max(max_down[p] for p in pred[i])
    min_up = [0] * n
    max_up = [0] * n
    for i in reversed(order):
        if succ[i]:
            min_up[i] = 1 + min(min_up[s] for s in succ[i])
            max_up[i] = 1 + max(max_up[s] for s in succ[i])
    totals = {max_down[i] + max_up[i] for i in range(n)}
    pure = min_down == max_down and min_up == max_up and len(totals) == 1
    return max(max_down), pure


def element_key(element) -> str:
    """Deterministic sort key usable for the element types that occur here:
    diagrams and matrices (via .key()), strings, frozensets, markers and
    tuples of any of those."""
    if hasattr(element, "key") and callable(element.key):
        return element.key()
    if isinstance(element, str):
        return element
    if isinstance(element, frozenset):
        return "{" + ",".join(sorted(str(x) for x in element)) + "}"
    if isinstance(element, tuple):
        return "(" + "|".join(element_key(x) for x in element) + ")"
    return repr(element)


class FinitePoset:
    """A finite poset over hashable elements, held as its cover digraph.

    Give the order either as ``covers`` -- per element, the indices (into
    ``elements``) of the elements covering it -- or as ``leq``: a callable
    (evaluated on all pairs) or a square boolean matrix aligned with
    ``elements``, reduced to its covers by a single closure.  With
    ``validate``, a relation is checked for reflexivity, antisymmetry and
    transitivity, and covers for acyclicity and irredundancy, with a
    witness in the error message.  The dense ``leq_matrix`` is built from
    the covers on first use and refused above ``LEQ_BYTE_CAP`` cells.
    """

    def __init__(self, elements: Iterable, leq=None, *, covers=None, validate: bool = True):
        supplied = list(elements)
        permutation = sorted(range(len(supplied)), key=lambda i: element_key(supplied[i]))
        self.elements: tuple = tuple(supplied[i] for i in permutation)
        self._index: dict = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise InvalidArgumentError("duplicate elements")
        if (leq is None) == (covers is None):
            raise InvalidArgumentError("give exactly one of leq and covers")
        n = len(self.elements)
        if covers is not None:
            if len(covers) != n:
                raise InvalidArgumentError(f"{len(covers)} cover lists for {n} elements")
            position = {old: new for new, old in enumerate(permutation)}
            # upper covers of each element, as sorted canonical indices
            self.succ = [sorted({position[j] for j in covers[i]}) for i in permutation]
            if validate:
                self._validate_covers()
            return
        if callable(leq):
            matrix = _dense_order_matrix(n)
            for i, a in enumerate(self.elements):
                for j, b in enumerate(self.elements):
                    matrix[i, j] = bool(leq(a, b))
        else:
            matrix = np.asarray(leq, dtype=bool)
            if matrix.shape != (n, n):
                raise InvalidArgumentError(f"order matrix shape {matrix.shape} != ({n},{n})")
            # a supplied matrix is aligned with the input order; reindex it
            # to the canonical element order
            matrix = matrix[np.ix_(permutation, permutation)]
        self.leq_matrix = matrix
        strict = matrix & ~np.eye(n, dtype=bool)
        through = strict @ strict
        if validate:
            self._validate(through)
        self.succ = [np.flatnonzero(row).tolist() for row in strict & ~through]

    def _validate(self, through: np.ndarray) -> None:
        m = self.leq_matrix
        if not m.diagonal().all():
            i = int(np.argmin(m.diagonal()))
            raise InvalidArgumentError(f"not reflexive at {self.elements[i]!r}")
        both = m & m.T
        np.fill_diagonal(both, False)
        if both.any():
            i, j = map(int, np.argwhere(both)[0])
            raise InvalidArgumentError(
                f"not antisymmetric: {self.elements[i]!r} and {self.elements[j]!r}"
            )
        gap = through & ~m
        if gap.any():
            i, j = map(int, np.argwhere(gap)[0])
            raise InvalidArgumentError(
                f"not transitive: {self.elements[i]!r} ... {self.elements[j]!r}"
            )

    def _validate_covers(self) -> None:
        m = self.leq_matrix  # topological_order raises on a cycle
        for i, outs in enumerate(self.succ):
            for j in outs:
                if any(m[s, j] for s in outs if s != j):
                    raise InvalidArgumentError(
                        f"not a cover: {self.elements[i]!r} < {self.elements[j]!r} "
                        "passes through another element"
                    )

    @cached_property
    def leq_matrix(self) -> np.ndarray:
        """Dense boolean order matrix: row i marks everything above element i."""
        matrix = _dense_order_matrix(len(self))
        for i in reversed(topological_order(self.succ)):
            row = matrix[i]
            row[i] = True
            for j in self.succ[i]:
                row |= matrix[j]
        return matrix

    @cached_property
    def _chain_stats(self) -> tuple[int, bool]:
        return chain_stats_from_covers(self.succ)

    # -- basic queries --

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element) -> bool:
        return element in self._index

    def index(self, element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise InvalidArgumentError(f"{element!r} is not an element") from None

    def leq(self, a, b) -> bool:
        return bool(self.leq_matrix[self.index(a), self.index(b)])

    def _minimal_indices(self) -> list[int]:
        covered = {j for outs in self.succ for j in outs}
        return [i for i in range(len(self)) if i not in covered]

    def minimal_elements(self) -> tuple:
        return tuple(self.elements[i] for i in self._minimal_indices())

    def maximal_elements(self) -> tuple:
        return tuple(e for e, outs in zip(self.elements, self.succ) if not outs)

    def cover_edges(self) -> list[tuple]:
        """Pairs (a, b) with a < b and nothing strictly between."""
        return [(self.elements[i], self.elements[j]) for i, js in enumerate(self.succ) for j in js]

    # -- chains and purity --

    def rank_length(self) -> int:
        """Number of edges of a longest chain."""
        return self._chain_stats[0]

    def rank_cardinality(self) -> int:
        """Number of elements of a longest chain."""
        return self.rank_length() + 1

    def is_pure(self) -> bool:
        """True iff all maximal chains have the same length."""
        return not self.elements or self._chain_stats[1]

    # -- derived posets --

    def restrict(self, elements: Iterable) -> "FinitePoset":
        # self.elements is key-sorted, so sorted indices keep the sub-matrix
        # aligned with the key order the constructor will use
        chosen = sorted(self.index(e) for e in elements)
        sub = self.leq_matrix[np.ix_(chosen, chosen)]
        return FinitePoset([self.elements[i] for i in chosen], sub, validate=False)

    def open_interval_above(self, element) -> "FinitePoset":
        """Sub-poset of elements strictly greater than ``element``."""
        i = self.index(element)
        above = [
            self.elements[j]
            for j in np.flatnonzero(self.leq_matrix[i])
            if j != i
        ]
        return self.restrict(above)

    def adjoin_bottom(self, bottom) -> "FinitePoset":
        """New poset with ``bottom`` strictly below every element."""
        if bottom in self:
            raise InvalidArgumentError(f"{bottom!r} is already an element")
        return FinitePoset(
            [*self.elements, bottom], covers=[*self.succ, self._minimal_indices()], validate=False
        )

    def direct_product(self, other: "FinitePoset") -> "FinitePoset":
        """Componentwise order on pairs: a pair is covered by raising either
        component to one of its covers."""
        width = len(other)
        elements = [(a, b) for a in self.elements for b in other.elements]
        covers = [
            [s * width + j for s in self.succ[i]] + [i * width + t for t in other.succ[j]]
            for i in range(len(self))
            for j in range(width)
        ]
        return FinitePoset(elements, covers=covers, validate=False)

    # -- isomorphism and order maps --

    def _refined_classes(self) -> list[int]:
        """Stable colouring of elements by iterated cover-degree refinement."""
        succ = self.succ
        pred: list[list[int]] = [[] for _ in range(len(self))]
        for i, outs in enumerate(succ):
            for j in outs:
                pred[j].append(i)
        down = self.leq_matrix.sum(axis=0)
        up = self.leq_matrix.sum(axis=1)
        colour = {
            i: (int(down[i]), int(up[i]), len(pred[i]), len(succ[i]))
            for i in range(len(self))
        }
        for _ in range(len(self)):
            fresh = {
                i: (
                    colour[i],
                    tuple(sorted(Counter(colour[p] for p in pred[i]).items())),
                    tuple(sorted(Counter(colour[s] for s in succ[i]).items())),
                )
                for i in range(len(self))
            }
            if len(set(fresh.values())) == len(set(colour.values())):
                break
            colour = fresh
        palette = {c: n for n, c in enumerate(sorted(set(colour.values()), key=repr))}
        return [palette[colour[i]] for i in range(len(self))]

    def is_isomorphic(self, other: "FinitePoset", cap: int = 2000) -> bool:
        """Exact order-isomorphism test (invariant-refined backtracking)."""
        if len(self) != len(other):
            return False
        mine = self._refined_classes()
        theirs = other._refined_classes()
        if sorted(mine) != sorted(theirs):
            return False
        candidates = [
            [j for j in range(len(other)) if theirs[j] == mine[i]]
            for i in range(len(self))
        ]
        order = sorted(range(len(self)), key=lambda i: len(candidates[i]))
        a, b = self.leq_matrix, other.leq_matrix
        used = [False] * len(other)
        assigned: dict[int, int] = {}
        nodes = 0

        def extend(depth: int) -> bool:
            nonlocal nodes
            if depth == len(order):
                return True
            nodes += 1
            if nodes > cap * len(self):
                raise ResourceLimitError(
                    f"isomorphism search exceeded {cap * len(self)} nodes", bound=cap
                )
            i = order[depth]
            for j in candidates[i]:
                if used[j]:
                    continue
                if any(
                    a[i, i2] != b[j, j2] or a[i2, i] != b[j2, j]
                    for i2, j2 in assigned.items()
                ):
                    continue
                used[j] = True
                assigned[i] = j
                if extend(depth + 1):
                    return True
                used[j] = False
                del assigned[i]
            return False

        return extend(0)

    def check_order_map(self, other: "FinitePoset", mapping: Mapping | Callable) -> str:
        """Classify a map into ``other`` as 'isomorphism', 'homomorphism'
        (order-preserving) or 'neither'."""
        if callable(mapping):
            images = [mapping(e) for e in self.elements]
        else:
            images = [mapping[e] for e in self.elements]
        targets = []
        for e, image in zip(self.elements, images):
            if image not in other:
                raise InvalidArgumentError(f"image of {e!r} is not in the codomain")
            targets.append(other.index(image))
        a, b = self.leq_matrix, other.leq_matrix
        preserving = all(
            b[targets[i], targets[j]]
            for i in range(len(self))
            for j in range(len(self))
            if a[i, j]
        )
        if not preserving:
            return "neither"
        bijective = len(set(targets)) == len(other.elements) == len(self)
        reflecting = all(
            a[i, j] == b[targets[i], targets[j]]
            for i in range(len(self))
            for j in range(len(self))
        )
        if bijective and reflecting:
            return "isomorphism"
        return "homomorphism"

    # -- export --

    def to_dot(self, name: str = "poset", label=element_key) -> str:
        """Graphviz digraph of the cover relation (edges point upward)."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, e in enumerate(self.elements):
            text = label(e).replace('"', '\\"')
            lines.append(f'  n{i} [label="{text}"];')
        for i, outs in enumerate(self.succ):
            lines.extend(f"  n{i} -> n{j};" for j in outs)
        lines.append("}")
        return "\n".join(lines)

    def stats_text(self) -> str:
        if not self.elements:
            return "elements=0"
        return (
            f"elements={len(self)} covers={sum(map(len, self.succ))} "
            f"minimal={len(self.minimal_elements())} "
            f"maximal={len(self.maximal_elements())} "
            f"rank_length={self.rank_length()} "
            f"rank_cardinality={self.rank_cardinality()} "
            f"pure={self.is_pure()}"
        )
