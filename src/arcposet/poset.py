"""Finite posets held as cover digraphs.

Elements are kept in a canonical order, that of their ``element_key``
texts, with the upper covers of each.  A poset is put together from the
texts and the covers, and its elements are made on first read, so a
family read only for its size, rank and purity never builds them.  The
order itself is read from one up-set per element, a Python-int bitmask
built lazily from the covers, and capped.  Provides chains and purity,
covers, intervals, bottom adjunction, direct products, order-map
classification, and DOT/stats export.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Mapping
from functools import cached_property

from .errors import InvalidArgumentError, InvariantError, ResourceLimitError

# largest up-set table (n bitmasks of ceil(n/8) bytes) a poset will build
LEQ_BYTE_CAP = 1 << 28


def mask_bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _through(up: list[int], i: int) -> int:
    """Bitmask of the elements two strict steps above element ``i``."""
    reach = 0
    for k in mask_bits(up[i] & ~(1 << i)):
        reach |= up[k] & ~(1 << k)
    return reach


def _covers_from_up_sets(up: list[int]) -> list[list[int]]:
    """Upper covers of each element of the partial order with up-sets ``up``."""
    return [list(mask_bits(mask & ~(1 << i) & ~_through(up, i))) for i, mask in enumerate(up)]


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


def plus_one_covers(masks: list[int]) -> list[list[int]]:
    """Cover digraph of distinct nonempty sets (bitmasks) under inclusion: a
    set is covered by the members one element larger, as each set less one
    element is a member or empty (else :class:`InvariantError`)."""
    index = {mask: t for t, mask in enumerate(masks)}
    covers: list[list[int]] = [[] for _ in masks]
    for t, mask in enumerate(masks):
        rest = mask if mask & (mask - 1) else 0  # one element less is empty
        while rest:
            bit = rest & -rest
            rest ^= bit
            if mask ^ bit not in index:
                raise InvariantError(f"family not closed under one-element removal: {mask:#b} lacks {mask ^ bit:#b}")
            covers[index[mask ^ bit]].append(t)
    return covers


def chain_stats_from_covers(succ: list[list[int]]) -> tuple[int, bool]:
    """(rank_length, pure) of the poset whose cover digraph is ``succ``.

    One walk in topological order carries each element's shortest and
    longest cover paths down to a source.  Pure means every maximal chain
    has the same length, which holds exactly when the two agree at every
    element and every sink sits at the same height: then each cover raises
    a well-defined rank by one, and every maximal chain, a cover path from
    a source to a sink, runs from rank 0 to that one height.
    """
    if not succ:
        raise InvalidArgumentError("empty poset has no rank")
    n = len(succ)
    low, high = [n] * n, [0] * n  # low n: no cover path has reached it yet
    for i in topological_order(succ):
        if low[i] == n:
            low[i] = 0  # all its predecessors came first, so it has none
        lo, hi = low[i] + 1, high[i] + 1
        for j in succ[i]:
            if lo < low[j]:
                low[j] = lo
            if hi > high[j]:
                high[j] = hi
    heights = {h for h, outs in zip(high, succ) if not outs}
    return max(heights), low == high and len(heights) == 1


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

    The order is given as ``covers``: per element, the indices (into
    ``elements``) of the elements covering it.  With ``validate``, the
    covers are checked for acyclicity and irredundancy, with a witness in
    the error message.  ``up_sets`` holds, per element, the bitmask of the
    elements above it; it is built from the covers on first use and
    refused above ``LEQ_BYTE_CAP`` bytes.

    Every poset is put together by one routine, from each member's sort
    text, its covers and a way to make the members (``from_texts``); the
    constructor reads the texts off the elements it is given.  The
    elements are held in the order of their texts, and built, with their
    index, on the first read of ``elements``: size, covers, purity and the
    stats line read the covers alone, and DOT export the sorted texts.
    """

    def __init__(self, elements: Iterable, covers, *, validate: bool = True):
        supplied = list(elements)
        self._arrange([element_key(e) for e in supplied], covers, lambda order: map(supplied.__getitem__, order))
        if len(self._index) != len(self):
            raise InvalidArgumentError("duplicate elements")
        if validate:
            self._validate_covers()

    @classmethod
    def from_texts(cls, texts: list[str], covers, make: Callable[[list[int]], Iterable]) -> "FinitePoset":
        """The poset whose member t has the sort text ``texts[t]``, which
        must be its ``element_key``, and the upper covers ``covers[t]``,
        taken as given.  ``make`` maps a list of member indices to those
        members, in that order; it is called on the first read of
        ``elements``."""
        poset = cls.__new__(cls)
        poset._arrange(texts, covers, make)
        return poset

    def _arrange(self, texts: list[str], covers, make) -> None:
        n = len(texts)
        if len(covers) != n:
            raise InvalidArgumentError(f"{len(covers)} cover lists for {n} elements")
        permutation = sorted(range(n), key=texts.__getitem__)
        self._texts = [texts[i] for i in permutation]
        position = dict(zip(permutation, range(n)))
        # upper covers of each element, as sorted canonical indices
        self.succ = [sorted({position[j] for j in covers[i]}) for i in permutation]
        self._make = lambda: tuple(make(permutation))

    @cached_property
    def elements(self) -> tuple:
        """The members, in the order of their ``element_key`` texts."""
        elements = self._make()
        del self._make  # what it holds is no longer needed
        return elements

    @cached_property
    def _index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def _validate_covers(self) -> None:
        up = self.up_sets  # topological_order raises on a cycle
        for i, outs in enumerate(self.succ):
            through = _through(up, i)
            for j in outs:
                if through >> j & 1:
                    raise InvalidArgumentError(
                        f"not a cover: {self.elements[i]!r} < {self.elements[j]!r} "
                        "passes through another element"
                    )

    @cached_property
    def up_sets(self) -> list[int]:
        """Per element i, the bitmask of the elements j with i <= j."""
        n = len(self)
        if n * ((n + 7) // 8) > LEQ_BYTE_CAP:
            message = f"{n} up-sets of {n} bits exceed {LEQ_BYTE_CAP} bytes"
            raise ResourceLimitError(message, bound=LEQ_BYTE_CAP)
        up = [0] * n
        for i in reversed(topological_order(self.succ)):  # each after all above it
            mask = 1 << i
            for j in self.succ[i]:
                mask |= up[j]
            up[i] = mask
        return up

    @cached_property
    def _chain_stats(self) -> tuple[int, bool]:
        return chain_stats_from_covers(self.succ)

    # -- basic queries --

    def __len__(self) -> int:
        return len(self.succ)

    def __contains__(self, element) -> bool:
        return element in self._index

    def index(self, element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise InvalidArgumentError(f"{element!r} is not an element") from None

    def leq(self, a, b) -> bool:
        return bool(self.up_sets[self.index(a)] >> self.index(b) & 1)

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
        return not self.succ or self._chain_stats[1]

    # -- derived posets --

    def restrict(self, elements: Iterable) -> "FinitePoset":
        """Sub-poset on ``elements``, with the order induced from this one."""
        chosen = sorted(self.index(e) for e in elements)
        position = {old: new for new, old in enumerate(chosen)}
        up = [
            sum(1 << position[j] for j in mask_bits(self.up_sets[i]) if j in position)
            for i in chosen
        ]
        covers = _covers_from_up_sets(up)
        return FinitePoset([self.elements[i] for i in chosen], covers=covers, validate=False)

    def open_interval_above(self, element) -> "FinitePoset":
        """Sub-poset of elements strictly greater than ``element``."""
        i = self.index(element)
        return self.restrict(self.elements[j] for j in mask_bits(self.up_sets[i] & ~(1 << i)))

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

    # -- order maps --

    def check_order_map(self, other: "FinitePoset", mapping: Mapping | Callable) -> str:
        """Classify a map into ``other`` as 'isomorphism', 'homomorphism'
        (order-preserving) or 'neither'.  A map preserves order iff it
        preserves every cover; a bijection reflects it iff its inverse
        preserves every cover of ``other``."""
        if callable(mapping):
            images = [mapping(e) for e in self.elements]
        else:
            images = [mapping[e] for e in self.elements]
        targets = []
        for e, image in zip(self.elements, images):
            if image not in other:
                raise InvalidArgumentError(f"image of {e!r} is not in the codomain")
            targets.append(other.index(image))
        image_up = other.up_sets
        if not all(
            image_up[targets[i]] >> targets[j] & 1 for i, js in enumerate(self.succ) for j in js
        ):
            return "neither"
        if not len(set(targets)) == len(other) == len(self):
            return "homomorphism"
        source = {t: i for i, t in enumerate(targets)}
        up = self.up_sets
        if all(up[source[t]] >> source[u] & 1 for t, us in enumerate(other.succ) for u in us):
            return "isomorphism"
        return "homomorphism"

    # -- export --

    def to_dot(self, name: str = "poset") -> str:
        """Graphviz digraph of the cover relation (edges point upward),
        each node labelled by its element's ``element_key``, the text the
        poset was sorted by; no member is built."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, text in enumerate(self._texts):
            text = text.replace('"', '\\"')
            lines.append(f'  n{i} [label="{text}"];')
        for i, outs in enumerate(self.succ):
            lines.extend(f"  n{i} -> n{j};" for j in outs)
        lines.append("}")
        return "\n".join(lines)

    def stats_text(self) -> str:
        if not self.succ:
            return "elements=0"
        return (
            f"elements={len(self)} covers={sum(map(len, self.succ))} "
            f"minimal={len(self._minimal_indices())} "
            f"maximal={self.succ.count([])} "
            f"rank_length={self.rank_length()} "
            f"rank_cardinality={self.rank_cardinality()} "
            f"pure={self.is_pure()}"
        )
