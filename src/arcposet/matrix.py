"""Symmetric nonnegative integral matrices and their crossing structure.

Houses the tautology functional r = p + q, the domination order, the
matrix families (base, k-noncrossing, tautology-bounded), and exact
enumeration of the bounded family.  The enumeration yields flat
upper-triangle keys, on which the hot layers run; ``SymmetricMatrix`` is
the validated boundary type of the API and the CLI.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from itertools import chain

from .crossing import check_search_depth, crossing_adjacency, is_k_noncrossing, masked_clique_exists
from .errors import InvalidArgumentError, ResourceLimitError, require_int


@dataclass(frozen=True)
class SymmetricMatrix:
    """Immutable symmetric matrix with nonnegative integer entries.

    Entry accessors are 1-indexed to match the usual matrix convention.
    """

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "rows", rows)
        m = len(rows)
        if m < 1:
            raise InvalidArgumentError("matrix order must be >= 1")
        for i, row in enumerate(rows):
            if len(row) != m:
                raise InvalidArgumentError(f"row {i + 1} has length {len(row)}, expected {m}")
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):
            for value in chain.from_iterable(rows):
                require_int(value, "matrix entry")
        if rows == tuple(zip(*rows)) and min(map(min, rows)) >= 0:
            return
        for i, row in enumerate(rows):  # find the first offending entry
            for j, value in enumerate(row):
                if value < 0:
                    raise InvalidArgumentError(f"negative entry at ({i + 1},{j + 1})")
                if value != rows[j][i]:
                    raise InvalidArgumentError(f"asymmetric at ({i + 1},{j + 1})")

    @classmethod
    def from_entries(cls, order: int, entries: Mapping[tuple[int, int], int]) -> "SymmetricMatrix":
        """Build from 1-indexed (i, j) -> value; symmetry is implied."""
        rows = [[0] * order for _ in range(order)]
        for (i, j), value in entries.items():
            rows[i - 1][j - 1] = value
            rows[j - 1][i - 1] = value
        return cls(rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def is_trivial(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def is_zero_one(self) -> bool:
        return all(v <= 1 for row in self.rows for v in row)

    def nonzero_positions(self) -> tuple[tuple[int, int], ...]:
        """Above-diagonal 1-indexed positions with a nonzero entry."""
        m = self.order
        return tuple(
            (i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if self.entry(i, j)
        )

    def key(self) -> str:
        m = self.order
        positions = triangle_positions(m)
        return key_text(m, positions, [self.entry(i, j) for i, j in positions])

    # -- JSON form: {"order": m, "rows": [[...], ...]} --

    def to_json(self) -> str:
        return json.dumps({"order": self.order, "rows": [list(row) for row in self.rows]})

    @classmethod
    def from_json(cls, text: str) -> "SymmetricMatrix":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"bad matrix JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.keys() != {"order", "rows"}:
            raise InvalidArgumentError("matrix JSON must have the fields 'order' and 'rows' and no other")
        require_int(payload["order"], "matrix JSON 'order'")
        rows = payload["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InvalidArgumentError("matrix JSON 'rows' must be a list of lists")
        if len(rows) != payload["order"]:
            raise InvalidArgumentError("row count does not match 'order'")
        for value in (v for row in rows for v in row):
            if type(value) is not int:  # not isinstance: JSON true/false are bools
                raise InvalidArgumentError(f"matrix entry {json.dumps(value)} is not an integer")
        return cls(rows)


# ---------------------------------------------------------------------------
# tautology functional


def p_value(matrix: SymmetricMatrix) -> int:
    """Parallel excess: sum over i < j of max(0, x_ij - 1)."""
    m = matrix.order
    return sum(
        max(0, matrix.entry(i, j) - 1) for i in range(1, m + 1) for j in range(i + 1, m + 1)
    )


def q_value(matrix: SymmetricMatrix) -> int:
    """Semi-diagonal sum: sum of x_{i,i+1}."""
    return sum(matrix.entry(i, i + 1) for i in range(1, matrix.order))


def entry_cost(i: int, j: int, value: int) -> int:
    """What the entry x_ij = value, i < j, spends of the tautology bound:
    its excess over 1, plus the value itself on the semi-diagonal j = i + 1,
    so a semi-diagonal value v costs 2v - 1.  The one statement of the rule:
    ``r_value``, the matrix search, D's insertions and family membership
    read it here."""
    return max(0, value - 1) + (value if j == i + 1 else 0)


def r_value(matrix: SymmetricMatrix) -> int:
    """The tautology number: ``entry_cost`` summed over the upper triangle,
    which is p + q."""
    m = matrix.order
    return sum(
        entry_cost(i, j, matrix.entry(i, j)) for i in range(1, m + 1) for j in range(i + 1, m + 1)
    )


def dominates(small: SymmetricMatrix, large: SymmetricMatrix) -> bool:
    """True iff same order and ``small`` <= ``large`` entrywise."""
    if small.order != large.order:
        return False
    return all(
        a <= b for row_a, row_b in zip(small.rows, large.rows) for a, b in zip(row_a, row_b)
    )


# ---------------------------------------------------------------------------
# families


def family_membership(
    matrix: SymmetricMatrix, family: str, m: int, k: int | None = None, r: int | None = None
) -> bool:
    """Membership in M_m ('M'), M_{m,k} ('Mk') or M^r_{m,k} ('Mr'): a
    non-trivial order-m matrix with zero diagonal and rainbow (1, m), at
    most r of tautology (``r_value``, the sum of ``entry_cost``), and
    k-noncrossing for 'Mk' and 'Mr'.  The base families 'M' and 'Mk' are
    the case r = 0.
    """
    if family not in ("M", "Mk", "Mr"):
        raise InvalidArgumentError(f"unknown matrix family {family!r}")
    if m < 4:
        raise InvalidArgumentError(f"family order m must be >= 4, got {m}")
    if family in ("Mk", "Mr"):
        if k is None or k < 1:
            raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if family == "Mr":
        if r is None or r < 0:
            raise InvalidArgumentError(f"r must be >= 0, got {r}")

    if matrix.order != m or matrix.is_trivial():
        return False
    if matrix.entry(1, m) or any(matrix.entry(i, i) for i in range(1, m + 1)):
        return False
    if r_value(matrix) > (r if family == "Mr" else 0):
        return False
    return family == "M" or is_k_noncrossing(matrix.nonzero_positions(), k)


@cache
def upper_positions(m: int) -> tuple[tuple[int, int], ...]:
    """Above-diagonal 1-indexed positions of an order-m family matrix, row by
    row, without the structurally zero rainbow (1, m)."""
    return tuple((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if (i, j) != (1, m))


@cache
def triangle_positions(m: int) -> tuple[tuple[int, int], ...]:
    """The 1-indexed positions (i, j) with i <= j of an order-m matrix, row
    by row: its whole upper triangle, diagonal included."""
    return tuple((i, j) for i in range(1, m + 1) for j in range(i, m + 1))


@cache
def _key_template(order: int, positions: tuple[tuple[int, int], ...]) -> str:
    """The ``str.format`` template of ``key_text``: each cell names the slot
    of its upper-triangle position in ``positions``, or reads 0."""
    slot = {pair: "{%d}" % t for t, pair in enumerate(positions)}
    cells = ((slot.get((min(i, j), max(i, j)), "0") for j in range(1, order + 1)) for i in range(1, order + 1))
    return ";".join(map(",".join, cells))


def key_text(order: int, positions: tuple[tuple[int, int], ...], key) -> str:
    """The key text of the order-``order`` symmetric matrix whose entries at
    the upper-triangle ``positions`` read ``key`` and whose other entries
    above or on the diagonal are 0: its rows, top to bottom, each as its
    entries joined by ',', joined by ';'.  The one statement of the matrix
    text format: ``SymmetricMatrix.key`` reads it over
    ``triangle_positions``, and a family key over ``upper_positions`` is
    named by it without building its matrix."""
    return _key_template(order, positions).format(*key)


def check_matrix_depth(m: int) -> None:
    """Refuse (:class:`ResourceLimitError`) a matrix search on order m,
    which recurses once per upper-triangle position, when it has more
    than ``SEARCH_DEPTH`` positions."""
    depth = m * (m - 1) // 2 - 1  # the rainbow (1, m) is no position
    check_search_depth(depth, f"a key of order {m} has {depth} positions")


def enumerate_matrix_keys(
    m: int, k: int, r: int, cap: int = 10_000_000
) -> list[tuple[int, ...]]:
    """The members of M^r_{m,k} as upper-triangle value tuples over
    ``upper_positions(m)``, in increasing order.

    Position by position, each is assigned 0 and then each value whose
    ``entry_cost`` fits the remaining budget, in increasing order up to
    the first that does not, so the search is exact, finite and lists the
    keys in order.  ``cap`` bounds the search nodes actually visited, and
    a value's cost is computed only once the search reaches the value
    before it, so a huge ``r`` builds nothing before the cap can refuse
    it.  More than ``SEARCH_DEPTH`` positions, one recursion each, are
    refused before anything is built.
    """
    if m < 4:
        raise InvalidArgumentError(f"m must be >= 4, got {m}")
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if r < 0:
        raise InvalidArgumentError(f"r must be >= 0, got {r}")
    check_matrix_depth(m)

    positions = upper_positions(m)
    adjacency = crossing_adjacency(positions)
    # each position's (value, cost) pairs from value 1 on, extended only
    # when the search has used the last one: the cost rises with the value,
    # so a list ends at most one pair past the values the search assigned
    priced = [[(1, entry_cost(i, j, 1))] for i, j in positions]
    keys: list[tuple[int, ...]] = []
    values = [0] * len(positions)
    nodes = 0

    def assign(index: int, budget: int, support: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise ResourceLimitError(f"matrix search exceeded {cap} nodes", bound=cap)
        if index == len(positions):
            if support:
                keys.append(tuple(values))
            return
        assign(index + 1, budget, support)  # a zero entry costs and crosses nothing
        choices = priced[index]
        # a nonzero entry must not complete k+1 mutually crossing entries
        if choices[0][1] > budget or masked_clique_exists(adjacency, support & adjacency[index], k):
            return
        support |= 1 << index
        # the loop also reads the pair appended as it runs
        for value, cost in choices:
            if cost > budget:
                break
            values[index] = value
            assign(index + 1, budget - cost, support)
            if value == len(choices):
                i, j = positions[index]
                choices.append((value + 1, entry_cost(i, j, value + 1)))
        values[index] = 0

    assign(0, r, 0)
    return keys


def matrices_from_keys(m: int, keys: list[tuple[int, ...]]) -> list[SymmetricMatrix]:
    """The order-m matrices with these upper-triangle value tuples over
    ``upper_positions(m)``."""
    # each cell's slot in (0, *key): the diagonal and the rainbow read 0
    slot = {pair: t + 1 for t, pair in enumerate(upper_positions(m))}
    cells = [[slot.get((min(i, j), max(i, j)), 0) for j in range(1, m + 1)] for i in range(1, m + 1)]
    padded = ((0, *key) for key in keys)
    return [SymmetricMatrix([[cell[c] for c in row] for row in cells]) for cell in padded]


def enumerate_matrices(
    m: int, k: int, r: int, cap: int = 10_000_000
) -> list[SymmetricMatrix]:
    """All members of M^r_{m,k}, canonically sorted: the matrices of
    ``enumerate_matrix_keys``, whose key order is the order of the rows,
    since the rows repeat earlier values."""
    return matrices_from_keys(m, enumerate_matrix_keys(m, k, r, cap))
