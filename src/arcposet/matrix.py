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

from .crossing import crossing_adjacency, is_k_noncrossing, masked_clique_exists
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
        return ";".join([",".join(map(str, row)) for row in self.rows])

    # -- JSON form: {"order": m, "rows": [[...], ...]} --

    def to_json(self) -> str:
        return json.dumps({"order": self.order, "rows": [list(row) for row in self.rows]})

    @classmethod
    def from_json(cls, text: str) -> "SymmetricMatrix":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"bad matrix JSON: {exc}") from exc
        if not isinstance(payload, dict) or "order" not in payload or "rows" not in payload:
            raise InvalidArgumentError("matrix JSON must have 'order' and 'rows'")
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


def r_value(matrix: SymmetricMatrix) -> int:
    return p_value(matrix) + q_value(matrix)


def dominates(small: SymmetricMatrix, large: SymmetricMatrix) -> bool:
    """True iff same order and ``small`` <= ``large`` entrywise."""
    if small.order != large.order:
        return False
    return all(
        a <= b for row_a, row_b in zip(small.rows, large.rows) for a, b in zip(row_a, row_b)
    )


# ---------------------------------------------------------------------------
# families


def _structural_zeros_ok(matrix: SymmetricMatrix, *, semi_diagonal: bool) -> bool:
    m = matrix.order
    if any(matrix.entry(i, i) for i in range(1, m + 1)):
        return False
    if matrix.entry(1, m):
        return False
    if semi_diagonal and q_value(matrix):
        return False
    return True


def family_membership(
    matrix: SymmetricMatrix, family: str, m: int, k: int | None = None, r: int | None = None
) -> bool:
    """Membership in M_m ('M'), M_{m,k} ('Mk') or M^r_{m,k} ('Mr').

    'M'  : non-trivial (0,1), zero diagonal/semi-diagonal/rainbow.
    'Mk' : additionally k-noncrossing.
    'Mr' : non-trivial nonnegative integral, k-noncrossing, r-bounded
           tautology, zero diagonal and rainbow (semi-diagonals allowed).
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
    if family in ("M", "Mk"):
        if not matrix.is_zero_one() or not _structural_zeros_ok(matrix, semi_diagonal=True):
            return False
        return family == "M" or is_k_noncrossing(matrix.nonzero_positions(), k)
    if not _structural_zeros_ok(matrix, semi_diagonal=False):
        return False
    return r_value(matrix) <= r and is_k_noncrossing(matrix.nonzero_positions(), k)


@cache
def upper_positions(m: int) -> tuple[tuple[int, int], ...]:
    """Above-diagonal 1-indexed positions of an order-m family matrix, row by
    row, without the structurally zero rainbow (1, m)."""
    return tuple((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if (i, j) != (1, m))


def enumerate_matrix_keys(
    m: int, k: int, r: int, cap: int = 10_000_000
) -> list[tuple[int, ...]]:
    """The members of M^r_{m,k} as upper-triangle value tuples over
    ``upper_positions(m)``, sorted.

    Every admissible position is assigned a value whose tautology cost
    (semi-diagonal units plus excess over 1) fits the remaining budget,
    so the search is exact and finite.  ``cap`` bounds the search nodes
    actually visited.
    """
    if m < 4:
        raise InvalidArgumentError(f"m must be >= 4, got {m}")
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if r < 0:
        raise InvalidArgumentError(f"r must be >= 0, got {r}")

    positions = upper_positions(m)
    adjacency = crossing_adjacency(positions)
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
        i, j = positions[index]
        semi = j == i + 1
        value = 0
        while True:
            cost = (value if semi else 0) + max(0, value - 1)
            if cost > budget:
                break
            if value == 0:
                values[index] = 0
                assign(index + 1, budget, support)
            elif not masked_clique_exists(adjacency, support & adjacency[index], k):
                # nonzero entry must not complete k+1 mutually crossing entries
                values[index] = value
                assign(index + 1, budget - cost, support | (1 << index))
                values[index] = 0
            else:
                break
            value += 1

    assign(0, r, 0)
    keys.sort()
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
