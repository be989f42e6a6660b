"""Exact Smith normal form of sparse integer matrices.

Two phases: a sparse elimination that only ever pivots on +-1 entries
(choosing low-fill pivots), followed by the classical dense algorithm on
whatever residue is left.  The sparse phase does its work on the full
boundary matrices of ``reduced_homology(..., collapse=False)``; on the
collapse path, coreduction usually leaves Smith normal form no entries.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping


def invariant_factors(entries: Mapping[tuple[int, int], int], nrows: int, ncols: int) -> list[int]:
    """Nonzero diagonal of the Smith normal form, as positive integers with
    each dividing the next.  ``entries`` maps (row, col) to a value."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v

    unit_rank = _unit_pivot_phase(rows, cols)

    if not rows:
        return [1] * unit_rank

    row_ids = sorted(rows)
    col_ids = sorted(cols)
    col_pos = {j: t for t, j in enumerate(col_ids)}
    dense = [[0] * len(col_ids) for _ in row_ids]
    for t, i in enumerate(row_ids):
        for j, v in rows[i].items():
            dense[t][col_pos[j]] = v
    residue = _dense_invariant_factors(dense)
    return [1] * unit_rank + residue


def _unit_pivot_phase(rows: dict[int, dict[int, int]], cols: dict[int, dict[int, int]]) -> int:
    """Eliminate with +-1 pivots chosen from the sparsest columns; returns
    the number of pivots taken.  Mutates rows/cols down to the residue."""
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        degree, q = heapq.heappop(heap)
        col = cols.get(q)
        if col is None:
            continue
        if len(col) != degree:
            heapq.heappush(heap, (len(col), q))
            continue
        # sparsest-row unit entry of this column, if any
        pivot_row = None
        for i, v in col.items():
            if v in (1, -1) and (pivot_row is None or len(rows[i]) < len(rows[pivot_row])):
                pivot_row = i
        if pivot_row is None:
            continue  # no unit here; the dense phase will deal with it
        p = pivot_row
        sign = col[p]
        pivot_entries = rows[p]
        # clear the column with row operations
        for i in list(col):
            if i == p:
                continue
            factor = rows[i][q] * sign
            target = rows[i]
            for j, v in pivot_entries.items():
                updated = target.get(j, 0) - factor * v
                if updated:
                    target[j] = updated
                    cols[j][i] = updated
                else:
                    target.pop(j, None)
                    cols[j].pop(i, None)
            if not target:
                del rows[i]
        # the pivot row and column now only meet at the unit; drop them
        for j in pivot_entries:
            column = cols[j]
            column.pop(p, None)
            if not column:
                del cols[j]
            elif j != q:
                heapq.heappush(heap, (len(column), j))
        del rows[p]
        cols.pop(q, None)
        pivots += 1
    return pivots


def _dense_invariant_factors(a: list[list[int]]) -> list[int]:
    """Classical Smith reduction by repeated smallest-pivot elimination."""
    m = len(a)
    n = len(a[0]) if a else 0
    factors: list[int] = []
    top = 0
    while True:
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                v = a[i][j]
                if v and (pivot is None or abs(v) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        p = a[top][top]
        dirty = False
        for i in range(top + 1, m):
            if a[i][top]:
                q = a[i][top] // p
                for j in range(top, n):
                    a[i][j] -= q * a[top][j]
                if a[i][top]:
                    dirty = True
        for j in range(top + 1, n):
            if a[top][j]:
                q = a[top][j] // p
                for i in range(top, m):
                    a[i][j] -= q * a[i][top]
                if a[top][j]:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; re-select the pivot
        # enforce divisibility of the remaining block
        offender = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, n):
                a[top][j] += a[offender][j]
            continue
        factors.append(abs(p))
        top += 1
    return factors
