"""Exact Smith normal form of sparse integer matrices, by one sparse
elimination after Dumas, Saunders and Villard (J. Symbolic Comput. 32,
2001): columns are taken sparsest first, each pivots on its entry of least
absolute value (in the sparsest row on ties), and Euclid steps in place
shrink the pivot until it is alone in its row and its column.  On the
boundary matrices of ``reduced_homology(..., collapse=False)`` nearly
every pivot is a unit; on the collapse path, coreduction usually leaves
Smith normal form no entries.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from math import gcd


def invariant_factors(entries: Mapping[tuple[int, int], int], nrows: int, ncols: int) -> list[int]:
    """Nonzero diagonal of the Smith normal form, as positive integers with
    each dividing the next.  ``entries`` maps (row, col) to a value; it is
    left unchanged."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
    # columns by size; each size change pushes the new size, so an entry
    # whose size is out of date is passed over
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    pivots: list[int] = []
    while heap:
        degree, q = heapq.heappop(heap)
        col = cols.get(q)
        if col is None or len(col) != degree:
            continue
        p = min(col, key=lambda i: (abs(col[i]), len(rows[i])))
        while True:
            # row operations leave each other entry of the column its
            # remainder modulo the pivot; the least remainder pivots next
            while len(col) > 1:
                pivot = col[p]
                pivot_entries = rows[p]
                for i in [i for i in col if i != p]:
                    target = rows[i]
                    factor = target[q] // pivot
                    for j, v in pivot_entries.items():
                        updated = target.get(j, 0) - factor * v
                        if updated:
                            target[j] = cols[j][i] = updated
                        else:
                            target.pop(j, None)
                            cols[j].pop(i, None)
                    if not target:
                        del rows[i]
                if len(col) > 1:
                    for j in pivot_entries:
                        heapq.heappush(heap, (len(cols[j]), j))
                    p = min(col, key=lambda i: (abs(col[i]), len(rows[i])))
            # the pivot is alone in its column, so column operations touch
            # only its row: reduce the rest of the row modulo the pivot
            pivot = col[p]
            kept = {q: pivot}
            for j, v in rows[p].items():
                if j == q:
                    continue
                column = cols[j]
                rest = v % pivot
                if rest:
                    kept[j] = column[p] = rest
                else:
                    del column[p]
                    if not column:
                        del cols[j]
                        continue
                heapq.heappush(heap, (len(column), j))
            rows[p] = kept
            if len(kept) == 1:
                break
            # a remainder is left in the row: it pivots in its own column
            q = min((j for j in kept if j != q), key=lambda j: abs(kept[j]))
            col = cols[q]
        del rows[p], cols[q]
        pivots.append(abs(pivot))
    # diag(x, y) is equivalent to diag(gcd, lcm): make a divisibility chain
    chain = [x for x in pivots if x > 1]
    for s in range(len(chain)):
        for t in range(s + 1, len(chain)):
            g = gcd(chain[s], chain[t])
            chain[s], chain[t] = g, chain[s] // g * chain[t]
    return [1] * (len(pivots) - len(chain)) + chain
