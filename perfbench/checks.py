"""The output gate: every job's output is checked after its pass, untimed.

``golden`` compares stdout, with the temporary directory written as
``<TMP>``, to the seed commit's stdout in ``golden.json``.  The oracles
re-derive an answer without the library: the paper's rank formula for the
matrix families, the Catalan determinant for the facet count of T(m,k)
and its sphere dimension, and, for random ``canonicalize`` inputs, a
block matrix and regularity test written here from the definitions.
"""

from __future__ import annotations

import re
from math import comb
from pathlib import Path

from workloads import TMP


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


def t_facet_count(m: int, k: int) -> int:
    """Facets of the multitriangulation complex T(m,k): det[C_{m-i-j}], 1 <= i,j <= k."""
    return _det([[catalan(m - i - j) for j in range(1, k + 1)] for i in range(1, k + 1)])


def t_sphere_dim(m: int, k: int) -> int:
    return k * (m - 2 * k - 1) - 1


def family_rank(f: int, k: int, r: int) -> int:
    """Rank cardinality of the tautology-bounded family M(f+1, k, r)."""
    return k * (2 * f - 2 * k + 1) + r - f - 1


# ---------------------------------------------------------------------------
# independent diagram predicates for the random canonicalize jobs

_DIAGRAM_RE = re.compile(r"^n=(\d+); arcs=((?:\(\d+,\d+\),)*\(\d+,\d+\))$")


def _parse_diagram(text: str) -> tuple[int, list[tuple[int, int]]] | None:
    match = _DIAGRAM_RE.match(text)
    if match is None:
        return None
    arcs = [tuple(map(int, pair)) for pair in re.findall(r"\((\d+),(\d+)\)", match.group(2))]
    return int(match.group(1)), arcs


def _block_index(length: int, arcs) -> dict[int, int]:
    """Block number of every non-free site (blocks are split by free sites)."""
    used = {s for arc in arcs for s in arc}
    index, block = {}, 0
    for site in range(1, length + 1):
        if site in used:
            index[site] = block
        else:
            block += 1
    return index


def _block_matrix(length: int, arcs) -> dict[tuple[int, int], int]:
    index = _block_index(length, arcs)
    counts: dict[tuple[int, int], int] = {}
    for a, b in arcs:
        pair = tuple(sorted((index[a], index[b])))
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def _is_regular(length: int, arcs) -> bool:
    """Binary and no two crossing arcs with endpoints in a common block."""
    ends = [s for arc in arcs for s in arc]
    if len(ends) != len(set(ends)):
        return False
    index = _block_index(length, arcs)
    for t, (a, b) in enumerate(arcs):
        for c, d in arcs[t + 1 :]:
            if (a < c < b < d or c < a < d < b) and {index[a], index[b]} & {index[c], index[d]}:
                return False
    return True


def _check_canonical(job, stdout):
    given = _parse_diagram(job["argv"][1])
    lines = stdout.splitlines()
    got = _parse_diagram(lines[0]) if len(lines) == 1 else None
    if got is None:
        return "output is not one diagram"
    if got[0] != given[0] or _block_matrix(*got) != _block_matrix(*given):
        return "output changes the length or the block matrix"
    if not _is_regular(*got):
        return "output is not regular"
    # idempotence can only be asked of the library itself
    from arcposet.diagram import parse
    from arcposet.transform import canonicalize

    if canonicalize(parse(lines[0])) != parse(lines[0]):
        return "output is not a fixed point of canonicalize"
    return None


def _params(text: str) -> dict[str, int]:
    return {name: int(value) for name, value in (part.split("=") for part in text.split(","))}


def _check_thm12_rank(job, stdout):
    points = job["argv"][job["argv"].index("--grid") + 1].split(";")
    for point in points:
        p = _params(point)
        expected = family_rank(p["f"], p["k"], p["r"])
        pattern = re.escape(f"thm12[{point}]: pass -- ") + r"size \d+, rank_cardinality (\d+) .*pure True$"
        match = re.search(pattern, stdout, re.M)
        if match is None or int(match.group(1)) != expected:
            return f"thm12 rank at {point} is not {expected}"
    return None


def _check_m_rank(job, stdout):
    p = _params(job["argv"][job["argv"].index("--params") + 1])
    expected = family_rank(p["m"] - 1, p["k"], p["r"])
    if f"rank_cardinality={expected} pure=True" not in stdout:
        return f"M rank cardinality is not {expected}"
    return None


def _check_t_facets(job, stdout):
    m, k = job["T"]
    expected = t_facet_count(m, k)
    path = job["argv"][-1]
    if stdout != f"{expected} facets written to {path}\n":
        return f"T({m},{k}) should report {expected} facets"
    facets = [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
    size = t_sphere_dim(m, k) + 1
    if len(facets) != expected or any(len(line.split(",")) != size for line in facets):
        return f"T({m},{k}) facet file should hold {expected} facets of {size} diagonals"
    return None


def _check_t_sphere(job, stdout):
    m, k = job["T"]
    if stdout != f"H~_{t_sphere_dim(m, k)} = Z\n":
        return f"T({m},{k}) should have the homology of a {t_sphere_dim(m, k)}-sphere"
    return None


ORACLES = {
    "canonical": _check_canonical,
    "thm12-rank": _check_thm12_rank,
    "m-rank": _check_m_rank,
    "t-facets": _check_t_facets,
    "t-sphere": _check_t_sphere,
}


def check_job(job: dict, outcome: dict, tmp: str, golden: dict[str, str]) -> str | None:
    """Why the job failed, or None when it exited 0 and passed every check."""
    if outcome["error"]:
        return "raised " + outcome["error"].strip().splitlines()[-1]
    if outcome["rc"] != 0:
        return f"exit code {outcome['rc']}: {outcome['stderr'].strip()}"
    stdout = outcome["stdout"]
    for name in job["checks"]:
        if name == "golden":
            expected = golden.get(job["key"])
            if expected is None:
                return "no golden output recorded"
            if stdout.replace(tmp, TMP) != expected:
                return "stdout differs from the golden output"
        else:
            reason = ORACLES[name](job, stdout)
            if reason:
                return reason
    return None
