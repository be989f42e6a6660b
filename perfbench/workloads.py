"""The benchmark's workloads: their job lists, seeded random inputs and oracles.

A job is one ``arcposet`` command line, run in-process through
``arcposet.cli.run``.  Every ``verify`` grid and every ``--params`` is
written out here, never left to the library's defaults, so that growing a
default grid cannot silently change a workload.  ``<TMP>`` in an argv
stands for the pass's temporary directory.

Each job names the checks its output must pass (see ``checks.py``):
``golden`` compares stdout with the seed commit's stdout byte for byte,
and the others are oracles computed independently of the library.
"""

from __future__ import annotations

import random

WORKLOADS = ("regular-forms", "family-ranks", "spheres", "arc-complexes")

TMP = "<TMP>"


def _grid(points: list[tuple[int, ...]], names: str) -> str:
    return ";".join(",".join(f"{n}={v}" for n, v in zip(names, p)) for p in points)


def _verify(check: str, grid: str, *extra: str) -> dict:
    return {"argv": ["verify", "--check", check, "--grid", grid], "checks": ["golden", *extra]}


# The default beta/thm12 grid at the seed commit is f in (3, 4, 5), k in
# (1, 2) with f >= 2k, r in (0, 1, 2).  Its points f=5,k=2,r in (1, 2)
# take 8 s and 50 s alone for beta, far beyond a pass of a few seconds, so
# both checks leave them out.  To keep a pass near 2.5 s, beta also leaves
# out f=4,k=2,r=2 and every f=5 point (0.1 to 1 s each), and thm12 leaves
# out f=5,k=1,r=2 (0.9 s).
_BETA_POINTS = (
    [(3, 1, r) for r in range(3)]
    + [(4, 1, r) for r in range(3)]
    + [(4, 2, 0), (4, 2, 1)]
)
_THM12_POINTS = (
    [(3, 1, r) for r in range(3)]
    + [(4, k, r) for k in (1, 2) for r in range(3)]
    + [(5, 1, 0), (5, 1, 1), (5, 2, 0)]
)
_RHO_POINTS = [(3, k, r) for k in (1, 2) for r in (0, 1)]  # the seed's default grid


def _regular_forms(rng: random.Random, tiny: bool) -> list[dict]:
    if tiny:
        jobs = [
            _verify("beta", "f=3,k=1,r=1"),
            _verify("realize-roundtrip", "m=4,k=1,r=1"),
            _verify("regular-unique", "n=6"),
        ]
        count = 3
    else:
        jobs = [
            _verify("beta", _grid(_BETA_POINTS, "fkr")),
            _verify("realize-roundtrip", "m=5,k=2,r=2"),
            _verify("regular-unique", "n=10"),
        ]
        count = 100
    for _ in range(count):
        jobs.append({"argv": ["canonicalize", random_proper_diagram(rng)], "checks": ["canonical"]})
    return jobs


def _family_ranks(tiny: bool) -> list[dict]:
    if tiny:
        thm12, m_params, d_params, rho = [(3, 1, 1)], (4, 1, 1), "f=3,k=1,r=0", [(3, 1, 0)]
    else:
        thm12, m_params, d_params, rho = _THM12_POINTS, (6, 2, 0), "f=3,k=1,r=2", _RHO_POINTS
    m, k, r = m_params
    return [
        _verify("thm12", _grid(thm12, "fkr"), "thm12-rank"),
        {
            "argv": ["poset", "--family", "M", "--params", f"m={m},k={k},r={r}", "--stats"],
            "checks": ["golden", "m-rank"],
        },
        {"argv": ["poset", "--family", "D", "--params", d_params, "--stats"], "checks": ["golden"]},
        _verify("rho", _grid(rho, "fkr")),
    ]


def _spheres(tiny: bool) -> list[dict]:
    # T(m,k) has no free face, so collapse removes nothing and every face
    # reaches Smith normal form; one point per k = 1, 2, 3.
    points = [(7, 1), (8, 2), (9, 3)] if tiny else [(9, 1), (9, 2), (10, 3)]
    jobs = []
    for m, k in points:
        path = f"{TMP}/T{m}_{k}.txt"
        jobs.append(
            {
                "argv": ["complex", "--T", str(m), str(k), "--facets", path],
                "checks": ["golden", "t-facets"],
                "T": (m, k),
            }
        )
        jobs.append({"argv": ["homology", "--facets", path], "checks": ["golden", "t-sphere"], "T": (m, k)})
    return jobs


def _arc_complexes(tiny: bool) -> list[dict]:
    # The noncrossing arc complexes have many free faces: collapse does real
    # work here and Smith normal form gets what is left.
    if tiny:
        return [_verify("thm11", "f=5,k=2"), _verify("join", "m=6,k=2")]
    return [_verify("thm11", "f=6,k=2;f=6,k=3"), _verify("join", "m=7,k=2;m=7,k=3")]


def jobs(workload: str, seed: int, tmp: str, tiny: bool = False) -> list[dict]:
    """The workload's jobs for ``seed``, with ``<TMP>`` replaced by ``tmp``.

    The same workload, seed and ``tiny`` flag always give the same jobs.
    """
    if workload == "regular-forms":
        listed = _regular_forms(random.Random(seed), tiny)
    elif workload == "family-ranks":
        listed = _family_ranks(tiny)
    elif workload == "spheres":
        listed = _spheres(tiny)
    elif workload == "arc-complexes":
        listed = _arc_complexes(tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    for job in listed:
        job["key"] = " ".join(job["argv"])
        job["argv"] = [arg.replace(TMP, tmp) for arg in job["argv"]]
    return listed


def random_proper_diagram(rng: random.Random, free: int = 5) -> str:
    """Text of a random proper diagram with ``free`` free sites.

    The free+1 blocks between the free sites get 2 to 5 sites each (about
    26 sites in all), and the non-free sites are matched at random so that
    every arc joins two different blocks but never the first and the last
    one.  That makes the diagram binary, every arc covers a free site, and
    none covers all of them: the diagram is proper, and typically rich in
    crossings.
    """
    while True:
        sizes = [rng.randint(2, 5) for _ in range(free + 1)]
        if sum(sizes) % 2:
            continue
        block_of: dict[int, int] = {}
        site = 0
        for block, size in enumerate(sizes):
            for _ in range(size):
                site += 1
                block_of[site] = block
            site += 1  # the free site after this block (none after the last)
        length = site - 1
        remaining = sorted(block_of)
        rng.shuffle(remaining)
        arcs = []
        while remaining:
            a = remaining.pop()
            partners = [
                s
                for s in remaining
                if block_of[s] != block_of[a] and {block_of[s], block_of[a]} != {0, free}
            ]
            if not partners:
                break
            b = rng.choice(partners)
            remaining.remove(b)
            arcs.append((min(a, b), max(a, b)))
        if not remaining:
            return f"n={length}; arcs=" + ",".join(f"({a},{b})" for a, b in sorted(arcs))
