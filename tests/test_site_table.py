"""The site table and the flat swap layer against their definitions.

Every predicate that reads ``site_table`` is compared with a form written
here from the definitions: free sites as the sites no arc touches, block
indices by scanning the runs between free sites, local crossings by a
shared block, and swaps at the legal swap sites and swap orbits on ``Diagram``
objects.  The comparison runs on every binary diagram of length at most 9
and on drawn crossing-rich proper diagrams of about 26 sites.  The proper
matching search and its fiber keys are compared with the binary scan
filtered by ``is_proper`` and keyed by block-pair counts.
"""

from collections import Counter, deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from arcposet.crossing import pairs_cross
from arcposet.diagram import (
    MULTI,
    Diagram,
    block_list,
    block_matrix,
    block_pair_counts,
    free_sites,
    is_binary,
    is_proper,
    is_regular,
    local_crossing_count,
    site_table,
)
from arcposet.errors import ResourceLimitError
from arcposet.families import enumerate_binary_diagrams, enumerate_proper_diagrams, proper_matchings
from arcposet.transform import swap, swap_orbit

# ---------------------------------------------------------------------------
# the definitions


def free_by_set(d):
    used = {s for arc in d.arcs for s in arc}
    return tuple(s for s in range(1, d.length + 1) if s not in used)


def block_by_scan(d, site):
    """1-based index of the run of non-free sites between consecutive free
    sites (sentinels 0 and n+1) that holds ``site``."""
    bounds = (0, *free_by_set(d), d.length + 1)
    for i in range(len(bounds) - 1):
        if bounds[i] < site < bounds[i + 1]:
            return i + 1
    raise AssertionError(f"site {site} is free")


def binary_by_definition(d):
    ends = [s for arc in d.arcs for s in arc]
    return bool(d.arcs) and len(ends) == len(set(ends))


def proper_by_definition(d):
    free = free_by_set(d)
    return binary_by_definition(d) and all(
        0 < sum(a < u < b for u in free) < len(free) for a, b in d.arcs
    )


def local_crossings_by_definition(d):
    return sum(
        1
        for e1, e2 in combinations(d.arcs, 2)
        if pairs_cross(e1, e2)
        and {block_by_scan(d, s) for s in e1} & {block_by_scan(d, s) for s in e2}
    )


def legal_sites_by_definition(d):
    return tuple(s for s in range(1, d.length) if d.supports(s) and d.supports(s + 1))


def swap_by_definition(d, site):
    (e1,) = d.supports(site)
    (e2,) = d.supports(site + 1)
    r1 = e1[0] if e1[1] == site else e1[1]
    r2 = e2[0] if e2[1] == site + 1 else e2[1]
    arcs = [e for e in d.arcs if e not in (e1, e2)]
    arcs += [tuple(sorted((site, r2))), tuple(sorted((site + 1, r1)))]
    return Diagram(d.length, arcs)


def orbit_by_definition(d, cap):
    """The swap orbit of ``d``, or None once it exceeds ``cap`` diagrams."""
    seen, queue = {d}, deque([d])
    while queue:
        current = queue.popleft()
        for site in legal_sites_by_definition(current):
            neighbour = swap_by_definition(current, site)
            if neighbour not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(neighbour)
                queue.append(neighbour)
    return seen


# ---------------------------------------------------------------------------
# the comparisons


def assert_table_predicates(d):
    free = free_by_set(d)
    table = site_table(d.length, d.arcs)
    assert table.free_count == len(free)
    for s in range(1, d.length + 1):
        supported = d.supports(s)
        if not supported:
            assert table.partner[s] == 0
        elif len(supported) > 1:
            assert table.partner[s] == MULTI
        else:
            (arc,) = supported
            assert table.partner[s] == (arc[1] if arc[0] == s else arc[0])
            assert table.block[s] == block_by_scan(d, s)
    assert free_sites(d) == free
    assert is_binary(d) == binary_by_definition(d)
    assert is_proper(d) == proper_by_definition(d)
    blocks = block_list(d)
    assert len(blocks) == len(free) + 1
    assert all(block_by_scan(d, s) == i for i, block in enumerate(blocks, 1) for s in block)
    assert sorted(s for block in blocks for s in block) == [
        s for s in range(1, d.length + 1) if s not in free
    ]
    expected = Counter(tuple(sorted((block_by_scan(d, a), block_by_scan(d, b)))) for a, b in d.arcs)
    matrix = block_matrix(d)
    assert matrix.order == len(free) + 1
    assert {
        (i, j): matrix.entry(i, j)
        for i in range(1, matrix.order + 1)
        for j in range(i, matrix.order + 1)
        if matrix.entry(i, j)
    } == dict(expected)
    local = local_crossings_by_definition(d)
    assert local_crossing_count(d) == local
    assert is_regular(d) == (binary_by_definition(d) and local == 0)


def assert_swaps(d, cap):
    for site in legal_sites_by_definition(d):
        swapped = swap(d, site)
        assert swapped == swap_by_definition(d, site)
        assert list(swapped.arcs) == sorted(swapped.arcs)
    orbit = orbit_by_definition(d, cap)
    if orbit is None:
        with pytest.raises(ResourceLimitError):
            swap_orbit(d, cap=cap)
    else:
        assert swap_orbit(d, cap=cap) == orbit


def test_every_small_binary_diagram_matches_the_definitions():
    for n in range(2, 10):
        for d in enumerate_binary_diagrams(n):
            assert_table_predicates(d)
            if proper_by_definition(d):
                assert_swaps(d, cap=10_000)


@st.composite
def crossing_rich_proper_diagrams(draw, free=5):
    """About 26 sites: free+1 blocks of 2 to 5 sites between the free
    sites, matched at random so that every arc joins two blocks but never
    the first and the last, which makes the diagram proper."""
    rng = draw(st.randoms(use_true_random=False))
    while True:
        sizes = [rng.randint(2, 5) for _ in range(free + 1)]
        if sum(sizes) % 2:
            continue
        block_of, site = {}, 0
        for block, size in enumerate(sizes):
            for _ in range(size):
                site += 1
                block_of[site] = block
            site += 1
        open_sites = list(block_of)
        rng.shuffle(open_sites)
        arcs = []
        while open_sites:
            a = open_sites.pop()
            partners = [
                s
                for s in open_sites
                if block_of[s] != block_of[a] and {block_of[s], block_of[a]} != {0, free}
            ]
            if not partners:
                break
            b = rng.choice(partners)
            open_sites.remove(b)
            arcs.append((min(a, b), max(a, b)))
        if not open_sites:
            return Diagram(site - 1, arcs)


@settings(max_examples=40, deadline=None)
@given(crossing_rich_proper_diagrams())
def test_crossing_rich_diagrams_match_the_definitions(d):
    assert proper_by_definition(d)
    assert_table_predicates(d)
    assert_swaps(d, cap=300)


def test_one_pass_regularity_is_the_pair_scan():
    for n in range(2, 11):
        for d in enumerate_binary_diagrams(n):
            assert is_regular(d) == (is_binary(d) and local_crossing_count(d) == 0)


@pytest.mark.parametrize("n", range(2, 12))
def test_proper_enumeration_is_the_filtered_binary_scan(n):
    # the definitional route: the binary scan filtered by is_proper, each
    # diagram keyed by the block-pair counts of its site table
    expected = [d for d in enumerate_binary_diagrams(n) if is_proper(d)]
    assert list(enumerate_proper_diagrams(n)) == expected
    matchings = list(proper_matchings(n))
    tables = [site_table(n, d.arcs) for d in expected]
    assert [partner for partner, _ in matchings] == [tuple(table.partner) for table in tables]
    # one search key per set of block-pair counts, and one set per key
    counts_of_key = {}
    for (_, key), table, d in zip(matchings, tables, expected):
        counts = frozenset(block_pair_counts(table, d.arcs).items())
        assert counts_of_key.setdefault(key, counts) == counts
    assert len(set(counts_of_key.values())) == len(counts_of_key)
