"""Swaps, canonicalization, equivalence, dual, blow-up, realization, maps."""

from collections import defaultdict
from itertools import combinations, product

import pytest
from hypothesis import assume, given, strategies as st

from arcposet import transform, verify

from arcposet.crossing import pairs_cross
from arcposet.diagram import (
    Diagram,
    adjacency_matrix,
    arcs_error,
    block_list,
    block_matrix,
    block_pair_counts,
    crossing_count,
    free_sites,
    is_proper,
    is_regular,
    parallel_classes,
    parse,
    partner_arcs,
    site_table,
    table_from_partners,
    table_is_regular,
)
from arcposet.errors import InvalidArgumentError, InvariantError, ResourceLimitError
from arcposet.families import build_P, proper_matchings
from arcposet.matrix import SymmetricMatrix, enumerate_matrices, enumerate_matrix_keys, upper_positions
from arcposet.transform import (
    BOTTOM_RELEVANT,
    BOTTOM_STAR,
    beta,
    beta_inverse,
    blow_up,
    canonicalize,
    dual,
    equivalent,
    equivalent_by_definition,
    is_k_relevant,
    kappa,
    layout_key,
    realize_matrix,
    regular_arcs,
    swap,
    swap_orbit,
    swap_orbit_partners,
    swapped_partners,
    tau,
    tau_inverse,
    theta,
    theta_inverse,
)
from .test_diagram import binary_diagrams
from .test_site_table import legal_sites_by_definition


def proper_diagrams(max_length=9):
    return binary_diagrams(max_length).filter(is_proper)


@st.composite
def block_diagrams(draw):
    """Crossing-rich proper diagrams drawn block by block: f free sites and
    up to 4 sites per block, each matched to a site of another block, but
    never the first block to the last; a site left unmatched is dropped."""
    f = draw(st.integers(2, 5))
    slots = [b for b in range(f + 1) for _ in range(draw(st.integers(0, 4)))]
    unmatched = list(range(len(slots)))
    matched = []
    while unmatched:
        s = unmatched.pop(0)
        partners = [t for t in unmatched if slots[t] != slots[s] and {slots[s], slots[t]} != {0, f}]
        if partners:
            t = draw(st.sampled_from(partners))
            unmatched.remove(t)
            matched.append((s, t))
    assume(matched)
    kept = sorted(s for pair in matched for s in pair)
    # the kept slots in order, with one free site after each block but the last
    site_of, site = {}, 0
    for block in range(f + 1):
        for s in kept:
            if slots[s] == block:
                site += 1
                site_of[s] = site
        site += block < f
    return Diagram(site, [(site_of[s], site_of[t]) for s, t in matched])


class TestSwap:
    def test_example(self):
        d = parse("n=7; arcs=(1,4),(2,6)")
        assert swap(d, 1) == parse("n=7; arcs=(1,6),(2,4)")
        assert crossing_count(swap(d, 1)) == crossing_count(d) - 1

    def test_requires_adjacent_non_free_sites(self):
        d = parse("n=7; arcs=(1,4),(2,6)")
        with pytest.raises(InvalidArgumentError):
            swap(d, 4)  # site 5 is free
        with pytest.raises(InvalidArgumentError):
            swap(d, 7)  # out of range
        with pytest.raises(InvalidArgumentError):
            swap(Diagram(5, [(2, 4)]), 2)  # site 3 is free

    def test_requires_proper(self):
        with pytest.raises(InvalidArgumentError):
            swap(Diagram(6, [(1, 3), (3, 6)]), 3)

    @pytest.mark.parametrize("site", [True, 1.0])
    def test_rejects_a_site_that_is_not_an_integer(self, site):
        # swap(d, True) would otherwise swap at site 1
        with pytest.raises(InvalidArgumentError, match=f"got {site!r}$"):
            swap(parse("n=7; arcs=(1,4),(2,6)"), site)

    def test_legal_sites(self):
        # swap applies where two neighbouring sites are both non-free
        d = parse("n=7; arcs=(1,4),(2,6)")
        assert swap(d, 1) == parse("n=7; arcs=(1,6),(2,4)")
        for site in range(2, d.length):
            with pytest.raises(InvalidArgumentError):
                swap(d, site)

    @given(proper_diagrams())
    def test_involution_and_block_matrix_preserved(self, d):
        for site in legal_sites_by_definition(d):
            swapped = swap(d, site)
            assert swap(swapped, site) == d
            assert block_matrix(swapped) == block_matrix(d)
            assert free_sites(swapped) == free_sites(d)


class TestCanonicalize:
    def test_example(self):
        assert canonicalize(parse("n=7; arcs=(1,4),(2,6)")) == parse("n=7; arcs=(1,6),(2,4)")

    def test_fixed_point_on_regular(self):
        d = parse("n=7; arcs=(1,6),(2,4)")
        assert canonicalize(d) == d

    @given(proper_diagrams())
    def test_result_is_regular_and_equivalent(self, d):
        canonical = canonicalize(d)
        assert is_regular(canonical)
        assert block_matrix(canonical) == block_matrix(d)
        assert crossing_count(canonical) <= crossing_count(d)
        assert canonical in swap_orbit(d)

    def test_requires_proper(self):
        with pytest.raises(InvalidArgumentError):
            canonicalize(Diagram(6, [(1, 3), (3, 6)]))


class TestSwapOracle:
    def test_no_adjacent_crossing_pair_is_an_invariant_error(self):
        regular = parse("n=7; arcs=(1,6),(2,4)")
        table = site_table(7, regular.arcs)
        with pytest.raises(InvariantError):
            verify._strict_swap_site(tuple(table.partner), table.block, 1)

    def test_swap_that_keeps_the_crossings_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(verify, "swapped_partners", lambda partner, site: partner)
        report = verify.run_check("regular-unique", [{"n": 7}])
        assert not report.passed
        assert report.points[0].detail.endswith("removes no crossing")


def _local_crossing_blocks(arcs, block):
    """The blocks shared by two crossing arcs, by the pair scan over every
    arc pair, with the blocks of each arc as a set."""
    shared = set()
    for e1, e2 in combinations(arcs, 2):
        if pairs_cross(e1, e2):
            shared |= {block[s] for s in e1} & {block[s] for s in e2}
    return shared


def _strict_swap_site_by_sets(partner, block, block_index):
    """The smallest site whose arc crosses the arc of the next site, the
    two sharing the block ``block_index``, read as sets of blocks."""
    for site in range(1, len(partner) - 1):
        e1, e2 = (site, partner[site]), (site + 1, partner[site + 1])
        if e1[1] and e2[1] and pairs_cross(e1, e2) and block_index in {block[s] for s in e1} & {block[s] for s in e2}:
            return site
    return None


class TestFiberReaders:
    def test_member_statistics_match_the_pair_scan(self):
        local = 0
        for n in range(4, 11):
            for partner, _ in proper_matchings(n):
                arcs = partner_arcs(partner)
                block = table_from_partners(partner).block
                count, leftmost = verify._crossings_and_leftmost_local_block(arcs, block)
                assert count == crossing_count(Diagram(n, arcs))
                blocks = _local_crossing_blocks(arcs, block)
                assert leftmost == min(blocks, default=None)
                for block_index in blocks:  # the check swaps at the leftmost only
                    site = verify._strict_swap_site(partner, block, block_index)
                    assert site == _strict_swap_site_by_sets(partner, block, block_index)
                local += bool(blocks)
        assert local > 1000  # most members have a local crossing


class TestPassedLayouts:
    """Within one run, a key whose layout passed is not laid out again."""

    @pytest.mark.parametrize(
        "check,grid,distinct",
        [
            # M(5,1,0) and M(5,1,1) lie in M(5,2,1), of 239 keys; M(4,1,1) has 13
            (
                "beta",
                [{"f": 4, "k": 1, "r": 0}, {"f": 3, "k": 1, "r": 1}, {"f": 4, "k": 1, "r": 1}, {"f": 4, "k": 2, "r": 1}],
                239 + 13,
            ),
            # M(4,1,1) lies in M(4,2,2), of 48 keys; M(5,2,2) has 911
            ("realize-roundtrip", [{"m": 4, "k": 1, "r": 1}, {"m": 5}, {"m": 5}], 48 + 911),
        ],
        ids=["beta", "realize-roundtrip"],
    )
    def test_each_distinct_key_is_laid_out_once(self, monkeypatch, check, grid, distinct):
        laid_out = []
        layout = verify.layout_key

        def recorded(order, key):
            laid_out.append((order, key))
            return layout(order, key)

        monkeypatch.setattr(verify, "layout_key", recorded)
        assert verify.run_check(check, grid).passed
        assert len(laid_out) == len(set(laid_out)) == distinct

    def test_key_broken_from_the_second_point_fails_every_point_holding_it(self, monkeypatch):
        first = set(enumerate_matrix_keys(5, 1, 0))
        target = next(key for key in enumerate_matrix_keys(5, 1, 1) if key not in first)
        layout = verify.layout_key

        def inexact_for_target(order, key):
            arcs, regular, exact = layout(order, key)
            return arcs, regular, exact and key != target

        monkeypatch.setattr(verify, "layout_key", inexact_for_target)
        grid = [{"f": 4, "k": 1, "r": 0}, {"f": 4, "k": 1, "r": 1}, {"f": 3, "k": 1, "r": 1}, {"f": 4, "k": 2, "r": 1}]
        mismatch = f"beta(beta_inverse) mismatch at {verify._key_text(5, target)}"
        assert [(point.passed, point.detail) for point in verify.run_check("beta", grid).points] == [
            (True, "10 matrices, 10 distinct regular diagrams"),
            (False, mismatch),
            (True, "13 matrices, 13 distinct regular diagrams"),
            (False, mismatch),
        ]

    def test_runs_share_nothing(self, monkeypatch):
        grid = [{"f": 4, "k": 2, "r": 1}, {"f": 4, "k": 2, "r": 1}]
        assert verify.run_check("beta", grid).passed
        monkeypatch.setattr(transform, "regular_arcs", _drop_an_arc)
        assert [point.passed for point in verify.run_check("beta", grid).points] == [False, False]


class TestRealizeRoundtrip:
    def test_every_family_member_is_counted(self):
        # 1590 members over the families of orders 4 and 5, nested ones
        # counted again although each key is laid out once per order
        (point,) = verify.run_check("realize-roundtrip", [{"m": 5, "k": 2, "r": 2}]).points
        assert point.passed
        assert point.detail == "1590 matrices up to order 5"


class TestRegularUnique:
    @pytest.mark.parametrize(
        "n,detail", [(8, "117 fibers up to length 8"), (10, "699 fibers up to length 10")]
    )
    def test_fiber_counts(self, n, detail):
        (point,) = verify.run_check("regular-unique", [{"n": n}]).points
        assert point.passed
        assert point.detail == detail

    def test_swap_that_changes_nothing_fails(self, monkeypatch):
        def unchanged(partner, site):
            return partner

        monkeypatch.setattr(transform, "swapped_partners", unchanged)
        monkeypatch.setattr(verify, "swapped_partners", unchanged)
        assert not verify.run_check("regular-unique", [{"n": 8}]).passed

    def test_strict_swap_that_leaves_the_fiber_fails(self, monkeypatch):
        def drop_an_arc(partner, site):
            swapped = list(swapped_partners(partner, site))
            first = next(s for s, p in enumerate(swapped) if p)  # the first arc's left end
            swapped[first] = swapped[swapped[first]] = 0
            return tuple(swapped)

        monkeypatch.setattr(verify, "swapped_partners", drop_an_arc)
        report = verify.run_check("regular-unique", [{"n": 8}])
        assert not report.passed
        assert report.points[0].detail.endswith("leaves its fiber")

    def test_orbit_that_drops_a_member_fails(self, monkeypatch):
        def short_orbit(partner, cap=1_000_000):
            orbit = swap_orbit_partners(partner, cap)
            orbit.discard(max(orbit))
            return orbit

        monkeypatch.setattr(verify, "swap_orbit_partners", short_orbit)
        report = verify.run_check("regular-unique", [{"n": 8}])
        assert not report.passed
        assert report.points[0].detail.endswith("is not the fiber")


class TestEquivalence:
    def test_equivalent_pair(self):
        a = parse("n=7; arcs=(1,4),(2,6)")
        b = parse("n=7; arcs=(1,6),(2,4)")
        assert equivalent(a, b)
        assert equivalent_by_definition(a, b)

    def test_different_block_matrices(self):
        a = parse("n=5; arcs=(3,5)")
        b = parse("n=5; arcs=(2,5)")
        assert not equivalent(a, b)
        assert not equivalent_by_definition(a, b)

    def test_different_free_site_profiles(self):
        a = parse("n=7; arcs=(1,4),(3,7)")
        b = parse("n=7; arcs=(1,5),(4,7)")
        assert not equivalent(a, b)
        assert not equivalent_by_definition(a, b)

    def test_requires_proper(self):
        with pytest.raises(InvalidArgumentError):
            equivalent(Diagram(6, [(1, 3), (3, 6)]), Diagram(6, [(1, 3), (3, 6)]))

    def test_swap_orbit_is_an_equivalence_class(self):
        d = parse("n=7; arcs=(1,4),(2,6)")
        orbit = swap_orbit(d)
        assert d in orbit
        assert all(equivalent(d, other) for other in orbit)

    def test_swap_orbit_requires_a_proper_start(self):
        with pytest.raises(InvalidArgumentError):
            swap_orbit(Diagram(6, [(1, 3), (2, 5)]))

    @pytest.mark.parametrize(
        "broken",
        [
            lambda partner, site: partner[:site] + (0,) + partner[site + 1 :],  # frees the site
            lambda partner, site: (0, 2, 1, 0, 0, 0, 0, 0),  # the arc (1,2) spans one step
        ],
    )
    def test_swap_orbit_checks_every_new_arc_tuple(self, monkeypatch, broken):
        monkeypatch.setattr(transform, "swapped_partners", broken)
        with pytest.raises(InvariantError):
            swap_orbit(parse("n=7; arcs=(1,4),(2,6)"))

    def test_swap_orbit_cap_is_a_resource_limit(self):
        d = parse("n=7; arcs=(1,4),(2,6)")
        assert len(swap_orbit(d, cap=2)) == 2
        with pytest.raises(ResourceLimitError) as caught:
            swap_orbit(d, cap=1)
        assert caught.value.bound == 1


class TestDualAndBlowUp:
    def test_dual_example(self):
        assert dual(Diagram(5, [(2, 4)])) == parse("n=6; arcs=(2,5)")

    def test_dual_length_and_free_sites(self):
        d = Diagram(5, [(2, 4)])
        result = dual(d)
        assert result.length == 2 * 5 - 1 - len(free_sites(d))
        assert len(free_sites(result)) == 5 - 1

    def test_dual_block_matrix_is_adjacency(self):
        d = Diagram(6, [(1, 4), (2, 6), (3, 5)])
        assert block_matrix(dual(d)) == adjacency_matrix(d)

    @given(binary_diagrams())
    def test_dual_matrix_identity_random(self, d):
        assert block_matrix(dual(d)) == adjacency_matrix(d)

    def test_blow_up_example(self):
        assert blow_up(Diagram(5, [(1, 3), (3, 5)])) == parse("n=6; arcs=(1,3),(4,6)")

    def test_blow_up_preserves_block_matrix(self):
        d = Diagram(6, [(1, 4), (1, 5), (3, 6)])
        result = blow_up(d)
        assert block_matrix(result) == block_matrix(d)
        assert all(len(result.supports(s)) <= 1 for s in range(1, result.length + 1))


class TestRealize:
    def test_single_entry(self):
        m = SymmetricMatrix.from_entries(4, {(1, 3): 1})
        d = realize_matrix(m)
        assert d == parse("n=5; arcs=(1,4)")
        assert block_matrix(d) == m

    def test_semidiagonal_only(self):
        m = SymmetricMatrix.from_entries(4, {(2, 3): 1})
        d = realize_matrix(m)
        assert block_matrix(d) == m

    def test_round_trip_small(self):
        for m in (4, 5):
            for k in (1, 2):
                for r in (0, 1, 2):
                    for matrix in enumerate_matrices(m, k, r):
                        assert block_matrix(realize_matrix(matrix)) == matrix

    def test_zero_one_realizes_without_parallel_arcs(self):
        for matrix in enumerate_matrices(5, 2, 1):
            if matrix.is_zero_one():
                d = realize_matrix(matrix)
                assert all(len(group) == 1 for group in parallel_classes(d))

    def test_regular_representative(self):
        m = SymmetricMatrix.from_entries(4, {(1, 3): 1, (3, 4): 2})
        assert realize_matrix(m) == parse("n=9; arcs=(1,4),(5,9),(6,8)")

    def test_every_small_matrix_realizes_regularly(self):
        # zero diagonal and rainbow, entries at most 2 (at most 1 at order 5,
        # where entries up to 2 take 3.4 s)
        for m in (3, 4, 5):
            positions = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if (i, j) != (1, m)]
            for values in product(range(3 if m < 5 else 2), repeat=len(positions)):
                if not any(values):
                    continue
                matrix = SymmetricMatrix.from_entries(m, dict(zip(positions, values)))
                d = realize_matrix(matrix)
                assert is_proper(d) and is_regular(d) and block_matrix(d) == matrix

    def test_cap_counts_arcs(self):
        m = SymmetricMatrix.from_entries(4, {(1, 3): 4000})
        assert realize_matrix(m, cap=4000).size == 4000
        with pytest.raises(ResourceLimitError) as caught:
            realize_matrix(m, cap=3999)
        assert caught.value.bound == 3999

    def test_rejects_trivial_and_structural_nonzeros(self):
        with pytest.raises(InvalidArgumentError):
            realize_matrix(SymmetricMatrix.from_entries(4, {}))
        with pytest.raises(InvalidArgumentError):
            realize_matrix(SymmetricMatrix.from_entries(4, {(1, 4): 1}))
        with pytest.raises(InvalidArgumentError):
            realize_matrix(SymmetricMatrix.from_entries(4, {(2, 2): 1}))


class TestFlatLayout:
    @given(st.one_of(proper_diagrams(), block_diagrams()))
    def test_canonicalize_matches_the_matrix_route(self, d):
        assert canonicalize(d) == realize_matrix(block_matrix(d))

    def test_layout_ignores_zero_and_lower_pairs(self):
        pairs = {(1, 3): 1, (3, 4): 2, (2, 3): 0, (4, 3): 5, (2, 2): 1}
        assert regular_arcs(pairs) == ((1, 4), (5, 9), (6, 8))

    @given(st.dictionaries(st.tuples(st.integers(1, 6), st.integers(1, 6)), st.integers(0, 3), max_size=10))
    def test_layout_is_ascending_without_a_sort(self, pairs):
        arcs = regular_arcs(pairs)
        assert arcs == tuple(sorted(arcs))
        assert arcs == _sorted_layout(pairs)
        if not arcs:
            return
        # parallel arcs nest: along a class, left ends rise as right ends fall
        block = site_table(max(b for _, b in arcs), arcs).block
        classes = defaultdict(list)
        for a, b in arcs:
            classes[block[a], block[b]].append((a, b))
        for group in classes.values():
            assert all(a < c and d < b for (a, b), (c, d) in zip(group, group[1:]))

    def test_beta_inverse_refuses_a_non_member(self):
        # (1,4), (2,5) and (3,6) cross pairwise: 2-crossing, not 2-noncrossing
        matrix = SymmetricMatrix.from_entries(6, {(1, 4): 1, (2, 5): 1, (3, 6): 1})
        with pytest.raises(InvalidArgumentError):
            beta_inverse(matrix, 2, 0)
        assert beta_inverse(matrix, 3, 0) == realize_matrix(matrix)


def _sorted_layout(pairs):
    """A reference for ``regular_arcs``: the same slots, with the arcs
    collected pair by pair and then sorted."""
    counts = [(i, j, count) for (i, j), count in pairs.items() if i < j and count]
    slots = sorted((b, c > b, -c, count) for i, j, count in counts for b, c in ((i, j), (j, i)))
    first = {}
    ends = 0
    for b, _, c, count in slots:
        first[b, -c] = ends + b
        ends += count
    return tuple(
        sorted(
            (first[i, j] + t, first[j, i] + count - 1 - t)
            for i, j, count in counts
            for t in range(count)
        )
    )


def _drop_an_arc(pairs):
    """The layout with its first arc suppressed when it has two or more: a
    regular diagram still, but with other block-pair counts."""
    arcs = regular_arcs(pairs)
    if len(arcs) < 2:
        return arcs
    (a, b), rest = arcs[0], arcs[1:]
    return tuple((s - (s > a) - (s > b), t - (t > a) - (t > b)) for s, t in rest)


def _cross_parallel_arcs(pairs):
    """The layout with each class of parallel arcs crossing, not nesting."""
    arcs = regular_arcs(pairs)
    block = site_table(max(b for _, b in arcs), arcs).block
    classes = defaultdict(list)
    for a, b in arcs:
        classes[block[a], block[b]].append((a, b))
    crossed = []
    for group in classes.values():
        crossed += zip(sorted(a for a, _ in group), sorted(b for _, b in group))
    return tuple(sorted(crossed))


def _share_an_end(pairs):
    """The layout with its second arc's left end moved onto its first's."""
    arcs = regular_arcs(pairs)
    if len(arcs) < 2:
        return arcs
    return tuple(sorted([arcs[0], (arcs[0][0], arcs[1][1]), *arcs[2:]]))


def _stack_two_arcs(pairs):
    """The layout of a (0,1) key of two or more arcs with the arc of its
    last block pair moved onto its first: parallel arcs, which exactness
    rules out for a (0,1) key."""
    used = sorted((i, j) for (i, j), count in pairs.items() if i < j and count)
    if len(used) < 2 or any(pairs[pair] > 1 for pair in used):
        return regular_arcs(pairs)
    return regular_arcs({**dict.fromkeys(used[1:-1], 1), used[0]: 2})


def _layout_by_definition(order, key):
    """``layout_key`` composed from the diagram layer: the site table, its
    regularity test and its block-pair counts."""
    pairs = {pair: value for pair, value in zip(upper_positions(order), key) if value}
    arcs = transform.regular_arcs(pairs)
    length = order - 1 + 2 * len(arcs)
    if arcs_error(length, arcs) is not None:
        return arcs, False, False
    table = site_table(length, arcs)
    regular = table_is_regular(table, arcs) and table.free_count == order - 1
    return arcs, regular, block_pair_counts(table, arcs) == pairs


class TestLayoutOracle:
    def test_layout_key_matches_its_definition(self):
        # M(m, 2, 2) holds every M(m, k, r) with k <= 2 and r <= 2
        for order in (4, 5, 6):
            for key in enumerate_matrix_keys(order, 2, 2):
                result = layout_key(order, key)
                assert result == _layout_by_definition(order, key)
                assert result[1:] == (True, True)

    @pytest.mark.parametrize(
        "broken",
        [
            _drop_an_arc,
            _cross_parallel_arcs,
            _stack_two_arcs,
            _share_an_end,
            lambda pairs: tuple((a + 1, b + 1) for a, b in regular_arcs(pairs)),
            lambda pairs: regular_arcs(pairs)[::-1],
            lambda pairs: (),
        ],
        ids=["drop", "cross", "stack", "share", "shift", "reverse", "empty"],
    )
    def test_broken_layouts_read_as_by_definition(self, monkeypatch, broken):
        monkeypatch.setattr(transform, "regular_arcs", broken)
        results = set()
        for order in (4, 5):
            for key in enumerate_matrix_keys(order, 2, 2):
                result = layout_key(order, key)
                assert result == _layout_by_definition(order, key)
                results.add(result[1:])
        assert results != {(True, True)}


class TestLayoutNegativeControls:
    """A broken layout makes every check built on it fail."""

    @pytest.fixture(
        params=[_drop_an_arc, _cross_parallel_arcs, _stack_two_arcs], ids=["drop", "cross", "stack"]
    )
    def broken_layout(self, request, monkeypatch):
        monkeypatch.setattr(transform, "regular_arcs", request.param)
        monkeypatch.setattr(verify, "regular_arcs", request.param)

    @pytest.mark.parametrize(
        "name,grid",
        [
            ("beta", {"f": 4, "k": 2, "r": 1}),
            ("realize-roundtrip", {"m": 5, "k": 2, "r": 2}),
            ("regular-unique", {"n": 8}),
        ],
    )
    def test_check_fails(self, broken_layout, name, grid):
        report = verify.run_check(name, [grid])
        assert not report.passed

    def test_build_P_refuses_the_layout(self, broken_layout):
        with pytest.raises(InvariantError):
            build_P(4, 2, 1)

    def test_layout_broken_for_one_fiber_fails_regular_unique(self, monkeypatch):
        # the fiber of (1,3),(4,6) and (1,4),(3,6) at length 6; each fiber is
        # laid out once, so this one layout must still be compared
        target = {(1, 2): 1, (2, 3): 1}

        def reversed_for_target(pairs):
            arcs = regular_arcs(pairs)
            return arcs[::-1] if dict(pairs) == target else arcs

        monkeypatch.setattr(verify, "regular_arcs", reversed_for_target)
        (point,) = verify.run_check("regular-unique", [{"n": 8}]).points
        assert not point.passed
        assert point.detail == "canonicalize(n=6; arcs=(1,3),(4,6)) missed the regular diagram"

    def test_key_first_met_in_the_largest_family_is_checked(self, monkeypatch):
        # only the largest family of each order is laid out; a key that
        # only M(5, 2, 2) holds must reach layout_key, and fails with
        # beta's text
        smaller = {
            key
            for crossings, tautology in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1))
            for key in enumerate_matrix_keys(5, crossings, tautology)
        }
        target = next(key for key in enumerate_matrix_keys(5, 2, 2) if key not in smaller)
        layout_key = verify.layout_key

        def inexact_for_target(order, key):
            arcs, regular, exact = layout_key(order, key)
            return arcs, regular, exact and key != target

        monkeypatch.setattr(verify, "layout_key", inexact_for_target)
        (point,) = verify.run_check("realize-roundtrip", [{"m": 5, "k": 2, "r": 2}]).points
        assert not point.passed
        assert point.detail == f"beta(beta_inverse) mismatch at {verify._key_text(5, target)}"

    def test_arcs_past_the_length_fail_the_checks(self, monkeypatch):
        def shifted(pairs):
            return tuple((a + 1, b + 1) for a, b in regular_arcs(pairs))

        monkeypatch.setattr(transform, "regular_arcs", shifted)
        assert not verify.run_check("beta", [{"f": 4, "k": 2, "r": 1}]).passed
        assert not verify.run_check("realize-roundtrip", [{"m": 5, "k": 2, "r": 2}]).passed


class TestTauNegativeControls:
    """The tau check reads each key's support through ``upper_positions``
    and refuses any key that is not (0,1) with a zero semi-diagonal."""

    @pytest.mark.parametrize(
        "permute",
        [lambda positions: positions[::-1], lambda positions: positions[1:] + positions[:1]],
        ids=["reversed", "rotated"],
    )
    def test_permuted_positions_fail(self, monkeypatch, permute):
        positions = verify.upper_positions
        monkeypatch.setattr(verify, "upper_positions", lambda m: permute(positions(m)))
        assert not verify.run_check("tau", [{"f": 5, "k": 2}]).passed

    # each bad key has the support {(1,3)} of a member, so only the (0,1)
    # test can catch it
    @pytest.mark.parametrize(
        "entries", [{(1, 2): 1, (1, 3): 1}, {(1, 3): 2}], ids=["semi-diagonal-1", "entry-2"]
    )
    def test_key_that_is_not_zero_one_fails(self, monkeypatch, entries):
        bad = tuple(entries.get(pair, 0) for pair in upper_positions(5))
        enumerate_keys = verify.enumerate_matrix_keys
        monkeypatch.setattr(verify, "enumerate_matrix_keys", lambda m, k, r: enumerate_keys(m, k, r) + [bad])
        (point,) = verify.run_check("tau", [{"f": 4, "k": 1}]).points
        assert not point.passed
        assert point.detail == f"{verify._key_text(5, bad)} is not a (0,1) key with a zero semi-diagonal"


class TestNamedMaps:
    def test_tau_round_trip(self):
        d = Diagram(6, [(1, 4), (2, 6), (3, 5)])
        assert tau_inverse(tau(d)) == d

    def test_tau_rejects_trivial(self):
        with pytest.raises(InvalidArgumentError):
            tau(Diagram(5))
        with pytest.raises(InvalidArgumentError):
            tau_inverse(SymmetricMatrix.from_entries(5, {(1, 3): 2}))

    def test_beta_round_trip(self):
        for matrix in enumerate_matrices(5, 1, 1):
            d = beta_inverse(matrix, 1, 1)
            assert beta(d, 1, 1) == matrix

    def test_beta_requires_regular(self):
        with pytest.raises(InvalidArgumentError):
            beta(parse("n=7; arcs=(1,4),(2,6)"), 2, 2)

    def test_relevance(self):
        assert is_k_relevant((1, 4), 6, 2)
        assert not is_k_relevant((1, 3), 6, 2)
        assert not is_k_relevant((1, 5), 6, 2)

    def test_theta_round_trip(self):
        face = frozenset({"1-4", "2-5"})
        d = theta(face, 6, 2)
        assert d == Diagram(6, [(1, 4), (2, 5)])
        assert theta_inverse(d, 2) == face

    def test_theta_rejects_irrelevant_and_crossing(self):
        with pytest.raises(InvalidArgumentError):
            theta({"1-3"}, 6, 2)
        with pytest.raises(InvalidArgumentError):
            theta({"1-4", "2-5", "3-6"}, 6, 2)
        with pytest.raises(InvalidArgumentError):
            theta([], 6, 2)

    def test_kappa_split(self):
        d = Diagram(6, [(1, 3), (2, 5)])
        star, relevant = kappa(d, 2)
        assert star == Diagram(6, [(1, 3)])
        assert relevant == Diagram(6, [(2, 5)])

    def test_kappa_bottoms(self):
        star, relevant = kappa(Diagram(6, [(2, 5)]), 2)
        assert star is BOTTOM_STAR
        assert relevant == Diagram(6, [(2, 5)])
        star, relevant = kappa(Diagram(6, [(1, 3)]), 2)
        assert star == Diagram(6, [(1, 3)])
        assert relevant is BOTTOM_RELEVANT
        assert repr(BOTTOM_STAR) == "0*" and repr(BOTTOM_RELEVANT) == "0^o"

    def test_kappa_rejects_trivial(self):
        with pytest.raises(InvalidArgumentError):
            kappa(Diagram(6), 2)
