"""Diagram construction, text format, blocks, predicates, arc removal."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from arcposet.crossing import is_k_noncrossing
from arcposet.diagram import (
    Diagram,
    adjacency_matrix,
    block_list,
    block_matrix,
    covered_free_sites,
    crossing_count,
    free_sites,
    is_binary,
    is_proper,
    is_regular,
    local_crossing_count,
    parallel_classes,
    parse,
    suppress_arc,
    tautology_number,
    to_text,
)
from arcposet.errors import InvalidArgumentError
from arcposet.matrix import SymmetricMatrix


def binary_diagrams(max_length=9):
    """Hypothesis strategy for binary diagrams built from a site matching."""

    @st.composite
    def build(draw):
        n = draw(st.integers(4, max_length))
        arcs = []
        used = set()
        for _ in range(draw(st.integers(0, n // 2))):
            candidates = [
                (a, b)
                for a in range(1, n + 1)
                for b in range(a + 2, n + 1)
                if b - a < n - 1 and a not in used and b not in used
            ]
            if not candidates:
                break
            arc = draw(st.sampled_from(candidates))
            arcs.append(arc)
            used.update(arc)
        return Diagram(n, arcs)

    return build()


class TestConstruction:
    def test_sorts_arcs_and_refuses_a_repeat(self):
        assert Diagram(6, [(2, 5), (1, 3)]).arcs == ((1, 3), (2, 5))
        with pytest.raises(InvalidArgumentError, match=r"^arc \(2,5\) is repeated$"):
            Diagram(6, [(2, 5), (1, 3), (2, 5)])

    def test_rejects_short_length(self):
        with pytest.raises(InvalidArgumentError):
            Diagram(1)

    def test_rejects_adjacent_sites_arc(self):
        with pytest.raises(InvalidArgumentError):
            Diagram(5, [(2, 3)])

    def test_rejects_full_span_arc(self):
        with pytest.raises(InvalidArgumentError):
            Diagram(5, [(1, 5)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            Diagram(5, [(3, 7)])

    @pytest.mark.parametrize(
        "length,arcs,named",
        [(7.9, [(1.5, 4.2)], "7.9"), (7, [(1.5, 4.2)], "1.5"), (True, [], "True"), (7, [(1, True)], "True")],
    )
    def test_rejects_non_integers(self, length, arcs, named):
        # no silent int(): Diagram(7.9, [(1.5, 4.2)]) would otherwise be n=7; arcs=(1,4)
        with pytest.raises(InvalidArgumentError, match=f"got {named}$"):
            Diagram(length, arcs)

    def test_trivial(self):
        assert Diagram(4).is_trivial()
        assert not Diagram(5, [(1, 3)]).is_trivial()


class TestTextFormat:
    def test_round_trip(self):
        text = "n=9; arcs=(1,4),(5,9),(6,8)"
        assert to_text(parse(text)) == text

    def test_empty_arcs(self):
        assert to_text(parse("n=4; arcs=")) == "n=4; arcs="

    @pytest.mark.parametrize(
        "bad", ["", "n=4", "arcs=(1,3)", "n=4; arcs=(1,3),", "n=4; arcs=(3,1)", "n=x; arcs="]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            parse(bad)

    @given(binary_diagrams())
    def test_round_trip_random(self, d):
        assert parse(to_text(d)) == d


class TestBlocks:
    def test_worked_example(self):
        d = parse("n=9; arcs=(1,4),(5,9),(6,8)")
        assert free_sites(d) == (2, 3, 7)
        assert block_list(d) == ((1,), (), (4, 5, 6), (8, 9))
        matrix = block_matrix(d)
        assert matrix.entry(1, 3) == 1
        assert matrix.entry(3, 4) == 2
        assert tautology_number(d) == 3

    def test_empty_blocks_are_kept(self):
        d = Diagram(5, [(2, 4)])
        assert block_list(d) == ((), (2,), (4,), ())

    def test_adjacency_matrix(self):
        d = Diagram(5, [(1, 3), (2, 5)])
        matrix = adjacency_matrix(d)
        assert matrix.order == 5
        assert matrix.nonzero_positions() == ((1, 3), (2, 5))

    def test_diagonal_entry_counts_once(self):
        # both endpoints of (1,3) in one block (degenerate arc)
        d = Diagram(6, [(1, 3), (2, 5)])
        matrix = block_matrix(d)
        assert matrix.entry(1, 1) == 1


class TestPredicates:
    def test_binary_vs_not(self):
        assert is_binary(Diagram(6, [(1, 3), (2, 5)]))
        assert not is_binary(Diagram(6, [(1, 3), (3, 5)]))
        assert not is_binary(Diagram(6))

    def test_proper(self):
        assert is_proper(Diagram(5, [(1, 3)]))
        # arc covering no free site
        assert not is_proper(Diagram(6, [(1, 3), (2, 5)]))
        # every arc covers the single free site 3
        assert not is_proper(Diagram(5, [(1, 4), (2, 5)]))
        # non-binary diagrams are never proper
        assert not is_proper(Diagram(6, [(1, 3), (3, 6)]))

    def test_crossings_and_locality(self):
        d = parse("n=7; arcs=(1,4),(2,6)")
        assert crossing_count(d) == 1
        assert local_crossing_count(d) == 1
        assert not is_regular(d)
        nested = parse("n=7; arcs=(1,6),(2,4)")
        assert crossing_count(nested) == 0
        assert is_regular(nested)

    def test_local_crossing_through_shared_block(self):
        # sites 4 and 5 lie in one block, so this crossing is local
        d = Diagram(8, [(1, 5), (4, 8)])
        assert crossing_count(d) == 1
        assert local_crossing_count(d) == 1
        assert not is_regular(d)

    def test_nonlocal_crossing(self):
        # the four endpoints lie in four pairwise distinct blocks
        d = Diagram(10, [(1, 6), (4, 9)])
        assert crossing_count(d) == 1
        assert local_crossing_count(d) == 0
        assert is_regular(d)

    def test_k_noncrossing(self):
        d = Diagram(9, [(1, 5), (3, 7), (4, 9)])
        assert crossing_count(d) == 3
        assert not is_k_noncrossing(d.arcs, 2)
        assert is_k_noncrossing(d.arcs, 3)
        with pytest.raises(InvalidArgumentError):
            is_k_noncrossing(d.arcs, 0)

    def test_covered_free_sites(self):
        d = parse("n=7; arcs=(1,4),(2,6)")
        assert covered_free_sites(d, (1, 4)) == frozenset({3})
        assert covered_free_sites(d, (2, 6)) == frozenset({3, 5})


class TestArcRemoval:
    def test_suppress_missing_arc(self):
        with pytest.raises(InvalidArgumentError):
            suppress_arc(Diagram(6, [(1, 4)]), (2, 5))

    def test_suppress_relabels(self):
        d = Diagram(9, [(1, 8), (2, 5), (3, 8)])
        assert suppress_arc(d, (3, 8)) == parse("n=8; arcs=(1,7),(2,4)")

    def test_suppress_keeps_shared_site(self):
        # site 3 stays because another arc still uses it
        d = Diagram(6, [(1, 3), (3, 5)])
        assert suppress_arc(d, (1, 3)) == Diagram(5, [(2, 4)])

    @given(binary_diagrams())
    def test_suppress_preserves_free_site_count(self, d):
        # suppression is only well-defined on proper diagrams, where every
        # remaining arc still spans at least one site
        assume(is_proper(d))
        for arc in d.arcs:
            assert len(free_sites(suppress_arc(d, arc))) == len(free_sites(d))


@st.composite
def arc_sets(draw):
    """A length n and up to 10 distinct admissible arcs of a diagram of that length."""
    n = draw(st.integers(4, 12))
    candidates = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1) if b - a < n - 1]
    arcs = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=10))
    return n, sorted(arcs)


def largest_crossing_set(arcs):
    """The most mutually crossing arcs, by trying every subset."""
    def cross(p, q):
        (a, b), (c, d) = p, q
        return a < c < b < d or c < a < d < b

    return max(
        (
            size
            for size in range(1, len(arcs) + 1)
            for chosen in combinations(arcs, size)
            if all(cross(p, q) for p, q in combinations(chosen, 2))
        ),
        default=0,
    )


class TestKNoncrossingPredicates:
    @settings(max_examples=200, deadline=None)
    @given(arc_sets(), st.integers(1, 4))
    def test_diagram_and_matrix_agree_with_brute_force(self, drawn, k):
        n, arcs = drawn
        expected = largest_crossing_set(arcs) <= k
        assert is_k_noncrossing(Diagram(n, arcs).arcs, k) == expected
        matrix = SymmetricMatrix.from_entries(n, {arc: 1 for arc in arcs})
        assert is_k_noncrossing(matrix.nonzero_positions(), k) == expected


class TestParallelClasses:
    def test_example(self):
        # free sites 6, 9 and 11; (1,4) covers none of them
        d = Diagram(11, [(1, 4), (2, 8), (3, 7), (5, 10)])
        assert parallel_classes(d) == (((1, 4),), ((2, 8), (3, 7)), ((5, 10),))

    @given(arc_sets())
    def test_groups_by_covered_free_sites(self, drawn):
        n, arcs = drawn
        d = Diagram(n, arcs)
        groups = {}
        for arc in d.arcs:
            groups.setdefault(covered_free_sites(d, arc), []).append(arc)
        assert parallel_classes(d) == tuple(tuple(group) for group in sorted(groups.values()))
