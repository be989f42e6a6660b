"""Finite poset machinery on small hand-checked examples."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import arcposet
from arcposet import poset as poset_module
from arcposet.errors import InvalidArgumentError, InvariantError, ResourceLimitError
from arcposet.poset import (
    FinitePoset,
    chain_stats_from_covers,
    element_key,
    plus_one_covers,
    topological_order,
)


def divides(a, b):
    return b % a == 0


def chain(*elements):
    return FinitePoset(elements, [[i + 1] for i in range(len(elements) - 1)] + [[]])


def antichain(*elements):
    return FinitePoset(elements, [[] for _ in elements])


@pytest.fixture
def divisors12():
    # 1 < 2 < 4 < 12 and 1 < 3 < 6 < 12, with 2 < 6
    return FinitePoset(["1", "2", "3", "4", "6", "12"], [[1, 2], [3, 4], [4], [5], [5], []])


class TestConstruction:
    def test_duplicate_elements(self):
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            FinitePoset(["a", "a"], [[], []])

    def test_library_imports_only_the_standard_library(self):
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import arcposet.cli\n"
            "names = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(names - set(sys.stdlib_module_names)))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(arcposet.__file__))}
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        )
        assert result.stdout == "['arcposet']\n"


class TestCoverInput:
    # the divisors of 12, out of key order, with each element's upper covers
    ELEMENTS = ["12", "6", "4", "3", "2", "1"]
    COVERS = [[], [0], [0], [1], [1, 2], [3, 4]]

    def test_covers_give_the_same_poset_as_the_relation(self, divisors12):
        poset = FinitePoset(self.ELEMENTS, covers=self.COVERS)
        assert poset.elements == divisors12.elements
        assert poset.succ == divisors12.succ
        assert poset.cover_edges() == divisors12.cover_edges()
        assert poset.stats_text() == divisors12.stats_text()
        assert poset.to_dot() == divisors12.to_dot()
        assert poset.up_sets == divisors12.up_sets

    def test_validation_catches_broken_covers(self):
        with pytest.raises(InvalidArgumentError, match="cover lists"):
            FinitePoset(["a", "b"], covers=[[]])
        with pytest.raises(InvalidArgumentError, match="cycle"):
            FinitePoset(["a", "b"], covers=[[1], [0]])
        with pytest.raises(InvalidArgumentError, match="not a cover"):
            FinitePoset(["a", "b", "c"], covers=[[1, 2], [2], []])

    def test_up_sets_are_lazy_and_capped(self, monkeypatch):
        # six up-sets of six bits take one byte each
        poset = FinitePoset(self.ELEMENTS, covers=self.COVERS, validate=False)
        monkeypatch.setattr(poset_module, "LEQ_BYTE_CAP", 5)
        assert poset.stats_text().endswith("rank_cardinality=4 pure=True")
        with pytest.raises(ResourceLimitError):
            poset.up_sets
        with pytest.raises(ResourceLimitError):
            FinitePoset(self.ELEMENTS, covers=self.COVERS)
        monkeypatch.setattr(poset_module, "LEQ_BYTE_CAP", 6)
        assert poset.leq("2", "12")
        # bit j of up_sets[i] is set iff elements[i] divides elements[j]
        assert poset.up_sets == [
            sum(1 << j for j, b in enumerate(poset.elements) if divides(int(a), int(b)))
            for a in poset.elements
        ]


class TestPlusOneCovers:
    def test_a_set_is_covered_by_the_members_one_element_larger(self):
        # {0,2}, {0}, {0,1}, {1}, {2}, out of mask order; the covers of a
        # set are listed in member order
        masks = [0b101, 0b1, 0b11, 0b10, 0b100]
        assert plus_one_covers(masks) == [[], [0, 2], [], [2], [0]]

    def test_a_missing_subset_is_refused(self):
        with pytest.raises(InvariantError, match="0b11 lacks 0b10"):
            plus_one_covers([0b1, 0b11])
        assert plus_one_covers([0b1, 0b10]) == [[], []]


class TestQueries:
    def test_leq_and_membership(self, divisors12):
        assert divisors12.leq("2", "12")
        assert not divisors12.leq("4", "6")
        assert "6" in divisors12 and "5" not in divisors12
        with pytest.raises(InvalidArgumentError):
            divisors12.leq("5", "12")

    def test_extremes(self, divisors12):
        assert divisors12.minimal_elements() == ("1",)
        assert divisors12.maximal_elements() == ("12",)

    def test_cover_edges(self, divisors12):
        covers = set(divisors12.cover_edges())
        assert covers == {
            ("1", "2"), ("1", "3"), ("2", "4"), ("2", "6"), ("3", "6"), ("4", "12"), ("6", "12"),
        }

    def test_rank(self, divisors12):
        assert divisors12.rank_length() == 3
        assert divisors12.rank_cardinality() == 4

    def test_purity(self, divisors12):
        # every maximal chain of the divisors of 12 has four elements
        assert divisors12.is_pure()
        # dropping 6 leaves 1 < 3 < 12 next to 1 < 2 < 4 < 12
        impure = FinitePoset(["1", "2", "3", "4", "12"], [[1, 2], [3], [4], [4], []])
        assert not impure.is_pure()

    def test_stats_text(self, divisors12):
        text = divisors12.stats_text()
        assert "elements=6" in text and "rank_cardinality=4" in text


class TestDerivedPosets:
    def test_restrict(self, divisors12):
        sub = divisors12.restrict(["1", "2", "4"])
        assert sub.rank_length() == 2

    def test_open_interval_above(self, divisors12):
        above = divisors12.open_interval_above("2")
        assert set(above.elements) == {"4", "6", "12"}
        assert above.leq("4", "12")

    def test_adjoin_bottom(self, divisors12):
        bigger = divisors12.adjoin_bottom("0")
        assert bigger.minimal_elements() == ("0",)
        assert bigger.leq("0", "12")
        with pytest.raises(InvalidArgumentError):
            divisors12.adjoin_bottom("6")

    def test_direct_product(self):
        chain2 = chain("a", "b")
        square = chain2.direct_product(chain2)
        assert len(square) == 4
        assert square.rank_length() == 2
        assert square.is_pure()


class TestIsomorphism:
    def test_check_order_map(self, divisors12):
        identity = {e: e for e in divisors12.elements}
        assert divisors12.check_order_map(divisors12, identity) == "isomorphism"
        ab = chain("a", "b")
        collapse = {e: "a" if e == "1" else "b" for e in divisors12.elements}
        assert divisors12.check_order_map(ab, collapse) == "homomorphism"
        flipped = {"a": "b", "b": "a"}
        assert ab.check_order_map(ab, flipped) == "neither"
        # a bijection that preserves order but does not reflect it
        assert antichain("x", "y").check_order_map(ab, {"x": "a", "y": "b"}) == "homomorphism"
        with pytest.raises(InvalidArgumentError):
            ab.check_order_map(ab, {"a": "zzz", "b": "a"})


class TestExportAndHelpers:
    def test_dot(self, divisors12):
        dot = divisors12.to_dot(name="d12")
        assert dot.startswith("digraph d12 {")
        assert dot.count("->") == len(divisors12.cover_edges())

    def test_element_key_variants(self):
        assert element_key("plain") == "plain"
        assert element_key(frozenset({"b", "a"})) == "{a,b}"
        assert element_key(("x", "y")) == "(x|y)"

    def test_topological_order_rejects_cycle(self):
        with pytest.raises(InvalidArgumentError):
            topological_order([[1], [0]])

    def test_chain_stats_from_covers_matches_dense(self, divisors12):
        index = {e: i for i, e in enumerate(divisors12.elements)}
        succ = [[] for _ in divisors12.elements]
        for a, b in divisors12.cover_edges():
            succ[index[a]].append(index[b])
        rank_length, pure = chain_stats_from_covers(succ)
        assert rank_length == divisors12.rank_length()
        assert pure == divisors12.is_pure()


@st.composite
def cover_digraphs(draw):
    """The cover digraph of a random order on at most 9 elements, with the
    elements numbered in random order, and the order's reachability."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    above = [{i} for i in range(n)]  # above[i]: i and everything over it
    for i in reversed(range(n)):
        for a, b in edges:
            if a == i:
                above[i] |= above[b]
    succ = [
        [j for j in above[i] - {i} if not any(j in above[h] for h in above[i] - {i, j})]
        for i in range(n)
    ]
    label = draw(st.permutations(range(n)))
    relabeled = [[] for _ in range(n)]
    for i, outs in enumerate(succ):
        relabeled[label[i]] = [label[j] for j in outs]
    leq = {(label[i], label[j]) for i in range(n) for j in above[i]}
    return relabeled, leq


def _maximal_chain_lengths(n, leq):
    """Edge counts of every maximal chain, from every subset of elements."""
    def comparable(a, b):
        return (a, b) in leq or (b, a) in leq

    chains = [
        members
        for mask in range(1, 1 << n)
        for members in [[i for i in range(n) if mask >> i & 1]]
        if all(comparable(a, b) for a in members for b in members)
    ]
    maximal = [
        members
        for members in chains
        if not any(x not in members and all(comparable(x, a) for a in members) for x in range(n))
    ]
    return {len(members) - 1 for members in maximal}


class TestChainStatsFromCovers:
    @settings(max_examples=300, deadline=None)
    @given(digraph=cover_digraphs())
    def test_matches_every_maximal_chain(self, digraph):
        succ, leq = digraph
        lengths = _maximal_chain_lengths(len(succ), leq)
        assert chain_stats_from_covers(succ) == (max(lengths), len(lengths) == 1)

    def test_isolated_point_beside_a_two_chain_is_not_pure(self):
        assert chain_stats_from_covers([[1], [2], [], []]) == (2, False)

    def test_disjoint_chains_of_equal_length_are_pure(self):
        assert chain_stats_from_covers([[1], [], [3], []]) == (1, True)

    def test_two_cycle_raises(self):
        with pytest.raises(InvalidArgumentError, match="cycle"):
            chain_stats_from_covers([[1], [0]])
