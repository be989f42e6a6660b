"""Family builders: element counts, orders, and cross-validation."""

import hashlib
from itertools import combinations

import pytest

from arcposet import families
from arcposet import matrix as matrix_module

from arcposet.complexes import SimplicialComplex, join, simplex
from arcposet.crossing import is_k_noncrossing
from arcposet.diagram import (
    Diagram,
    block_matrix,
    free_sites,
    is_proper,
    is_regular,
    parse,
    tautology_number,
)
from arcposet.errors import InvalidArgumentError, InvariantError, ResourceLimitError
from arcposet.families import (
    admissible_arcs,
    build_D,
    build_M,
    build_P,
    build_S,
    build_So,
    build_Sstar,
    build_family,
    enumerate_binary_diagrams,
    enumerate_proper_diagrams,
    in_proper_family,
    in_regular_family,
    matrix_family_covers,
    nonrelevant_arcs,
    order_ideal_ranks,
    proper_length_bound,
    relevant_arcs,
    suppression_leq,
    unit_step_covers,
)
from arcposet.matrix import (
    SymmetricMatrix,
    dominates,
    enumerate_matrices,
    enumerate_matrix_keys,
    family_membership,
    matrices_from_keys,
)
from arcposet.poset import FinitePoset, chain_stats_from_covers
from arcposet.transform import (
    beta,
    beta_inverse,
    canonicalize,
    equivalent_by_definition,
    kappa,
    swap_orbit,
    theta_inverse,
)
from arcposet.verify import _MATRIX_FAMILY_GRID


class TestArcPools:
    def test_admissible_counts(self):
        assert admissible_arcs(4) == [(1, 3), (2, 4)]
        assert len(admissible_arcs(6)) == 9
        assert len(admissible_arcs(7)) == 14

    def test_relevance_split(self):
        assert relevant_arcs(6, 2) == [(1, 4), (2, 5), (3, 6)]
        assert len(nonrelevant_arcs(6, 2)) == 6
        assert set(relevant_arcs(6, 2)) | set(nonrelevant_arcs(6, 2)) == set(admissible_arcs(6))


class TestDiagramEnumeration:
    def test_binary_includes_trivial(self):
        diagrams = list(enumerate_binary_diagrams(4))
        assert Diagram(4) in diagrams
        assert len(diagrams) == len(set(diagrams))

    def test_proper_length_4(self):
        assert sorted(d.key() for d in enumerate_proper_diagrams(4)) == [
            "n=4; arcs=(1,3)",
            "n=4; arcs=(2,4)",
        ]

    def test_all_proper(self):
        for n in (5, 6, 7):
            for d in enumerate_proper_diagrams(n):
                assert is_proper(d)

    def test_matches_brute_force(self):
        n = 6
        pool = admissible_arcs(n)
        brute = set()
        for mask in range(1, 1 << len(pool)):
            arcs = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            d = Diagram(n, arcs)
            if is_proper(d):
                brute.add(d)
        assert set(enumerate_proper_diagrams(n)) == brute

    @pytest.mark.parametrize("n", range(2, 10))
    def test_binary_scan_matches_brute_force(self, n):
        # every set of admissible arcs that share no endpoint, the empty one
        # included; a matching has at most n // 2 arcs
        pool = admissible_arcs(n)
        brute = {
            Diagram(n, arcs)
            for size in range(n // 2 + 1)
            for arcs in combinations(pool, size)
            if len({site for arc in arcs for site in arc}) == 2 * size
        }
        diagrams = list(enumerate_binary_diagrams(n))
        assert len(diagrams) == len(set(diagrams))
        assert set(diagrams) == brute

    @pytest.mark.parametrize(
        "matchings, digest",
        [
            (lambda: families.proper_matchings(10), "b2cb675cf395216936af0d3eb884ab58ca8edda2d9a3d925dc6d855c170297ba"),
            (
                lambda: families._site_matchings(9, proper=False),
                "50267ded1d6428348c4309b22534dec71cfb6e9c9d2f48f55fbe9cd1ec91f45a",
            ),
        ],
        ids=["proper-10", "binary-9"],
    )
    def test_matching_search_order_is_pinned(self, matchings, digest):
        # the partner tuples, fiber keys and their order are fixed: the
        # checks that read them report their first failure in this order
        assert hashlib.sha256(repr(list(matchings())).encode()).hexdigest() == digest

    def test_search_deeper_than_the_limit_is_refused_before_it_starts(self):
        message = "length 501 has 501 sites, over the search depth limit of 500"
        with pytest.raises(ResourceLimitError, match=message):
            families.proper_matchings(501)
        with pytest.raises(ResourceLimitError, match=message):
            next(enumerate_binary_diagrams(501))
        families.check_matching_depth(500)  # the longest length allowed


class TestInclusionFamilies:
    @pytest.mark.parametrize(
        "builder,args,size",
        [
            (build_S, (5, 1), 10),
            (build_S, (6, 2), 447),
            (build_So, (6, 2), 6),
            (build_Sstar, (6, 2), 63),
        ],
    )
    def test_sizes(self, builder, args, size):
        assert len(builder(*args)) == size

    def test_order_is_inclusion(self):
        poset = build_S(5, 1)
        small = Diagram(5, [(1, 3)])
        large = Diagram(5, [(1, 3), (3, 5)])
        assert poset.leq(small, large)
        assert not poset.leq(large, small)

    def test_members_are_k_noncrossing(self):
        for d in build_S(6, 2).elements:
            assert is_k_noncrossing(d.arcs, 2) and not d.is_trivial()

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            build_S(6, 2, cap=10)


class TestMatrixFamilyPoset:
    def test_order_is_domination(self):
        poset = build_M(5, 1, 1)
        for a in poset.elements[:20]:
            for b in poset.elements[:20]:
                assert poset.leq(a, b) == dominates(a, b)

    def test_covers_match_dense_poset(self):
        poset = build_M(5, 1, 1)
        matrices, succ = matrix_family_covers(5, 1, 1)
        index = {m: i for i, m in enumerate(matrices)}
        dense = {(index[a], index[b]) for a, b in poset.cover_edges()}
        sparse = {(i, j) for i, outs in enumerate(succ) for j in outs}
        assert dense == sparse

    def test_chain_stats_match_dense_poset(self):
        poset = build_M(5, 2, 1)
        keys = enumerate_matrix_keys(5, 2, 1)
        rank_length, pure, _ = order_ideal_ranks(keys)
        assert len(keys) == len(poset)
        assert rank_length + 1 == poset.rank_cardinality()
        assert pure == poset.is_pure()


def _dense_oracle(poset, leq):
    """The up-sets from the definition, and the stats line and DOT text
    recomputed from the full relation, pair by pair."""
    n = len(poset)
    below = [
        [i != j and bool(leq(a, b)) for j, b in enumerate(poset.elements)]
        for i, a in enumerate(poset.elements)
    ]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if below[i][j] and not any(below[i][t] and below[t][j] for t in range(n))
    ]
    # height: length of the longest chain ending at each element, found by
    # relaxing every strict pair until nothing grows
    height = [0] * n
    grown = True
    while grown:
        grown = False
        for i in range(n):
            for j in range(n):
                if below[i][j] and height[j] < height[i] + 1:
                    height[j] = height[i] + 1
                    grown = True
    length = max(height)
    maximal = [i for i in range(n) if not any(below[i])]
    minimal = [j for j in range(n) if not any(below[i][j] for i in range(n))]
    pure = all(height[j] == height[i] + 1 for i, j in edges) and all(
        height[i] == length for i in maximal
    )
    stats = (
        f"elements={n} covers={len(edges)} minimal={len(minimal)} "
        f"maximal={len(maximal)} rank_length={length} rank_cardinality={length + 1} pure={pure}"
    )
    labels = [f'  n{i} [label="{e.key()}"];' for i, e in enumerate(poset.elements)]
    dot = "\n".join(
        ["digraph poset {", "  rankdir=BT;", *labels, *(f"  n{i} -> n{j};" for i, j in edges), "}"]
    )
    up_sets = [sum(1 << j for j in range(n) if i == j or below[i][j]) for i in range(n)]
    return up_sets, edges, stats, dot


def _arc_inclusion(a, b):
    return set(a.arcs) <= set(b.arcs)


@pytest.mark.parametrize(
    "builder,args,leq",
    [
        (build_S, (6, 2), _arc_inclusion),
        (build_So, (7, 2), _arc_inclusion),
        (build_Sstar, (7, 2), _arc_inclusion),
        (build_M, (5, 1, 1), dominates),
        (build_M, (5, 2, 1), dominates),
        (build_P, (4, 1, 1), lambda a, b: dominates(block_matrix(a), block_matrix(b))),
        (build_D, (3, 1, 2), suppression_leq),
        (build_D, (3, 2, 2), suppression_leq),
        (build_D, (4, 1, 1), suppression_leq),
        (build_D, (4, 2, 0), suppression_leq),
    ],
)
def test_cover_core_matches_dense_oracle(builder, args, leq):
    poset = builder(*args)
    up_sets, edges, stats, dot = _dense_oracle(poset, leq)
    index = {e: i for i, e in enumerate(poset.elements)}
    assert [(index[a], index[b]) for a, b in poset.cover_edges()] == edges
    assert poset.stats_text() == stats
    assert poset.to_dot() == dot
    assert poset.up_sets == up_sets


@pytest.mark.parametrize(
    "builder,args",
    [(build_M, (4, 1, 9)), (build_M, (5, 2, 1)), (build_P, (4, 2, 1)), (build_P, (3, 2, 2))],
)
def test_texts_order_the_family_as_its_built_members(builder, args):
    """M and P are sorted by texts read off their keys and layouts; the
    members built one by one, handed to the constructor with the same
    covers, give the same order.  P(4,2,1) and P(3,2,2) have lengths of
    two digits, whose texts sort before one-digit lengths."""
    poset = builder(*args)
    order = args[0] if builder is build_M else args[0] + 1
    keys = enumerate_matrix_keys(order, *args[1:])
    members = matrices_from_keys(order, keys)
    if builder is build_P:
        members = [beta_inverse(matrix, *args[1:]) for matrix in members]
    given = FinitePoset(members, unit_step_covers(keys), validate=False)
    assert len(poset) == len(given) and poset.succ == given.succ
    assert poset.elements == given.elements


def test_matrix_text_order_is_not_key_order():
    # ';' sorts after the digits and ',' before them, so the matrix with
    # entry 10 at (2,4) comes before the one with entry 1 there
    elements = build_M(4, 1, 9).elements
    texts = [matrix.key() for matrix in elements]
    assert texts == sorted(texts)
    assert list(elements) != matrices_from_keys(4, enumerate_matrix_keys(4, 1, 9))
    assert texts[5:7] == ["0,0,0,0;0,0,0,10;0,0,0,0;0,10,0,0", "0,0,0,0;0,0,0,1;0,0,0,0;0,1,0,0"]


class TestUnitStepCovers:
    def test_covers_are_unit_steps_inside_the_family(self):
        keys = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2)]
        assert unit_step_covers(keys) == [[3, 2], [2, 5], [4], [4], [], []]

    def test_family_not_closed_under_decrement_raises(self):
        with pytest.raises(InvariantError, match="lacks \\(1, 1\\)"):
            unit_step_covers([(1, 0), (0, 1), (2, 0), (2, 1)])


class TestOrderIdealRanks:
    """The one-pass rank and purity of a key family against its covers."""

    @pytest.mark.parametrize(
        "point",
        _MATRIX_FAMILY_GRID + [{"f": 3, "k": 1, "r": 3}, {"f": 4, "k": 2, "r": 3}],
        ids=lambda point: "f={f},k={k},r={r}".format(**point),
    )
    def test_matches_the_cover_digraph(self, point):
        m, k, r = point["f"] + 1, point["k"], point["r"]
        keys = enumerate_matrix_keys(m, k, r)
        rank_length, pure, witness = order_ideal_ranks(keys)
        assert (rank_length, pure) == chain_stats_from_covers(unit_step_covers(keys))
        assert (witness is None) == pure
        if witness is not None:
            family = set(keys)
            assert witness in family and sum(witness) < max(map(sum, keys))
            assert all(witness[:p] + (v + 1,) + witness[p + 1 :] not in family for p, v in enumerate(witness))

    def test_zero_vector_is_the_bottom(self):
        keys = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
        assert order_ideal_ranks(keys) == (2, True, None)
        assert chain_stats_from_covers(unit_step_covers(keys)) == (2, True)

    def test_not_closed_under_decrement_raises(self):
        with pytest.raises(InvariantError, match="lacks \\(1, 1\\)"):
            order_ideal_ranks([(1, 0), (0, 1), (2, 0), (2, 1)])

    def test_witness_is_a_maximal_key_below_the_top(self):
        keys = [(1, 0), (0, 1), (2, 0)]
        assert order_ideal_ranks(keys) == (1, False, (0, 1))
        assert chain_stats_from_covers(unit_step_covers(keys)) == (1, False)

    def test_duplicate_keys_are_refused(self):
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            unit_step_covers([(1, 0), (0, 1), (1, 0)])

    def test_empty_family_has_no_rank(self):
        with pytest.raises(InvalidArgumentError):
            order_ideal_ranks([])


class TestRegularFamily:
    def test_elements_are_regular_with_distinct_block_matrices(self):
        poset = build_P(4, 1, 1)
        keys = set()
        for d in poset.elements:
            assert is_regular(d) and len(free_sites(d)) == 4
            keys.add(block_matrix(d).key())
        assert len(keys) == len(poset)

    def test_matches_matrix_family(self):
        assert len(build_P(4, 2, 0)) == len(enumerate_matrices(5, 2, 0))

    def test_membership_helpers(self):
        d = Diagram(6, [(1, 4)])
        assert in_proper_family(d, 4, 1, 0)
        assert in_regular_family(d, 4, 1, 0)
        assert not in_proper_family(d, 3, 1, 0)
        # (1,4),(2,6) has a semi-diagonal block entry, so tautology 1
        crossing = Diagram(7, [(1, 4), (2, 6)])
        assert not in_proper_family(crossing, 3, 2, 0)
        assert in_proper_family(crossing, 3, 2, 1)
        assert not in_regular_family(crossing, 3, 2, 1)


class TestProperFamily:
    def test_length_bound_value(self):
        assert proper_length_bound(3, 0) == 7
        assert proper_length_bound(3, 1) == 9

    def test_members(self):
        poset = build_D(3, 2, 1)
        for d in poset.elements:
            assert is_proper(d)
            assert len(free_sites(d)) == 3
            assert is_k_noncrossing(d.arcs, 2)
            assert tautology_number(d) <= 1

    def test_suppression_order(self):
        large = Diagram(9, [(1, 8), (2, 5), (3, 8)])
        small = Diagram(8, [(1, 7), (2, 4)])
        assert suppression_leq(small, large)
        assert not suppression_leq(large, small)
        assert suppression_leq(large, large)

    def test_elements_match_the_binary_scan(self):
        f = 3
        scan = [
            d
            for n in range(f + 2, proper_length_bound(f, 2) + 1)
            for d in enumerate_binary_diagrams(n)
        ]
        for k in (1, 2):
            for r in (0, 1, 2):
                expected = {d for d in scan if in_proper_family(d, f, k, r)}
                assert set(build_D(f, k, r).elements) == expected, (k, r)

    @pytest.mark.parametrize("f,k,r", [(4, 1, 1), (4, 2, 0), (5, 1, 0)])
    def test_elements_are_the_noncrossing_parts_of_the_fibers(self, f, k, r):
        # each block-matrix fiber is the swap orbit of its regular diagram
        expected = {
            d
            for matrix in enumerate_matrices(f + 1, k, r)
            for d in swap_orbit(beta_inverse(matrix, k, r))
            if is_k_noncrossing(d.arcs, k)
        }
        assert set(build_D(f, k, r).elements) == expected

    def test_suppression_outside_the_family_raises(self, monkeypatch):
        # n=5; arcs=(1,4) lies below n=7; arcs=(1,6),(2,4), grown from (1,3)
        missing = ((1, 4),)
        grow = families._proper_insertions

        def grow_all_but_one(arcs, f, k, r):
            return (bigger for bigger in grow(arcs, f, k, r) if bigger != missing)

        monkeypatch.setattr(families, "_proper_insertions", grow_all_but_one)
        with pytest.raises(InvariantError, match="leaves D\\(3,1,1\\)"):
            build_D(3, 1, 1)

    def test_every_reader_follows_entry_cost(self, monkeypatch):
        # the alternative tautology rule: a semi-diagonal value v costs v
        def semi_diagonal_costs_its_value(i, j, value):
            return value if j == i + 1 else max(0, value - 1)

        monkeypatch.setattr(matrix_module, "entry_cost", semi_diagonal_costs_its_value)
        monkeypatch.setattr(families, "entry_cost", semi_diagonal_costs_its_value)
        assert len(enumerate_matrix_keys(4, 1, 2)) == 39  # 30 under the coded rule
        f, k, r = 3, 1, 2
        scan = {
            d
            for n in range(f + 2, proper_length_bound(f, r) + 1)
            for d in enumerate_binary_diagrams(n)
            if in_proper_family(d, f, k, r)
        }
        assert len(scan) == 39
        assert set(build_D(f, k, r).elements) == scan

    def test_regular_family_is_a_suborder_image(self):
        proper = build_D(3, 1, 1)
        regular = build_P(3, 1, 1)
        assert {canonicalize(d) for d in proper.elements} == set(regular.elements)


class TestDispatch:
    def test_build_family(self):
        assert len(build_family("S", n=5, k=1)) == 10
        assert len(build_family("M", m=4, k=1, r=0)) == 2
        assert len(build_family("P", f=4, k=1, r=0)) == 10

    def test_builder_is_looked_up_per_call(self, monkeypatch):
        monkeypatch.setattr(families, "build_S", lambda n, k: ("stub", n, k))
        assert build_family("S", n=5, k=1) == ("stub", 5, 1)

    def test_unknown_parameter(self):
        with pytest.raises(InvalidArgumentError, match="not .r."):
            build_family("S", n=5, k=1, r=0)

    def test_missing_parameter(self):
        with pytest.raises(InvalidArgumentError, match="parameter k"):
            build_family("S", n=5)

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            build_family("Q", n=5, k=1)


_ORDER_4 = SymmetricMatrix([[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
# regular: (1,5) and (3,7) cross; (4,6) leaves tautology 1
_CROSSING = parse("n=7; arcs=(1,5),(3,7)")
_TAUTOLOGICAL = parse("n=6; arcs=(4,6)")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: build_D(1, 1, 0), "f must be >= 2", id="build_D-f"),
        pytest.param(lambda: build_D(2, 0, 0), "k must be >= 1", id="build_D-k"),
        pytest.param(lambda: build_D(2, 1, -1), "r must be >= 0", id="build_D-r"),
        pytest.param(lambda: build_S(5, 0), "k must be >= 1", id="build_S-k"),
        pytest.param(lambda: build_Sstar(6, 0), "k must be >= 1", id="build_Sstar-k"),
        pytest.param(lambda: admissible_arcs(1), "length must be >= 2", id="admissible_arcs-n"),
        pytest.param(lambda: family_membership(_ORDER_4, "M", 3), "order m must be >= 4", id="membership-m"),
        pytest.param(lambda: family_membership(_ORDER_4, "Mk", 4, 0), "k must be >= 1", id="membership-k"),
        pytest.param(lambda: family_membership(_ORDER_4, "Mr", 4, 1, -1), "r must be >= 0", id="membership-r"),
        pytest.param(lambda: theta_inverse(Diagram(6), 1), "non-trivial", id="theta_inverse-trivial"),
        pytest.param(lambda: theta_inverse(Diagram(6, [(1, 3)]), 2), "not 2-relevant", id="theta_inverse-irrelevant"),
        pytest.param(lambda: beta(_CROSSING, 1, 5), "not 1-noncrossing", id="beta-crossing"),
        pytest.param(lambda: beta(_TAUTOLOGICAL, 1, 0), "exceeds bound 0", id="beta-tautology"),
        pytest.param(lambda: kappa(_CROSSING, 1), "not 1-noncrossing", id="kappa-crossing"),
        pytest.param(
            lambda: equivalent_by_definition(Diagram(6, [(1, 3), (2, 5)]), Diagram(5, [(1, 3)])),
            "proper diagrams",
            id="equivalent_by_definition-improper",
        ),
        pytest.param(lambda: join(SimplicialComplex([]), simplex(1)), "void complex", id="join-void"),
        pytest.param(lambda: chain_stats_from_covers([]), "empty poset", id="chain_stats_from_covers-empty"),
    ],
)
def test_out_of_domain_arguments_are_refused(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()
