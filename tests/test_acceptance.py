"""End-to-end acceptance suite.

One test per headline claim, each verified exhaustively at desk scale
against independently computed oracles (Catalan–Hankel facet counts,
brute-force subset enumeration, rank formulas).  Exact equality
throughout; no tolerances.
"""

import pytest

from arcposet.complexes import (
    build_T,
    join,
    noncrossing_complex,
    order_complex,
    reduced_homology,
    sphere_signature,
)
from arcposet.diagram import block_matrix, free_sites, is_regular
from arcposet.families import (
    admissible_arcs,
    build_P,
    build_S,
    build_So,
    build_Sstar,
    order_ideal_ranks,
)
from arcposet.matrix import enumerate_matrices, enumerate_matrix_keys
from arcposet.poset import FinitePoset
from arcposet.transform import (
    BOTTOM_RELEVANT,
    BOTTOM_STAR,
    beta_inverse,
    kappa,
    tau_inverse,
)
from arcposet.verify import run_check


def assert_check(name, grid=None):
    report = run_check(name, grid)
    failures = [
        f"{p.params}: {p.detail}" for p in report.points if not p.passed
    ]
    assert not failures, f"{name} failed at {failures}"


def catalan(n: int) -> int:
    if n < 0:
        return 0
    result = 1
    for i in range(n):
        result = result * 2 * (2 * i + 1) // (i + 2)
    return result


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign, previous = 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // previous
        previous = a[t][t]
    return sign * a[-1][-1] if n else 1


def hankel_facet_count(m: int, k: int) -> int:
    """det(C_{m-i-j}) for 1 <= i, j <= k: the number of k-triangulations."""
    return bareiss_determinant(
        [[catalan(m - i - j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    )


def test_bareiss_determinant_matches_cofactor_expansion():
    def cofactor(a):
        if len(a) == 1:
            return a[0][0]
        return sum(
            (-1) ** j * a[0][j] * cofactor([row[:j] + row[j + 1:] for row in a[1:]])
            for j in range(len(a))
        )

    for a in ([[0, 2, 1], [3, 0, 4], [5, 6, 0]], [[2, 4], [1, 2]], [[0, 1], [1, 0]], [[7]]):
        assert bareiss_determinant(a) == cofactor(a)
    assert hankel_facet_count(9, 3) == 30
    assert hankel_facet_count(10, 3) == 330


def test_smallest_regular_families_are_a_circle_and_a_2_sphere():
    poset = build_P(4, 1, 0)
    complex_ = order_complex(poset)
    assert len(poset) == 10
    assert complex_.f_vector() == (10, 10)
    # a pure 1-complex with 10 vertices, 10 edges and circle homology in
    # which every vertex lies on exactly two edges is a single cycle
    degree = {v: 0 for v in complex_.vertices()}
    for facet in complex_.facets:
        for v in facet:
            degree[v] += 1
    assert set(degree.values()) == {2}
    assert sphere_signature(complex_) == 1
    assert sphere_signature(order_complex(build_P(5, 1, 0))) == 2


def test_regular_family_homology_matches_join_prediction():
    # the order complex of the r=0 regular family is the barycentric
    # subdivision of the complex of k-noncrossing arc subsets (the families
    # are isomorphic; see the structure-map test), so homology is computed
    # on the smaller complex
    for f, k in [(4, 1), (5, 1), (6, 1), (5, 2), (6, 2)]:
        complex_ = noncrossing_complex(admissible_arcs(f + 1), k)
        simplex_dim = (f + 1) * (k - 1) - 1
        sphere_dim = k * (f - 2 * k) - 1
        if simplex_dim >= 0:
            assert reduced_homology(complex_).is_trivial(), (f, k)
        else:
            assert sphere_signature(complex_) == sphere_dim, (f, k)
    # cross-validate the subdivision shortcut against the literal order
    # complexes where those are small
    for f, k in [(4, 1), (5, 1)]:
        direct = reduced_homology(order_complex(build_P(f, k, 0)))
        shortcut = reduced_homology(noncrossing_complex(admissible_arcs(f + 1), k))
        assert direct == shortcut, (f, k)


def test_multitriangulation_complexes_are_spheres_with_hankel_facet_counts():
    for m, k in [(5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2), (9, 3), (10, 3), (11, 3)]:
        complex_ = build_T(m, k)
        assert sphere_signature(complex_) == k * (m - 2 * k - 1) - 1, (m, k)
        assert len(complex_.facets) == hankel_facet_count(m, k), (m, k)


def test_bounded_families_are_pure_with_exact_rank():
    for f in (3, 4, 5):
        for k in (1, 2):
            if f < 2 * k:
                continue
            for r in (0, 1, 2):
                rank_length, pure, _ = order_ideal_ranks(enumerate_matrix_keys(f + 1, k, r))
                rank_card = rank_length + 1
                expected = k * (2 * f - 2 * k + 1) + r - f - 1
                assert pure, (f, k, r)
                assert rank_card == expected, (f, k, r, rank_card)
    # the cover-digraph statistics agree with the dense poset where that
    # is cheap to build
    for f, k, r in [(3, 1, 2), (4, 1, 1), (4, 2, 0)]:
        poset = build_P(f, k, r)
        rank_length, pure, _ = order_ideal_ranks(enumerate_matrix_keys(f + 1, k, r))
        assert poset.rank_cardinality() == rank_length + 1
        assert poset.is_pure() == pure


def test_structure_maps_are_order_isomorphisms():
    assert_check("beta")
    assert_check("tau")
    assert_check("rho")
    # explicit poset-level isomorphism through the adjacency matrix on a
    # mid-sized point: regular family <-> inclusion family of diagrams, each
    # member reached from its matrix by beta_inverse
    regular = build_P(4, 2, 0)
    inclusion = build_S(5, 2)
    members = [beta_inverse(matrix, 2, 0) for matrix in enumerate_matrices(5, 2, 0)]
    assert set(members) == set(regular.elements)
    mapping = {d: tau_inverse(block_matrix(d)) for d in members}
    assert regular.check_order_map(inclusion, mapping) == "isomorphism"


def test_equivalence_matches_block_matrices_with_unique_regular_forms():
    assert_check("equivalence")
    assert_check("regular-unique")


def test_dual_matrix_identity_and_matrix_realization():
    assert_check("dual-matrix")
    assert_check("realize-roundtrip")


def test_families_split_as_products_of_relevant_and_nonrelevant_parts():
    assert_check("kappa")
    assert_check("join")
    # explicit poset-level isomorphism at one point: the full family is
    # the product of the two sub-families above the adjoined bottoms
    m, k = 6, 2
    whole = build_S(m, k)
    star = build_Sstar(m, k).adjoin_bottom(BOTTOM_STAR)
    relevant = build_So(m, k).adjoin_bottom(BOTTOM_RELEVANT)
    product = star.direct_product(relevant)
    above = product.open_interval_above((BOTTOM_STAR, BOTTOM_RELEVANT))
    mapping = {d: kappa(d, k) for d in whole.elements}
    assert whole.check_order_map(above, mapping) == "isomorphism"


def test_every_proper_diagram_respects_the_length_bound():
    assert_check("length-bound")


def test_thm_level_cli_checks_run_green():
    # the two umbrella theorem checks exposed on the command line
    assert_check("thm11")
    assert_check("thm12", [{"f": 4, "k": 1, "r": 1}, {"f": 5, "k": 2, "r": 0}])
