"""Symmetric matrices, the tautology functional, families, enumeration."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from arcposet.crossing import is_k_noncrossing
from arcposet.errors import InvalidArgumentError, ResourceLimitError
from arcposet.matrix import (
    SymmetricMatrix,
    dominates,
    enumerate_matrices,
    enumerate_matrix_keys,
    family_membership,
    p_value,
    q_value,
    r_value,
    upper_positions,
)


def small_matrices():
    @st.composite
    def build(draw):
        order = draw(st.integers(1, 5))
        entries = {}
        for i in range(1, order + 1):
            for j in range(i, order + 1):
                entries[(i, j)] = draw(st.integers(0, 3))
        return SymmetricMatrix.from_entries(order, entries)

    return build()


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            SymmetricMatrix([[0, 1], [0, 0]])

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            SymmetricMatrix([[0, -1], [-1, 0]])

    def test_rejects_ragged(self):
        with pytest.raises(InvalidArgumentError):
            SymmetricMatrix([[0, 1], [1]])

    @pytest.mark.parametrize("entry", ["1.7", "true", '"1"', "null"])
    def test_json_rejects_non_integer_entries(self, entry):
        text = f'{{"order": 2, "rows": [[0, {entry}], [{entry}, 0]]}}'
        with pytest.raises(InvalidArgumentError, match="not an integer"):
            SymmetricMatrix.from_json(text)

    @pytest.mark.parametrize("rows", ["5", "[5, 6]", '"ab"'])
    def test_json_rejects_rows_that_are_not_lists(self, rows):
        with pytest.raises(InvalidArgumentError, match="list of lists"):
            SymmetricMatrix.from_json(f'{{"order": 2, "rows": {rows}}}')

    @pytest.mark.parametrize("rows", [[[0, 1.7], [1.2, 0]], [[0, True], [True, 0]]])
    def test_rejects_non_integer_entries(self, rows):
        # no silent int(): 1.7 would otherwise become 1, True would become 1
        with pytest.raises(InvalidArgumentError, match=f"got {rows[0][1]!r}"):
            SymmetricMatrix(rows)

    def test_from_entries_symmetrizes(self):
        m = SymmetricMatrix.from_entries(3, {(1, 3): 2})
        assert m.entry(3, 1) == 2

    def test_zero_and_predicates(self):
        z = SymmetricMatrix.from_entries(4, {})
        assert z.is_trivial() and z.is_zero_one()
        m = SymmetricMatrix.from_entries(4, {(1, 3): 2})
        assert not m.is_trivial() and not m.is_zero_one()
        assert m.nonzero_positions() == ((1, 3),)

    @given(small_matrices())
    def test_json_round_trip(self, m):
        assert SymmetricMatrix.from_json(m.to_json()) == m

    def test_json_rejects_an_unknown_field(self):
        with pytest.raises(InvalidArgumentError, match="'order' and 'rows' and no other"):
            SymmetricMatrix.from_json('{"order": 2, "rows": [[0, 1], [1, 0]], "cols": 2}')

    @pytest.mark.parametrize("order", ["2.0", "true"])
    def test_json_rejects_an_order_that_is_not_an_int(self, order):
        # 2.0 == 2 and true == 1 would otherwise pass the row count
        rows = "[[0, 1], [1, 0]]" if order == "2.0" else "[[0]]"
        with pytest.raises(InvalidArgumentError, match="'order' must be an integer"):
            SymmetricMatrix.from_json(f'{{"order": {order}, "rows": {rows}}}')

    @pytest.mark.parametrize("bad", ["{}", "[]", "nope", '{"order": 2, "rows": [[0,0]]}'])
    def test_bad_json(self, bad):
        with pytest.raises(InvalidArgumentError):
            SymmetricMatrix.from_json(bad)


class TestTautology:
    def test_worked_example(self):
        m = SymmetricMatrix.from_entries(4, {(1, 3): 1, (3, 4): 2})
        assert p_value(m) == 1
        assert q_value(m) == 2
        assert r_value(m) == 3

    def test_zero_for_zero_one_off_semidiagonal(self):
        m = SymmetricMatrix.from_entries(5, {(1, 3): 1, (2, 5): 1})
        assert r_value(m) == 0

    @given(small_matrices())
    def test_r_is_p_plus_q(self, m):
        assert r_value(m) == p_value(m) + q_value(m)

    def test_r_is_p_plus_q_on_a_family(self):
        for m in enumerate_matrices(5, 2, 2):
            assert r_value(m) == p_value(m) + q_value(m) <= 2


class TestOrderAndCrossing:
    def test_dominates(self):
        small = SymmetricMatrix.from_entries(4, {(1, 3): 1})
        large = SymmetricMatrix.from_entries(4, {(1, 3): 2, (2, 4): 1})
        assert dominates(small, large)
        assert not dominates(large, small)
        assert not dominates(small, SymmetricMatrix.from_entries(5, {}))

    def test_k_noncrossing(self):
        crossing = SymmetricMatrix.from_entries(4, {(1, 3): 1, (2, 4): 1})
        assert not is_k_noncrossing(crossing.nonzero_positions(), 1)
        assert is_k_noncrossing(crossing.nonzero_positions(), 2)


class TestFamilies:
    def test_base_membership(self):
        m = SymmetricMatrix.from_entries(5, {(1, 3): 1, (2, 5): 1})
        assert family_membership(m, "M", 5)
        # (1,3) and (2,5) cross, so k=1 excludes it but k=2 admits it
        assert not family_membership(m, "Mk", 5, 1)
        assert family_membership(m, "Mk", 5, 2)
        nested = SymmetricMatrix.from_entries(5, {(1, 3): 1, (3, 5): 1})
        assert family_membership(nested, "Mk", 5, 1)
        # nonzero semi-diagonal excluded from the base family
        semi = SymmetricMatrix.from_entries(5, {(1, 2): 1})
        assert not family_membership(semi, "M", 5)
        assert family_membership(semi, "Mr", 5, 1, 1)
        assert not family_membership(semi, "Mr", 5, 1, 0)

    def test_base_families_are_the_r0_case(self):
        # no three diagonals of a pentagon cross pairwise, so M_5 = M_{5,2}
        for m in enumerate_matrices(5, 2, 2):
            at_zero = family_membership(m, "Mr", 5, 2, 0)
            assert family_membership(m, "Mk", 5, 2) == family_membership(m, "M", 5) == at_zero
            assert at_zero == (m.is_zero_one() and q_value(m) == 0)

    def test_rainbow_and_diagonal_are_structural_zeros(self):
        rainbow = SymmetricMatrix.from_entries(5, {(1, 5): 1})
        diagonal = SymmetricMatrix.from_entries(5, {(3, 3): 1})
        for m in (rainbow, diagonal):
            assert not family_membership(m, "Mr", 5, 1, 5)

    def test_trivial_excluded(self):
        assert not family_membership(SymmetricMatrix.from_entries(5, {}), "Mr", 5, 1, 2)

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            family_membership(SymmetricMatrix.from_entries(5, {}), "X", 5)


class TestEnumeration:
    @pytest.mark.parametrize(
        "m,k,r,count",
        [(4, 1, 0, 2), (4, 2, 0, 3), (5, 1, 0, 10), (6, 1, 0, 44), (6, 2, 0, 447)],
    )
    def test_known_counts(self, m, k, r, count):
        assert len(enumerate_matrices(m, k, r)) == count

    def test_members_verify(self):
        for m in enumerate_matrices(5, 2, 2):
            assert family_membership(m, "Mr", 5, 2, 2)

    def test_enumeration_is_complete_for_r0(self):
        # r=0 members are exactly the k-noncrossing (0,1) fillings
        listed = {m.key() for m in enumerate_matrices(5, 1, 0)}
        count = 0
        positions = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
        for mask in range(1, 1 << len(positions)):
            chosen = {positions[i]: 1 for i in range(len(positions)) if mask >> i & 1}
            m = SymmetricMatrix.from_entries(5, chosen)
            if is_k_noncrossing(m.nonzero_positions(), 1):
                count += 1
                assert m.key() in listed
        assert count == len(listed)

    @pytest.mark.parametrize("m,r", [(4, 1), (4, 2), (5, 1), (5, 2)])
    def test_enumeration_is_complete_for_r1_and_r2(self, m, r):
        # every value 1..r+1 on every 1-noncrossing support, kept by the
        # membership test; r + 2 costs more than r at any position
        positions = upper_positions(m)
        expected = set()
        for mask in range(1, 1 << len(positions)):
            support = [pair for t, pair in enumerate(positions) if mask >> t & 1]
            if not is_k_noncrossing(support, 1):
                continue
            for values in product(range(1, r + 2), repeat=len(support)):
                matrix = SymmetricMatrix.from_entries(m, dict(zip(support, values)))
                if family_membership(matrix, "Mr", m, 1, r):
                    expected.add(matrix)
        assert set(enumerate_matrices(m, 1, r)) == expected

    def test_matrices_are_the_keys_wrapped(self):
        for m in (4, 5, 6):
            positions = upper_positions(m)
            for k in (1, 2):
                for r in (0, 1, 2):
                    keys = enumerate_matrix_keys(m, k, r)
                    wrapped = [SymmetricMatrix.from_entries(m, dict(zip(positions, key))) for key in keys]
                    assert enumerate_matrices(m, k, r) == wrapped
                    assert keys == sorted(set(keys))

    def test_sorted_deterministically(self):
        mats = enumerate_matrices(5, 2, 1)
        assert mats == sorted(mats, key=lambda m: m.rows)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_matrices(6, 2, 2, cap=10)

    def test_cap_bounds_visited_nodes_not_a_prediction(self):
        # the old bound predicted 44,040,192 for M(7,1,1)
        assert len(enumerate_matrices(7, 1, 1, cap=100_000)) == 1924
        with pytest.raises(ResourceLimitError, match="100 nodes"):
            enumerate_matrices(7, 1, 1, cap=100)

    @pytest.mark.parametrize("m, k, r, top", [(6, 2, 2, 3), (4, 1, 12, 13)])
    def test_keys_come_out_in_increasing_order(self, m, k, r, top):
        # the search tries 0 and then each value upward at every position,
        # so no sort is needed; at r = 12 entries reach two digits
        keys = enumerate_matrix_keys(m, k, r)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert max(map(max, keys)) == top

    def test_search_deeper_than_the_limit_is_refused_before_it_starts(self):
        # order 33 has 527 positions, one recursion each; order 32 has 495
        # and reaches the node cap instead
        with pytest.raises(ResourceLimitError, match="order 33 has 527 positions, over the search depth limit of 500"):
            enumerate_matrix_keys(33, 1, 0, cap=0)
        with pytest.raises(ResourceLimitError, match="exceeded 1000 nodes"):
            enumerate_matrix_keys(32, 1, 0, cap=1000)

    def test_argument_validation(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_matrices(3, 1, 0)
        with pytest.raises(InvalidArgumentError):
            enumerate_matrices(4, 0, 0)
        with pytest.raises(InvalidArgumentError):
            enumerate_matrices(4, 1, -1)
