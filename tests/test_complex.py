"""Simplicial complexes, joins, order complexes, and exact homology."""

import random
from functools import reduce
from itertools import combinations
from math import gcd
from operator import and_, or_

import pytest
from hypothesis import given, settings, strategies as st

from arcposet import complexes
from arcposet.complexes import (
    SimplicialComplex,
    build_T,
    face_poset,
    join,
    noncrossing_complex,
    order_complex,
    read_facets,
    reduced_homology,
    shedding_h_vector,
    simplex,
    sphere_signature,
    write_facets,
)
from arcposet.crossing import (
    _blocked,
    crossing_adjacency,
    masked_clique_exists,
    maximal_noncrossing_masks,
    noncrossing_subset_masks,
    pairs_cross,
)
from arcposet.errors import InvalidArgumentError, ResourceLimitError
from arcposet.families import admissible_arcs, build_P, nonrelevant_arcs, relevant_arcs
from arcposet.poset import FinitePoset
from arcposet.snf import invariant_factors

from .test_acceptance import bareiss_determinant, hankel_facet_count


def circle():
    return SimplicialComplex([{"a", "b"}, {"b", "c"}, {"a", "c"}])


def two_points():
    return SimplicialComplex([{"a"}, {"b"}])


def wedge_of_two_circles():
    return SimplicialComplex(
        [{"a", "b"}, {"b", "c"}, {"a", "c"}, {"a", "d"}, {"d", "e"}, {"a", "e"}]
    )


def noncrossing_cone():
    return noncrossing_complex(admissible_arcs(6), 2)


# six-vertex triangulation of the real projective plane
RP2_FACETS = [
    {1, 2, 3}, {1, 3, 4}, {1, 2, 6}, {1, 4, 5}, {1, 5, 6},
    {2, 3, 5}, {2, 4, 5}, {2, 4, 6}, {3, 4, 6}, {3, 5, 6},
]


class TestSmith:
    def test_diagonal(self):
        assert invariant_factors({(0, 0): 2, (1, 1): 6}, 2, 2) == [2, 6]

    def test_divisibility_enforced(self):
        factors = invariant_factors({(0, 0): 2, (1, 1): 3}, 2, 2)
        assert factors == [1, 6]

    def test_unit_phase_only(self):
        entries = {(0, 0): 1, (0, 1): 4, (1, 0): 2, (1, 1): 9}
        assert invariant_factors(entries, 2, 2) == [1, 1]

    def test_zero_matrix(self):
        assert invariant_factors({}, 3, 4) == []

    def test_known_torsion(self):
        # boundary with cokernel Z/2
        assert invariant_factors({(0, 0): 2}, 1, 1) == [2]

    @pytest.mark.parametrize(
        "rows, factors",
        [
            ([[2, 4], [6, 8]], [2, 4]),
            ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
        ],
    )
    def test_no_unit_entry(self, rows, factors):
        assert invariant_factors(_entries(rows), len(rows), len(rows[0])) == factors

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda ncols: st.lists(
                st.lists(st.one_of(st.just(0), st.integers(-6, 6)), min_size=ncols, max_size=ncols),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_agrees_with_determinantal_divisors(self, rows):
        # and leaves its argument as it was
        entries = _entries(rows)
        before = dict(entries)
        assert invariant_factors(entries, len(rows), len(rows[0])) == _determinantal_factors(rows)
        assert entries == before


def _entries(rows):
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


def _determinantal_factors(rows):
    """d_k / d_(k-1) for each k with d_k nonzero, where d_k is the gcd of the
    k x k minors: the invariant factors, found without elimination."""
    factors, previous = [], 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = 0
        for at in combinations(range(len(rows)), k):
            for by in combinations(range(len(rows[0])), k):
                d = gcd(d, bareiss_determinant([[rows[i][j] for j in by] for i in at]))
        if not d:
            break
        factors.append(d // previous)
        previous = d
    return factors


class TestSimplicialComplex:
    def test_non_maximal_faces_dropped(self):
        c = SimplicialComplex([{"a"}, {"a", "b"}])
        assert c.facets == (frozenset({"a", "b"}),)

    def test_faces_and_f_vector(self):
        c = circle()
        assert c.f_vector() == (3, 3)
        assert c.euler_characteristic() == 0
        assert c.dimension() == 1
        assert c.is_pure()

    def test_empty_complex(self):
        e = simplex(-1)
        assert not e.is_void()
        assert e.dimension() == -1
        assert e.faces() == set()

    def test_void_complex(self):
        v = SimplicialComplex([])
        assert v.is_void()
        with pytest.raises(InvalidArgumentError):
            v.dimension()

    def test_simplex(self):
        s = simplex(2)
        assert s.f_vector() == (3, 3, 1)
        with pytest.raises(InvalidArgumentError):
            simplex(-2)


# labels whose string order differs from the order of their numbers
_LABELS = ["a", "b", "3-6", "3-10", "x1", "x10", "x2", "z", "zz"]


@st.composite
def label_complexes(draw):
    """Facet lists on at most 9 labels, with nested, duplicate, impure and
    empty facets."""
    facets = draw(st.lists(st.frozensets(st.sampled_from(_LABELS)), max_size=7))
    nested = [f - {min(f)} for f in facets if f and draw(st.booleans())]
    repeated = [f for f in facets if draw(st.booleans())]
    return facets + nested + repeated + draw(st.sampled_from([[], [frozenset()]]))


def faces_by_definition(facets):
    return {frozenset(c) for f in facets for size in range(len(f) + 1) for c in combinations(f, size)}


def facet_text_through_label_sets(m, k):
    """The facet file of T(m,k) as label sets made it: each search mask
    named, the names hashed back into masks over the sorted labels, the
    maximal ones ordered by size and then by the first vertex where two
    differ, and each facet's labels sorted."""
    pool = relevant_arcs(m, k)
    names = [f"{a}-{b}" for a, b in pool]
    given = {
        frozenset(names[i] for i in range(len(pool)) if mask >> i & 1)
        for mask in maximal_noncrossing_masks(pool, k, CAP)
    }
    bit = {v: 1 << i for i, v in enumerate(sorted(set().union(*given)))}
    by_size = {}
    for f in given:
        by_size.setdefault(len(f), []).append((sum(map(bit.__getitem__, f)), f))
    maximal = []
    for size in sorted(by_size, reverse=True):
        maximal += [(m, f) for m, f in by_size[size] if not any(m & g == m for g, _ in maximal)]
    width = f"0{len(bit)}b"
    maximal.sort(key=lambda mf: (len(mf[1]), -int(format(mf[0], width)[::-1], 2)))
    return "\n".join(",".join(sorted(f)) for _, f in maximal) + "\n"


class TestFacetMasks:
    @settings(max_examples=300, deadline=None)
    @given(facets=label_complexes())
    def test_face_walk_matches_the_definition(self, facets):
        c = SimplicialComplex(facets)
        every = faces_by_definition(facets)
        nonempty = every - {frozenset()}
        assert c.faces(include_empty=True) == every
        assert c.faces() == nonempty
        top = max(map(len, every), default=0)
        assert c.f_vector() == tuple(sum(len(f) == d for f in nonempty) for d in range(1, top + 1))
        poset = face_poset(c)
        assert set(poset.elements) == nonempty
        assert set(poset.cover_edges()) == {(f - {v}, f) for f in nonempty if len(f) > 1 for v in f}
        vertices = c.vertices()
        assert [frozenset(v for i, v in enumerate(vertices) if m >> i & 1) for m in c.masks] == list(c.facets)

    @settings(max_examples=300, deadline=None)
    @given(facets=label_complexes(), seed=st.integers(0, 2**32))
    def test_masks_and_labels_build_the_same_complex(self, facets, seed):
        from_labels = SimplicialComplex(facets)
        vertices = tuple(sorted(set().union(*facets)))
        masks = [sum(1 << vertices.index(v) for v in f) for f in facets]
        random.Random(seed).shuffle(masks)
        from_masks = SimplicialComplex._from_masks(vertices, masks)
        assert from_masks.vertices() == from_labels.vertices()
        assert from_masks.masks == from_labels.masks
        assert from_masks.facets == from_labels.facets

    @pytest.mark.parametrize("m, k", [(9, 1), (10, 2), (10, 3), (11, 3)])
    def test_facet_files_match_the_label_set_construction(self, m, k):
        # m >= 10 moves the search bits onto the label order ("1-10" < "1-3")
        assert write_facets(build_T(m, k)) == facet_text_through_label_sets(m, k)

    def test_two_digit_labels_keep_one_vertex_order(self):
        # string order puts "3-10" before "3-6"; masks, facets and the
        # facet file all follow vertices()
        t = build_T(10, 2)
        vertices = t.vertices()
        assert vertices.index("3-10") < vertices.index("3-6")
        assert list(vertices) == sorted(vertices)
        named = [[v for i, v in enumerate(vertices) if m >> i & 1] for m in t.masks]
        assert [frozenset(labels) for labels in named] == list(t.facets)
        lines = write_facets(t).splitlines()
        assert lines == [",".join(labels) for labels in named]
        assert lines[:2] == [
            "1-4,1-5,1-6,1-7,1-8,2-5,2-6,2-7,2-8,2-9",
            "1-4,1-5,1-6,1-7,1-8,2-5,2-6,2-7,2-8,7-10",
        ]
        assert lines[90] == "1-4,1-5,1-6,1-7,1-8,3-10,3-6,3-7,3-8,3-9"
        assert read_facets(write_facets(t)).masks == t.masks


class TestJoin:
    def test_join_of_point_pairs_is_a_circle(self):
        square = join(two_points(), two_points())
        assert reduced_homology(square).sphere_dimension() == 1

    def test_join_with_empty_complex_is_identity(self):
        c = circle()
        assert join(c, simplex(-1)).facets == c.facets

    def test_join_with_simplex_is_contractible(self):
        coned = join(circle(), simplex(0))
        assert reduced_homology(coned).is_trivial()

    def test_label_collision_prefixing(self):
        joined = join(two_points(), two_points())
        # second copy would collide, so both sides get tagged
        assert all(v[0] in ("L", "R") for f in joined.facets for v in f)


class TestHomology:
    def test_point_contractible(self):
        assert reduced_homology(SimplicialComplex([{"a"}])).is_trivial()

    def test_two_points(self):
        h = reduced_homology(two_points())
        assert h.betti(0) == 1 and h.nontrivial_dims() == (0,)

    def test_circle(self):
        h = reduced_homology(circle())
        assert h.sphere_dimension() == 1

    def test_sphere(self):
        tetra_boundary = SimplicialComplex(
            [{"a", "b", "c"}, {"a", "b", "d"}, {"a", "c", "d"}, {"b", "c", "d"}]
        )
        assert sphere_signature(tetra_boundary) == 2

    def test_empty_complex(self):
        h = reduced_homology(simplex(-1))
        assert h.groups == {-1: (1, ())}
        assert h.report_lines() == ["H~_-1 = Z"]

    def test_projective_plane_torsion(self):
        h = reduced_homology(SimplicialComplex(RP2_FACETS))
        assert h.betti(1) == 0
        assert h.torsion(1) == (2,)
        assert h.betti(2) == 0
        assert "H~_1 = 0 + Z/2" in h.report_lines()

    def test_wedge_of_two_circles(self):
        h = reduced_homology(wedge_of_two_circles())
        assert h.nontrivial_dims() == (1,) and h.betti(1) == 2

    @pytest.mark.parametrize(
        "complex_builder",
        [
            circle,
            two_points,
            noncrossing_cone,
            lambda: build_T(7, 2),
            wedge_of_two_circles,
            lambda: join(circle(), two_points()),
        ],
        ids=["circle", "two_points", "cone", "T72", "wedge", "join"],
    )
    def test_collapse_agrees_with_raw(self, complex_builder):
        c = complex_builder()
        assert reduced_homology(c, collapse=True).groups == reduced_homology(c, collapse=False).groups

    @pytest.mark.parametrize(
        "complex_builder, most",
        [(lambda: order_complex(build_P(5, 1, 0)), 1), (noncrossing_cone, 0)],
        ids=["P510", "cone"],
    )
    def test_coreduction_leaves_almost_nothing_for_smith_form(
        self, monkeypatch, complex_builder, most
    ):
        # the 2-sphere P(5,1,0) (84 facets) has no greedy vertex
        # decomposition, so Smith normal form runs; a cone reaches none
        columns = []

        def counting(entries, nrows, ncols):
            columns.append(ncols)
            return invariant_factors(entries, nrows, ncols)

        monkeypatch.setattr(complexes, "invariant_factors", counting)
        reduced_homology(complex_builder())
        assert sum(columns) <= most
        assert bool(columns) == bool(most)

    def test_collapse_agrees_on_rp2(self):
        c = SimplicialComplex(RP2_FACETS)
        assert reduced_homology(c, collapse=True).groups == reduced_homology(c, collapse=False).groups

    def test_euler_characteristic_consistency(self):
        c = noncrossing_complex(admissible_arcs(6), 2)
        h = reduced_homology(c)
        reduced_euler = sum(
            (-1) ** d * h.betti(d) for d in range(-1, c.dimension() + 1)
        )
        assert c.euler_characteristic() - 1 == reduced_euler

    def test_sphere_signature_requires_purity(self):
        # a circle with a filled triangle hanging off one vertex has the
        # homology of a 1-sphere but mixed facet dimensions
        impure = SimplicialComplex([{"a", "b"}, {"b", "c"}, {"a", "c"}, {"a", "x", "y"}])
        assert reduced_homology(impure).sphere_dimension() == 1
        assert sphere_signature(impure) is None


def seven_vertex_torus():
    return SimplicialComplex(
        [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
        + [{i, (i + 2) % 7, (i + 3) % 7} for i in range(7)]
    )


def grid_surface(twisted):
    """A 3x3 grid of squares, each cut into two triangles, with opposite
    sides glued: the torus, or the Klein bottle when one gluing flips."""
    def label(x, y):
        y %= 3
        if x == 3:
            x, y = 0, (-y) % 3 if twisted else y
        return f"{x}{y}"

    return SimplicialComplex(
        triangle
        for x in range(3)
        for y in range(3)
        for triangle in (
            {label(x, y), label(x + 1, y), label(x + 1, y + 1)},
            {label(x, y), label(x, y + 1), label(x + 1, y + 1)},
        )
    )


# complexes on at most 9 vertices and 8 facets, empty and impure facets
# included; SimplicialComplex keeps the maximal ones
_COMPLEXES = st.lists(
    st.frozensets(st.integers(0, 8), max_size=9), min_size=1, max_size=8
).map(SimplicialComplex)


class TestRelativeHomology:
    """Homology relative to the star of the vertex in the most facets."""

    @settings(max_examples=300, deadline=None)
    @given(complex_=_COMPLEXES)
    def test_agrees_with_every_face_to_smith_form(self, complex_):
        relative = reduced_homology(complex_, collapse=True)
        assert relative.groups == reduced_homology(complex_, collapse=False).groups

    @pytest.mark.parametrize(
        "complex_builder, lines",
        [
            (seven_vertex_torus, ["H~_1 = Z^2", "H~_2 = Z"]),
            (lambda: grid_surface(False), ["H~_1 = Z^2", "H~_2 = Z"]),
            (lambda: grid_surface(True), ["H~_1 = Z + Z/2"]),
        ],
        ids=["torus7", "torus9", "klein"],
    )
    def test_surfaces(self, complex_builder, lines):
        c = complex_builder()
        assert reduced_homology(c).report_lines() == lines
        assert reduced_homology(c, collapse=False).report_lines() == lines

    def test_cone_with_the_last_vertex_as_apex(self):
        # "z" follows every circle vertex and lies in every facet
        cone = SimplicialComplex(f | {"z"} for f in circle().facets)
        assert cone.vertices()[-1] == "z"
        assert reduced_homology(cone, cap=0).is_trivial()
        assert reduced_homology(cone, collapse=False).is_trivial()

    def test_apex_is_the_vertex_in_the_most_facets(self):
        # a circle b-c-d with a whisker a-b and a triangle b-e-f: b lies in
        # four facets, and the only facet missing it, {c, d}, has four
        # faces; the complex is impure, so no vertex decomposition is tried
        c = SimplicialComplex([{"a", "b"}, {"b", "c"}, {"c", "d"}, {"b", "d"}, {"b", "e", "f"}])
        assert reduced_homology(c, cap=4).report_lines() == ["H~_1 = Z"]
        with pytest.raises(ResourceLimitError, match="homology exceeded 3 faces"):
            reduced_homology(c, cap=3)

    def test_ties_go_to_the_first_vertex(self):
        # every vertex lies in one facet: "a" is the apex, so only the
        # faces of {c, d, e} are built (8, the empty face included); "e"
        # as apex would build the 4 faces of {a, b}
        c = SimplicialComplex([{"a", "b"}, {"c", "d", "e"}])
        assert reduced_homology(c, cap=8).report_lines() == ["H~_0 = Z"]
        with pytest.raises(ResourceLimitError, match="homology exceeded 7 faces"):
            reduced_homology(c, cap=7)

    def test_ties_among_the_most_held_vertices_go_to_the_first(self):
        # a filled triangle a-b-c and a path b-d-e-c: b, c, d and e lie in
        # two facets, "a" in one.  Apex b builds the 6 faces of {d, e} and
        # {c, e}; "a" would build 8, d or e 10
        c = SimplicialComplex([{"a", "b", "c"}, {"b", "d"}, {"d", "e"}, {"c", "e"}])
        assert reduced_homology(c, cap=6).report_lines() == ["H~_1 = Z"]
        with pytest.raises(ResourceLimitError, match="homology exceeded 5 faces"):
            reduced_homology(c, cap=5)

    def test_cap_counts_the_masks_actually_inserted(self):
        # without collapse both triangles are built: 8 + 8 masks, one of
        # them the shared empty face
        c = SimplicialComplex([{"a", "b", "c"}, {"d", "e", "f"}])
        assert reduced_homology(c, collapse=False, cap=15).report_lines() == ["H~_0 = Z"]
        with pytest.raises(ResourceLimitError, match="homology exceeded 14 faces"):
            reduced_homology(c, collapse=False, cap=14)

    def test_cap_bounds_the_link_deletion(self):
        # one facet {v, a00..a39} plus the edges {a_i, w_i}: the apex a00
        # lies in two facets, the 39 other edges are built (118 faces,
        # the empty one included), and the link facet holds 2^39 subsets
        # of the built vertices, of which 40 are built faces
        lines = ["v," + ",".join(f"a{i:02d}" for i in range(40))]
        lines += [f"a{i:02d},w{i:02d}" for i in range(40)]
        c = read_facets("\n".join(lines) + "\n")
        assert reduced_homology(c, cap=118).is_trivial()
        with pytest.raises(ResourceLimitError, match="homology exceeded 117 faces"):
            reduced_homology(c, cap=117)

    def test_no_face_of_a_cone_is_built(self):
        # 2^40 faces, none of which is built
        assert reduced_homology(simplex(39), cap=1).is_trivial()


def two_circles():
    return SimplicialComplex(
        [{"a", "b"}, {"b", "c"}, {"a", "c"}, {"x", "y"}, {"y", "z"}, {"x", "z"}]
    )


def relabelled(masks, order):
    """The facet masks with vertex i renamed order[i]."""
    return [sum(1 << order[i] for i in range(mask.bit_length()) if mask >> i & 1) for mask in masks]


# pure complexes: every facet of one size, on at most 8 vertices
_PURE_COMPLEXES = st.integers(0, 4).flatmap(
    lambda size: st.lists(
        st.frozensets(st.integers(0, 7), min_size=size, max_size=size), min_size=1, max_size=10
    )
).map(SimplicialComplex)


def shedding_h_vector_per_node(masks):
    """The greedy vertex decomposition of ``shedding_h_vector`` with a
    ridge map of its own at every node: each link splits off its cone,
    maps its ridges afresh and finds its ``alone`` bits from them.  The
    library builds one map for all nodes and must give the same h, or
    None."""
    size = masks[0].bit_count()
    h = [0] * (size + 1)
    if size >= 2 and not complexes._is_connected(masks):
        return None
    stack = [(masks, 0)]
    while stack:
        facets, links = stack.pop()
        if len(facets) == 1:
            h[links] += 1
            continue
        cone = reduce(and_, facets)
        facets = [facet ^ cone for facet in facets]
        ridges = {}
        for facet in facets:
            rest = facet
            while rest:
                v = rest & -rest
                rest ^= v
                ridges[facet ^ v] = ridges.get(facet ^ v, 0) | v
        alone = dict.fromkeys(facets, 0)
        for ridge, x in ridges.items():
            if not x & (x - 1):
                alone[ridge | x] |= x
        while len(alone) > 1:
            shedding = reduce(or_, alone) & ~reduce(or_, alone.values())
            if not shedding:
                return None
            v = shedding & -shedding
            star = [facet for facet in alone if facet & v]
            stack.append(([facet ^ v for facet in star], links + 1))
            for facet in star:
                del alone[facet]
                x = ridges[facet ^ v] ^ v
                ridges[facet ^ v] = x
                if x and not x & (x - 1):
                    alone[facet ^ v | x] |= x
        h[links] += 1
    return h


class TestOneRidgeMap:
    """One ridge map for the whole decomposition gives what a map per node
    gives."""

    @pytest.mark.parametrize(
        "m, k", [(m, k) for k in (1, 2, 3) for m in range(2 * k + 1, 11)]
    )
    def test_multitriangulations_under_relabelling(self, m, k):
        t = build_T(m, k)
        rng = random.Random(100 * m + k)
        order = list(range(len(t.vertices())))
        for _ in range(6):
            rng.shuffle(order)
            masks = relabelled(t.masks, order)
            assert shedding_h_vector(masks) == shedding_h_vector_per_node(masks)

    @pytest.mark.parametrize("params", [(4, 1, 0), (4, 1, 1), (3, 2, 1), (4, 2, 0), (5, 1, 0)])
    def test_order_complexes_where_the_greedy_order_mostly_fails(self, params):
        masks = order_complex(build_P(*params)).masks
        rng = random.Random(sum(params))
        order = list(range(max(masks).bit_length()))
        for _ in range(4):
            assert shedding_h_vector(masks) == shedding_h_vector_per_node(masks)
            rng.shuffle(order)
            masks = relabelled(masks, order)

    @settings(max_examples=500, deadline=None)
    @given(complex_=_PURE_COMPLEXES)
    def test_pure_complexes(self, complex_):
        assert shedding_h_vector(complex_.masks) == shedding_h_vector_per_node(complex_.masks)


class TestVertexDecomposition:
    """Homology of pure complexes from a greedy vertex decomposition."""

    @pytest.mark.parametrize(
        "m, k", [(m, k) for k in (1, 2, 3) for m in range(2 * k + 2, 11)]
    )
    def test_multitriangulations_decompose_in_any_vertex_order(self, m, k):
        t = build_T(m, k)
        rng = random.Random(10 * m + k)
        order = list(range(len(t.vertices())))
        for _ in range(6):
            h = shedding_h_vector(relabelled(t.masks, order))
            assert h is not None and len(h) == t.dimension() + 2
            assert h == h[::-1] and h[0] == h[-1] == 1
            assert sum(h) == hankel_facet_count(m, k)
            rng.shuffle(order)

    @pytest.mark.parametrize(
        "complex_builder",
        [
            lambda: SimplicialComplex(RP2_FACETS),
            seven_vertex_torus,
            lambda: grid_surface(False),
            lambda: grid_surface(True),
            two_circles,
        ],
        ids=["rp2", "torus7", "torus9", "klein", "two_circles"],
    )
    def test_complexes_that_are_not_shellable_give_none(self, complex_builder):
        assert shedding_h_vector(complex_builder().masks) is None

    def test_the_greedy_order_can_miss_a_decomposition(self):
        # the order complex of P(4,1,0) is a 10-cycle: the search sheds an
        # inner vertex of a path and is left with two disjoint edges
        cycle = order_complex(build_P(4, 1, 0))
        assert shedding_h_vector(cycle.masks) is None
        assert reduced_homology(cycle).report_lines() == ["H~_1 = Z"]

    def test_a_long_deletion_chain_needs_no_recursion(self):
        n = 1500
        cycle = SimplicialComplex({f"v{i:04d}", f"v{(i + 1) % n:04d}"} for i in range(n))
        assert shedding_h_vector(cycle.masks) == [1, n - 2, 1]
        assert reduced_homology(cycle).report_lines() == ["H~_1 = Z"]

    @settings(max_examples=300, deadline=None)
    @given(complex_=_PURE_COMPLEXES)
    def test_pure_complexes_agree_with_every_face_to_smith_form(self, complex_):
        h = shedding_h_vector(complex_.masks)
        if h is not None:
            assert sum(h) == len(complex_.masks)
        relative = reduced_homology(complex_, collapse=True)
        assert relative.groups == reduced_homology(complex_, collapse=False).groups

    def test_cap_counts_the_ridge_entries(self):
        # the circle a-b-c maps its three ridges (its vertices), the one
        # ridge map of the decomposition: the links of the vertices it
        # sheds reuse it
        c = circle()
        assert shedding_h_vector(c.masks, cap=3) == [1, 1, 1]
        assert reduced_homology(c, cap=3).report_lines() == ["H~_1 = Z"]
        with pytest.raises(ResourceLimitError, match="homology exceeded 2 ridge entries"):
            reduced_homology(c, cap=2)

    def test_a_failed_search_and_the_faces_each_have_the_cap(self):
        # the search on RP^2 maps its 15 edges before it stops; the 5
        # facets missing the apex "1" then have 21 faces, a table of its own
        c = SimplicialComplex(RP2_FACETS)
        assert shedding_h_vector(c.masks, cap=15) is None
        assert reduced_homology(c, cap=21).report_lines() == ["H~_1 = 0 + Z/2"]
        with pytest.raises(ResourceLimitError, match="homology exceeded 20 faces"):
            reduced_homology(c, cap=20)
        with pytest.raises(ResourceLimitError, match="homology exceeded 14 ridge entries"):
            reduced_homology(c, cap=14)

    def test_cap_bounds_the_largest_ridge_map_not_their_sum(self):
        # T(10,3): 330 facets, whose ridge map holds 1,485 entries; a map
        # per node of the decomposition would hold 5,029 together
        t = build_T(10, 3)
        assert len(t.masks) == 330
        assert reduced_homology(t, cap=1485).report_lines() == ["H~_8 = Z"]
        with pytest.raises(ResourceLimitError, match="homology exceeded 1484 ridge entries"):
            reduced_homology(t, cap=1484)


class TestOrderComplex:
    def test_chain_gives_simplex(self):
        chain = FinitePoset(["a", "b", "c"], [[1], [2], []])
        c = order_complex(chain)
        assert c.facets == (frozenset({"a", "b", "c"}),)

    def test_antichain_gives_points(self):
        antichain = FinitePoset(["a", "b"], [[], []])
        assert order_complex(antichain).f_vector() == (2,)

    def test_face_poset_round_trip(self):
        c = circle()
        poset = face_poset(c)
        assert len(poset) == 6
        assert poset.rank_cardinality() == 2
        # the order complex of the face poset is the barycentric subdivision
        subdivision = order_complex(poset)
        assert reduced_homology(subdivision) == reduced_homology(c)


class TestDiagonalComplexes:
    def test_gamma(self):
        assert relevant_arcs(6, 2) == [(1, 4), (2, 5), (3, 6)]
        assert len(relevant_arcs(8, 2)) == 12

    @pytest.mark.parametrize("k", range(1, 7))
    def test_relevant_arcs_are_the_relevant_polygon_diagonals(self, k):
        # diagonals of a convex m-gon with endpoint gap in (k, m - k)
        for m in range(3, 16):
            diagonals = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1) if k < b - a < m - k]
            assert relevant_arcs(m, k) == diagonals

    def test_T62(self):
        t = build_T(6, 2)
        assert len(t.facets) == 3
        assert sphere_signature(t) == 1

    def test_noncrossing_complex_faces(self):
        c = noncrossing_complex(admissible_arcs(5), 1)
        assert len(c.faces()) == 10

    @pytest.mark.parametrize("m", [-3, 0, 1, 2])
    def test_gamma_needs_a_polygon(self, m):
        with pytest.raises(InvalidArgumentError, match="m >= 3"):
            build_T(m, 1)

    @pytest.mark.parametrize("m, k", [(3, 1), (5, 2), (7, 3)])
    def test_T_2k_plus_1_is_the_empty_sphere(self, m, k):
        t = build_T(m, k)
        assert t.facets == (frozenset(),)
        assert sphere_signature(t) == -1


CAP = 10_000_000


def maximal_by_definition(pool, k):
    """The k-noncrossing subsets of ``pool`` to which no outside arc can be
    added without leaving the family."""
    family = set(noncrossing_subset_masks(pool, k))
    return sorted(
        mask for mask in family
        if all(mask >> i & 1 or mask | 1 << i not in family for i in range(len(pool)))
    )


def cone_mask(pool, k):
    adj = crossing_adjacency(pool)
    return sum(1 << i for i in range(len(pool)) if not masked_clique_exists(adj, adj[i], k))


# arcs with distinct endpoints on sites 1..10, drawn as unordered pairs
_ARC_POOLS = st.lists(
    st.tuples(st.integers(1, 10), st.integers(1, 10))
    .filter(lambda p: p[0] != p[1])
    .map(lambda p: (min(p), max(p))),
    unique=True,
    max_size=14,
)


class TestMaximalNoncrossingMasks:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_arc_pools_match_the_definition(self, m, k):
        for pool in (admissible_arcs(m), relevant_arcs(m, k), nonrelevant_arcs(m, k)):
            found = maximal_noncrossing_masks(pool, k, CAP)
            assert sorted(found) == maximal_by_definition(pool, k)
            assert len(found) == len(set(found))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", range(3, 11))
    def test_relevant_diagonals_match_the_definition(self, m, k):
        pool = relevant_arcs(m, k)
        assert sorted(maximal_noncrossing_masks(pool, k, CAP)) == maximal_by_definition(pool, k)

    @settings(max_examples=150, deadline=None)
    @given(pool=_ARC_POOLS, k=st.integers(1, 4))
    def test_random_pools_match_the_definition(self, pool, k):
        assert sorted(maximal_noncrossing_masks(pool, k, CAP)) == maximal_by_definition(pool, k)

    @pytest.mark.parametrize(
        "pool, k, cones",
        [(admissible_arcs(7), 2, 7), (admissible_arcs(9), 2, 9), (admissible_arcs(8), 3, 16)],
        ids=["adm7-k2", "adm9-k2", "adm8-k3"],
    )
    def test_cone_arcs_lie_in_every_facet(self, pool, k, cones):
        cone = cone_mask(pool, k)
        assert cone.bit_count() == cones
        facets = maximal_noncrossing_masks(pool, k, CAP)
        assert facets and all(facet & cone == cone for facet in facets)

    def test_all_cone_pool_is_one_simplex(self):
        pool = admissible_arcs(7)
        assert maximal_noncrossing_masks(pool, 3, CAP) == [(1 << len(pool)) - 1]

    def test_cap_counts_search_nodes(self):
        with pytest.raises(ResourceLimitError, match="exceeded 10 subsets"):
            build_T(8, 2, cap=10)
        assert len(build_T(8, 2).facets) == 84

    @pytest.mark.parametrize(
        "m, k, nodes", [(9, 1, 857), (9, 2, 2_173), (10, 3, 1_858), (24, 11, 298), (42, 20, 1_561)]
    )
    def test_search_node_counts_are_pinned(self, m, k, nodes):
        # no output shows how much the search prunes: the counts guard the
        # pivot rule (branch on the shortest list, pending pairs first) and
        # the dead-node test (a pending pair whose crossing pairs among the
        # mask and the addable ones hold no k-clique).  On T(2k+2,k), whose
        # k+1 diagonals all cross, a search without that test visits
        # 2^(k+1) - 1 nodes
        build_T(m, k, cap=nodes)
        with pytest.raises(ResourceLimitError, match=f"exceeded {nodes - 1} subsets"):
            build_T(m, k, cap=nodes - 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_facet_count_bound_is_the_hankel_count(self, k):
        # build_T refuses more facets than the cap before its search starts
        for m in range(2 * k + 1, 2 * k + 16):
            count = hankel_facet_count(m, k)
            assert not complexes._facet_count_exceeds(m, k, count), m
            assert complexes._facet_count_exceeds(m, k, count - 1), m

    def test_crossing_graph_pair_tests_count_against_the_cap(self):
        # the 12 diagonals of T(24,11) all cross one another: 66 pair tests
        # for 12 facets, and the search then visits 298 nodes
        message = r"12 diagonals of T\(24,11\) takes 66 pair tests, over the cap of 65"
        with pytest.raises(ResourceLimitError, match=message):
            build_T(24, 11, cap=65)
        with pytest.raises(ResourceLimitError, match="complex search exceeded 66 subsets"):
            build_T(24, 11, cap=66)


class TestBlocked:
    @settings(max_examples=300, deadline=None)
    @given(pool=_ARC_POOLS.filter(bool), k=st.integers(1, 4), data=st.data())
    def test_one_clique_walk_matches_one_clique_test_per_candidate(self, pool, k, data):
        adj = crossing_adjacency(pool)
        full = (1 << len(pool)) - 1
        mask = data.draw(st.integers(0, full))
        candidates = data.draw(st.integers(0, full))
        i = data.draw(st.integers(0, len(pool) - 1))
        near = mask & adj[i]
        expected = sum(
            1 << b
            for b in range(len(pool))
            if (adj[i] & candidates) >> b & 1 and masked_clique_exists(adj, near & adj[b], k - 1)
        )
        assert _blocked(adj, mask, i, candidates, k) == expected


class TestNoncrossingSubsetMasks:
    @settings(max_examples=150, deadline=None)
    @given(pool=_ARC_POOLS.map(lambda pool: pool[:10]), k=st.integers(0, 4))
    def test_random_pools_match_the_definition_in_order(self, pool, k):
        # depth-first order adding pairs by increasing index is the
        # lexicographic order of the index tuples
        expected = [
            sum(1 << i for i in chosen)
            for chosen in sorted(
                chosen
                for size in range(len(pool) + 1)
                for chosen in combinations(range(len(pool)), size)
                if not any(
                    all(pairs_cross(p, q) for p, q in combinations(group, 2))
                    for group in combinations([pool[i] for i in chosen], k + 1)
                )
            )
        ]
        assert list(noncrossing_subset_masks(pool, k)) == expected


@st.composite
def masked_graphs(draw):
    n = draw(st.integers(0, 8))
    edges = draw(st.sets(st.sampled_from([(a, b) for a in range(n) for b in range(a + 1, n)]))) if n > 1 else set()
    candidates = draw(st.integers(0, (1 << n) - 1))
    return n, edges, candidates


class TestMaskedCliqueExists:
    @settings(max_examples=300, deadline=None)
    @given(graph=masked_graphs(), size=st.integers(0, 4))
    def test_matches_brute_force(self, graph, size):
        n, edges, candidates = graph
        adj = [0] * n
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        members = [v for v in range(n) if candidates >> v & 1]
        expected = any(
            all((a, b) in edges for a, b in combinations(chosen, 2))
            for chosen in combinations(members, size)
        )
        assert masked_clique_exists(adj, candidates, size) == expected

    def test_a_large_clique_needs_no_recursion(self):
        # the complete graph on 2,000 vertices: one path of 2,000 choices
        n = 2000
        everyone = (1 << n) - 1
        adj = [everyone ^ (1 << i) for i in range(n)]
        assert masked_clique_exists(adj, everyone, n)
        assert not masked_clique_exists(adj, everyone, n + 1)
        assert not masked_clique_exists(adj, everyone ^ 1, n)


class TestFacetFiles:
    def test_round_trip(self):
        c = circle()
        again = read_facets(write_facets(c))
        assert again.facets == c.facets

    def test_only_labels_that_read_back_are_written(self):
        # the square's tagged labels ('L', 'a') hold a comma: read back, they
        # would make one simplex of the circle
        square = join(two_points(), two_points())
        with pytest.raises(InvalidArgumentError, match="cannot be written"):
            write_facets(square)
        for label in (" a", "a ", "", "a,b", "a\nb", "a\rb"):
            with pytest.raises(InvalidArgumentError, match="cannot be written"):
                write_facets(SimplicialComplex([{label}, {"z"}]))
        with pytest.raises(InvalidArgumentError, match="same text"):
            write_facets(SimplicialComplex([{1}, {"1"}]))
        inner = SimplicialComplex([{"a b"}, {"z"}])
        assert read_facets(write_facets(inner)).facets == inner.facets
        t = build_T(7, 2)
        again = read_facets(write_facets(t))
        assert again.facets == t.facets
        assert reduced_homology(again).report_lines() == ["H~_3 = Z"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,a,b\n", "facet line 1 names vertex 'a' twice"),
            ("c,d\nb, a ,a\n", "facet line 2 names vertex 'a' twice"),
            ("b,,c\n", "facet line 1 holds an empty field"),
            ("a,b\n\na,b,\n", "facet line 3 holds an empty field"),
            (" , \n", "facet line 1 holds an empty field"),
            ("a,a\nb,,c\n", "facet line 1 names vertex 'a' twice"),
            ("b,,c\na,a\n", "facet line 1 holds an empty field"),
        ],
    )
    def test_repeated_vertices_and_empty_fields_are_refused(self, text, message):
        with pytest.raises(InvalidArgumentError) as raised:
            read_facets(text)
        assert str(raised.value) == message

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            read_facets("\n\n")
        with pytest.raises(InvalidArgumentError):
            read_facets("")

    def test_void_complex_is_refused(self):
        # "\n" would read back as the empty complex {∅}, not the void one
        with pytest.raises(InvalidArgumentError, match="void complex"):
            write_facets(SimplicialComplex([]))

    @pytest.mark.parametrize("m, k", [(m, k) for m in range(5, 12) for k in (1, 2, 3)])
    def test_multitriangulations_read_back_as_built(self, m, k):
        t = build_T(m, k)
        again = read_facets(write_facets(t))
        assert again.vertices() == t.vertices()
        assert again.masks == t.masks

    def test_padding_and_blank_lines_between_facets_are_skipped(self):
        text = "\n  a , b\n\n\t\n b,c  \n \n\tc ,a\n\n"
        again = read_facets(text)
        assert again.vertices() == ("a", "b", "c")
        assert again.facets == circle().facets
        assert reduced_homology(again).report_lines() == ["H~_1 = Z"]

    def test_texts_sorted_again_when_vertex_order_differs(self):
        # vertices go in element_key order, in which the frozenset label comes
        # after the strings; its text sorts before them
        c = SimplicialComplex([{frozenset({"b"}), "g"}, {"g", "h"}])
        assert write_facets(c) == "g,h\nfrozenset({'b'}),g\n"

    def test_empty_complex_round_trip(self):
        empty = simplex(-1)
        assert write_facets(empty) == "\n"
        assert read_facets("\n").facets == empty.facets
        assert reduced_homology(read_facets(write_facets(empty))).report_lines() == ["H~_-1 = Z"]
