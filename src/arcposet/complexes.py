"""Finite simplicial complexes and exact integral homology.

A complex holds each facet as an integer mask over its vertices; labels
appear only at the boundary (facets, faces, face posets, facet files).
Faces, f-vector, face poset and homology share one walk over the masks.
Reduced homology is read off a greedy vertex decomposition when one is
found; otherwise it is computed over the integers relative to the star of
one vertex, by coreductions plus Smith normal form in one sparse elimination.
Also built here: order complexes of posets, joins, the complex of
k-noncrossing arc subsets, and the multitriangulation complex of
k-relevant polygon diagonals.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_

from .crossing import check_search_depth, maximal_noncrossing_masks
from .diagram import Arc
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .families import relevant_arcs
from .poset import FinitePoset, element_key, plus_one_covers
from .snf import invariant_factors


def _labels(mask: int, names) -> list:
    """The names at the set bits of ``mask``, lowest bit first."""
    labels = []
    while mask:
        low = mask & -mask
        labels.append(names[low.bit_length() - 1])
        mask ^= low
    return labels


def _remap(mask: int, at: list[int]) -> int:
    """``mask`` with each set bit i moved to the bit ``at[i]``."""
    moved = 0
    while mask:
        low = mask & -mask
        moved |= at[low.bit_length() - 1]
        mask ^= low
    return moved


def _in_key_order(labels: list) -> tuple[tuple, list[int]]:
    """The labels sorted by ``element_key``, and per label the bit of its
    place in that order."""
    order = sorted(range(len(labels)), key=lambda i: element_key(labels[i]))
    at = [0] * len(labels)
    for place, i in enumerate(order):
        at[i] = 1 << place
    return tuple(labels[i] for i in order), at


class SimplicialComplex:
    """A finite simplicial complex, held as its maximal faces.

    ``masks`` holds each facet as an int whose bit i is vertex i of
    ``vertices()`` (in ``element_key`` order), by size, then by their
    vertices in order; ``facets`` holds the same facets as label sets,
    built on first read.  Every complex is put together by one routine,
    ``_settle``, from its vertices and facet masks; the constructor turns
    label sets into masks for it.
    """

    def __init__(self, facets):
        given = {frozenset(f) for f in facets}
        vertices = tuple(sorted(set().union(*given), key=element_key))
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        self._settle(vertices, [sum(map(bit.__getitem__, f)) for f in given])

    @classmethod
    def _from_masks(cls, vertices: tuple, masks) -> "SimplicialComplex":
        """The complex with the maximal ones of ``masks`` as facets; bit i
        of a mask is ``vertices[i]``.  The vertices must be in
        ``element_key`` order, each in some facet."""
        complex_ = cls.__new__(cls)
        complex_._settle(vertices, masks)
        return complex_

    def _settle(self, vertices: tuple, masks) -> None:
        self._vertices = vertices
        by_size: dict[int, list[int]] = {}
        for mask in set(masks):
            by_size.setdefault(mask.bit_count(), []).append(mask)
        kept: list[int] = []  # the maximal masks of the sizes done, largest first
        groups: list[list[int]] = []
        for size in sorted(by_size, reverse=True):
            # a face below a larger candidate is below a larger maximal one
            group = [m for m in by_size[size] if not any(m & g == m for g in kept)] if kept else by_size[size]
            # of two facets of one size, the one holding the first vertex
            # where they differ comes first: its bits read from bit 0 up,
            # bin(m)[:1:-1], are the larger string (a shorter string that is
            # a prefix of a longer one reads as padded with zeros, and
            # sorts first either way)
            group.sort(key=lambda m: bin(m)[:1:-1], reverse=True)
            groups.append(group)
            kept += group
        self.masks: tuple[int, ...] = tuple(m for group in reversed(groups) for m in group)

    @cached_property
    def facets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(_labels(mask, self._vertices)) for mask in self.masks)

    def is_void(self) -> bool:
        """True for the complex with no faces at all (not even the empty one)."""
        return not self.masks

    def vertices(self) -> tuple:
        return self._vertices

    def dimension(self) -> int:
        if self.is_void():
            raise InvalidArgumentError("the void complex has no dimension")
        return self.masks[-1].bit_count() - 1

    def _named_faces(self) -> dict[int, frozenset]:
        """Every face mask, the empty one included, ascending, to its labels."""
        name = {1 << i: v for i, v in enumerate(self._vertices)}
        named: dict[int, frozenset] = {}
        for face in sorted(_face_masks(self.masks)):
            low = face & -face
            named[face] = named[face ^ low] | {name[low]} if face else frozenset()
        return named

    def faces(self, include_empty: bool = False) -> set[frozenset]:
        """All faces (downward closure of the facets)."""
        return {face for face in self._named_faces().values() if face or include_empty}

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, from 0 up."""
        sizes = Counter(map(int.bit_count, _face_masks(self.masks)))
        return tuple(sizes[d] for d in range(1, max(sizes, default=0) + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * c for d, c in enumerate(self.f_vector()))

    def is_pure(self) -> bool:
        """All facets of one size (the first and last tell); the void complex is pure."""
        return self.is_void() or self.masks[0].bit_count() == self.masks[-1].bit_count()


def simplex(d: int) -> SimplicialComplex:
    """The full d-simplex on vertices '0'..'d'; d = -1 is the empty complex."""
    if d < -1:
        raise InvalidArgumentError(f"simplex dimension must be >= -1, got {d}")
    if d == -1:
        return SimplicialComplex([frozenset()])
    return SimplicialComplex([frozenset(str(i) for i in range(d + 1))])


def join(left: SimplicialComplex, right: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertex labels are prefixed if the two sides collide."""
    if left.is_void() or right.is_void():
        raise InvalidArgumentError("join with the void complex is undefined")
    left_vertices, right_vertices = left.vertices(), right.vertices()
    if set(left_vertices) & set(right_vertices):
        left_vertices = [("L", v) for v in left_vertices]
        right_vertices = [("R", v) for v in right_vertices]
    vertices, at = _in_key_order([*left_vertices, *right_vertices])
    shift = len(left_vertices)
    left_masks = [_remap(f, at) for f in left.masks]
    right_masks = [_remap(g << shift, at) for g in right.masks]
    return SimplicialComplex._from_masks(vertices, [f | g for f in left_masks for g in right_masks])


# ---------------------------------------------------------------------------
# complexes from posets and back


def order_complex(poset: FinitePoset) -> SimplicialComplex:
    """Faces are the chains of the poset; facets its maximal chains.  A
    chain's mask has bit t for the poset's element t: the poset already
    holds its elements in ``element_key`` order."""
    covers = poset.succ
    minimal = [poset.index(e) for e in poset.minimal_elements()]
    masks: list[int] = []

    def descend(i: int, chain: int) -> None:
        chain |= 1 << i
        if covers[i]:
            for j in covers[i]:
                descend(j, chain)
        else:
            masks.append(chain)

    for i in minimal:
        descend(i, 0)
    if not masks:
        return SimplicialComplex([frozenset()])
    return SimplicialComplex._from_masks(poset.elements, masks)


def face_poset(complex_: SimplicialComplex) -> FinitePoset:
    """Nonempty faces ordered by inclusion: a face is covered by itself
    plus one vertex."""
    named = complex_._named_faces()
    named.pop(0, None)
    return FinitePoset(named.values(), covers=plus_one_covers(list(named)), validate=False)


# ---------------------------------------------------------------------------
# arc and diagonal complexes


def noncrossing_complex(pool: list[Arc], k: int, cap: int = 10_000_000) -> SimplicialComplex:
    """The complex whose faces are the k-noncrossing subsets of ``pool``.

    This is the underlying complex of the inclusion-ordered diagram family
    on the same arc pool: the family's order complex is its barycentric
    subdivision, so both have the same homology.  Its facets come from
    ``maximal_noncrossing_masks``: the cone arcs (those in no k+1 mutually
    crossing arcs of the pool, read off the pool's own crossing graph) lie
    in every facet, and a set is k-noncrossing exactly when its other
    ("core") arcs are (k+1 mutually crossing arcs include no cone arc by
    definition), so one exact search over the core sets finds every
    facet once.  Below a search node every facet holds any still addable
    arc u or an addable arc crossing u: the node's set plus u is
    k-noncrossing, so whatever blocks u includes an arc added below the
    node that crosses u.  A node therefore branches only on the shortest
    such list, and is dead when an arc it skipped can no longer be
    blocked: the node's arcs and addable arcs that cross it hold no
    k-clique.  ``cap`` bounds the search nodes visited (the empty core
    set included).  Arc (a, b) is labelled "a-b", and the search runs on
    the pool sorted by label (``element_key`` order, "1-10" before "1-3"),
    so bit i of a facet mask is already vertex i.
    """
    labelled = sorted((f"{a}-{b}", (a, b)) for a, b in pool)  # element_key of a str is the str
    masks = maximal_noncrossing_masks([arc for _, arc in labelled], k, cap)
    return SimplicialComplex._from_masks(tuple(label for label, _ in labelled), masks)


def _facet_count_exceeds(m: int, k: int, cap: int) -> bool:
    """True iff T(m,k) has more than ``cap`` facets, the k-triangulations of
    the m-gon.  Jonsson counts them as the product of (i+j+2k)/(i+j) over
    1 <= i <= j < m-2k; every factor exceeds 1, so the product is taken in
    order of i+j and stops once it exceeds ``cap``."""
    d = m - 2 * k
    num = den = 1
    for s in range(2, 2 * d - 1):
        if num > cap * den:
            break
        times = s // 2 - max(1, s - d + 1) + 1  # the pairs (i, j) with i + j = s
        num *= (s + 2 * k) ** times
        den *= s**times
    return num > cap * den


def build_T(m: int, k: int, cap: int = 10_000_000) -> SimplicialComplex:
    """The multitriangulation complex: faces are the k-noncrossing sets of
    k-relevant diagonals of a convex m-gon, the arcs of ``relevant_arcs``
    (endpoint gap in (k, m-k)); ``cap`` bounds the sets visited.

    Three counts are checked before anything is built.  The search lists
    each facet at a leaf, so more than ``cap`` facets is refused as the
    search itself would refuse it.  The crossing graph on the n diagonals
    takes n(n-1)/2 pair tests, and more than ``cap`` of them are refused
    too.  The search recurses once per diagonal of a facet, k(m-2k-1) of
    them (a k-triangulation's k(2m-2k-1) diagonals less the km that are
    not k-relevant), and more than ``SEARCH_DEPTH`` is refused."""
    if m < 3:
        raise InvalidArgumentError(f"a polygon needs m >= 3 vertices, got {m}")
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if _facet_count_exceeds(m, k, cap):
        raise ResourceLimitError(f"complex search exceeded {cap} subsets", bound=cap)
    # m - g diagonals at each gap g in (k, m-k): m-2k-1 gaps, m/2 on average
    n = max(0, m - 2 * k - 1) * m // 2
    if n * (n - 1) // 2 > cap:
        raise ResourceLimitError(
            f"the crossing graph of the {n} diagonals of T({m},{k}) takes "
            f"{n * (n - 1) // 2} pair tests, over the cap of {cap}",
            bound=cap,
        )
    depth = k * (m - 2 * k - 1)
    check_search_depth(depth, f"a facet of T({m},{k}) holds {depth} diagonals")
    return noncrossing_complex(relevant_arcs(m, k), k, cap=cap)


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyResult:
    """Reduced integral homology: dimension -> (betti, torsion factors)."""

    groups: dict[int, tuple[int, tuple[int, ...]]]

    def betti(self, d: int) -> int:
        return self.groups.get(d, (0, ()))[0]

    def torsion(self, d: int) -> tuple[int, ...]:
        return self.groups.get(d, (0, ()))[1]

    def nontrivial_dims(self) -> tuple[int, ...]:
        return tuple(
            sorted(d for d, (b, t) in self.groups.items() if b or t)
        )

    def is_trivial(self) -> bool:
        return not self.nontrivial_dims()

    def sphere_dimension(self) -> int | None:
        """d when the homology is that of a d-sphere, else None."""
        dims = self.nontrivial_dims()
        if len(dims) != 1:
            return None
        d = dims[0]
        if self.groups[d] == (1, ()):
            return d
        return None

    def report_lines(self) -> list[str]:
        lines = []
        for d in self.nontrivial_dims():
            betti, torsion = self.groups[d]
            part = f"Z^{betti}" if betti > 1 else ("Z" if betti == 1 else "0")
            for t in torsion:
                part += f" + Z/{t}"
            lines.append(f"H~_{d} = {part}")
        return lines or ["trivial"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomologyResult):
            return NotImplemented
        dims = set(self.groups) | set(other.groups)
        return all(
            self.betti(d) == other.betti(d)
            and tuple(sorted(self.torsion(d))) == tuple(sorted(other.torsion(d)))
            for d in dims
        )


def _face_masks(facet_masks, cap: float = float("inf")) -> dict[int, int]:
    """Every face of the given facet masks (the empty face included), each
    mapped to itself, in insertion order.  Raises ``ResourceLimitError``
    when more than ``cap`` masks would be inserted."""
    faces: dict[int, int] = {}
    for facet in facet_masks:
        # a facet that cannot overflow the cap even if all its faces are
        # new skips the count on every insertion
        counted = len(faces) + (1 << facet.bit_count()) > cap
        face = facet
        while True:
            faces[face] = face
            if counted and len(faces) > cap:
                raise ResourceLimitError(f"homology exceeded {cap} faces", bound=cap)
            if not face:
                break
            face = (face - 1) & facet
    return faces


def _is_connected(masks) -> bool:
    """False when the facets split into two sets that share no vertex."""
    reach, rest = masks[0], masks[1:]
    while rest:
        left = []
        for facet in rest:
            if facet & reach:
                reach |= facet
            else:
                left.append(facet)
        if len(left) == len(rest):
            return False
        rest = left
    return True


def shedding_h_vector(masks, cap: float = float("inf")) -> list[int] | None:
    """The h-vector of a pure complex from a greedy vertex decomposition.

    ``masks`` are the facets of a pure d-complex, none inside another.  The
    complex's cone (the vertices in every facet; h is unchanged) is split
    off, and one map, built once, takes each ridge to the vertices that
    make it a facet.  A node of the decomposition is a set of facets, each
    with its ``alone`` bits: the vertices v whose ridge F - v lies in no
    other facet of the node.  A node runs a deletion chain: it takes the
    first vertex v outside every ``alone``, so that each ridge F - v of a
    facet F holding v lies in a second facet, del v is pure of dimension
    d, lk v of d - 1, and h(K) = h(del v) + t h(lk v) (Provan and
    Billera).  A complex with one facet is a simplex, h = 1, so h_i counts
    the simplices reached through i links.  A stack, not recursion, holds
    the pending links, each with the number of links taken to reach it.

    lk v goes on the stack as the star of v, each facet keeping v and its
    ``alone`` bits plus v.  Every ridge of the star through v is a ridge
    of the link, and lies in star facets only, so its entry in the map
    and the ``alone`` bits it gives are the link's.  v, and the vertices
    in every facet of the link, are alone in each of its facets, so no
    link sheds them, and its candidates and choices are those of the link
    with them removed.  del v updates the ridges that miss v in place;
    the ridges through v no longer change in the node, and a link pushed
    after v holds no facet through v, so no two pending nodes share a
    ridge and the one map serves every node.

    A node with no vertex to shed ends the search: h is None, though the
    complex may still be decomposable in another order.  A disconnected
    complex of dimension d >= 1 is not decomposable and costs nothing.
    ``cap`` bounds the ridge map: more entries raise
    ``ResourceLimitError``.
    """
    size = masks[0].bit_count()
    h = [0] * (size + 1)
    if size >= 2 and not _is_connected(masks):
        return None
    cone = reduce(and_, masks)
    facets = [facet ^ cone for facet in masks] if cone else masks
    # each ridge to the vertices that make it a facet, one bit each
    ridges: dict[int, int] = {}
    for facet in facets:
        rest = facet
        while rest:
            v = rest & -rest
            rest ^= v
            ridge = facet ^ v
            if ridge in ridges:
                ridges[ridge] |= v
            else:
                ridges[ridge] = v
        if len(ridges) > cap:
            raise ResourceLimitError(f"homology exceeded {cap} ridge entries", bound=cap)
    # per facet, the vertices v whose ridge F - v is in no other facet
    alone = dict.fromkeys(facets, 0)
    for ridge, x in ridges.items():
        if not x & (x - 1):
            alone[ridge | x] |= x
    stack = [(alone, 0)]
    while stack:
        alone, links = stack.pop()
        while len(alone) > 1:
            shedding = reduce(or_, alone) & ~reduce(or_, alone.values())
            if not shedding:
                return None
            v = shedding & -shedding
            star = {facet: bits | v for facet, bits in alone.items() if facet & v}
            stack.append((star, links + 1))
            for facet in star:
                del alone[facet]
                x = ridges[facet ^ v] ^ v
                ridges[facet ^ v] = x
                if x and not x & (x - 1):
                    alone[facet ^ v | x] |= x
        h[links] += 1
    return h


def reduced_homology(
    complex_: SimplicialComplex, collapse: bool = True, cap: int = 10_000_000
) -> HomologyResult:
    """Reduced homology over the integers, exactly.

    Faces are the complex's vertex masks.  With ``collapse``, two cases
    are decided before any face is built.  A cone (some vertex in every
    facet) has trivial homology.  A pure d-complex goes to
    ``shedding_h_vector``: a vertex decomposable pure complex is
    shellable, and so a wedge of h_{d+1} d-spheres (Björner and Wachs),
    so when it finds a decomposition H~_d = Z^{h_{d+1}} and every other
    group is 0.  Otherwise (an impure complex, or no decomposition found)
    the homology is that of the pair (K, st v), where the apex v is the
    vertex in the most facets (ties go to the first vertex): the closed
    star of v is a cone, so H~(K) = H(K, st v) for every complex.  Only
    the faces of the facets without v are built; those in the link of v
    are deleted, grown from the empty face one vertex at a time (each
    from its largest vertex, through built faces only, carrying the link
    facets that still contain it), in at most (faces built) x (vertices)
    steps.  Each remaining cell maps to the mask of the vertices
    whose removal gives a cell still present.  Coreductions then remove
    pairs (a, b) where a is the only cell left in the boundary of b,
    breadth first from every such b in insertion order; such a removal
    changes no other boundary.  Smith normal form gets what remains.
    Without ``collapse``, every face of K, the empty face included (the
    augmented chain complex), goes to Smith normal form.  ``cap`` bounds
    each table built on its own: the ridge map of the decomposition, or
    the face masks inserted when it finds none or without ``collapse``;
    a larger one raises ``ResourceLimitError``.
    """
    if complex_.is_void():
        return HomologyResult({})
    masks = complex_.masks
    top = complex_.dimension()
    if not collapse:
        boundary = _face_masks(masks, cap)
    else:
        trivial = {d: (0, ()) for d in range(-1, top + 1)}
        if reduce(and_, masks):
            return HomologyResult(trivial)
        if complex_.is_pure():
            h = shedding_h_vector(masks, cap)
            if h is not None:
                return HomologyResult(trivial | {top: (h[top + 1], ())})
        # neither a cone nor decomposed: some facet misses the apex
        # facets per vertex, counted in one pass over the facet bits
        count = [0] * len(complex_.vertices())
        for facet in masks:
            while facet:
                low = facet & -facet
                count[low.bit_length() - 1] += 1
                facet ^= low
        apex = 1 << count.index(max(count))
        outside = [facet for facet in masks if not facet & apex]
        built = 0
        for facet in outside:
            built |= facet
        boundary = _face_masks(outside, cap)
        vertex_bits = [1 << i for i in range(built.bit_length()) if built >> i & 1]
        links = [facet & built for facet in masks if facet & apex]
        # per built vertex, the link facets holding it (bit j: links[j])
        holders = {v: sum(1 << j for j, link in enumerate(links) if link & v) for v in vertex_bits}
        stack = [(0, (1 << len(links)) - 1, 0)]
        while stack:
            face, held, start = stack.pop()
            del boundary[face]
            for at in range(start, len(vertex_bits)):
                v = vertex_bits[at]
                if face | v in boundary and (still := held & holders[v]):
                    stack.append((face | v, still, at + 1))
        queue = deque()
        for cell in boundary:
            rest = 0
            bits = cell
            while bits:
                v = bits & -bits
                bits ^= v
                if cell ^ v in boundary:
                    rest |= v
            boundary[cell] = rest
            if rest and not rest & (rest - 1):
                queue.append(cell)

        def remove(cell: int) -> None:
            del boundary[cell]
            for v in vertex_bits:
                if cell & v:
                    continue
                coface = cell | v
                rest = boundary.get(coface)
                if rest is not None:
                    rest ^= v
                    boundary[coface] = rest
                    if rest and not rest & (rest - 1):
                        queue.append(coface)

        while queue:
            cell = queue.popleft()
            rest = boundary.get(cell)
            if rest and not rest & (rest - 1):
                remove(cell ^ rest)
                remove(cell)

    by_dim: dict[int, list[int]] = {d: [] for d in range(-1, top + 1)}
    for cell in sorted(boundary):
        by_dim[cell.bit_count() - 1].append(cell)
    ranks: dict[int, int] = {}
    torsion_source: dict[int, tuple[int, ...]] = {}
    for d in range(0, top + 1):
        columns = by_dim[d]
        if not columns:
            continue
        row = {cell: i for i, cell in enumerate(by_dim[d - 1])}
        entries: dict[tuple[int, int], int] = {}
        for col, cell in enumerate(columns):
            rest = boundary[cell]
            while rest:
                v = rest & -rest
                rest ^= v
                entries[(row[cell ^ v], col)] = -1 if (cell & (v - 1)).bit_count() & 1 else 1
        factors = invariant_factors(entries, len(row), len(columns))
        ranks[d] = len(factors)
        torsion_source[d - 1] = tuple(f for f in factors if f > 1)

    groups: dict[int, tuple[int, tuple[int, ...]]] = {}
    for d in range(-1, top + 1):
        betti = len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        groups[d] = (betti, torsion_source.get(d, ()))
    return HomologyResult(groups)


def sphere_signature(complex_: SimplicialComplex) -> int | None:
    """d when the complex is pure of dimension d with the reduced homology
    of a d-sphere (a necessary condition for being a d-sphere)."""
    if complex_.is_void() or not complex_.is_pure():
        return None
    d = reduced_homology(complex_).sphere_dimension()
    if d is not None and d == complex_.dimension():
        return d
    return None


# ---------------------------------------------------------------------------
# facet-list file format: one facet per line, comma-separated labels


def write_facets(complex_: SimplicialComplex) -> str:
    """One facet per line, its labels written with ``str`` and sorted.  A
    label whose text would not read back as itself (empty, holding a comma
    or a line break, or with leading or trailing whitespace), or that two
    vertices share, is refused, and so is the void complex: no text reads
    back as it.  A facet's texts are read off its mask in vertex order,
    and sorted again only when that is not the order of the texts."""
    if complex_.is_void():
        raise InvalidArgumentError("the void complex cannot be written to a facet file")
    texts = [str(v) for v in complex_.vertices()]
    for text in texts:
        if not text or "," in text or text.strip() != text or text.splitlines() != [text]:
            raise InvalidArgumentError(f"vertex label {text!r} cannot be written to a facet file")
    if len(set(texts)) != len(texts):
        raise InvalidArgumentError("two vertex labels write as the same text")
    if texts == sorted(texts):
        lines = [",".join(_labels(mask, texts)) for mask in complex_.masks]
    else:
        lines = [",".join(sorted(_labels(mask, texts))) for mask in complex_.masks]
    return "\n".join(lines) + "\n"


def read_facets(text: str) -> SimplicialComplex:
    """Parse a facet list.  A text whose only line is blank is the empty
    complex (one facet, the empty face: what ``write_facets`` writes for
    it); a text with no facet otherwise is refused, and so is a line that
    holds an empty field or names a vertex twice, neither of which
    ``write_facets`` writes.  Other blank lines are skipped.  No line's
    labels are kept: the lines are split once to collect the set of raw
    fields, each stripped once to its label, and once more to sum each
    line's vertex bits into its mask, which has fewer bits than the line
    has fields exactly when a vertex is named twice.  Only then, or when
    a field strips to nothing, are the lines read a third time, for the
    first one at fault."""
    lines = text.splitlines()
    if len(lines) == 1 and not lines[0].strip():
        return SimplicialComplex([frozenset()])
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise InvalidArgumentError("facet list is empty")
    fields: set[str] = set()
    for row in rows:
        fields.update(row.split(","))
    label = {field: field.strip() for field in fields}
    if "" in label.values():
        _refuse_the_first_bad_line(lines)
    vertices = tuple(sorted(set(label.values())))
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    bit_of = {field: bit[label[field]] for field in fields}
    masks = [sum(map(bit_of.__getitem__, row.split(","))) for row in rows]
    # a blank line holds no comma, so the text's commas are the rows'
    if sum(map(int.bit_count, masks)) < text.count(",") + len(rows):
        _refuse_the_first_bad_line(lines)
    return SimplicialComplex._from_masks(vertices, masks)


def _refuse_the_first_bad_line(lines: list[str]) -> None:
    """Raise for the first facet line that holds an empty field or names a
    vertex twice; the caller has found that one does."""
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        labels = list(map(str.strip, line.split(",")))
        if "" in labels:
            raise InvalidArgumentError(f"facet line {number} holds an empty field")
        for label in labels:
            if labels.count(label) > 1:
                raise InvalidArgumentError(f"facet line {number} names vertex {label!r} twice")
    raise InvariantError("a facet line was found at fault, and none is")
