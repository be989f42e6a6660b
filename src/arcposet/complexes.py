"""Finite simplicial complexes and exact integral homology.

Complexes are stored by their facets (frozensets of hashable vertex
labels).  Reduced homology is computed over the integers relative to the
star of one vertex, by coreductions plus sparse/dense Smith normal form,
on faces held as integer masks over the vertices; labels appear only at
the boundary (facets and facet files).
Also built here: order complexes of posets, joins, the complex of
k-noncrossing arc subsets, and the multitriangulation complex of
k-relevant polygon diagonals.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

from .crossing import maximal_noncrossing_masks
from .diagram import Arc
from .errors import InvalidArgumentError, ResourceLimitError
from .poset import FinitePoset, element_key
from .snf import invariant_factors
from .transform import is_k_relevant


class SimplicialComplex:
    """A finite simplicial complex, held as its maximal faces."""

    def __init__(self, facets):
        by_size: dict[int, list[frozenset]] = {}
        for f in {frozenset(f) for f in facets}:
            by_size.setdefault(len(f), []).append(f)
        # a face below a larger candidate is below a larger maximal one
        maximal: list[frozenset] = []
        for size in sorted(by_size, reverse=True):
            maximal += [f for f in by_size[size] if not any(f < g for g in maximal)]
        self.facets: tuple[frozenset, ...] = tuple(
            sorted(maximal, key=lambda f: (len(f), sorted(element_key(v) for v in f)))
        )

    def is_void(self) -> bool:
        """True for the complex with no faces at all (not even the empty one)."""
        return not self.facets

    def vertices(self) -> tuple:
        seen = set().union(*self.facets) if self.facets else set()
        return tuple(sorted(seen, key=element_key))

    def dimension(self) -> int:
        if self.is_void():
            raise InvalidArgumentError("the void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def faces(self, include_empty: bool = False) -> set[frozenset]:
        """All faces (downward closure of the facets)."""
        result: set[frozenset] = set()
        for facet in self.facets:
            members = tuple(facet)
            for size in range(1, len(members) + 1):
                for combo in combinations(members, size):
                    result.add(frozenset(combo))
        if include_empty and not self.is_void():
            result.add(frozenset())
        return result

    def contains(self, face) -> bool:
        face = frozenset(face)
        return any(face <= facet for facet in self.facets)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension, from 0 up."""
        if self.is_void():
            return ()
        counts = [0] * (self.dimension() + 1)
        for face in self.faces():
            counts[len(face) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * c for d, c in enumerate(self.f_vector()))

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1


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
    collision = set(left.vertices()) & set(right.vertices())
    if collision:
        left_facets = [frozenset(("L", v) for v in f) for f in left.facets]
        right_facets = [frozenset(("R", v) for v in f) for f in right.facets]
    else:
        left_facets = list(left.facets)
        right_facets = list(right.facets)
    return SimplicialComplex([f | g for f in left_facets for g in right_facets])


# ---------------------------------------------------------------------------
# complexes from posets and back


def order_complex(poset: FinitePoset) -> SimplicialComplex:
    """Faces are the chains of the poset; facets its maximal chains."""
    covers = poset.succ
    minimal = [poset.index(e) for e in poset.minimal_elements()]
    facets: list[frozenset] = []
    stack: list[int] = []

    def descend(i: int) -> None:
        stack.append(i)
        if covers[i]:
            for j in covers[i]:
                descend(j)
        else:
            facets.append(frozenset(poset.elements[t] for t in stack))
        stack.pop()

    for i in minimal:
        descend(i)
    if not facets:
        return SimplicialComplex([frozenset()])
    return SimplicialComplex(facets)


def face_poset(complex_: SimplicialComplex) -> FinitePoset:
    """Nonempty faces ordered by inclusion: a face is covered by itself
    plus one vertex."""
    faces = list(complex_.faces())
    index = {face: i for i, face in enumerate(faces)}
    covers: list[list[int]] = [[] for _ in faces]
    for j, face in enumerate(faces):
        if len(face) > 1:
            for vertex in face:
                covers[index[face - {vertex}]].append(j)
    return FinitePoset(faces, covers=covers, validate=False)


# ---------------------------------------------------------------------------
# arc and diagonal complexes


def noncrossing_complex(
    pool: list[Arc], k: int, label=None, cap: int = 10_000_000
) -> SimplicialComplex:
    """The complex whose faces are the k-noncrossing subsets of ``pool``.

    This is the underlying complex of the inclusion-ordered diagram family
    on the same arc pool: the family's order complex is its barycentric
    subdivision, so both have the same homology.  Its facets come from
    ``maximal_noncrossing_masks``: the cone arcs (those in no k+1 mutually
    crossing arcs of the pool, read off the pool's own crossing graph) lie
    in every facet, and a set is k-noncrossing exactly when its other
    ("core") arcs are (k+1 mutually crossing arcs include no cone arc by
    definition), so one exact search over the core sets finds every
    facet once, each checked for maximality only against the core arcs it
    skipped while they were still addable.  ``cap`` bounds the search
    nodes visited (the empty core set included).
    """
    if label is None:
        label = lambda arc: f"{arc[0]}-{arc[1]}"
    return SimplicialComplex(
        frozenset(label(pool[i]) for i in range(len(pool)) if mask >> i & 1)
        for mask in maximal_noncrossing_masks(pool, k, cap)
    )


def build_gamma(m: int, k: int) -> list[Arc]:
    """The k-relevant diagonals of a convex m-gon (endpoint gap in (k, m-k))."""
    if m < 3:
        raise InvalidArgumentError(f"a polygon needs m >= 3 vertices, got {m}")
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    return [
        (a, b)
        for a in range(1, m + 1)
        for b in range(a + 1, m + 1)
        if is_k_relevant((a, b), m, k)
    ]


def build_T(m: int, k: int, cap: int = 10_000_000) -> SimplicialComplex:
    """The multitriangulation complex: faces are the k-noncrossing sets of
    k-relevant diagonals; ``cap`` bounds the sets visited."""
    return noncrossing_complex(build_gamma(m, k), k, cap=cap)


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


def _face_masks(facet_masks, cap: int) -> dict[int, int]:
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


def reduced_homology(
    complex_: SimplicialComplex, collapse: bool = True, cap: int = 10_000_000
) -> HomologyResult:
    """Reduced homology over the integers, exactly.

    Faces are integer masks over the vertices in ``element_key`` order.
    With ``collapse``, the homology is that of the pair (K, st v), where
    the apex v is the vertex in the most facets (ties go to the first
    vertex): the closed star of v is a cone, so H~(K) = H(K, st v) for
    every complex.  Only the faces of the facets without v are built, and
    the faces of the link of v (each facet containing v, less v) are then
    deleted, which leaves exactly the faces outside the star; a cone
    leaves nothing.  Each remaining cell maps to the mask of the vertices
    whose removal gives a cell still present.  Coreductions then remove
    pairs (a, b) where a is the only cell left in the boundary of b,
    breadth first from every such b in insertion order; such a removal
    changes no other boundary.  Smith normal form gets what remains.
    Without ``collapse``, every face of K, the empty face included (the
    augmented chain complex), goes to Smith normal form.  ``cap`` bounds
    the face masks inserted; more raise ``ResourceLimitError``.
    """
    if complex_.is_void():
        return HomologyResult({})
    bit = {v: 1 << i for i, v in enumerate(complex_.vertices())}
    facet_masks = [sum(bit[v] for v in facet) for facet in complex_.facets]
    if not (collapse and bit):
        boundary = _face_masks(facet_masks, cap)
    else:
        uses = Counter(v for facet in complex_.facets for v in facet)
        apex = bit[max(bit, key=uses.__getitem__)]
        outside = [facet for facet in facet_masks if not facet & apex]
        built = 0
        for facet in outside:
            built |= facet
        boundary = _face_masks(outside, cap)
        for facet in facet_masks:
            if facet & apex:
                link = face = facet & built
                while True:
                    boundary.pop(face, None)
                    if not face:
                        break
                    face = (face - 1) & link
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
        vertex_bits = [b for b in bit.values() if b & built]

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

    top = complex_.dimension()
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


def join_signature(left: int | None, right: int | None) -> int | None:
    """Sphere dimension of a join of two sphere-like complexes
    (S^a * S^b = S^(a+b+1)); None propagates."""
    if left is None or right is None:
        return None
    return left + right + 1


# ---------------------------------------------------------------------------
# facet-list file format: one facet per line, comma-separated labels


def write_facets(complex_: SimplicialComplex) -> str:
    lines = []
    for facet in complex_.facets:
        lines.append(",".join(sorted(str(v) for v in facet)))
    return "\n".join(lines) + "\n"


def read_facets(text: str) -> SimplicialComplex:
    """Parse a facet list.  A text whose only line is blank is the empty
    complex (one facet, the empty face: what ``write_facets`` writes for
    it); a text with no facet otherwise is refused."""
    lines = text.splitlines()
    if len(lines) == 1 and not lines[0].strip():
        return SimplicialComplex([frozenset()])
    facets = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        facets.append(frozenset(part.strip() for part in line.split(",") if part.strip()))
    if not facets:
        raise InvalidArgumentError("facet list is empty")
    return SimplicialComplex(facets)
