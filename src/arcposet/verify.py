"""Named exhaustive verification checks over explicit parameter grids.

Each check re-derives one structural claim from first principles on a
small grid and reports pass/fail per grid point with a counterexample
key on failure; output is byte-reproducible.  Slow definitional paths
live here as oracles: ``regular-unique`` checks ``canonicalize`` against
strict swaps, taking one strict swap from each member of a block-matrix
fiber to a member with fewer crossings, and reads each member's crossing
count and leftmost local crossing in one pair scan.  ``beta`` and
``realize-roundtrip`` lay out each distinct key once per ``run_check``
call: the families of one order nest in k and r, so a key whose layout
passed at an earlier grid point is skipped, and a failing key fails again
at every point that holds it.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress
from math import comb

from .complexes import (
    build_T,
    join,
    noncrossing_complex,
    reduced_homology,
    sphere_signature,
)
from .diagram import (
    Diagram,
    adjacency_matrix,
    arcs_text,
    block_matrix,
    block_pair_counts,
    free_sites,
    p_value_of_diagram,
    partner_arcs,
    table_from_partners,
)
from .errors import InvalidArgumentError, InvariantError
from .families import (
    admissible_arcs,
    build_D,
    build_P,
    check_matching_depth,
    enumerate_proper_diagrams,
    nonrelevant_arcs,
    order_ideal_ranks,
    proper_matchings,
    relevant_arcs,
)
from .crossing import noncrossing_subset_masks, pairs_cross
from .matrix import check_matrix_depth, enumerate_matrix_keys, key_text, upper_positions
from .transform import (
    BOTTOM_RELEVANT,
    BOTTOM_STAR,
    canonicalize,
    dual,
    free_site_profile,
    kappa,
    layout_key,
    regular_arcs,
    swap_orbit_partners,
    swapped_partners,
    theta,
    theta_inverse,
)


@dataclass(frozen=True)
class CheckPoint:
    params: dict
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    check: str
    points: list[CheckPoint] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.points)


# ---------------------------------------------------------------------------
# the strict swap, the definitional step toward the regular form


def _crossings_and_leftmost_local_block(arcs, block):
    """The crossing count of the ascending arc tuple ``arcs`` of a binary
    diagram, and the leftmost block (by the block array ``block``)
    supporting a local crossing, None when there is none.

    A pair scan: the left ends ascend, so (a, b) crosses a later (c, d)
    when c < b < d, and no arc after the first with c > b crosses it.
    Blocks do not descend along the sites, so for a crossing pair the
    block of a is at most that of c, which is at most that of b, which is
    at most that of d; the leftmost block the two arcs share is that of a
    when c is in it, else that of b when c or d is."""
    count, leftmost = 0, None
    for i, (a, b) in enumerate(arcs):
        block_a, block_b = block[a], block[b]
        for c, d in arcs[i + 1 :]:
            if c > b:
                break
            if d < b:
                continue
            count += 1
            if block[c] == block_a:
                shared = block_a
            elif block[c] == block_b or block[d] == block_b:
                shared = block_b
            else:
                continue
            if leftmost is None or shared < leftmost:
                leftmost = shared
    return count, leftmost


def _strict_swap_site(partner, block, block_index: int) -> int:
    """Smallest site of an adjacent crossing arc pair incident with the
    block, for the partner tuple ``partner`` and its block array.

    Along a block, the arcs are in local order exactly when they are sorted
    by partner (arcs to earlier blocks first), and each local crossing is an
    inversion of that order; so a block with one has an adjacent one.  Two
    adjacent non-free sites lie in one block, which the two arcs share; the
    other block they can share is that of both partners."""
    for site in range(1, len(partner) - 1):
        p, q = partner[site], partner[site + 1]
        if not (p and q):
            continue  # no swap at a free site
        if pairs_cross((site, p), (site + 1, q)) and (
            block[site] == block_index or block[p] == block[q] == block_index
        ):
            return site
    raise InvariantError(
        f"block {block_index} of {_partner_text(partner)} has a local crossing but no adjacent crossing pair"
    )


def _partner_text(partner):
    """The ``Diagram.key()`` text of a partner tuple, for failure messages."""
    return arcs_text(len(partner) - 1, partner_arcs(partner))


# ---------------------------------------------------------------------------
# individual checks; each returns (passed, detail)


def _check_thm11(f, k):
    """Homology of the order complex of the regular-diagram family at r=0.

    The family is order-isomorphic to the inclusion family of k-noncrossing
    arc subsets (the 'tau' check, whose default grid holds every point here
    but f=8,k=2 and f=7,k=3), whose order complex is the barycentric
    subdivision of the noncrossing complex computed here, so both have the
    same homology.  Prediction: the join of a sphere of dimension
    k(f-2k)-1 with a simplex of dimension (f+1)(k-1)-1.
    """
    complex_ = noncrossing_complex(admissible_arcs(f + 1), k)
    simplex_dim = (f + 1) * (k - 1) - 1
    sphere_dim = k * (f - 2 * k) - 1
    if simplex_dim >= 0:
        homology = reduced_homology(complex_)
        ok = homology.is_trivial()
        return ok, f"homology {homology.report_lines()} (expected trivial)"
    signature = sphere_signature(complex_)
    ok = signature == sphere_dim
    return ok, f"sphere signature {signature} (expected {sphere_dim})"


def _check_thm12(f, k, r):
    """Purity and rank of the tautology-bounded family under domination,
    read from its keys as an order ideal; when it is not pure, the first
    maximal member below the top is named."""
    keys = enumerate_matrix_keys(f + 1, k, r)
    rank_length, pure, witness = order_ideal_ranks(keys)
    rank_card = rank_length + 1
    expected = k * (2 * f - 2 * k + 1) + r - f - 1
    ok = pure and rank_card == expected
    detail = f"size {len(keys)}, rank_cardinality {rank_card} (expected {expected}), pure {pure}"
    if witness is not None:
        top = max(map(sum, keys))
        detail += f"; maximal {_key_text(f + 1, witness)} has upper entry sum {sum(witness)} < {top}"
    return ok, detail


def _key_text(order, key):
    """The ``SymmetricMatrix.key()`` text of an upper-triangle key."""
    return key_text(order, upper_positions(order), key)


class _PassedLayouts:
    """The keys whose layouts passed during one ``run_check`` call, by
    order.  ``orders`` lists the order of each layout of a family that the
    run will make; an order's keys are kept only while a later layout will
    read them."""

    def __init__(self, orders):
        self._later = Counter(orders)
        self._keys = {}

    def take(self, order):
        """The keys of ``order`` that passed so far, and whether to add to
        them: not at the order's last layout, after which they are
        dropped."""
        self._later[order] -= 1
        if self._later[order] > 0:
            return self._keys.setdefault(order, set()), True
        return self._keys.pop(order, ()), False


def _layout_failure(order, keys, laid_out):
    """What fails on the first key whose layout is not a regular diagram
    with exactly the key's block-pair counts, None when none does.  A key
    whose layout passed at an earlier grid point of the run ``laid_out``
    is skipped; a failing key is not remembered, so it fails again at
    every point that holds it."""
    passed, keep = laid_out.take(order) if laid_out is not None else ((), False)
    for key in keys:
        if key in passed:
            continue
        _, regular, exact = layout_key(order, key)
        if not regular:
            return f"non-regular image for {_key_text(order, key)}"
        if not exact:
            return f"beta(beta_inverse) mismatch at {_key_text(order, key)}"
        if keep:
            passed.add(key)
    return None


def _check_beta(laid_out, f, k, r):
    """beta_inverse is a bijection from matrices onto regular diagrams with
    block matrix as its inverse; both orders are block-matrix domination,
    so this makes beta an order-isomorphism.  Each member is laid out from
    its upper-triangle key, as beta_inverse lays out a validated matrix;
    exact layouts of distinct keys differ, as their block-pair counts do.
    The families of one order nest in k and r, so a key met at an earlier
    point of the run (``laid_out``) is laid out there only."""
    keys = enumerate_matrix_keys(f + 1, k, r)
    failure = _layout_failure(f + 1, keys, laid_out)
    return failure is None, failure or f"{len(keys)} matrices, {len(keys)} distinct regular diagrams"


def _check_tau(f, k):
    """tau_inverse . beta maps the r=0 regular family exactly onto the
    inclusion family of k-noncrossing arc subsets.  The block matrix of
    beta_inverse(M) is M (the 'beta' check), and tau_inverse reads the
    support of a (0,1) key with a zero semi-diagonal, off which
    ``upper_positions`` are the admissible arcs; at r=0 domination is
    inclusion of supports.  Supports are masks over the arc pool."""
    order = f + 1
    pool = admissible_arcs(order)
    bit = {arc: 1 << i for i, arc in enumerate(pool)}
    bits = [bit.get(pair, 0) for pair in upper_positions(order)]  # 0 on the semi-diagonal
    got = set()
    for key in enumerate_matrix_keys(order, k, 0):
        mask = sum(compress(bits, key))
        if sum(key) != mask.bit_count():  # equal just when each nonzero entry is a 1 off the semi-diagonal
            return False, f"{_key_text(order, key)} is not a (0,1) key with a zero semi-diagonal"
        got.add(mask)
    expected = {mask for mask in noncrossing_subset_masks(pool, k) if mask}
    ok = got == expected
    return ok, f"{len(got)} images vs {len(expected)} k-noncrossing arc subsets"


def _check_rho(f, k, r):
    """canonicalize is a surjective order map from the proper family onto
    the regular family."""
    proper = build_D(f, k, r)
    regular = build_P(f, k, r)
    image = {d: canonicalize(d) for d in proper.elements}
    if set(image.values()) != set(regular.elements):
        return False, "image of canonicalize is not the regular family"
    kind = proper.check_order_map(regular, image)
    ok = kind in ("homomorphism", "isomorphism")
    return ok, f"|D|={len(proper)}, |P|={len(regular)}, map: {kind}"


def _check_theta(m, k):
    """Faces of the multitriangulation complex correspond to the diagrams
    on k-relevant arcs, and the two maps invert each other."""
    faces = build_T(m, k).faces()  # a set, so each face is counted once
    for face in faces:
        if theta_inverse(theta(face, m, k), k) != face:
            return False, f"round-trip failed on {sorted(face)}"
    expected = sum(1 for mask in noncrossing_subset_masks(relevant_arcs(m, k), k) if mask)
    ok = len(faces) == expected
    return ok, f"{len(faces)} faces vs {expected} relevant-arc diagrams"


def _check_kappa(m, k):
    """The split into non-relevant and relevant parts is a bijection onto
    the product of the two sub-families (above the adjoined bottoms); the
    orders agree because the arc set is the disjoint union of the parts."""
    pool = admissible_arcs(m)
    star_count = sum(1 for mask in noncrossing_subset_masks(nonrelevant_arcs(m, k), k) if mask)
    rel_count = sum(1 for mask in noncrossing_subset_masks(relevant_arcs(m, k), k) if mask)
    seen = set()
    total = 0
    for mask in noncrossing_subset_masks(pool, k):
        if not mask:
            continue
        diagram = Diagram(m, [pool[i] for i in range(len(pool)) if mask >> i & 1])
        star, rel = kappa(diagram, k)
        star_key = star.key() if isinstance(star, Diagram) else repr(BOTTOM_STAR)
        rel_key = rel.key() if isinstance(rel, Diagram) else repr(BOTTOM_RELEVANT)
        seen.add((star_key, rel_key))
        total += 1
    product_size = (star_count + 1) * (rel_count + 1) - 1
    ok = total == len(seen) == product_size
    return ok, (
        f"|S|={total}, distinct images {len(seen)}, "
        f"product size {product_size} (star {star_count}, relevant {rel_count})"
    )


def _check_equivalence(n=8):
    """Block-matrix equality coincides with the free-site-preserving arc
    bijection, over every proper diagram pair of each length.  The
    diagrams of one length are proper and equally long, so on a pair
    ``equivalent`` compares their block matrices and
    ``equivalent_by_definition`` their free-site profiles: each diagram's
    are computed once, and the pairs only compare them."""
    check_matching_depth(n)  # before the shorter lengths run
    for length in range(4, n + 1):
        diagrams = list(enumerate_proper_diagrams(length))
        matrices = [block_matrix(d) for d in diagrams]
        profiles = [free_site_profile(d) for d in diagrams]
        for i, a in enumerate(diagrams):
            for j in range(i, len(diagrams)):
                if (matrices[i] == matrices[j]) != (profiles[i] == profiles[j]):
                    return False, f"mismatch: {a.key()} vs {diagrams[j].key()}"
    return True, f"all proper diagram pairs up to length {n} agree"


def _check_regular_unique(n=11):
    """Each block-matrix fiber of proper diagrams has exactly one regular
    diagram; it is crossing-minimal, it is the layout of the fiber's
    block-pair counts (as ``canonicalize`` lays them out), which every
    member shares, every other member's strict swap leads to a member with
    fewer crossings, and the swap orbit of one member fills the fiber.
    Following strict swaps, the crossing count falls until a member without
    a local crossing, the regular one, is reached: strict swaps lead every
    member to it.

    Fibers are grouped by the fiber key ``proper_matchings`` yields with
    each member, within one length (the block-pair counts fix the arc
    count, so the free-site count too), and fibers of different lengths
    are disjoint, so each length's fibers are checked and dropped before
    the next length is enumerated.  Members stay partner tuples from the
    search to the swap orbit; a ``Diagram`` is built only for a failure
    message."""
    check_matching_depth(n)  # before the shorter lengths run
    total = 0
    for length in range(4, n + 1):
        fibers = defaultdict(list)
        for partner, key in proper_matchings(length):
            fibers[key].append(partner)
        for members in fibers.values():
            failure = _fiber_failure(members)
            if failure is not None:
                return False, failure
        total += len(fibers)
    return True, f"{total} fibers up to length {n}"


def _fiber_failure(members):
    """What fails the checks of ``_check_regular_unique`` on one fiber,
    None when nothing does.  ``members`` lists the fiber's partner tuples
    in search order.  Equal block-pair counts fix the number of sites in
    each block, so the members share their free sites: one block array
    and one set of block-pair counts, read from the first member, serve
    them all, and the counts are laid out once."""
    first = members[0]
    table = table_from_partners(first)
    block = table.block
    arcs = {partner: partner_arcs(partner) for partner in members}
    # partner tuple -> crossing count, leftmost block with a local crossing
    stats = {partner: _crossings_and_leftmost_local_block(arcs[partner], block) for partner in members}
    regulars = [partner for partner, (_, local) in stats.items() if local is None]
    if len(regulars) != 1:
        return f"fiber of {_partner_text(first)} has {len(regulars)} regular diagrams"
    regular = regulars[0]
    if stats[regular][0] != min([count for count, _ in stats.values()]):
        return f"regular diagram {_partner_text(regular)} is not crossing-minimal"
    if regular_arcs(block_pair_counts(table, arcs[first])) != arcs[regular]:
        return f"canonicalize({_partner_text(first)}) missed the regular diagram"
    for partner, (count, local) in stats.items():
        if local is None:
            continue
        successor = swapped_partners(partner, _strict_swap_site(partner, block, local))
        if successor not in stats:
            return f"the strict swap of {_partner_text(partner)} leaves its fiber"
        if stats[successor][0] >= count:
            return f"the strict swap of {_partner_text(partner)} removes no crossing"
    if swap_orbit_partners(first) != stats.keys():
        return f"swap orbit of {_partner_text(first)} is not the fiber"
    return None


def _check_dual_matrix(n=7):
    """The adjacency matrix equals the block matrix of the dual, for every
    diagram (arbitrary arc subsets) up to the length bound."""
    checked = 0
    for length in range(4, n + 1):
        pool = admissible_arcs(length)
        for mask in range(1, 1 << len(pool)):
            diagram = Diagram(length, [pool[i] for i in range(len(pool)) if mask >> i & 1])
            if adjacency_matrix(diagram) != block_matrix(dual(diagram)):
                return False, f"mismatch at {diagram.key()}"
            checked += 1
    return True, f"{checked} diagrams up to length {n}"


def _check_realize_roundtrip(laid_out, m=6, k=2, r=2):
    """The 'beta' check at each order up to m.  Exactness makes (0,1)
    matrices realize without parallel arcs: two would share a block pair,
    and a (0,1) key gives each block pair at most one arc.  The families of
    one order nest in the crossing and tautology bounds, so M(order, k, r)
    holds every member of the others and alone is laid out; every family
    member is still counted.  As in 'beta', a key met at an earlier point
    of the run (``laid_out``) is not laid out again."""
    check_matrix_depth(m)  # before the lower orders run
    checked = 0
    for order in range(4, m + 1):
        families = {(c, t): enumerate_matrix_keys(order, c, t) for c in range(1, k + 1) for t in range(r + 1)}
        failure = _layout_failure(order, families[k, r], laid_out)
        if failure is not None:
            return False, failure
        checked += sum(map(len, families.values()))
    return True, f"{checked} matrices up to order {m}"


def _check_length_bound(n=8):
    """Length bound n <= C(f+3, 2) + 2 p(B(S)) on every proper diagram."""
    check_matching_depth(n)  # before the shorter lengths run
    checked = 0
    for length in range(4, n + 1):
        for diagram in enumerate_proper_diagrams(length):
            f = len(free_sites(diagram))
            bound = comb(f + 3, 2) + 2 * p_value_of_diagram(diagram)
            if length > bound:
                return False, f"{diagram.key()} exceeds bound {bound}"
            checked += 1
    return True, f"{checked} proper diagrams up to length {n}"


def _check_join(m, k):
    """Homology of the full inclusion complex equals that of the join of
    its non-relevant and relevant sub-complexes."""
    whole = noncrossing_complex(admissible_arcs(m), k)
    star = noncrossing_complex(nonrelevant_arcs(m, k), k)
    relevant = noncrossing_complex(relevant_arcs(m, k), k)
    joined = join(star, relevant)
    left = reduced_homology(whole)
    right = reduced_homology(joined)
    ok = left == right
    return ok, f"whole {left.report_lines()} vs join {right.report_lines()}"


# the tautology-bounded matrix families M(f+1, k, r) that thm12 and beta run on
_MATRIX_FAMILY_GRID = (
    [{"f": f, "k": k, "r": r} for f in (3, 4, 5) for k in (1, 2) for r in (0, 1, 2)]
    + [{"f": 6, "k": 1, "r": r} for r in (0, 1, 2)]
    + [{"f": 6, "k": 2, "r": 0}]
    + [{"f": 5, "k": 3, "r": r} for r in (0, 1, 2)]
    + [{"f": 6, "k": 3, "r": 0}, {"f": 7, "k": 1, "r": 1}]
)

# One row per check: its function, its default grid, and what a grid
# point needs, as a predicate on the point with the function's defaults
# applied and the text that refuses a point failing it.  A point needs the
# hypotheses of the two theorems, the bounds of the families and maps the
# other family checks build, and for the rest the bounds below which their
# loops are empty, so that the check would pass without testing anything.
# All are refused before any point runs.  'beta' and 'realize-roundtrip'
# take the run's passed layouts first: their rows hold None there, and
# ``run_check`` puts in each run's own, so no grid point can name it.
_THEOREM_HYPOTHESES = "the theorem needs f >= 3, k >= 1 and f+1 >= 2k"
_SOME_LENGTH = (lambda n: n >= 4, "the check needs n >= 4, the length of the shortest proper diagram")
_SOME_ARC = (lambda m, k: m >= 4 and k >= 1, "the check needs m >= 4 and k >= 1, for a nonempty arc set")
_REGULAR_FAMILY = (lambda f, k, r: f >= 3 and k >= 1 and r >= 0, "the check needs f >= 3, k >= 1 and r >= 0")
_CHECKS = {
    "thm11": (
        _check_thm11,
        [{"f": f, "k": 1} for f in (4, 5, 6, 7, 8, 9)]
        + [{"f": f, "k": 2} for f in (5, 6, 7, 8)]
        + [{"f": f, "k": 3} for f in (6, 7)],
        lambda f, k: f >= 3 and k >= 1 and f + 1 >= 2 * k,
        _THEOREM_HYPOTHESES,
    ),
    "thm12": (
        _check_thm12,
        _MATRIX_FAMILY_GRID,
        lambda f, k, r: f >= 3 and k >= 1 and f + 1 >= 2 * k and r >= 0,
        f"{_THEOREM_HYPOTHESES}, and r >= 0",
    ),
    "beta": (partial(_check_beta, None), _MATRIX_FAMILY_GRID, *_REGULAR_FAMILY),
    "tau": (
        _check_tau,
        [{"f": f, "k": 1} for f in range(3, 10)] + [{"f": f, "k": 2} for f in range(4, 8)] + [{"f": 6, "k": 3}],
        lambda f, k: f >= 3 and k >= 1,
        "the check needs f >= 3 and k >= 1",
    ),
    "theta": (
        _check_theta,
        [{"m": 5, "k": 1}, {"m": 6, "k": 1}, {"m": 6, "k": 2}, {"m": 7, "k": 2}],
        lambda m, k: k >= 1 and m >= 2 * k + 2,
        "the check needs k >= 1 and m >= 2k+2, for a k-relevant diagonal",
    ),
    "kappa": (_check_kappa, [{"m": 5, "k": 1}, {"m": 6, "k": 2}, {"m": 7, "k": 2}], *_SOME_ARC),
    "equivalence": (_check_equivalence, [{"n": 8}], *_SOME_LENGTH),
    "regular-unique": (_check_regular_unique, [{"n": 11}], *_SOME_LENGTH),
    "dual-matrix": (_check_dual_matrix, [{"n": 7}], *_SOME_LENGTH),
    "realize-roundtrip": (
        partial(_check_realize_roundtrip, None),
        [{"m": 6, "k": 2, "r": 2}],
        lambda m, k, r: m >= 4 and k >= 1 and r >= 0,
        "the check needs m >= 4, k >= 1 and r >= 0",
    ),
    "length-bound": (_check_length_bound, [{"n": 8}], *_SOME_LENGTH),
    "join": (
        _check_join,
        [{"m": m, "k": k} for m, k in ((5, 1), (6, 2), (7, 2), (7, 3), (8, 1), (8, 2), (8, 3), (9, 1))],
        *_SOME_ARC,
    ),
    "rho": (
        _check_rho,
        [{"f": 3, "k": k, "r": r} for k in (1, 2) for r in (0, 1, 2)]
        + [{"f": 4, "k": 1, "r": r} for r in (0, 1, 2)]
        + [{"f": 4, "k": 2, "r": 0}]
        + [{"f": 5, "k": 1, "r": r} for r in (0, 1)],
        *_REGULAR_FAMILY,
    ),
}


# the order of each family whose keys a grid point lays out, for the
# checks that share passed layouts between the points of one run
_LAYOUT_ORDERS = {
    "beta": lambda f, k, r: (f + 1,),
    "realize-roundtrip": lambda m, k, r: range(4, m + 1),
}


def check_names() -> list[str]:
    return sorted(_CHECKS)


def run_check(name: str, grid: list[dict] | None = None) -> VerificationReport:
    """Run a named check over a grid (its default grid when none given)."""
    if name not in _CHECKS:
        raise InvalidArgumentError(f"unknown check {name!r}; known: {', '.join(check_names())}")
    func, default_grid, holds, needs = _CHECKS[name]
    points = grid if grid is not None else default_grid
    if not points:
        raise InvalidArgumentError(f"check {name}: the grid has no point")
    arguments = []
    for params in points:
        try:
            bound = inspect.signature(func).bind(**params)
        except TypeError as exc:
            raise InvalidArgumentError(f"check {name} at {params}: {exc}") from None
        bound.apply_defaults()
        if not holds(**bound.arguments):
            raise InvalidArgumentError(f"check {name} at {params}: {needs}")
        arguments.append(bound.arguments)
    if name in _LAYOUT_ORDERS:  # this run's own passed layouts, in place of None
        orders = chain.from_iterable(_LAYOUT_ORDERS[name](**point) for point in arguments)
        func = partial(func.func, _PassedLayouts(orders))
    report = VerificationReport(name)
    for params in points:
        passed, detail = func(**params)
        report.points.append(CheckPoint(dict(params), passed, detail))
    return report
