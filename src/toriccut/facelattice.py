"""The face lattice of a polyhedral set and the verdicts read from it.

One enumeration finds every face with an exact witness point, whose
tight conormals' Hermite normal form settles ranks and saturation: the
`Cover` that `active_faces` returns for each face. On the covers rest the
checks of minimality, primitivity, simple vertices and saturated faces
(`unimodularity_report`, which on a cone is the good-cone verdict), the
convexity class, the splitting of line factors and the homotopy summary.
Every verdict is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import intlinalg, polylattice
from .errors import NotUnimodular, ScaleLimitExceeded
from .polylattice import CONE, EQ, LE, LT, PolyhedralSet

# candidate faces one enumeration may examine; each costs at most one
# feasibility solve, so a larger set exits 4 instead of running for minutes
FACE_CANDIDATE_BUDGET = 2**16


class MinimalityResult(NamedTuple):
    minimal: bool
    witness: int | None


class Cover(NamedTuple):
    """Conormal verdicts on the facets tight at one witness point.

    Every face I whose witness is this point lies inside the tight set, so
    when the tight conormals are independent (rank == tight), I has rank
    |I|, and when they are also saturated, so is I. The smallest face
    containing the witness has dimension n - rank.
    """

    witness: tuple[Fraction, ...]
    tight: int
    rank: int
    saturated: bool


class UnimodularityReport(NamedTuple):
    minimal: bool
    minimal_witness: int | None
    primitive: bool
    primitive_witness: int | None
    simple_vertices: bool
    simple_witness: tuple[Fraction, ...] | None
    saturated_faces: bool
    saturated_witness: tuple[int, ...] | None
    # the Cover of every active face, which the checks read
    covers: dict[tuple[int, ...], Cover]

    @property
    def is_unimodular(self) -> bool:
        return (self.minimal and self.primitive and self.simple_vertices
                and self.saturated_faces)


class ConvexityReport(NamedTuple):
    rank: int
    k: int
    label: str  # "strongly_convex" | "weakly_convex"


class SplittingReport(NamedTuple):
    k: int
    coordinate_indices: tuple[int, ...]
    unimodular_change: tuple[tuple[int, ...], ...]
    projected_set: PolyhedralSet


class HomotopyReport(NamedTuple):
    k: int
    pi0: str
    pi1: str
    pi_higher: str


def is_minimal(p: PolyhedralSet) -> MinimalityResult:
    """Check every facet is essential (its removal changes the set).

    Facet j is essential iff some point violates facet j while satisfying
    all the others. The witness is the first inessential index.
    """
    for j, fj in enumerate(p.facets, start=1):
        cons = [(f.eta, LE, f.kappa) for f in p.facets[:j - 1] + p.facets[j:]]
        cons.append((tuple(-v for v in fj.eta), LT, -fj.kappa))
        if not polylattice.feasible(cons, p.n).feasible:
            return MinimalityResult(False, j)
    return MinimalityResult(True, None)


def reeb_candidate(p: PolyhedralSet) -> tuple[int, ...]:
    """r = -sum eta_i; <r, x> > 0 off the apex if a cone's conormals span."""
    return tuple(-sum(column) for column in zip(*p.etas))


def face_witness(p: PolyhedralSet, indices, rank: int | None = None):
    """Exact point of the face F_I inside p, or None when the face is empty.

    For cones the apex does not count: the witness must be nonzero, so a
    face meeting the cone only at the origin reports None. When the
    conormals of a cone do not span R^n, a nonzero integer vector of their
    kernel pairs to zero with all of them, so it lies on every face and is
    the witness. When they span, the LP runs on the slice <r, x> = 1
    (`reeb_candidate`), which meets every ray. `rank`, the rank of the
    conormals, is passed by a caller that has it, as an enumeration does.
    """
    cons = [(f.eta, EQ if i in indices else LE, f.kappa)
            for i, f in enumerate(p.facets, start=1)]
    if p.kind == CONE:
        etas = [list(e) for e in p.etas]
        if rank is None:
            rank = polylattice.rational_rank(etas)
        if rank < p.n:
            return intlinalg.integer_kernel_basis(etas)[0]
        cons.append((reeb_candidate(p), EQ, 1))  # a slice meeting every ray
    res = polylattice.feasible(cons, p.n)
    return res.witness if res.feasible else None


def _tight_facets(rows, point):
    """Bit mask of the facets tight at point (bit i - 1 for facet i), or
    None when point violates one; exact, in integers over the common
    denominator of the point's coordinates."""
    xs, scale = polylattice.integer_row(point)
    mask = 0
    for i, (a, b) in enumerate(rows):
        value = sum(u * v for u, v in zip(a, xs))
        if value > b * scale:
            return None
        if value == b * scale:
            mask |= 1 << i
    return mask


def _equation_point(p: PolyhedralSet, combo, rank: int | None = None):
    """What the equations <x, eta_i> = kappa_i, i in I, decide alone.

    On a cone whose conormals span R^n (`rank` n) the slice <r, x> = 1 of
    `face_witness` is one more equation: <r, x> > 0 on the cone off the
    apex, so F_I has a nonzero point exactly when it has one on the slice.
    Returns (True, x) when the equations cut out the single point x (in p
    or not), (True, None) when they have no solution, as on a face of rank
    n of such a cone, and (False, None) when their solutions form a line or
    more, which only an LP settles.
    """
    rows = [(*p.facets[i - 1].eta, p.facets[i - 1].kappa) for i in combo]
    if rank == p.n:
        rows.append((*reeb_candidate(p), 1))
    solvable, x = polylattice.rational_solve(rows, p.n)
    return not solvable or x is not None, x


def active_faces(p: PolyhedralSet) -> dict[tuple[int, ...], Cover]:
    """All subsets I of facets whose face F_I meets the set, with a point.

    Maps each such I, the increasing tuple of its 1-based indices, to the
    Cover of an exact witness point of F_I (`cover.witness`), in order of
    size, then lexicographically. Includes the empty set when the set
    itself is nonempty. For cones the apex is excluded, so a face is listed
    only if it contains a nonzero point; so a subset of facets cuts out a
    nonempty face exactly when it is a key.

    Every witness w covers all subsets of its active set A(w): they are
    nonempty with witness w and need no test. A candidate I + j (j past
    the last index of I) is built only from a key I, and only when every
    subset that drops one facet is a key, since a superset of an empty face
    is empty. A candidate no witness covers is settled by its equations,
    with the slice of `face_witness` among them on a cone whose conormals
    span R^n, when they fix a single point or have none, and by one LP
    otherwise, so LPs go only to candidates of rank below n (below n - 1 on
    such a cone) that no witness found so far lies on. Faces found by one
    witness share its Cover, so one rank and index is taken per distinct
    witness.

    Raises:
        ScaleLimitExceeded: when more than FACE_CANDIDATE_BUDGET candidates
            would have to be examined.
    """
    # each facet as integers (a, b), <x, a> <= b the same half-space
    rows = [(ints[:-1], ints[-1]) for ints, _ in
            (polylattice.integer_row([*f.eta, f.kappa]) for f in p.facets)]
    rank = (polylattice.rational_rank([list(e) for e in p.etas])
            if p.kind == CONE else None)
    witnesses: list[tuple[int, Cover]] = []  # (tight mask, cover)
    found = {}
    examined = 0
    level = [((), 0)]  # candidates of one size, in lexicographic order
    while level:
        keys = []
        for combo, mask in level:
            examined += 1
            if examined > FACE_CANDIDATE_BUDGET:
                raise ScaleLimitExceeded(
                    f"face enumeration of {len(rows)} facets exceeds the "
                    f"budget of {FACE_CANDIDATE_BUDGET} candidate faces")
            cover = next((cover for active, cover in witnesses
                          if mask & active == mask), None)
            if cover is None:
                decided, w = _equation_point(p, combo, rank)
                if not decided:
                    w = face_witness(p, combo, rank)
                tight = None if w is None else _tight_facets(rows, w)
                if tight is None:  # empty, or its one point lies outside
                    continue
                etas = [list(f.eta) for i, f in enumerate(p.facets)
                        if tight >> i & 1]
                tight_rank, index = intlinalg.lattice_rank_index(etas)
                cover = Cover(w, len(etas), tight_rank,
                              (tight_rank, index) == (len(etas), 1))
                witnesses.append((tight, cover))
            found[combo] = cover
            keys.append((combo, mask))
        known = {mask for _, mask in keys}
        level = []
        for combo, mask in keys:
            for j in range(combo[-1] + 1 if combo else 1, len(rows) + 1):
                grown = mask | 1 << (j - 1)
                if all(grown & ~(1 << (i - 1)) in known for i in combo):
                    level.append(((*combo, j), grown))
    return found


def unimodularity_report(p: PolyhedralSet) -> UnimodularityReport:
    """Run the four structural checks with witnesses for each failure.

    Checks: minimality, primitive conormals, simple vertices (every
    zero-dimensional face has exactly n active facets), and saturation of
    the conormal family of every nonempty active face. For cones the apex
    is excluded throughout, so vertices never arise there.
    """
    minimal = is_minimal(p)
    primitive_witness = next((i for i, f in enumerate(p.facets, start=1)
                              if math.gcd(*f.eta) != 1), None)
    simple, simple_witness = True, None
    seen_vertices = set()
    saturated, saturated_witness = True, None
    covers = active_faces(p)
    for fi, cover in covers.items():
        if not fi:
            continue
        if cover.saturated or (cover.rank == cover.tight and not saturated):
            rank = len(fi)
        else:
            rank, index = intlinalg.lattice_rank_index(
                [list(p.facets[i - 1].eta) for i in fi])
            if saturated and (rank, index) != (len(fi), 1):
                saturated, saturated_witness = False, fi
        if simple and rank == p.n and cover.witness not in seen_vertices:
            # a rank-n face is a single point: its witness is the vertex
            seen_vertices.add(cover.witness)
            if cover.tight != p.n:
                simple, simple_witness = False, cover.witness
    return UnimodularityReport(
        minimal.minimal, minimal.witness, primitive_witness is None,
        primitive_witness, simple, simple_witness, saturated,
        saturated_witness, covers)


def convexity_class(p: PolyhedralSet) -> ConvexityReport:
    """Rank of the conormal family; k = n - rank counts split line factors."""
    rank = polylattice.rational_rank([list(e) for e in p.etas])
    k = p.n - rank
    return ConvexityReport(rank, k, "strongly_convex" if k == 0 else "weakly_convex")


def split_weakly_convex(p: PolyhedralSet,
                        report: UnimodularityReport | None = None
                        ) -> SplittingReport:
    """Split off the line factors of a weakly convex unimodular set.

    The change of basis is the transform u of `hermite_transform` on the
    Hermite rows h of the conormals: u h^T = [I; 0], so u carries the
    lattice they span onto the first n-k coordinates, and its last k rows
    are the Hermite basis of their integer kernel. The transformed
    conormals then have last k coordinates zero and their
    truncations define the projected strongly convex set. With k = 0 that
    set is p in another lattice basis, which keeps every unimodularity
    check, so `report`, the unimodularity report of p when the caller has
    it, gives the projected set's verdict.

    Raises:
        NotUnimodular: when the conormal span is not saturated in the
            integer lattice, or the projected set fails its checks.
    """
    h = intlinalg.hermite_normal_form([list(e) for e in p.etas])
    rank = len(h)
    image, change = intlinalg.hermite_transform(h, p.n)
    if image != polylattice.identity_matrix(rank):
        raise NotUnimodular("conormal span is not saturated in the lattice")
    k = p.n - rank
    pivots = tuple(next(c for c, v in enumerate(row, start=1) if v)
                   for row in h)
    new_facets = []
    for f in p.facets:
        transformed = [sum(change[r][c] * f.eta[c] for c in range(p.n))
                       for r in range(p.n)]
        if any(v != 0 for v in transformed[rank:]):
            raise AssertionError("basis change failed to zero the tail coordinates")
        new_facets.append((tuple(transformed[:rank]), f.kappa))
    # strongly convex: the truncated conormals span Q^rank
    projected = polylattice.polyhedral_set(rank, new_facets, kind=p.kind)
    if k or report is None:
        report = unimodularity_report(projected)
    if not report.is_unimodular:
        raise NotUnimodular("projected set fails the unimodularity checks")
    return SplittingReport(k, pivots,
                           tuple(tuple(row) for row in change), projected)


def homotopy_report(sr: SplittingReport) -> HomotopyReport:
    """Symbolic homotopy summary induced by a splitting.

    The k split line factors contribute a free abelian factor of rank k to
    the fundamental group; everything else is carried by the core manifold
    of the projected strongly convex set.
    """
    pi1 = f"Z^{sr.k} x pi_1(M_core)" if sr.k else "pi_1(M_core)"
    return HomotopyReport(sr.k, "trivial", pi1, "pi_m(M_core) for m >= 2")
