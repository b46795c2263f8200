"""Exact geometry of polyhedral sets given by half-space data.

A set is described by ordered facets (eta, kappa), each encoding the
constraint <x, eta> <= kappa once normalized to the upper convention.
All verdicts in this module are exact: coordinates are Fractions and
integer lattice questions are settled by exact normal forms.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple

from . import intlinalg
from .errors import (
    ConeWithNonzeroOffset,
    ConfigError,
    NotACone,
    NotUnimodular,
    ScaleLimitExceeded,
    ZeroConormal,
)

UPPER = "upper"
LOWER = "lower"
GENERAL = "general"
CONE = "cone"

DEFAULT_MAX_DIM = 8
DEFAULT_MAX_CONSTRAINTS = 64
# candidate faces one enumeration may examine; each costs at most one
# feasibility solve, so a larger set exits 4 instead of running for minutes
FACE_CANDIDATE_BUDGET = 2**16

LE = "<="
EQ = "=="
LT = "<"


def max_dim_limit() -> int:
    """Supported ambient dimension; raised via the TORIC_MAX_DIM env var.

    Raises:
        ConfigError: when TORIC_MAX_DIM is set but is not a positive integer.
    """
    raw = os.environ.get("TORIC_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"TORIC_MAX_DIM must be a positive integer, got {raw!r}")
    return value


class Facet(NamedTuple):
    eta: tuple[int, ...]
    kappa: Fraction


class PolyhedralSet(NamedTuple):
    n: int
    facets: tuple[Facet, ...]
    kind: str = GENERAL
    orientation: str = UPPER

    @property
    def etas(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f.eta for f in self.facets)

    @property
    def kappas(self) -> tuple[Fraction, ...]:
        return tuple(f.kappa for f in self.facets)


class FaceIndexSet:
    """Subset of facet indices, 1-based, stored sorted and deduplicated.

    Not a tuple: a face never compares equal to a plain tuple of indices.
    """

    __slots__ = ("indices",)

    def __init__(self, indices):
        idx = tuple(sorted(set(int(i) for i in indices)))
        if idx and idx[0] < 1:
            raise ValueError("facet indices are 1-based")
        object.__setattr__(self, "indices", idx)

    def __setattr__(self, name, value):
        raise AttributeError(f"FaceIndexSet is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if isinstance(other, FaceIndexSet):
            return self.indices == other.indices
        return NotImplemented

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return f"FaceIndexSet(indices={self.indices!r})"

    def __contains__(self, item):
        return item in self.indices

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


class FeasibilityResult(NamedTuple):
    feasible: bool
    witness: tuple[Fraction, ...] | None
    certificate: tuple[int, ...] | None = None


class MinimalityResult(NamedTuple):
    minimal: bool
    witness: int | None


class UnimodularityReport(NamedTuple):
    minimal: bool
    minimal_witness: int | None
    primitive: bool
    primitive_witness: int | None
    simple_vertices: bool
    simple_witness: tuple[Fraction, ...] | None
    saturated_faces: bool
    saturated_witness: FaceIndexSet | None
    # the Cover of every active face, which the checks read
    covers: dict[FaceIndexSet, Cover]

    @property
    def is_unimodular(self) -> bool:
        return (
            self.minimal
            and self.primitive
            and self.simple_vertices
            and self.saturated_faces
        )


class ConvexityReport(NamedTuple):
    rank: int
    k: int
    label: str  # "strongly_convex" | "weakly_convex"


class GoodConeResult(NamedTuple):
    good: bool
    report: UnimodularityReport


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


def polyhedral_set(n, facets, kind=GENERAL, orientation=UPPER) -> PolyhedralSet:
    """Build a PolyhedralSet from raw (eta, kappa) pairs.

    eta entries must be integers; kappa may be anything Fraction accepts.
    No normalization happens here; see normalize().
    """
    if kind not in (GENERAL, CONE):
        raise ValueError(f"unknown kind {kind!r}")
    if orientation not in (UPPER, LOWER):
        raise ValueError(f"unknown orientation {orientation!r}")
    built = []
    for eta, kappa in facets:
        eta = tuple(int(v) for v in eta)
        if len(eta) != n:
            raise ValueError("conormal length does not match dimension")
        built.append(Facet(eta, Fraction(kappa)))
    return PolyhedralSet(int(n), tuple(built), kind, orientation)


def normalize(p: PolyhedralSet, auto_primitivize: bool = False) -> PolyhedralSet:
    """Normalize facet data to the upper convention <x, eta> <= kappa.

    Lower-orientation input has every (eta, kappa) negated. With
    auto_primitivize each conormal is divided by its gcd (the offset by the
    same factor), which leaves the half-space unchanged.
    """
    out = []
    for pos, f in enumerate(p.facets, start=1):
        eta, kappa = f.eta, f.kappa
        if all(v == 0 for v in eta):
            raise ZeroConormal(f"facet {pos} has a zero conormal")
        if p.orientation == LOWER:
            eta = tuple(-v for v in eta)
            kappa = -kappa
        if auto_primitivize:
            g = intlinalg.vector_gcd(eta)
            if g > 1:
                eta = tuple(v // g for v in eta)
                kappa = kappa / g
        if p.kind == CONE and kappa != 0:
            raise ConeWithNonzeroOffset(f"facet {pos} has offset {kappa}")
        out.append(Facet(eta, kappa))
    return PolyhedralSet(p.n, tuple(out), p.kind, UPPER)


def require_normalized(p: PolyhedralSet) -> None:
    if p.orientation != UPPER:
        raise ValueError("operation requires a normalized (upper) set")


# ---------------------------------------------------------------------------
# exact feasibility kernel
# ---------------------------------------------------------------------------
#
# One simplex routine settles every feasibility question. Its tableau is
# fraction-free (Edmonds 1967): every entry is an integer over one common
# denominator d, and each pivot divides exactly by the previous d. Row i
# reads  d*basic_i + sum_k tab[i][k] * nonbasic_k = tab[i][0]. Variables are
# numbered x_1..x_n (free), the margin t, the row slacks in row order, then
# the Phase-I artificial; Bland's rule breaks every tie by that number.


class _Tableau:
    """Integer dictionary over the rows (a, c, b) of _simplex."""

    def __init__(self, rows, n, margin):
        self.n = n
        self.d = 1
        self.tab = [[b, *a, c] if margin else [b, *a] for a, c, b in rows]
        self.nonbasic = [None, *range(n + 1 if margin else n)]
        self.basic = [n + 1 + i for i in range(len(rows))]

    def pivot(self, r, s):
        tab, d = self.tab, self.d
        prow = tab[r]
        p = prow[s]
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row[s]
            if f:
                row[:] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                row[s] = -f
            elif p != d:
                row[:] = [p * a // d for a in row]
        prow[s] = d
        if p < 0:
            for row in tab:
                row[:] = [-a for a in row]
            p = -p
        self.d = p
        self.basic[r], self.nonbasic[s] = self.nonbasic[s], self.basic[r]

    def run(self):
        """Bland's rule on the objective in the last row; False if unbounded."""
        tab, basic, nonbasic, n = self.tab, self.basic, self.nonbasic, self.n
        obj = tab[-1]
        while True:
            s = None
            for k in range(1, len(obj)):
                if obj[k] < 0 and nonbasic[k] >= n and (
                        s is None or nonbasic[k] < nonbasic[s]):
                    s = k
            if s is None:
                return True
            r = None
            for i in range(len(tab) - 1):
                a = tab[i][s]
                if a <= 0 or basic[i] < n:
                    continue
                if r is None:
                    r = i
                    continue
                lhs, rhs = tab[i][0] * tab[r][s], tab[r][0] * a
                if lhs < rhs or (lhs == rhs and basic[i] < basic[r]):
                    r = i
            if r is None:
                return False
            self.pivot(r, s)
            obj = tab[-1]

    def value(self, var):
        if var in self.basic:
            return Fraction(self.tab[self.basic.index(var)][0], self.d)
        return Fraction(0)


def _simplex(rows, n, margin, cap=False):
    """Maximise the margin t subject to a.x + c*t <= b for (a, c, b) in rows.

    All entries are integers. x is free and t >= 0; without margin t is
    absent and only Phase I runs. cap adds the row t <= 1. Returns
    (status, x, t, y) with status "infeasible", "optimal" or "unbounded";
    x and t are exact at the final basis, and y holds the multipliers of
    the input rows in the final objective row: a Farkas certificate when
    Phase I fails, the optimal dual solution when Phase II succeeds.
    """
    rows = list(rows)
    m = len(rows)
    if cap:
        rows.append(((0,) * n, 1, 1))
    tb = _Tableau(rows, n, margin)
    tab, basic, nonbasic = tb.tab, tb.basic, tb.nonbasic
    for j in range(n):
        col = j + 1
        for i, row in enumerate(tab):
            if basic[i] >= n and row[col]:
                tb.pivot(i, col)
                break
    status = "optimal"
    art = n + 1 + len(rows)
    short = [i for i, row in enumerate(tab) if basic[i] >= n and row[0] < 0]
    if short:
        for i, row in enumerate(tab):
            row.append(0 if basic[i] < n else -tb.d)
        nonbasic.append(art)
        tab.append([0] * (len(nonbasic) - 1) + [tb.d])
        basic.append(None)
        tb.pivot(min(short, key=lambda i: (tab[i][0], basic[i])), len(nonbasic) - 1)
        tb.run()
        if tab[-1][0] < 0:
            status = "infeasible"
        else:
            tab.pop()
            basic.pop()
            if art in basic:
                r = basic.index(art)
                s = next((k for k in range(1, len(nonbasic))
                          if nonbasic[k] >= n and tab[r][k]), None)
                if s is None:
                    del tab[r], basic[r]
                else:
                    tb.pivot(r, s)
            if art in nonbasic:
                k = nonbasic.index(art)
                for row in tab:
                    del row[k]
                del nonbasic[k]
    if status == "optimal" and margin:
        if n in basic:
            obj = list(tab[basic.index(n)])
        else:
            obj = [0] * len(nonbasic)
            obj[nonbasic.index(n)] = -tb.d
        tab.append(obj)
        basic.append(None)
        if not tb.run():
            status = "unbounded"
    x = tuple(tb.value(j) for j in range(n))
    t = tb.value(n) if margin else Fraction(0)
    obj = tab[-1] if basic and basic[-1] is None else [0] * len(nonbasic)
    column = {var: k for k, var in enumerate(nonbasic)}
    y = tuple(obj[column[n + 1 + i]] if n + 1 + i in column else 0
              for i in range(m))
    return status, x, t, y


def feasible(constraints, n: int | None = None, *, max_dim: int | None = None,
             max_constraints: int | None = None) -> FeasibilityResult:
    """Exact feasibility of a system of linear relations by the simplex method.

    Strict rows share one margin t >= 0, capped at t <= 1, which Phase II
    maximizes; the system is feasible iff Phase I succeeds and, when strict
    rows exist, the optimal margin is positive.

    Args:
        constraints: iterable of (coeffs, relation, rhs) with relation one
            of "<=", "==", "<". Coefficients and rhs may be ints or
            Fractions; the verdict and witness are exact.
        n: number of variables (defaults to the length of the first row).

    Returns:
        FeasibilityResult with an exact rational witness when feasible, and
        otherwise an integer Farkas certificate y, one multiplier per input
        constraint: y >= 0 on "<=" and "<" rows, y^T A = 0, and either
        y^T b < 0, or y^T b = 0 with y > 0 on some strict row.

    Raises:
        ScaleLimitExceeded: when the system is larger than the supported
            desk scale (dimension or constraint count).
    """
    cons = list(constraints)
    if n is None:
        if not cons:
            raise ValueError("cannot infer dimension from an empty system")
        n = len(cons[0][0])
    limit_dim = max_dim if max_dim is not None else max_dim_limit()
    limit_cons = max_constraints if max_constraints is not None else DEFAULT_MAX_CONSTRAINTS
    if n > limit_dim:
        raise ScaleLimitExceeded(f"dimension {n} exceeds supported bound {limit_dim}")
    if len(cons) > limit_cons:
        raise ScaleLimitExceeded(
            f"{len(cons)} constraints exceed supported bound {limit_cons}")
    # equalities become two opposite rows, placed first so that the free
    # variables pivot in on them; origin records (constraint, sign * scale)
    eq_rows, eq_origin, rows, origin = [], [], [], []
    for k, (coeffs, rel, rhs) in enumerate(cons):
        if rel not in (LE, LT, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        ints, scale = intlinalg.integer_row([*coeffs, rhs])
        if len(ints) != n + 1:
            raise ValueError("constraint arity does not match dimension")
        a, b = tuple(ints[:-1]), ints[-1]
        if rel == EQ:
            eq_rows += [(a, 0, b), (tuple(-v for v in a), 0, -b)]
            eq_origin += [(k, scale), (k, -scale)]
        else:
            rows.append((a, int(rel == LT), b))
            origin.append((k, scale))
    strict = any(c for _, c, _ in rows)
    status, x, t, y = _simplex(eq_rows + rows, n, margin=strict, cap=strict)
    if status == "optimal" and (t > 0 or not strict):
        return FeasibilityResult(True, x)
    cert = [0] * len(cons)
    for (k, scale), yk in zip(eq_origin + origin, y):
        cert[k] += scale * yk
    g = intlinalg.vector_gcd(cert)
    return FeasibilityResult(False, None, tuple(v // g for v in cert))


def max_margin_point(p: PolyhedralSet):
    """Interior point maximizing the smallest slack, found exactly.

    Returns (witness, margin). The margin is the largest m with
    <x, eta_i> <= kappa_i - m for all facets feasible, or exactly 1 when
    the slack is unbounded (cones). margin == 0 means the set has no strict
    interior.

    Raises:
        ValueError: when the set is empty.
    """
    require_normalized(p)
    if p.n > max_dim_limit():
        raise ScaleLimitExceeded(f"dimension {p.n} exceeds supported bound")
    if len(p.facets) + 1 > DEFAULT_MAX_CONSTRAINTS:
        raise ScaleLimitExceeded("facet count exceeds supported bound")
    rows = []
    for f in p.facets:
        ints, scale = intlinalg.integer_row([*f.eta, f.kappa])
        rows.append((tuple(ints[:-1]), scale, ints[-1]))
    status, x, t, _ = _simplex(rows, p.n, margin=True)
    if status == "infeasible":
        raise ValueError("set is empty")
    if status == "unbounded":
        status, x, t, _ = _simplex(rows, p.n, margin=True, cap=True)
    return x, t


# ---------------------------------------------------------------------------
# facet structure
# ---------------------------------------------------------------------------


def is_minimal(p: PolyhedralSet) -> MinimalityResult:
    """Check every facet is essential (its removal changes the set).

    Facet j is essential iff some point violates facet j while satisfying
    all the others. The witness is the first inessential index.
    """
    require_normalized(p)
    for j, fj in enumerate(p.facets, start=1):
        cons = []
        for i, fi in enumerate(p.facets, start=1):
            if i == j:
                continue
            cons.append((fi.eta, LE, fi.kappa))
        cons.append((tuple(-v for v in fj.eta), LT, -fj.kappa))
        if not feasible(cons, p.n).feasible:
            return MinimalityResult(False, j)
    return MinimalityResult(True, None)


def _face_system(p: PolyhedralSet, indices):
    cons = []
    idx = set(indices)
    for i, f in enumerate(p.facets, start=1):
        rel = EQ if i in idx else LE
        cons.append((f.eta, rel, f.kappa))
    return cons


def face_witness(p: PolyhedralSet, indices):
    """Exact point of the face F_I inside p, or None when the face is empty.

    For cones the apex does not count: the witness must be nonzero, so a
    face meeting the cone only at the origin reports None. When the
    conormals of a cone do not span R^n, a nonzero integer vector of their
    kernel pairs to zero with all of them, so it lies on every face and is
    the witness.
    """
    require_normalized(p)
    cons = _face_system(p, indices)
    if p.kind == CONE:
        etas = [list(e) for e in p.etas]
        if intlinalg.rational_rank(etas) < p.n:
            return intlinalg.integer_kernel_basis(etas)[0]
        # r = -sum eta_i is positive on the punctured cone, so the slice
        # <r, x> = 1 meets every ray and one LP decides nonemptiness
        reeb = tuple(-sum(column) for column in zip(*p.etas))
        cons.append((reeb, EQ, 1))
    res = feasible(cons, p.n)
    return res.witness if res.feasible else None


def _integer_facets(p: PolyhedralSet):
    """Each facet as integers (a, b) with <x, a> <= b the same half-space."""
    rows = []
    for f in p.facets:
        ints, _ = intlinalg.integer_row([*f.eta, f.kappa])
        rows.append((ints[:-1], ints[-1]))
    return rows


def _tight_facets(rows, point):
    """Bit mask of the facets tight at point (bit i - 1 for facet i), or
    None when point violates one; exact, in integers over the common
    denominator of the point's coordinates."""
    xs, scale = intlinalg.integer_row(point)
    mask = 0
    for i, (a, b) in enumerate(rows):
        value = sum(u * v for u, v in zip(a, xs))
        if value > b * scale:
            return None
        if value == b * scale:
            mask |= 1 << i
    return mask


def _equation_point(p: PolyhedralSet, combo):
    """What the equations <x, eta_i> = kappa_i, i in I, decide alone.

    Returns (True, x) when they cut out the single point x (in p or not),
    (True, None) when they have no solution or cut out only the apex of a
    cone, and (False, None) when their solutions form a line or more.
    """
    n = p.n
    reduced, pivots = intlinalg.rational_rref(
        [[*p.facets[i - 1].eta, p.facets[i - 1].kappa] for i in combo])
    if pivots and pivots[-1] == n:
        return True, None
    if len(pivots) < n:
        return False, None
    if p.kind == CONE:
        return True, None
    return True, tuple(row[n] for row in reduced[:n])


def active_faces(p: PolyhedralSet) -> dict[FaceIndexSet, tuple[Fraction, ...]]:
    """All subsets I of facets whose face F_I meets the set, with a point.

    Maps each such I to an exact witness point of F_I, in order of size,
    then lexicographically. Includes the empty set when the set itself is
    nonempty. For cones the apex is excluded, so a face is listed only if
    it contains a nonzero point; so a subset of facets cuts out a nonempty
    face exactly when it is a key.

    Every witness w covers all subsets of its active set A(w): they are
    nonempty with witness w and need no test. A candidate I + j (j past
    the last index of I) is built only from a key I, and only when every
    subset that drops one facet is a key, since a superset of an empty face
    is empty. A candidate no witness covers is settled by its equations
    when they fix a single point or have none, and by one LP otherwise, so
    LPs go only to candidates of rank below n that no witness found so far
    lies on.

    Raises:
        ScaleLimitExceeded: when more than FACE_CANDIDATE_BUDGET candidates
            would have to be examined.
    """
    require_normalized(p)
    rows = _integer_facets(p)
    covers: list[tuple[int, tuple[Fraction, ...]]] = []
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
            w = next((w for active, w in covers if mask & active == mask),
                     None)
            if w is None:
                decided, w = _equation_point(p, combo)
                if not decided:
                    w = face_witness(p, combo)
                tight = None if w is None else _tight_facets(rows, w)
                if tight is None:  # empty, or its one point lies outside
                    continue
                covers.append((tight, w))
            found[FaceIndexSet(combo)] = w
            keys.append((combo, mask))
        known = {mask for _, mask in keys}
        level = []
        for combo, mask in keys:
            for j in range(combo[-1] + 1 if combo else 1, len(rows) + 1):
                grown = mask | 1 << (j - 1)
                if all(grown & ~(1 << (i - 1)) in known for i in combo):
                    level.append(((*combo, j), grown))
    return found


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


def face_covers(p: PolyhedralSet, faces) -> dict[FaceIndexSet, Cover]:
    """The Cover of each face of `faces` (from active_faces), with one
    Smith normal form per distinct witness."""
    require_normalized(p)
    rows = _integer_facets(p)
    covers, by_witness = {}, {}
    for face, w in faces.items():
        # faces covered by one witness share the witness object itself
        cover = by_witness.get(id(w))
        if cover is None:
            mask = _tight_facets(rows, w)
            tight = [list(f.eta) for i, f in enumerate(p.facets)
                     if mask >> i & 1]
            factors = intlinalg.smith_normal_form(tight)[0] if tight else []
            cover = Cover(w, len(tight), len(factors),
                          _saturated(factors, len(tight)))
            by_witness[id(w)] = cover
        covers[face] = cover
    return covers


def saturation_check(etas) -> bool:
    """True iff the integer vectors are independent and span a saturated
    sublattice (all Smith invariant factors equal to 1)."""
    rows = [list(e) for e in etas]
    if not rows:
        raise ValueError("saturation of an empty family is undefined")
    return _saturated(intlinalg.smith_normal_form(rows)[0], len(rows))


def _saturated(factors, count) -> bool:
    # the rank of the family is len(factors): the nonzero invariant factors
    return len(factors) == count and all(f == 1 for f in factors)


def unimodularity_report(p: PolyhedralSet) -> UnimodularityReport:
    """Run the four structural checks with witnesses for each failure.

    Checks: minimality, primitive conormals, simple vertices (every
    zero-dimensional face has exactly n active facets), and saturation of
    the conormal family of every nonempty active face. For cones the apex
    is excluded throughout, so vertices never arise there.
    """
    require_normalized(p)
    minimal = is_minimal(p)
    primitive, primitive_witness = True, None
    for i, f in enumerate(p.facets, start=1):
        if intlinalg.vector_gcd(f.eta) != 1:
            primitive, primitive_witness = False, i
            break
    simple, simple_witness = True, None
    seen_vertices = set()
    saturated, saturated_witness = True, None
    faces = active_faces(p)
    covers = face_covers(p, faces)
    for fi, witness in faces.items():
        if not fi.indices:
            continue
        cover = covers[fi]
        if cover.saturated or (cover.rank == cover.tight and not saturated):
            rank = len(fi)
        else:
            factors, _, _ = intlinalg.smith_normal_form(
                [list(p.facets[i - 1].eta) for i in fi])
            rank = len(factors)
            if saturated and not _saturated(factors, len(fi)):
                saturated, saturated_witness = False, fi
        if simple and rank == p.n and witness not in seen_vertices:
            # a rank-n face is a single point: its witness is the vertex
            seen_vertices.add(witness)
            if cover.tight != p.n:
                simple, simple_witness = False, witness
    return UnimodularityReport(
        minimal=minimal.minimal,
        minimal_witness=minimal.witness,
        primitive=primitive,
        primitive_witness=primitive_witness,
        simple_vertices=simple,
        simple_witness=simple_witness,
        saturated_faces=saturated,
        saturated_witness=saturated_witness,
        covers=covers,
    )


def convexity_class(p: PolyhedralSet) -> ConvexityReport:
    """Rank of the conormal family; k = n - rank counts split line factors."""
    require_normalized(p)
    rank = intlinalg.rational_rank([list(e) for e in p.etas])
    k = p.n - rank
    return ConvexityReport(rank, k, "strongly_convex" if k == 0 else "weakly_convex")


def is_good_cone(p: PolyhedralSet) -> GoodConeResult:
    """Off-apex unimodularity verdict for a cone."""
    require_normalized(p)
    if p.kind != CONE:
        raise NotACone("goodness is defined for cones only")
    report = unimodularity_report(p)
    return GoodConeResult(report.is_unimodular, report)


def split_weakly_convex(p: PolyhedralSet) -> SplittingReport:
    """Split off the line factors of a weakly convex unimodular set.

    Finds an integer change of basis with determinant +-1 carrying the
    lattice spanned by the conormals onto the first n-k coordinates. The
    transformed conormals then have last k coordinates zero and their
    truncations define the projected strongly convex set.

    Raises:
        NotUnimodular: when the conormal span is not saturated in the
            integer lattice, or the projected set fails its checks.
    """
    require_normalized(p)
    rows = [list(e) for e in p.etas]
    factors, _, _ = intlinalg.smith_normal_form(rows)
    rank = len(factors)
    if any(f != 1 for f in factors):
        raise NotUnimodular("conormal span is not saturated in the lattice")
    k = p.n - rank
    _, pivot_cols = intlinalg.hermite_normal_form(rows)
    completion = intlinalg.unimodular_row_completion(rows)
    change = intlinalg.transpose(intlinalg.invert_unimodular(completion))
    new_facets = []
    for f in p.facets:
        transformed = [sum(change[r][c] * f.eta[c] for c in range(p.n))
                       for r in range(p.n)]
        if any(v != 0 for v in transformed[rank:]):
            raise AssertionError("basis change failed to zero the tail coordinates")
        new_facets.append((tuple(transformed[:rank]), f.kappa))
    projected = polyhedral_set(rank, new_facets, kind=p.kind, orientation=UPPER)
    if convexity_class(projected).k != 0:
        raise NotUnimodular("projected set is not strongly convex")
    if not unimodularity_report(projected).is_unimodular:
        raise NotUnimodular("projected set fails the unimodularity checks")
    return SplittingReport(
        k=k,
        coordinate_indices=tuple(c + 1 for c in pivot_cols),
        unimodular_change=tuple(tuple(row) for row in change),
        projected_set=projected,
    )


def homotopy_report(sr: SplittingReport) -> HomotopyReport:
    """Symbolic homotopy summary induced by a splitting.

    The k split line factors contribute a free abelian factor of rank k to
    the fundamental group; everything else is carried by the core manifold
    of the projected strongly convex set.
    """
    if sr.k == 0:
        pi1 = "pi_1(M_core)"
    else:
        pi1 = f"Z^{sr.k} x pi_1(M_core)"
    return HomotopyReport(
        k=sr.k,
        pi0="trivial",
        pi1=pi1,
        pi_higher="pi_m(M_core) for m >= 2",
    )
