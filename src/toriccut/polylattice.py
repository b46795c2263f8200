"""Polyhedral sets given by half-space data, and the exact kernel that
settles their linear questions.

A set is described by ordered facets (eta, kappa), each encoding the
constraint <x, eta> <= kappa: `polyhedral_set` builds every set in this
upper convention.
Coordinates are Fractions. One fraction-free tableau with one
integer-preserving pivot is the only exact elimination: the simplex routine
on it decides feasibility and finds the max-margin point, and its
Gauss-Jordan step on the free variables gives ranks, the solutions of
equations and inverses. The face lattice built on this kernel is in
`facelattice`, the integer normal forms in `intlinalg`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import (ConeWithNonzeroOffset, ConfigError, ScaleLimitExceeded,
                     ZeroConormal)

UPPER = "upper"
LOWER = "lower"
GENERAL = "general"
CONE = "cone"

DEFAULT_MAX_DIM = 8
DEFAULT_MAX_CONSTRAINTS = 64

LE = "<="
EQ = "=="
LT = "<"


def max_dim_limit() -> int:
    """Supported ambient dimension; raised via the TORIC_MAX_DIM env var.

    Raises:
        ConfigError: when TORIC_MAX_DIM is set but is not a positive integer.
    """
    raw = os.environ.get("TORIC_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        if (value := int(raw)) >= 1:
            return value
    except ValueError:
        pass
    raise ConfigError(f"TORIC_MAX_DIM must be a positive integer, got {raw!r}")


class Facet(NamedTuple):
    eta: tuple[int, ...]
    kappa: Fraction


class PolyhedralSet(NamedTuple):
    n: int
    facets: tuple[Facet, ...]
    kind: str = GENERAL

    @property
    def etas(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f.eta for f in self.facets)


def check_scale(p: PolyhedralSet) -> None:
    """Raise ScaleLimitExceeded, naming the bound, past the supported
    dimension or facet count."""
    limit = max_dim_limit()
    if p.n > limit:
        raise ScaleLimitExceeded(f"dimension {p.n} exceeds supported bound {limit}")
    if len(p.facets) > DEFAULT_MAX_CONSTRAINTS:
        raise ScaleLimitExceeded(f"{len(p.facets)} constraints exceed "
                                 f"supported bound {DEFAULT_MAX_CONSTRAINTS}")


class FeasibilityResult(NamedTuple):
    feasible: bool
    witness: tuple[Fraction, ...] | None
    certificate: tuple[int, ...] | None = None


def polyhedral_set(n, facets, kind=GENERAL, orientation=UPPER,
                   auto_primitivize=False) -> PolyhedralSet:
    """Build a PolyhedralSet in the upper convention <x, eta> <= kappa
    from raw (eta, kappa) pairs.

    eta entries must be integers; kappa may be anything Fraction accepts.
    Lower-orientation pairs are negated. With auto_primitivize each
    conormal is divided by its gcd (the offset by the same factor), which
    leaves the half-space unchanged.

    Raises:
        ZeroConormal: a conormal is zero.
        ConeWithNonzeroOffset: a facet of a cone has a nonzero offset.
    """
    if kind not in (GENERAL, CONE):
        raise ValueError(f"unknown kind {kind!r}")
    if orientation not in (UPPER, LOWER):
        raise ValueError(f"unknown orientation {orientation!r}")
    sign = -1 if orientation == LOWER else 1
    built = []
    for pos, (eta, kappa) in enumerate(facets, start=1):
        eta = tuple(sign * int(v) for v in eta)
        kappa = sign * Fraction(kappa)
        if len(eta) != n:
            raise ValueError("conormal length does not match dimension")
        if not any(eta):
            raise ZeroConormal(f"facet {pos} has a zero conormal")
        g = gcd(*eta) if auto_primitivize else 1
        if g > 1:
            eta = tuple(v // g for v in eta)
            kappa = kappa / g
        if kind == CONE and kappa != 0:
            raise ConeWithNonzeroOffset(f"facet {pos} has offset {kappa}")
        built.append(Facet(eta, kappa))
    return PolyhedralSet(int(n), tuple(built), kind)


# ---------------------------------------------------------------------------
# exact rational linear algebra
# ---------------------------------------------------------------------------


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def integer_row(values):
    """Scale a rational row to integers by the lcm of its denominators.

    Returns (ints, scale) with ints[k] == scale * values[k].
    """
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in vals))
    return [v.numerator * (scale // v.denominator) for v in vals], scale


# ---------------------------------------------------------------------------
# exact kernel: one fraction-free tableau
# ---------------------------------------------------------------------------
#
# One fraction-free tableau (Edmonds 1967) settles every exact linear
# question: every entry is an integer over one common denominator d, and each
# pivot divides exactly by the previous d. Row i reads
# d*basic_i + sum_k tab[i][k] * nonbasic_k = tab[i][0]. Variables are
# numbered x_1..x_n (free), the margin t, the row slacks in row order, then
# the Phase-I artificial; Bland's rule breaks every tie by that number.


class _Tableau:
    """Integer dictionary over the rows [b, *a] (with a margin column,
    [b, *a, c]) of a.x + c*t <= b, each slack basic; `width` nonbasic
    variables."""

    def __init__(self, tab, n, width):
        self.n = n
        self.d = 1
        self.tab = tab
        self.nonbasic = [None, *range(width)]
        self.basic = [n + 1 + i for i in range(len(tab))]

    def eliminate(self):
        """Gauss-Jordan: pivot each free variable in on the first row whose
        slack is basic and whose entry is nonzero; returns the rank, the
        count pivoted in. A row whose slack stays basic then has zeros in
        the columns of the free variables left out."""
        tab, basic, n, rank = self.tab, self.basic, self.n, 0
        for col in range(1, n + 1):
            for i, row in enumerate(tab):
                if basic[i] >= n and row[col]:
                    self.pivot(i, col)
                    rank += 1
                    break
        return rank

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
    tb = _Tableau([[b, *a, c] if margin else [b, *a] for a, c, b in rows],
                  n, n + 1 if margin else n)
    tab, basic, nonbasic = tb.tab, tb.basic, tb.nonbasic
    tb.eliminate()
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
            if art in basic:  # its row is nonzero on a nonbasic slack
                r = basic.index(art)
                tb.pivot(r, next(k for k in range(1, len(nonbasic))
                                 if nonbasic[k] >= n and tab[r][k]))
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


def _eliminate(rows, n):
    """`_Tableau.eliminate` on the rational rows (b, *a) in n variables,
    each scaled to integers; returns (tableau, rank, scales)."""
    scaled = [integer_row(row) for row in rows]
    tb = _Tableau([ints for ints, _ in scaled], n, n)
    return tb, tb.eliminate(), [scale for _, scale in scaled]


def rational_rank(mat) -> int:
    return _eliminate([(0, *row) for row in mat], len(mat[0]) if mat else 0)[1]


def rational_solve(rows, n):
    """Solve the rational equations <a, x> = b, one row (*a, b) each, in n
    unknowns: (solvable, x), with x the solution as Fractions when it is
    unique (rank n) and None otherwise. A row whose slack stays basic reads
    d * slack = tab[i][0], which must be 0."""
    tb, rank, _ = _eliminate([(row[-1], *row[:-1]) for row in rows], n)
    if any(row[0] for row, var in zip(tb.tab, tb.basic) if var >= n):
        return False, None
    return True, tuple(tb.value(j) for j in range(n)) if rank == n else None


def rational_inverse(mat):
    """Inverse of a nonsingular square rational matrix, as Fractions: with
    b = 0 the slack of row k is s_k = -scale_k * (mat x)_k, so (mat^-1)_jk
    is the entry of the row of x_j in the column of s_k, times scale_k / d.

    Raises:
        ValueError: the matrix is singular.
    """
    n = len(mat)
    tb, rank, scales = _eliminate([(0, *row) for row in mat], n)
    if rank < n:
        raise ValueError("matrix is singular")
    columns = [tb.nonbasic.index(n + 1 + k) for k in range(n)]
    return [[Fraction(row[c] * scale, tb.d) for c, scale in zip(columns, scales)]
            for row in (tb.tab[tb.basic.index(j)] for j in range(n))]


def feasible(constraints, n: int | None = None) -> FeasibilityResult:
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
    """
    cons = list(constraints)
    if n is None:
        if not cons:
            raise ValueError("cannot infer dimension from an empty system")
        n = len(cons[0][0])
    # equalities become two opposite rows, placed first so that the free
    # variables pivot in on them; origin records (constraint, sign * scale)
    eq_rows, eq_origin, rows, origin = [], [], [], []
    for k, (coeffs, rel, rhs) in enumerate(cons):
        if rel not in (LE, LT, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        ints, scale = integer_row([*coeffs, rhs])
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
    g = gcd(*cert)
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
    rows = [(tuple(ints[:-1]), scale, ints[-1]) for ints, scale in
            (integer_row([*f.eta, f.kappa]) for f in p.facets)]
    status, x, t, _ = _simplex(rows, p.n, margin=True)
    if status == "infeasible":
        raise ValueError("set is empty")
    if status == "unbounded":
        status, x, t, _ = _simplex(rows, p.n, margin=True, cap=True)
    return x, t

