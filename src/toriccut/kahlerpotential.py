"""Canonical potentials and Hessian metrics of normalized polyhedral sets:
the field that `potential` and `metric` evaluate.

Everything here is plain Python float64 with the natural logarithm; no
numpy. The pointwise functions work on batches: points come as a sequence
of rows of n floats, and each function returns a list with one value, row
or matrix per point. A batch is evaluated column by column, one pass over
all rows per step, which costs the interpreter far less than a loop over
points: the sums of `floatbase.combinations`, and each entry of G and of
its Cholesky inverse. Every value depends on its own row alone, and every
sum adds its terms in order from 0.0, as `floatbase.dot` does, so a point
gives the same bits alone, as a one-row batch, or among others. The
gradient and the Hessian G are `floatbase`'s, which the Newton solve of
`legendreinverse` shares; neither it nor `cut --ambient` loads this module.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, repeat
from typing import NamedTuple

from . import polylattice
from .errors import NotInterior, NotSPD
from .floatbase import chart_jacobian, combinations, dot, float_facets

INTERIOR_MARGIN = 1e-12


class InteriorPoints(NamedTuple):
    """A batch of points with its strictly interior rows and their slacks.

    slacks[i][k] = kappa_i - <x_k, eta_i> is the slack of input row k at
    facet i, and `inside` marks the strictly interior rows. x, l_values and
    log_values hold those rows only, in input order and by column: x[c][k]
    is coordinate c of the k-th interior row, l_values[i][k] > 0 its slack
    and log_values[i][k] the logarithm; l_infinity[k] is the sum of its
    slacks. The float conormals (one per facet) ride along so downstream
    operations need only the batch.
    """

    x: list[list[float]]
    l_values: list[list[float]]
    log_values: list[list[float]]
    l_infinity: list[float]
    etas: list[list[float]]
    inside: list[bool]
    slacks: list[list[float]]

    def rejection(self, row: int) -> NotInterior:
        """The error of a masked input row: its first NaN slack (`index`
        finds it by identity), else its first smallest one below the margin,
        else its first largest one, as its slacks then sum past the range."""
        slacks = [col[row] for col in self.slacks]
        worst = next(filter(math.isnan, slacks), min(slacks))
        if worst >= INTERIOR_MARGIN:
            return NotInterior(
                f"facet {slacks.index(max(slacks)) + 1} slack overflows")
        return NotInterior(f"facet {slacks.index(worst) + 1} slack "
                           f"{worst:.3e} below margin")

    def require_all(self) -> InteriorPoints:
        """The batch itself, when every input row is interior.

        Raises:
            NotInterior: for the first input row that is not.
        """
        if not all(self.inside):
            raise self.rejection(self.inside.index(False))
        return self


class KahlerPointData(NamedTuple):
    """G and G^-1 at each interior row of `points`, one matrix per row."""

    points: InteriorPoints
    G: list[list[list[float]]]
    G_inv: list[list[list[float]]]


def _row_sums(columns) -> list[float]:
    return combinations(columns, [[1.0] * len(columns)])[0]


def interior_point(p: polylattice.PolyhedralSet, x) -> InteriorPoints:
    """Slacks of a batch of points in R^n, with the strictly interior rows
    selected. A row with a slack below INTERIOR_MARGIN, NaN (a NaN or inf
    coordinate gives NaN slacks) or a total of +inf is masked out, not raised:
    `InteriorPoints.rejection` gives its error and `require_all` raises it.

    Raises:
        ValueError: x is not a sequence of rows of n numbers.
        ScaleLimitExceeded: as `floatbase.float_facets`.
    """
    rows = list(x)
    try:
        if not all(map(p.n.__eq__, map(len, rows))):
            raise TypeError("row length")
        cols = ([list(map(float, col)) for col in zip(*rows)]
                or [[] for _ in range(p.n)])
    except TypeError as exc:
        raise ValueError(f"expected a batch of points in R^{p.n}") from exc
    etas, kappas = float_facets(p)
    slacks = [[kappa - d for d in dots] for kappa, dots in
              zip(kappas, combinations(cols, etas))]
    totals = _row_sums(slacks)
    # a NaN slack makes the total NaN; min skips it unless it comes first
    inside = [v >= INTERIOR_MARGIN and total < math.inf for v, total in
              zip(map(min, *slacks, repeat(math.inf)), totals)]
    l_values = [list(compress(col, inside)) for col in slacks]
    return InteriorPoints(
        x=[list(compress(col, inside)) for col in cols], l_values=l_values,
        log_values=[list(map(math.log, col)) for col in l_values],
        l_infinity=list(compress(totals, inside)), etas=etas, inside=inside,
        slacks=slacks)


def half_entropy(pts: InteriorPoints) -> list[float]:
    """(1/2) sum_i l_i log l_i at each row, the term both potentials share;
    a caller that needs both computes it once and passes it to each."""
    return [0.5 * v for v in _row_sums(
        [list(map(operator.mul, *pair))
         for pair in zip(pts.l_values, pts.log_values)])]


def symplectic_potential(pts: InteriorPoints,
                         entropy: list[float] | None = None) -> list[float]:
    kinetic = _row_sums([[(0.5 * v) * v for v in col] for col in pts.x])
    return [(k + e) - 0.5 * total for k, e, total in
            zip(kinetic, entropy or half_entropy(pts), pts.l_infinity)]


def guillemin_potential(pts: InteriorPoints,
                        entropy: list[float] | None = None) -> list[float]:
    return [e - 0.5 * total for e, total in
            zip(entropy or half_entropy(pts), pts.l_infinity)]


def _column_dot(us, vs):
    """sum_k us[k] vs[k] row by row, in order from 0.0 as `dot` sums."""
    acc = repeat(0.0)
    for u, v in zip(us, vs):
        acc = [a + x * y for a, x, y in zip(acc, u, v)]
    return acc


def _symmetric_rows(g) -> list[list[list[float]]]:
    """The matrix 0.5 (g + g^T) of each row, from entries kept by column."""
    n = len(g)
    flat = [[0.5 * (u + v) for u, v in zip(*pair)]
            for row, col in zip(g, zip(*g)) for pair in zip(row, col)]
    return [[list(row[a:a + n]) for a in range(0, n * n, n)]
            for row in zip(*flat)]


def hessian_metric(pts: InteriorPoints) -> list[list[list[float]]]:
    """G = I + (1/2) sum_j eta_j eta_j^T / l_j at each row: `chart_jacobian`
    in the chart of x, symmetrized against rounding."""
    eye = polylattice.identity_matrix(len(pts.x))
    g = chart_jacobian(pts.etas, pts.l_values, eye, pts.etas, [1.0] * len(eye))
    return _symmetric_rows(g)


def hessian_metric_inverse(g) -> list[list[list[float]]]:
    """Inverse of each matrix of a stack (one n x n matrix per row): from
    its Cholesky factor L, each column of L^-T L^-1 by forward then back
    substitution, entry by entry over the stack; symmetrized against
    rounding.

    Raises:
        NotSPD: names the first pivot not positive of the first such matrix.
    """
    g = [[list(col) for col in zip(*rows)] for rows in zip(*g)]  # g[a][b][k]
    n = len(g)
    low, pivots = [[None] * n for _ in range(n)], []
    for j in range(n):
        for i in range(j, n):
            s = [v - d for v, d in
                 zip(g[i][j], _column_dot(low[i][:j], low[j][:j]))]
            if i > j:
                low[i][j] = list(map(operator.truediv, s, low[j][j]))
            else:  # NaN from a pivot that is not positive on
                pivots.append(s)
                low[j][j] = [math.sqrt(v) if v > 0.0 else math.nan for v in s]
    for row in zip(*pivots):  # each matrix, at its first failing pivot
        for j, s in enumerate(row):
            if not s > 0.0:
                raise NotSPD(f"matrix has no Cholesky factorization: "
                             f"pivot {j + 1} is {s!r}")
    inv = []  # by columns
    for c in range(n):
        z = [[0.0] * len(pivots[0])] * n
        for i in range(c, n):  # L z = e_c
            e = float(i == c)
            z[i] = [(e - d) / v for d, v in
                    zip(_column_dot(low[i][c:i], z[c:i]), low[i][i])]
        for i in reversed(range(n)):  # L^T w = z, in place
            z[i] = [(w - d) / v for w, d, v in zip(z[i], _column_dot(
                [low[k][i] for k in range(i + 1, n)], z[i + 1:]), low[i][i])]
        inv.append(z)
    return _symmetric_rows(inv)


def one_cut_inverse(eta, l: float) -> list[list[float]]:
    """Closed-form inverse metric for a single facet at slack l.

    Sherman-Morrison applied to I + eta eta^T / (2 l) gives
    I - eta eta^T / (2 l + |eta|^2).
    """
    ev = [float(v) for v in eta]
    if not any(ev):
        raise ValueError("conormal must be nonzero")
    if l <= 0:
        raise ValueError("slack must be positive")
    denominator = 2.0 * l + dot(ev, ev)
    return [[float(a == b) - (va * vb) / denominator
             for b, vb in enumerate(ev)] for a, va in enumerate(ev)]


def point_data(p: polylattice.PolyhedralSet, x) -> KahlerPointData:
    """G and G^-1 at each interior row of a batch (`interior_point`)."""
    pts = interior_point(p, x)
    g = hessian_metric(pts)
    return KahlerPointData(pts, g, hessian_metric_inverse(g))
