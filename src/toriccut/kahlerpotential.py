"""Canonical potentials, Hessian metrics, and the moment-coordinate
Legendre transform for normalized polyhedral sets.

Everything here is plain Python float64 with the natural logarithm; no
numpy. The pointwise functions work on batches: points come as a sequence
of rows of n floats, and each function returns a list with one value, row
or matrix per point. A batch is evaluated column by column, one pass over
all rows per step (`_combinations`), which costs the interpreter far less
than a loop over points. Every value depends on its own row alone, and
every sum adds its terms in order from 0.0, as `_dot` does, so a point
gives the same bits alone, as a one-row batch, or among others.
`invert_legendre` solves for one target at a time and evaluates its
gradient with the same formula (`_gradient`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress, repeat
from typing import NamedTuple

from . import polylattice
from .errors import NoConvergence, NotInterior, NotSPD, ScaleLimitExceeded

INTERIOR_MARGIN = 1e-12
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200
BOUNDARY_FRACTION = 0.95
CHART_SLACK = 1e-3


class InteriorPoints(NamedTuple):
    """A batch of points with its strictly interior rows and their slacks.

    x, l_values and log_values hold the interior rows only, in input order
    and by column: x[c][k] is coordinate c of the k-th interior row,
    l_values[i][k] = kappa_i - <x_k, eta_i> > 0 and log_values[i][k] its
    logarithm; l_infinity[k] is the sum of the slacks of that row. `inside`
    marks which input rows they are. For every input row, worst_facet
    (0-based) and worst_slack name its smallest slack, the first facet
    among equal ones, a NaN slack first of all; a masked row reports them.
    The float conormals (one row per facet) ride along so downstream
    operations need only the batch.
    """

    x: list[list[float]]
    l_values: list[list[float]]
    log_values: list[list[float]]
    l_infinity: list[float]
    etas: list[list[float]]
    inside: list[bool]
    worst_facet: list[int]
    worst_slack: list[float]

    def rejection(self, row: int) -> NotInterior:
        """The error of an input row that is not interior."""
        return NotInterior(f"facet {self.worst_facet[row] + 1} slack "
                           f"{self.worst_slack[row]:.3e} below margin")

    def require_all(self) -> InteriorPoints:
        """The batch itself, when every input row is interior.

        Raises:
            NotInterior: for the first input row that is not.
        """
        if not all(self.inside):
            raise self.rejection(self.inside.index(False))
        return self


class KahlerPointData(NamedTuple):
    """The tensors that `metric` writes, of the interior rows of a batch,
    one entry per row (CLI payload shape); `points` tells which input rows
    they belong to."""

    points: InteriorPoints
    G: list[list[list[float]]]
    G_inv: list[list[list[float]]]
    J: list[list[list[float]]]
    g: list[list[list[float]]]


class NewtonResult(NamedTuple):
    """The solution x of an inversion. When the solve ended in a chart
    (see `_Chart`), chart_facets (0-based) names its facets and
    log_slacks their slacks' logarithms, which x rounded to floats may not
    resolve; both are empty when it ended in x itself."""

    x: tuple[float, ...]
    iterations: int
    residual: float
    chart_facets: tuple[int, ...] = ()
    log_slacks: tuple[float, ...] = ()


def _dot(u, v) -> float:
    """Sum of the products, taken in order (`sum` of floats rounds
    differently across Python versions)."""
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def _combinations(columns, coefficient_rows) -> list[list[float]]:
    """For each coefficient vector c, sum_k c[k] columns[k] over the rows,
    with the bits of `_dot(c, row)`. Such a sum starts at 0.0 and so is
    never -0.0: a term 0.0 * v changes it only when v is not finite, and is
    skipped when its whole column is finite."""
    finite = {}
    out = []
    for coefficients in coefficient_rows:
        acc = None
        for k, (c, col) in enumerate(zip(coefficients, columns)):
            if not c:
                if k not in finite:
                    finite[k] = all(map(math.isfinite, col))
                if finite[k]:
                    continue
            start = repeat(0.0) if acc is None else acc
            if c in (1.0, -1.0):  # the product is v or -v exactly
                acc = list(map(operator.add if c > 0 else operator.sub,
                               start, col))
            else:
                acc = [a + c * v for a, v in zip(start, col)]
        out.append([0.0] * len(columns[0]) if acc is None else acc)
    return out


def _row_sums(columns) -> list[float]:
    return _combinations(columns, [[1.0] * len(columns)])[0]


def _floats(values, where: str) -> list[float]:
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise ScaleLimitExceeded(f"{where} exceeds the float range") from exc


def float_facets(p: polylattice.PolyhedralSet):
    """(etas, kappas): the conormals and offsets of p as floats."""
    rows = [_floats((*f.eta, f.kappa), f"facet {i}")
            for i, f in enumerate(p.facets, start=1)]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def interior_point(p: polylattice.PolyhedralSet, x) -> InteriorPoints:
    """Slacks of a batch of points in R^n, with the strictly interior rows
    selected. A row whose smallest slack is below INTERIOR_MARGIN or NaN (a
    NaN or inf coordinate gives NaN slacks) is masked out, not raised:
    `InteriorPoints.rejection` gives its error and `require_all` raises it.

    Raises:
        ValueError: x is not a sequence of rows of n numbers.
        ScaleLimitExceeded: as `float_facets`.
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
              zip(kappas, _combinations(cols, etas))]
    totals = _row_sums(slacks)
    worst_slack = list(map(min, *slacks, repeat(math.inf)))
    worst = [0] * len(totals)
    for i in reversed(range(len(slacks))):
        worst = [i if v == low else j
                 for v, low, j in zip(slacks[i], worst_slack, worst)]
    for k in compress(range(len(totals)), map(math.isnan, totals)):
        # a NaN slack counts as the smallest, but min skips one not first
        nans = [i for i, col in enumerate(slacks) if math.isnan(col[k])]
        if nans:
            worst[k], worst_slack[k] = nans[0], math.nan
    inside = [v >= INTERIOR_MARGIN for v in worst_slack]
    l_values = [list(compress(col, inside)) for col in slacks]
    return InteriorPoints(
        x=[list(compress(col, inside)) for col in cols], l_values=l_values,
        log_values=[list(map(math.log, col)) for col in l_values],
        l_infinity=list(compress(totals, inside)), etas=etas, inside=inside,
        worst_facet=worst, worst_slack=worst_slack)


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


def _gradient(x, logs, etas) -> list[list[float]]:
    """legendre_map by columns: for each coordinate c, the list over the
    rows of x_c - (1/2) sum_i log(l_i) eta_i[c], from the columns of x and
    of the log slacks."""
    return [[v - 0.5 * s for v, s in zip(col, sums)] for col, sums in
            zip(x, _combinations(logs, list(zip(*etas))))]


def legendre_map(pts: InteriorPoints) -> list[list[float]]:
    """Gradient of the symplectic potential at each row:
    x - (1/2) sum log(l_i) eta_i."""
    return list(map(list, zip(*_gradient(pts.x, pts.log_values, pts.etas))))


def _hessian(columns, l) -> list[list[float]]:
    """I + (1/2) sum_j eta_j eta_j^T / l_j at one point, not symmetrized,
    from the conormals by column (columns[a][j] = eta_j[a]) and the slacks
    l_j."""
    weighted = [[e / s for e, s in zip(col, l)] for col in columns]
    return [[float(a == b) + 0.5 * _dot(w, col)
             for b, col in enumerate(columns)] for a, w in enumerate(weighted)]


def hessian_metric(pts: InteriorPoints) -> list[list[list[float]]]:
    """Hessian of the symplectic potential at each row, an n x n matrix:
    identity plus half the sum of rank-one conormal terms weighted by
    inverse slacks; symmetrized against rounding."""
    columns = list(zip(*pts.etas))
    n = len(columns)
    out = []
    for l in zip(*pts.l_values):
        g = _hessian(columns, l)
        out.append([[0.5 * (g[a][b] + g[b][a]) for b in range(n)]
                    for a in range(n)])
    return out


def hessian_metric_inverse(g) -> list[list[list[float]]]:
    """Inverse of each matrix of a stack (one n x n matrix per row): from
    its Cholesky factor L, each column of L^-T L^-1 by forward then back
    substitution; symmetrized against rounding.

    Raises:
        NotSPD: a pivot of some factorization is not positive.
    """
    out = []
    for matrix in g:
        n = len(matrix)
        low = [[0.0] * n for _ in range(n)]
        for j in range(n):
            for i in range(j, n):
                s = matrix[i][j] - _dot(low[i][:j], low[j][:j])
                if i > j:
                    low[i][j] = s / low[j][j]
                elif s > 0.0:
                    low[j][j] = math.sqrt(s)
                else:  # NaN too
                    raise NotSPD(f"matrix has no Cholesky factorization: "
                                 f"pivot {j + 1} is {s!r}")
        inv = []  # by columns
        for c in range(n):
            z = [0.0] * n
            for i in range(c, n):  # L z = e_c
                z[i] = (float(i == c) - _dot(low[i][c:i], z[c:i])) / low[i][i]
            for i in reversed(range(n)):  # L^T w = z, in place
                z[i] = (z[i] - _dot([low[k][i] for k in range(i + 1, n)],
                                    z[i + 1:])) / low[i][i]
            inv.append(z)
        out.append([[0.5 * (inv[a][b] + inv[b][a]) for b in range(n)]
                    for a in range(n)])
    return out


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
    denominator = 2.0 * l + _dot(ev, ev)
    return [[float(a == b) - (va * vb) / denominator
             for b, vb in enumerate(ev)] for a, va in enumerate(ev)]


def point_data(p: polylattice.PolyhedralSet, x) -> KahlerPointData:
    """G, G^-1, the complex structure J = [[0, -G^-1], [G, 0]] and the
    metric g = [[G, 0], [0, G^-1]] in the (x, theta) frame, one of each per
    interior row of a batch; the other rows are masked as in
    `interior_point`."""
    pts = interior_point(p, x)
    g_small = hessian_metric(pts)
    g_inv = hessian_metric_inverse(g_small)
    zero = [0.0] * p.n
    jmat = [[zero + [-v for v in row] for row in inv]
            + [row + zero for row in small]
            for small, inv in zip(g_small, g_inv)]
    metric = [[row + zero for row in small] + [zero + row for row in inv]
              for small, inv in zip(g_small, g_inv)]
    return KahlerPointData(pts, g_small, g_inv, jmat, metric)


class _Chart(NamedTuple):
    """Newton coordinates z = (u, w) on the interior.

    u_i = log l_i for the facets B (0-based, ascending) and w = x_c for the
    coordinate columns c that complete eta_B to an invertible matrix A.
    With M = A^-1, v = M (kappa_B, 0) and q = (-e^u, w), the point is
    x = v + M q, and every slack is an exact offset less a float
    correction: l_j = (kappa_j - <eta_j, v>) - <eta_j M, q>. A slack of B
    is e^u and never loses digits to cancellation, however small it is.
    With B empty, z is x itself.
    """

    facets: tuple[int, ...]
    columns: tuple[int, ...]
    inverse: list[list[Fraction]]  # M
    base: list[Fraction]  # v
    offsets: list[float]  # kappa_j - <eta_j, v>
    rows: list[list[float]]  # eta_j M
    float_inverse: list[list[float]]
    float_base: list[float]


def _chart(p: polylattice.PolyhedralSet, facets) -> _Chart:
    n = p.n
    if not facets:  # x itself: no exact arithmetic needed
        identity = polylattice.identity_matrix(n)
        etas, kappas = float_facets(p)
        return _Chart((), tuple(range(n)), identity, [0] * n, kappas, etas,
                      [list(map(float, row)) for row in identity], [0.0] * n)
    a = [list(p.facets[i].eta) for i in facets]
    columns = []
    for c in range(n):
        unit = [int(j == c) for j in range(n)]
        if len(a) < n and polylattice.rational_rank(a + [unit]) > len(a):
            a.append(unit)
            columns.append(c)
    inverse = polylattice.rational_inverse(a)
    rhs = [p.facets[i].kappa for i in facets] + [0] * len(columns)
    base = [sum(m * r for m, r in zip(row, rhs)) for row in inverse]
    rows = [[sum(e * m for e, m in zip(f.eta, col)) for col in zip(*inverse)]
            for f in p.facets]
    offsets = [f.kappa - sum(e * v for e, v in zip(f.eta, base))
               for f in p.facets]
    return _Chart(tuple(facets), tuple(columns), inverse, base,
                  [float(v) for v in offsets],
                  [[float(v) for v in row] for row in rows],
                  [[float(v) for v in row] for row in inverse],
                  [float(v) for v in base])


def _chart_facets(p: polylattice.PolyhedralSet, l) -> tuple[int, ...]:
    """The facets of slack below CHART_SLACK, taken from the smallest slack
    up while their conormals stay linearly independent; ascending."""
    chosen = []
    for j in sorted(range(len(l)), key=l.__getitem__):
        if l[j] >= CHART_SLACK or len(chosen) == p.n:
            break
        rows = [p.facets[i].eta for i in (*chosen, j)]
        if polylattice.rational_rank(rows) == len(rows):
            chosen.append(j)
    return tuple(sorted(chosen))


def _state(chart: _Chart, etas, z, y):
    """(slacks, log slacks, x, legendre_map(x) - y, its largest entry in
    absolute value) at chart coordinates z, or None when a slack is not
    finite and positive."""
    k = len(chart.facets)
    try:
        q = [-math.exp(u) for u in z[:k]] + z[k:]
    except OverflowError:
        return None
    # a facet i of B has offset 0 and row e_i, so its slack is e^u exactly
    l = [o - _dot(row, q) for o, row in zip(chart.offsets, chart.rows)]
    if not all(0.0 < v < math.inf for v in l):
        return None
    logs = [math.log(v) for v in l]
    for i, u in zip(chart.facets, z):
        logs[i] = u
    x = [b + _dot(row, q) for b, row in
         zip(chart.float_base, chart.float_inverse)] if k else q
    # the formula of legendre_map, on a batch of one row
    grad = [col[0] - yj for col, yj in
            zip(_gradient([[v] for v in x], [[v] for v in logs], etas), y)]
    return l, logs, x, grad, max(map(abs, grad))


def _jacobian(chart: _Chart, etas, l, scale):
    """d(legendre_map(x) - y)/dz entry by entry (not symmetrized), with
    scale = dq/dz. Entry (a, b) is M[a][b] scale[b], plus
    eta_j[a] (eta_j M)[b] scale[b] / (2 l_j) for each facet j outside B,
    less eta_i[a] / 2 when b is the column of u_i. In the chart of x this
    is the Hessian I + (1/2) sum_j eta_j eta_j^T / l_j (`_hessian`).
    """
    if not chart.facets:
        return _hessian(list(zip(*etas)), l)
    n = len(scale)
    outside = [j for j in range(len(l)) if j not in chart.facets]
    weighted = [[etas[j][a] / l[j] for j in outside] for a in range(n)]
    moved = [[chart.rows[j][b] * scale[b] for j in outside] for b in range(n)]
    jac = [[chart.float_inverse[a][b] * scale[b]
            + 0.5 * _dot(weighted[a], moved[b]) for b in range(n)]
           for a in range(n)]
    for b, i in enumerate(chart.facets):
        for a in range(n):
            jac[a][b] -= 0.5 * etas[i][a]
    return jac


def _solve(a, b):
    """The solution z of a z = b, by Gaussian elimination with partial
    pivoting, or None at a zero pivot; a and b are overwritten."""
    n = len(b)
    for k in range(n):
        pivot = max(range(k, n), key=lambda r: abs(a[r][k]))
        a[k], a[pivot] = a[pivot], a[k]
        b[k], b[pivot] = b[pivot], b[k]
        row_k = a[k]
        if row_k[k] == 0.0:
            return None
        for r in range(k + 1, n):
            factor = a[r][k] / row_k[k]
            if factor:
                row = a[r]
                for c in range(k + 1, n):
                    row[c] -= factor * row_k[c]
                b[r] -= factor * b[k]
    for k in reversed(range(n)):  # column-oriented back substitution
        b[k] /= a[k][k]
        for r in range(k):
            b[r] -= b[k] * a[r][k]
    return b


def _solution(p: polylattice.PolyhedralSet, chart: _Chart, z, x, iterations,
              residual) -> NewtonResult:
    """The result at chart coordinates z: x itself in the chart of x, else
    the exact point v + M q that the float coordinates z name.

    Raises:
        NotInterior: an exact slack of that point is not positive; names
            the first facet of smallest slack.
    """
    k = len(chart.facets)
    q = [-Fraction(math.exp(u)) for u in z[:k]] + [Fraction(w) for w in z[k:]]
    point = [b + sum(m * v for m, v in zip(row, q))
             for b, row in zip(chart.base, chart.inverse)] if k else q
    slacks = [f.kappa - sum(e * v for e, v in zip(f.eta, point))
              for f in p.facets]
    worst = min(range(len(slacks)), key=slacks.__getitem__)
    if slacks[worst] <= 0:
        raise NotInterior(f"facet {worst + 1} slack "
                          f"{float(slacks[worst]):.3e} below margin")
    return NewtonResult(tuple(map(float, point)) if k else tuple(x),
                        iterations, residual, chart.facets, tuple(z[:k]))


def invert_legendre(p: polylattice.PolyhedralSet, y,
                    tol: float = NEWTON_TOL,
                    max_iter: int = NEWTON_MAX_ITER) -> NewtonResult:
    """Newton solve of legendre_map(x) = y over the strict interior, for
    one target y in R^n, in plain Python floats.

    The start point maximizes the smallest slack (computed exactly, then
    rounded to float). Each step solves the Jacobian system in the current
    chart and is damped two ways: a fraction-to-boundary rule keeps every
    slack outside the chart's facets at >= 5% of its current value, and
    the step is halved while the residual norm (the merit function) fails
    to decrease. The solve starts in the chart of x. When the halving runs
    out, or a pivot of the Newton system is zero, the float point no
    longer resolves its small slacks, and the solve moves, at the same
    point, to the chart of the facets whose slacks are below CHART_SLACK
    (once per new set of facets; an iteration). The solution is returned
    only when its exact slacks are positive (see `_solution`).

    Raises:
        ValueError: y does not have n coordinates.
        NotInterior: the set is empty or has no strict interior, or an
            exact slack of the solution is not positive.
        NoConvergence: after max_iter iterations above tolerance, when
            rounding has put an iterate outside the interior, or at a
            singular Newton system in an unchanged chart.
    """
    yv = [float(v) for v in y]
    if len(yv) != p.n:
        raise ValueError(f"expected a target in R^{p.n}")
    try:
        start, margin = polylattice.max_margin_point(p)
    except ValueError as exc:
        raise NotInterior("set is empty") from exc
    if margin <= 0:
        raise NotInterior("set has no strict interior")
    etas = float_facets(p)[0]
    chart = _chart(p, ())
    z = _floats(start, "the max-margin start point")
    iteration = 0
    while True:
        state = _state(chart, etas, z, yv)
        if state is None:
            raise NoConvergence(f"iterate {iteration} left the interior")
        l, logs, x, grad, residual = state
        if residual < tol:
            return _solution(p, chart, z, x, iteration, residual)
        if iteration >= max_iter:
            raise NoConvergence(
                f"residual {residual:.3e} after {max_iter} iterations")
        scale = [-l[i] for i in chart.facets] + [1.0] * len(chart.columns)
        step = _solve(_jacobian(chart, etas, l, scale), [-g for g in grad])
        if step is not None:  # else the system is singular: no search
            dq = [s * d for s, d in zip(scale, step)]
            ratios = [l[j] / d for j, d in
                      enumerate(_dot(row, dq) for row in chart.rows)
                      if d > 0 and j not in chart.facets]  # slack loss rate
            t = min(1.0, BOUNDARY_FRACTION * min(ratios)) if ratios else 1.0
        for _ in range(40 if step is not None else 0):
            trial = _state(chart, etas,
                           [zj + t * sj for zj, sj in zip(z, step)], yv)
            if trial is not None and trial[-1] < residual:
                break
            t *= 0.5
        else:  # the search ran out, or there was none
            facets = _chart_facets(p, l)
            if facets != chart.facets:
                chart = _chart(p, facets)
                z = [logs[i] for i in facets] + [x[c] for c in chart.columns]
                iteration += 1
                continue
            if step is None:
                raise NoConvergence(
                    f"iteration {iteration}: singular Newton system")
        # an exhausted search in an unchanged chart keeps the tiny step;
        # the iteration cap above is the arbiter of non-convergence
        z = [zj + t * sj for zj, sj in zip(z, step)]
        iteration += 1
