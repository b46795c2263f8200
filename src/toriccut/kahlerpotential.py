"""Canonical potentials, Hessian metrics, and the moment-coordinate
Legendre transform for normalized polyhedral sets.

Everything here is float64 and the natural logarithm is used throughout.
The pointwise functions work on batches: points come as an (N, n) numpy
array and each function returns one value, row or matrix per point. The
exact facet data is converted to floats once per batch, when the slacks
are computed.

Products are taken row by row (stacked matrix-vector products), never as
one matrix-matrix product over the whole batch: BLAS may sum a gemm in
another order than a gemv, and a point must give the same bits whether it
is evaluated alone, as a one-row batch, or among others.

`invert_legendre` solves for one target at a time in plain Python floats,
so that `toric invert` never loads numpy; the batch functions import numpy
where they run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import intlinalg, polylattice
from .errors import NoConvergence, NotInterior, NotSPD

INTERIOR_MARGIN = 1e-12
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200
BOUNDARY_FRACTION = 0.95
CHART_SLACK = 1e-3


class InteriorPoints(NamedTuple):
    """A batch of points with its strictly interior rows and their slacks.

    x, l_values and l_infinity hold the interior rows only, in input
    order: l_values[k, i] = kappa_i - <x[k], eta_i> > 0 and l_infinity[k]
    is the row sum. `inside` marks which input rows they are. For every
    input row, worst_facet (0-based) and worst_slack name its smallest
    slack, the first facet among equal ones; a masked row reports them.
    The float conormal matrix rides along so downstream operations need
    only the batch.
    """

    x: np.ndarray
    l_values: np.ndarray
    l_infinity: np.ndarray
    etas: np.ndarray
    inside: np.ndarray
    worst_facet: np.ndarray
    worst_slack: np.ndarray

    def rejection(self, row: int) -> NotInterior:
        """The error of an input row that is not interior."""
        return NotInterior(f"facet {int(self.worst_facet[row]) + 1} slack "
                           f"{self.worst_slack[row]:.3e} below margin")

    def require_all(self) -> InteriorPoints:
        """The batch itself, when every input row is interior.

        Raises:
            NotInterior: for the first input row that is not.
        """
        import numpy as np
        masked = np.flatnonzero(~self.inside)
        if masked.size:
            raise self.rejection(int(masked[0]))
        return self


class KahlerPointData(NamedTuple):
    """All pointwise tensors of the interior rows of a batch, stacked
    (CLI payload shape); `points` tells which input rows they belong to."""

    points: InteriorPoints
    sp: np.ndarray
    guillemin: np.ndarray
    G: np.ndarray
    G_inv: np.ndarray
    gtilde: np.ndarray
    omega: np.ndarray
    J: np.ndarray
    g: np.ndarray


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


def interior_point(p: polylattice.PolyhedralSet, x,
                   margin: float = INTERIOR_MARGIN) -> InteriorPoints:
    """Slacks of an (N, n) batch, with the strictly interior rows selected.

    A row whose smallest slack is below `margin` (or NaN) is masked out,
    not raised: `InteriorPoints.rejection` gives its error and
    `require_all` raises it.

    Raises:
        ValueError: x is not an (N, n) array.
    """
    import numpy as np
    polylattice.require_normalized(p)
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != p.n:
        raise ValueError(f"expected an (N, {p.n}) batch of points")
    etas = np.array([[float(v) for v in f.eta] for f in p.facets])
    kappas = np.array([float(f.kappa) for f in p.facets])
    # <x[k], eta_i>, one matrix-vector product per row; a NaN or inf row
    # gives NaN slacks (inf * 0, inf - inf) and is masked below
    with np.errstate(invalid="ignore"):
        l = kappas - (etas @ xs[:, :, None])[:, :, 0]
    worst = np.argmin(l, axis=1)  # argmin picks a NaN slack, which fails too
    worst_slack = np.take_along_axis(l, worst[:, None], axis=1)[:, 0]
    inside = worst_slack >= margin
    l = l[inside]
    return InteriorPoints(x=xs[inside], l_values=l, l_infinity=l.sum(axis=1),
                          etas=etas, inside=inside, worst_facet=worst,
                          worst_slack=worst_slack)


def symplectic_potential(pts: InteriorPoints) -> np.ndarray:
    import numpy as np
    x, l = pts.x, pts.l_values
    kinetic = ((0.5 * x)[:, None, :] @ x[:, :, None])[:, 0, 0]
    return (kinetic + 0.5 * np.sum(l * np.log(l), axis=1)
            - 0.5 * pts.l_infinity)


def guillemin_potential(pts: InteriorPoints) -> np.ndarray:
    import numpy as np
    l = pts.l_values
    return 0.5 * np.sum(l * np.log(l), axis=1) - 0.5 * pts.l_infinity


def hessian_metric(pts: InteriorPoints) -> np.ndarray:
    """Hessian of the symplectic potential at each row, as (N, n, n):
    identity plus half the sum of rank-one conormal terms weighted by
    inverse slacks; symmetrized against rounding."""
    import numpy as np
    etas = pts.etas
    weighted = np.swapaxes(etas / pts.l_values[:, :, None], 1, 2)
    g = np.eye(etas.shape[1]) + 0.5 * weighted @ etas
    return 0.5 * (g + np.swapaxes(g, 1, 2))


def hessian_metric_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a (..., n, n) stack via Cholesky.

    Raises:
        NotSPD: some factorization fails.
    """
    import numpy as np
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("matrix has no Cholesky factorization") from exc
    # a full stack of identities: numpy < 2 would read a 2-D right-hand
    # side as a stack of vectors and broadcast it against the batch axis
    eye = np.broadcast_to(np.eye(g.shape[-1]), g.shape)
    half = np.linalg.solve(chol, eye)
    inv = np.linalg.solve(np.swapaxes(chol, -1, -2), half)
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def one_cut_inverse(eta, l: float) -> np.ndarray:
    """Closed-form inverse metric for a single facet at slack l.

    Sherman-Morrison applied to I + eta eta^T / (2 l) gives
    I - eta eta^T / (2 l + |eta|^2).
    """
    import numpy as np
    ev = np.asarray(eta, dtype=float).reshape(-1)
    if not np.any(ev):
        raise ValueError("conormal must be nonzero")
    if l <= 0:
        raise ValueError("slack must be positive")
    return np.eye(ev.shape[0]) - np.outer(ev, ev) / (2.0 * l + ev @ ev)


def legendre_map(pts: InteriorPoints) -> np.ndarray:
    """Gradient of the symplectic potential at each row, as (N, n):
    x - (1/2) sum log(l_i) eta_i."""
    import numpy as np
    return pts.x - 0.5 * (np.log(pts.l_values)[:, None, :] @ pts.etas)[:, 0, :]


def _block_tensors(g_small: np.ndarray, g_inv: np.ndarray):
    import numpy as np
    eye = np.broadcast_to(np.eye(g_small.shape[-1]), g_small.shape)
    zero = np.zeros_like(g_small)
    omega = np.block([[zero, eye], [-eye, zero]])
    jmat = np.block([[zero, -g_inv], [g_small, zero]])
    metric = np.block([[g_small, zero], [zero, g_inv]])
    return omega, jmat, metric


def block_tensors(pts: InteriorPoints):
    """Constant symplectic form, complex structure, and metric as
    (N, 2n, 2n) stacks of blocks in the (x, theta) frame:

        omega = [[0, I], [-I, 0]]
        J     = [[0, -G^-1], [G, 0]]
        g     = [[G, 0], [0, G^-1]]
    """
    g_small = hessian_metric(pts)
    return _block_tensors(g_small, hessian_metric_inverse(g_small))


def point_data(p: polylattice.PolyhedralSet, x) -> KahlerPointData:
    """Every pointwise tensor of an (N, n) batch; rows that are not
    interior are masked as in `interior_point`."""
    pts = interior_point(p, x)
    g_small = hessian_metric(pts)
    g_inv = hessian_metric_inverse(g_small)
    omega, jmat, metric = _block_tensors(g_small, g_inv)
    return KahlerPointData(
        points=pts,
        sp=symplectic_potential(pts),
        guillemin=guillemin_potential(pts),
        G=g_small,
        G_inv=g_inv,
        gtilde=legendre_map(pts),
        omega=omega,
        J=jmat,
        g=metric,
    )


def _dot(u, v) -> float:
    """Sum of the products, taken in order (`sum` of floats rounds
    differently across Python versions)."""
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


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
        identity = intlinalg.identity_matrix(n)
        return _Chart((), tuple(range(n)), identity, [0] * n,
                      [float(f.kappa) for f in p.facets],
                      [[float(v) for v in f.eta] for f in p.facets],
                      [[float(v) for v in row] for row in identity],
                      [0.0] * n)
    a = [list(p.facets[i].eta) for i in facets]
    columns = []
    for c in range(n):
        unit = [int(j == c) for j in range(n)]
        if len(a) < n and intlinalg.rational_rank(a + [unit]) > len(a):
            a.append(unit)
            columns.append(c)
    inverse = intlinalg.rational_inverse(a)
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
        if intlinalg.rational_rank(rows) == len(rows):
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
    grad = [xj - 0.5 * _dot(logs, column) - yj
            for xj, column, yj in zip(x, zip(*etas), y)]
    return l, logs, x, grad, max(map(abs, grad))


def _jacobian(chart: _Chart, etas, l, scale):
    """d(legendre_map(x) - y)/dz entry by entry (not symmetrized), with
    scale = dq/dz. Entry (a, b) is M[a][b] scale[b], plus
    eta_j[a] (eta_j M)[b] scale[b] / (2 l_j) for each facet j outside B,
    less eta_i[a] / 2 when b is the column of u_i. In the chart of x this
    is the Hessian I + (1/2) sum_j eta_j eta_j^T / l_j.
    """
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
    pivoting; a and b are overwritten."""
    n = len(b)
    for k in range(n):
        pivot = max(range(k, n), key=lambda r: abs(a[r][k]))
        a[k], a[pivot] = a[pivot], a[k]
        b[k], b[pivot] = b[pivot], b[k]
        row_k = a[k]
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


def _require_positive(slacks) -> None:
    """Raises NotInterior, naming the first facet of smallest slack, unless
    every exact slack is positive."""
    worst = min(range(len(slacks)), key=slacks.__getitem__)
    if slacks[worst] <= 0:
        raise NotInterior(f"facet {worst + 1} slack "
                          f"{float(slacks[worst]):.3e} below margin")


def _require_exact_interior(p: polylattice.PolyhedralSet, x) -> None:
    """Every slack at the float point x, computed exactly, is positive.

    Raises:
        NotInterior: naming the first facet of smallest exact slack.
    """
    ratios = [v.as_integer_ratio() for v in x]
    scale = max(d for _, d in ratios)  # powers of two: a common denominator
    point = [a * (scale // d) for a, d in ratios]  # scale * x, in integers
    _require_positive([Fraction(f.kappa.numerator * scale - f.kappa.denominator
                                * sum(e * v for e, v in zip(f.eta, point)),
                                f.kappa.denominator * scale)
                       for f in p.facets])


def _solution(p: polylattice.PolyhedralSet, chart: _Chart, z, x, iterations,
              residual) -> NewtonResult:
    """The result at chart coordinates z, whose exact slacks must be
    positive: those of x itself in the chart of x, else those of the exact
    point v + M q that the float coordinates z name."""
    if not chart.facets:
        _require_exact_interior(p, x)
        return NewtonResult(tuple(x), iterations, residual)
    k = len(chart.facets)
    q = [-Fraction(math.exp(u)) for u in z[:k]] + [Fraction(w) for w in z[k:]]
    point = [b + sum(m * v for m, v in zip(row, q))
             for b, row in zip(chart.base, chart.inverse)]
    _require_positive([f.kappa - sum(e * v for e, v in zip(f.eta, point))
                       for f in p.facets])
    return NewtonResult(tuple(float(v) for v in point), iterations, residual,
                        chart.facets, tuple(z[:k]))


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
    out, the float point no longer resolves its small slacks, and the
    solve moves, at the same point, to the chart of the facets whose
    slacks are below CHART_SLACK (once per new set of facets; an
    iteration). The solution is returned only when its exact slacks are
    positive (see `_solution`).

    Raises:
        ValueError: y does not have n coordinates.
        NotInterior: the set has no strict interior, or an exact slack of
            the solution is not positive.
        NoConvergence: after max_iter iterations above tolerance, or when
            rounding has put an iterate outside the interior.
    """
    polylattice.require_normalized(p)
    yv = [float(v) for v in y]
    if len(yv) != p.n:
        raise ValueError(f"expected a target in R^{p.n}")
    start, margin = polylattice.max_margin_point(p)
    if margin <= 0:
        raise NotInterior("set has no strict interior")
    etas = [[float(v) for v in f.eta] for f in p.facets]
    chart = _chart(p, ())
    z = [float(v) for v in start]
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
        dq = [s * d for s, d in zip(scale, step)]
        ratios = [l[j] / d for j, d in
                  enumerate(_dot(row, dq) for row in chart.rows)
                  if d > 0 and j not in chart.facets]  # d: slack loss rate
        t = min(1.0, BOUNDARY_FRACTION * min(ratios)) if ratios else 1.0
        for _ in range(40):
            trial = _state(chart, etas,
                           [zj + t * sj for zj, sj in zip(z, step)], yv)
            if trial is not None and trial[-1] < residual:
                break
            t *= 0.5
        else:
            facets = _chart_facets(p, l)
            if facets != chart.facets:
                chart = _chart(p, facets)
                z = [logs[i] for i in facets] + [x[c] for c in chart.columns]
                iteration += 1
                continue
        # an exhausted search in an unchanged chart keeps the tiny step;
        # the iteration cap above is the arbiter of non-convergence
        z = [zj + t * sj for zj, sj in zip(z, step)]
        iteration += 1
