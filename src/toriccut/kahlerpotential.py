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

from . import polylattice
from .errors import NoConvergence, NotInterior, NotSPD

INTERIOR_MARGIN = 1e-12
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200
BOUNDARY_FRACTION = 0.95


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
    x: tuple[float, ...]
    iterations: int
    residual: float


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


def _residual(etas, kappas, x, y):
    """(slacks, legendre_map(x) - y, its largest entry in absolute value)
    at a float point x, or None when a slack is not finite and positive."""
    l = [kappa - _dot(eta, x) for eta, kappa in zip(etas, kappas)]
    if not all(0.0 < v < math.inf for v in l):
        return None
    logs = [math.log(v) for v in l]
    grad = [xj - 0.5 * _dot(logs, column) - yj
            for xj, column, yj in zip(x, zip(*etas), y)]
    return l, grad, max(map(abs, grad))


def _hessian(etas, l):
    """I + (1/2) sum_i eta_i eta_i^T / l_i, entry by entry (not
    symmetrized)."""
    weighted = list(zip(*[[e / li for e in eta] for eta, li in zip(etas, l)]))
    columns = list(zip(*etas))
    return [[(1.0 if j == k else 0.0) + 0.5 * _dot(wj, ck)
             for k, ck in enumerate(columns)]
            for j, wj in enumerate(weighted)]


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


def _require_exact_interior(p: polylattice.PolyhedralSet, x) -> None:
    """Every slack at the float point x, computed exactly, is positive.

    Raises:
        NotInterior: naming the first facet of smallest exact slack.
    """
    ratios = [v.as_integer_ratio() for v in x]
    scale = max(d for _, d in ratios)  # powers of two: a common denominator
    point = [a * (scale // d) for a, d in ratios]  # scale * x, in integers
    slacks = [Fraction(f.kappa.numerator * scale - f.kappa.denominator
                       * sum(e * v for e, v in zip(f.eta, point)),
                       f.kappa.denominator * scale)
              for f in p.facets]
    worst = min(range(len(slacks)), key=slacks.__getitem__)
    if slacks[worst] <= 0:
        raise NotInterior(f"facet {worst + 1} slack "
                          f"{float(slacks[worst]):.3e} below margin")


def invert_legendre(p: polylattice.PolyhedralSet, y,
                    tol: float = NEWTON_TOL,
                    max_iter: int = NEWTON_MAX_ITER) -> NewtonResult:
    """Newton solve of legendre_map(x) = y over the strict interior, for
    one target y in R^n, in plain Python floats.

    The start point maximizes the smallest slack (computed exactly, then
    rounded to float). Each step solves the Hessian system and is damped
    two ways: a fraction-to-boundary rule keeps every slack at >= 5% of its
    current value, and the step is halved while the residual norm (the
    merit function) fails to decrease. The solution is returned only when
    its slacks, computed exactly from its float coordinates, are positive.

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
    kappas = [float(f.kappa) for f in p.facets]
    x = [float(v) for v in start]
    iteration = 0
    while True:
        state = _residual(etas, kappas, x, yv)
        if state is None:
            raise NoConvergence(f"iterate {iteration} left the interior")
        l, grad, residual = state
        if residual < tol:
            _require_exact_interior(p, x)
            return NewtonResult(tuple(x), iteration, residual)
        if iteration >= max_iter:
            raise NoConvergence(
                f"residual {residual:.3e} after {max_iter} iterations")
        step = _solve(_hessian(etas, l), [-g for g in grad])
        ratios = [li / d for li, d in zip(l, (_dot(eta, step) for eta in etas))
                  if d > 0]  # d: slack loss rate of the facet
        t = min(1.0, BOUNDARY_FRACTION * min(ratios)) if ratios else 1.0
        for _ in range(40):
            trial = _residual(etas, kappas,
                              [xj + t * sj for xj, sj in zip(x, step)], yv)
            if trial is not None and trial[2] < residual:
                break
            t *= 0.5
        # an exhausted search keeps the tiny step; the iteration cap above
        # is the arbiter of non-convergence
        x = [xj + t * sj for xj, sj in zip(x, step)]
        iteration += 1
