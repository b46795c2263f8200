"""Canonical potentials, Hessian metrics, and the moment-coordinate
Legendre transform for normalized polyhedral sets.

Everything here is float64 and works on batches: points come as an (N, n)
array and each function returns one value, row or matrix per point. The
exact facet data is converted to floats once per batch, when the slacks
are computed; the natural logarithm is used throughout.

Products are taken row by row (stacked matrix-vector products), never as
one matrix-matrix product over the whole batch: BLAS may sum a gemm in
another order than a gemv, and a point must give the same bits whether it
is evaluated alone, as a one-row batch, or among others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polylattice
from .errors import NoConvergence, NotInterior, NotSPD

INTERIOR_MARGIN = 1e-12
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200
BOUNDARY_FRACTION = 0.95


@dataclass(frozen=True, eq=False)
class InteriorPoints:
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
        masked = np.flatnonzero(~self.inside)
        if masked.size:
            raise self.rejection(int(masked[0]))
        return self


@dataclass(frozen=True, eq=False)
class KahlerPointData:
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


@dataclass(frozen=True)
class NewtonResult:
    point: InteriorPoints  # a one-row batch
    iterations: int
    residual: float


def _facet_arrays(p: polylattice.PolyhedralSet):
    etas = np.array([[float(v) for v in f.eta] for f in p.facets])
    kappas = np.array([float(f.kappa) for f in p.facets])
    return etas, kappas


def _pairings(etas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<x[k], eta_i> as an (N, m) array, one matrix-vector product per row."""
    return (etas @ x[:, :, None])[:, :, 0]


def _gradient(x: np.ndarray, l: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """x - (1/2) sum_i log(l_i) eta_i for each row."""
    return x - 0.5 * (np.log(l)[:, None, :] @ etas)[:, 0, :]


def _hessian(l: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """I + (1/2) sum_i eta_i eta_i^T / l_i for each row."""
    weighted = np.swapaxes(etas / l[:, :, None], 1, 2)
    return np.eye(etas.shape[1]) + 0.5 * weighted @ etas


def interior_point(p: polylattice.PolyhedralSet, x,
                   margin: float = INTERIOR_MARGIN) -> InteriorPoints:
    """Slacks of an (N, n) batch, with the strictly interior rows selected.

    A row whose smallest slack is below `margin` (or NaN) is masked out,
    not raised: `InteriorPoints.rejection` gives its error and
    `require_all` raises it.

    Raises:
        ValueError: x is not an (N, n) array.
    """
    polylattice.require_normalized(p)
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != p.n:
        raise ValueError(f"expected an (N, {p.n}) batch of points")
    etas, kappas = _facet_arrays(p)
    l = kappas - _pairings(etas, xs)
    worst = np.argmin(l, axis=1)  # argmin picks a NaN slack, which fails too
    worst_slack = np.take_along_axis(l, worst[:, None], axis=1)[:, 0]
    inside = worst_slack >= margin
    l = l[inside]
    return InteriorPoints(x=xs[inside], l_values=l, l_infinity=l.sum(axis=1),
                          etas=etas, inside=inside, worst_facet=worst,
                          worst_slack=worst_slack)


def symplectic_potential(pts: InteriorPoints) -> np.ndarray:
    x, l = pts.x, pts.l_values
    kinetic = ((0.5 * x)[:, None, :] @ x[:, :, None])[:, 0, 0]
    return (kinetic + 0.5 * np.sum(l * np.log(l), axis=1)
            - 0.5 * pts.l_infinity)


def guillemin_potential(pts: InteriorPoints) -> np.ndarray:
    l = pts.l_values
    return 0.5 * np.sum(l * np.log(l), axis=1) - 0.5 * pts.l_infinity


def hessian_metric(pts: InteriorPoints) -> np.ndarray:
    """Hessian of the symplectic potential at each row, as (N, n, n):
    identity plus half the sum of rank-one conormal terms weighted by
    inverse slacks; symmetrized against rounding."""
    g = _hessian(pts.l_values, pts.etas)
    return 0.5 * (g + np.swapaxes(g, 1, 2))


def hessian_metric_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a (..., n, n) stack via Cholesky.

    Raises:
        NotSPD: some factorization fails.
    """
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
    ev = np.asarray(eta, dtype=float).reshape(-1)
    if not np.any(ev):
        raise ValueError("conormal must be nonzero")
    if l <= 0:
        raise ValueError("slack must be positive")
    return np.eye(ev.shape[0]) - np.outer(ev, ev) / (2.0 * l + ev @ ev)


def legendre_map(pts: InteriorPoints) -> np.ndarray:
    """Gradient of the symplectic potential at each row, as (N, n):
    x - (1/2) sum log(l_i) eta_i."""
    return _gradient(pts.x, pts.l_values, pts.etas)


def _block_tensors(g_small: np.ndarray, g_inv: np.ndarray):
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


def _residual_norm(x, y, etas, kappas):
    l = kappas - _pairings(etas, x)
    if np.min(l) <= 0:
        return np.inf
    return float(np.max(np.abs(_gradient(x, l, etas) - y)))


def invert_legendre(p: polylattice.PolyhedralSet, y,
                    tol: float = NEWTON_TOL,
                    max_iter: int = NEWTON_MAX_ITER) -> NewtonResult:
    """Newton solve of legendre_map(x) = y over the strict interior.

    The start point maximizes the smallest slack (computed exactly, then
    rounded to float). Steps are damped two ways: a fraction-to-boundary
    rule keeps every slack at >= 5% of its current value, and the step is
    halved while the residual norm (the merit function) fails to decrease.
    The iterate is a one-row batch throughout.

    Raises:
        NoConvergence: after max_iter iterations above tolerance.
    """
    polylattice.require_normalized(p)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if yv.shape != (p.n,):
        raise ValueError(f"expected a target in R^{p.n}")
    start, margin = polylattice.max_margin_point(p)
    if margin <= 0:
        raise NotInterior("set has no strict interior")
    etas, kappas = _facet_arrays(p)
    x = np.array([[float(v) for v in start]])
    iteration = 0
    while True:
        l = kappas - _pairings(etas, x)
        grad = _gradient(x, l, etas) - yv
        residual = float(np.max(np.abs(grad)))
        if residual < tol:
            return NewtonResult(interior_point(p, x).require_all(),
                                iteration, residual)
        if iteration >= max_iter:
            raise NoConvergence(
                f"residual {residual:.3e} after {max_iter} iterations")
        step = np.linalg.solve(_hessian(l, etas), -grad[:, :, None])[:, :, 0]
        decrease = _pairings(etas, step)  # slack loss rate per facet
        t = 1.0
        positive = decrease > 0
        if np.any(positive):
            t = min(1.0, BOUNDARY_FRACTION * float(
                np.min(l[positive] / decrease[positive])))
        for _ in range(40):
            if _residual_norm(x + t * step, yv, etas, kappas) < residual:
                break
            t *= 0.5
        # an exhausted search keeps the tiny step; the iteration cap above
        # is the arbiter of non-convergence
        x = x + t * step
        iteration += 1
