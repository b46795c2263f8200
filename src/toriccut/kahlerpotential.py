"""Canonical potentials, Hessian metrics, and the moment-coordinate
Legendre transform for normalized polyhedral sets.

Everything here is float64. Exact facet data is converted once when an
interior point is constructed; the natural logarithm is used throughout.
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


@dataclass(frozen=True)
class InteriorPoint:
    """Strictly interior point with its facet slacks.

    l_values[i] = kappa_i - <x, eta_i> > 0, and l_infinity is their sum.
    The float conormal matrix rides along so downstream operations need
    only the point.
    """

    x: np.ndarray
    l_values: np.ndarray
    l_infinity: float
    etas: np.ndarray


@dataclass(frozen=True)
class KahlerPointData:
    """All pointwise tensors in one bundle (CLI payload shape)."""

    sp: float
    guillemin: float
    G: np.ndarray
    G_inv: np.ndarray
    gtilde: np.ndarray
    omega: np.ndarray
    J: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class NewtonResult:
    point: InteriorPoint
    iterations: int
    residual: float


def interior_point(p: polylattice.PolyhedralSet, x,
                   margin: float = INTERIOR_MARGIN) -> InteriorPoint:
    """Validate strict interiority and precompute slacks.

    Raises:
        NotInterior: with the 1-based index of the violated facet; points
            closer to the boundary than `margin` are rejected even if the
            slack is positive.
    """
    polylattice.require_normalized(p)
    xv = np.asarray(x, dtype=float).reshape(-1)
    if xv.shape != (p.n,):
        raise ValueError(f"expected a point in R^{p.n}")
    etas = np.array([[float(v) for v in f.eta] for f in p.facets])
    kappas = np.array([float(f.kappa) for f in p.facets])
    l = kappas - etas @ xv
    worst = int(np.argmin(l))
    if not l[worst] >= margin:  # argmin picks a NaN slack, which fails too
        raise NotInterior(f"facet {worst + 1} slack {l[worst]:.3e} below margin")
    return InteriorPoint(x=xv.copy(), l_values=l, l_infinity=float(l.sum()), etas=etas)


def symplectic_potential(pt: InteriorPoint) -> float:
    l = pt.l_values
    return float(0.5 * pt.x @ pt.x + 0.5 * np.sum(l * np.log(l)) - 0.5 * pt.l_infinity)


def guillemin_potential(pt: InteriorPoint) -> float:
    l = pt.l_values
    return float(0.5 * np.sum(l * np.log(l)) - 0.5 * pt.l_infinity)


def hessian_metric(pt: InteriorPoint) -> np.ndarray:
    """Hessian of the symplectic potential: identity plus half the sum of
    rank-one conormal terms weighted by inverse slacks."""
    n = pt.x.shape[0]
    g = np.eye(n) + 0.5 * (pt.etas / pt.l_values[:, None]).T @ pt.etas
    return 0.5 * (g + g.T)


def hessian_metric_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse via Cholesky; raises NotSPD when the factorization fails."""
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("matrix has no Cholesky factorization") from exc
    eye = np.eye(g.shape[0])
    half = np.linalg.solve(chol, eye)
    inv = np.linalg.solve(chol.T, half)
    return 0.5 * (inv + inv.T)


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


def legendre_map(pt: InteriorPoint) -> np.ndarray:
    """Gradient of the symplectic potential: x - (1/2) sum log(l_i) eta_i."""
    return pt.x - 0.5 * (np.log(pt.l_values) @ pt.etas)


def block_tensors(pt: InteriorPoint):
    """Constant symplectic form, complex structure, and metric as 2n x 2n
    blocks in the (x, theta) frame:

        omega = [[0, I], [-I, 0]]
        J     = [[0, -G^-1], [G, 0]]
        g     = [[G, 0], [0, G^-1]]
    """
    n = pt.x.shape[0]
    g_small = hessian_metric(pt)
    g_inv = hessian_metric_inverse(g_small)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    omega = np.block([[zero, eye], [-eye, zero]])
    jmat = np.block([[zero, -g_inv], [g_small, zero]])
    metric = np.block([[g_small, zero], [zero, g_inv]])
    return omega, jmat, metric


def point_data(p: polylattice.PolyhedralSet, x) -> KahlerPointData:
    pt = interior_point(p, x)
    g_small = hessian_metric(pt)
    g_inv = hessian_metric_inverse(g_small)
    omega, jmat, metric = block_tensors(pt)
    return KahlerPointData(
        sp=symplectic_potential(pt),
        guillemin=guillemin_potential(pt),
        G=g_small,
        G_inv=g_inv,
        gtilde=legendre_map(pt),
        omega=omega,
        J=jmat,
        g=metric,
    )


def _residual_norm(x, y, etas, kappas):
    l = kappas - etas @ x
    if np.min(l) <= 0:
        return np.inf
    return float(np.max(np.abs(x - 0.5 * (np.log(l) @ etas) - y)))


def invert_legendre(p: polylattice.PolyhedralSet, y,
                    tol: float = NEWTON_TOL,
                    max_iter: int = NEWTON_MAX_ITER) -> NewtonResult:
    """Newton solve of legendre_map(x) = y over the strict interior.

    The start point maximizes the smallest slack (computed exactly, then
    rounded to float). Steps are damped two ways: a fraction-to-boundary
    rule keeps every slack at >= 5% of its current value, and the step is
    halved while the residual norm (the merit function) fails to decrease.

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
    x = np.array([float(v) for v in start])
    etas = np.array([[float(v) for v in f.eta] for f in p.facets])
    kappas = np.array([float(f.kappa) for f in p.facets])
    iteration = 0
    while True:
        l = kappas - etas @ x
        grad = x - 0.5 * (np.log(l) @ etas) - yv
        residual = float(np.max(np.abs(grad)))
        if residual < tol:
            return NewtonResult(interior_point(p, x), iteration, residual)
        if iteration >= max_iter:
            raise NoConvergence(
                f"residual {residual:.3e} after {max_iter} iterations")
        gmat = np.eye(p.n) + 0.5 * (etas / l[:, None]).T @ etas
        step = np.linalg.solve(gmat, -grad)
        decrease = etas @ step  # slack loss rate per facet
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
