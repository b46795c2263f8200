"""The almost contact metric structure that a cone point induces on its
level, the dilation defect, and the scale-aware check of the structure.

The structure is torus-invariant, so a point enters through its moment
coordinate x alone, on any level of the cone. `induced_acm_structure`
builds it in closed form from x, G and G^-1, and the entries of G grow
like 1/slack, so no absolute tolerance suits every cone. Each entry of
each identity is judged instead against gamma_k (`floatbase.gamma`), the
bound on k roundings of unit roundoff, times the sum of the magnitudes of
its terms. The terms are expanded through the closed form
down to x, G and G^-1: the closed form and the identities run once more
on `Magnitude`s of those inputs, so the cancellations of the closed form
count at the size of what cancelled, and a quotient counts the relative
error of its computed denominator. Everything is plain Python floats; no
command loads this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import kahlerpotential, polylattice
from .contactcone import _require_cone
from .errors import IdentityViolation, PointOutside, ZeroPoint
from .floatbase import dot, gamma


class AlmostContactMetric(NamedTuple):
    """Induced structure on the level hypersurface, expressed in the
    columns of `frame` (level-tangent directions then angular directions);
    matrices are lists of rows.
    """

    alpha: list[float]
    xi: list[float]
    phi: list[list[float]]
    metric: list[list[float]]
    frame: list[list[float]]


def normalize_moment(p: polylattice.PolyhedralSet, x) -> tuple[float, ...]:
    """Scale a nonzero cone point onto the unit sphere; idempotent.

    x violates facet i when <eta_i, x> exceeds gamma_k times
    sum_j |eta_ij x_j| (`floatbase.gamma`); k = n + 1 counts the float
    x_j and the n products and sums of `dot`.

    Raises:
        ZeroPoint: the apex has no direction.
        PointOutside: x is not in the cone.
    """
    _require_cone(p)
    v = [float(c) for c in x]
    norm = math.hypot(*v)
    if norm == 0.0:
        raise ZeroPoint("cannot normalize the apex")
    for i, f in enumerate(p.facets, start=1):
        if dot(f.eta, v) > gamma(p.n + 1) * dot(map(abs, f.eta), map(abs, v)):
            raise PointOutside(f"facet {i} violated")
    return tuple(c / norm for c in v)


def _hessians(p: polylattice.PolyhedralSet, x):
    """The cone point x as floats, the Hessian G there and its inverse.

    Raises:
        NotInterior: x is outside the cone or on its boundary.
    """
    _require_cone(p)
    x = [float(v) for v in x]
    g = kahlerpotential.hessian_metric(
        kahlerpotential.interior_point(p, [x]).require_all())
    return x, g[0], kahlerpotential.hessian_metric_inverse(g)[0]


def induced_acm_structure(p: polylattice.PolyhedralSet,
                          x) -> AlmostContactMetric:
    """Hypersurface-induced structure on the level of the cone point x.

    The metric diag(G, G^-1) and J = [[0, -G^-1], [G, 0]] in (x, theta)
    give every field in closed form. With s^2 = <x, G^-1 x>, the unit
    normal of the level is nu = (G^-1 x, 0) / s, xi = -J nu = (0, -x / s)
    and its metric dual alpha = (0, -G^-1 x / s). The frame takes the
    rotations r_j = x_m e_j - x_j e_m (j != m) of x against its largest
    coordinate x_m, then the angular unit vectors. In it the metric is
    diag(R^T G R, G^-1), and phi, the tangential part of J, sends r_j to
    (0, G r_j) and the angular e_j to the rotation coordinates w_k / x_m
    (k != m) of w = -G^-1 e_j + (<x, G^-1 e_j> / s^2) G^-1 x, which must
    be orthogonal to x; that and the four identities are checked, each
    entry against the magnitudes of its terms (`verify_structure`).

    Raises:
        NotInterior: x is outside the cone or on its boundary.
        IdentityViolation: a check fails.
    """
    x, g, g_inv = _hessians(p, x)
    structure = _closed_form(x, g, g_inv)
    verify_structure(structure, _closed_form(*magnitudes(x, g, g_inv), sqrt))
    return structure[0]


def _closed_form(x, g, g_inv, sqrt=math.sqrt):
    """The structure of `induced_acm_structure` at x, and <x, w> for each
    angle direction's w; on `Magnitude`s, sqrt is this module's `sqrt`."""
    n = len(x)
    g_inv_x = [dot(row, x) for row in g_inv]
    s_sq = dot(x, g_inv_x)
    s = sqrt(s_sq)
    m = max(range(n), key=lambda j: abs(x[j]))
    rotations = [[x[m] if k == j else -x[j] if k == m else 0.0
                  for k in range(n)] for j in range(n) if j != m]
    zeros = [0.0] * (n - 1)
    ws = [[c * g_inv_x[j] / s_sq - row[j] for row, c in zip(g_inv, g_inv_x)]
          for j in range(n)]
    g_r = [[dot(row, r) for row in g] for r in rotations]
    phi = ([zeros + [w[k] / x[m] for w in ws] for k in range(n) if k != m]
           + [[col[a] for col in g_r] + [0.0] * n for a in range(n)])
    metric = ([[dot(r, q) for q in g_r] + [0.0] * n for r in rotations]
              + [zeros + row for row in g_inv])
    frame = ([[r[a] for r in rotations] + [0.0] * n for a in range(n)]
             + [zeros + [float(a == b) for b in range(n)] for a in range(n)])
    return (AlmostContactMetric(zeros + [-v / s for v in g_inv_x],
                                zeros + [-v / s for v in x], phi, metric,
                                frame), [dot(x, w) for w in ws])


def cone_metric_defect(p: polylattice.PolyhedralSet, x) -> float:
    """Max-abs entry of d/dt|0 of the dilated metric minus twice the metric.

    The dilation sends (x, theta) to (e^t x, theta); a metric cone would
    make the derivative exactly twice the metric, so a positive value is
    the obstruction. On a cone every offset is zero, so the slacks scale
    with e^t and the Hessian G at the cone point x dilates to
    I + e^-t (G - I). The derivative of the metric
    diag(e^2t G(e^t x), G(e^t x)^-1) minus twice the metric is then I - G
    on the action block and -(G^-1 + G^-2) on the angle block;
    G^-1 + G^-2 is positive definite, so the defect is positive at every
    interior point.

    Raises:
        NotInterior: x is outside the cone or on its boundary.
    """
    _, g, g_inv = _hessians(p, x)
    return max(max(abs(float(a == b) - v) for a, row in enumerate(g)
                   for b, v in enumerate(row)),
               max(abs(v + dot(row, col)) for row in g_inv
                   for v, col in zip(row, zip(*g_inv))))


class Magnitude(float):
    """A value computed from exact inputs (`value`), as the float size
    that bounds its rounding error in units of gamma_k. Under -, + and *
    the size is the sum of the magnitudes of the terms the value expands
    to. A quotient a / b has size(a) / |b| (1 + size(b) / |b|) at the
    computed b, so that b's relative error counts too (to first order);
    `sqrt` does likewise. A plain float in an operation is an exact input."""

    def __new__(cls, size, value):
        self = super().__new__(cls, size)
        self.value = value
        return self

    def __add__(self, other):
        return Magnitude(float(self) + abs(other), self.value + _value(other))

    def __sub__(self, other):
        return Magnitude(float(self) + abs(other), self.value - _value(other))

    def __rsub__(self, other):
        return Magnitude(float(self) + abs(other), _value(other) - self.value)

    def __mul__(self, other):
        return Magnitude(float(self) * abs(other), self.value * _value(other))

    def __truediv__(self, other):
        below = abs(_value(other))
        return Magnitude(float(self) / below * (1.0 + abs(other) / below),
                         self.value / _value(other))

    def __neg__(self):
        return Magnitude(float(self), -self.value)

    __radd__ = __add__
    __rmul__ = __mul__


def _value(v):
    return getattr(v, "value", v)


def sqrt(b: Magnitude) -> Magnitude:
    """math.sqrt for `Magnitude`s: a root's relative error is at most half
    its radicand's, plus one rounding."""
    root = math.sqrt(b.value)
    return Magnitude(root * (1.0 + float(b) / b.value), root)


def magnitudes(x, g, g_inv):
    """x, G and G^-1 as `Magnitude`s of exact inputs."""
    return ([Magnitude(abs(v), v) for v in x],
            *([[Magnitude(abs(v), v) for v in row] for row in matrix]
              for matrix in (g, g_inv)))


def identities(acm, orth) -> dict:
    """The residual entries of each identity, keyed by the failure it
    names: the angle directions' images under J are tangent to the level
    (orth, <x, w> of each w of the closed form), alpha(xi) = 1, phi xi = 0,
    phi^2 = -id + xi (x) alpha and g(phi., phi.) = g - alpha (x) alpha."""
    cols = list(zip(*acm.phi))
    g_phi = [[dot(row, col) for row in acm.metric] for col in cols]
    frame = range(len(cols))
    return {
        "J of an angle direction leaves the level": orth,
        "alpha(xi) misses 1": [dot(acm.alpha, acm.xi) - 1.0],
        "phi does not annihilate xi": [dot(row, acm.xi) for row in acm.phi],
        "phi squared misses -id + xi (x) alpha": [
            dot(row, col) + float(a == b) - acm.xi[a] * acm.alpha[b]
            for a, row in enumerate(acm.phi) for b, col in enumerate(cols)],
        "metric is not phi-compatible": [
            dot(cols[a], g_phi[b]) - acm.metric[a][b]
            + acm.alpha[a] * acm.alpha[b] for a in frame for b in frame]}


def verify_structure(structure, size) -> None:
    """Check a structure (acm, orth) against `size`, the same built from
    `magnitudes`. The frame has d = 2n - 1 directions, and k = 3d + 9
    bounds the roundings on any path from x, G and G^-1 to a residual:
    dot products of length n in the closed form (two on a path), of
    length d in an identity (two), and at most nine scalar steps.

    Raises:
        IdentityViolation: an entry exceeds its bound (or is NaN); names
            the identity, the entry, its residual and the bound.
    """
    rounding = gamma(3 * len(structure[0].xi) + 9)
    for (name, residuals), sizes in zip(identities(*structure).items(),
                                        identities(*size).values()):
        for entry, (residual, bound) in enumerate(zip(residuals, sizes)):
            if not abs(residual) <= rounding * bound:
                raise IdentityViolation(
                    f"{name}: entry {entry} residual {residual!r} exceeds "
                    f"{rounding * bound!r}")
