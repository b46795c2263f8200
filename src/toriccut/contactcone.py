"""Contact layer over polyhedral cones.

Covers the strong/weak convexity classification with its Reeb data, points
of the unit level, the hypersurface-induced almost contact metric
structure, and a dilation defect showing the canonical metric is not a
cone metric.

The float parts (the almost contact metric structure, the dilation defect,
normalize_moment) are plain Python on lists; they import the float layer
where they run, so the exact classification loads without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import facelattice, polylattice
from .errors import NotACone, NotGood, NotInterior, PointOutside, ZeroPoint

SASAKIAN = "sasakian_type"
NON_SASAKIAN = "non_sasakian_type"
UNIT_TOL = 1e-12
BOUNDARY_TOL = 1e-12


class ContactClassification(NamedTuple):
    reeb_vector: tuple[int, ...] | None
    type_label: str
    k_contact: bool


class ContactPoint(NamedTuple):
    """Unit-sphere point inside the cone with angles and radial coordinate."""

    x: tuple
    theta: tuple[float, ...]
    t: float = 0.0


class AlmostContactMetric(NamedTuple):
    """Induced structure on the unit-level hypersurface, expressed in the
    columns of `frame` (sphere-tangent directions then angular directions);
    matrices are lists of rows.
    """

    alpha: list[float]
    xi: list[float]
    phi: list[list[float]]
    metric: list[list[float]]
    frame: list[list[float]]


def _require_cone(p: polylattice.PolyhedralSet) -> None:
    if p.kind != polylattice.CONE:
        raise NotACone("operation needs a conical set")


def _rays(covers, n: int) -> tuple[tuple[int, ...], ...]:
    """The rays of a pointed cone in R^n, read from the Covers of its faces.

    A nonzero cone point whose tight conormals have rank n - 1 lies on a
    one-dimensional face, and every such face is a key of the enumeration
    with a witness on it; the ray is the witness scaled to a primitive
    integer vector, which keeps its sign.
    """
    found = set()
    for cover in covers.values():
        if cover.rank == n - 1:
            ints, _ = polylattice.integer_row(cover.witness)
            g = polylattice.vector_gcd(ints)
            found.add(tuple(v // g for v in ints))
    return tuple(sorted(found))


def _checked_reeb(p: polylattice.PolyhedralSet, rays) -> tuple[int, ...]:
    vec = tuple(-sum(f.eta[j] for f in p.facets) for j in range(p.n))
    for ray in rays:
        if sum(a * b for a, b in zip(ray, vec)) <= 0:
            raise AssertionError("candidate fails on an extreme ray")
    return vec


def classify(p: polylattice.PolyhedralSet,
             report: facelattice.UnimodularityReport,
             k: int) -> ContactClassification:
    """Good-cone classification from the cone's unimodularity report and
    its count k of line factors (`facelattice.convexity_class`): strongly
    convex cones (k == 0) carry a Reeb vector and the metric-compatible
    label, weakly convex ones do not. The rays that check the Reeb vector
    come from the report's faces.

    Raises:
        NotGood: non-good cones are orbifold territory and not classified.
    """
    _require_cone(p)
    if not report.is_unimodular:
        raise NotGood("cone is not good; classification out of scope")
    strongly = k == 0
    reeb = _checked_reeb(p, _rays(report.covers, p.n)) if strongly else None
    return ContactClassification(reeb, SASAKIAN if strongly else NON_SASAKIAN,
                                 strongly)


def _unit_norm_ok(x) -> bool:
    if all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
           for v in x):
        return sum(Fraction(v) ** 2 for v in x) == 1
    total = sum(float(v) ** 2 for v in x)
    return abs(math.sqrt(total) - 1.0) <= UNIT_TOL


def contact_point(p: polylattice.PolyhedralSet, x, theta=None, t: float = 0.0,
                  strict: bool = True) -> ContactPoint:
    """Validated unit-sphere point of the cone.

    With strict=True every facet pairing must be strictly on the interior
    side; strict=False admits boundary points for purely algebraic use.

    Raises:
        ValueError: x is not on the unit sphere.
        NotInterior: a facet pairing vanishes while strict=True.
        PointOutside: x violates a facet inequality outright.
    """
    _require_cone(p)
    xs = tuple(x)
    if len(xs) != p.n:
        raise ValueError(f"expected a point in R^{p.n}")
    if not _unit_norm_ok(xs):
        raise ValueError("point is not on the unit sphere")
    for i, f in enumerate(p.facets, start=1):
        pairing = sum(float(a) * float(v) for a, v in zip(f.eta, xs))
        if pairing > BOUNDARY_TOL:
            raise PointOutside(f"facet {i} violated by {pairing:.3e}")
        if strict and pairing > -BOUNDARY_TOL:
            raise NotInterior(f"facet {i} pairing vanishes at x")
    if theta is None:
        theta = (0.0,) * p.n
    return ContactPoint(xs, tuple(float(v) for v in theta), float(t))


def normalize_moment(p: polylattice.PolyhedralSet, x) -> tuple[float, ...]:
    """Scale a nonzero cone point onto the unit sphere; idempotent.

    Raises:
        ZeroPoint: the apex has no direction.
        PointOutside: x is not in the cone.
    """
    from .kahlerpotential import _dot
    _require_cone(p)
    v = [float(c) for c in x]
    norm = math.hypot(*v)
    if norm == 0.0:
        raise ZeroPoint("cannot normalize the apex")
    for i, f in enumerate(p.facets, start=1):
        if _dot(f.eta, v) > BOUNDARY_TOL * norm:
            raise PointOutside(f"facet {i} violated")
    return tuple(c / norm for c in v)


def _hessians(p: polylattice.PolyhedralSet, cp: ContactPoint):
    """The point x = e^t cp.x, the Hessian G there and its inverse."""
    from . import kahlerpotential
    _require_cone(p)
    scale = math.exp(cp.t)
    x = [float(v) * scale for v in cp.x]
    g = kahlerpotential.hessian_metric(
        kahlerpotential.interior_point(p, [x]).require_all())
    return x, g[0], kahlerpotential.hessian_metric_inverse(g)[0]


def induced_acm_structure(p: polylattice.PolyhedralSet,
                          cp: ContactPoint) -> AlmostContactMetric:
    """Hypersurface-induced structure on the unit level at cp.

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
    entry against the magnitudes of its terms (`contactcheck`).

    Raises:
        NotInterior: cp touches the cone boundary.
        IdentityViolation: a check fails.
    """
    from .contactcheck import magnitudes, sqrt, verify_structure
    x, g, g_inv = _hessians(p, cp)
    structure = _closed_form(x, g, g_inv)
    verify_structure(structure, _closed_form(*magnitudes(x, g, g_inv), sqrt))
    return structure[0]


def _closed_form(x, g, g_inv, sqrt=math.sqrt):
    """The structure of `induced_acm_structure` at x, and <x, w> for each
    angle direction's w; on `Magnitude`s, sqrt is `contactcheck.sqrt`."""
    from .kahlerpotential import _dot
    n = len(x)
    g_inv_x = [_dot(row, x) for row in g_inv]
    s_sq = _dot(x, g_inv_x)
    s = sqrt(s_sq)
    m = max(range(n), key=lambda j: abs(x[j]))
    rotations = [[x[m] if k == j else -x[j] if k == m else 0.0
                  for k in range(n)] for j in range(n) if j != m]
    zeros = [0.0] * (n - 1)
    ws = [[c * g_inv_x[j] / s_sq - row[j] for row, c in zip(g_inv, g_inv_x)]
          for j in range(n)]
    g_r = [[_dot(row, r) for row in g] for r in rotations]
    phi = ([zeros + [w[k] / x[m] for w in ws] for k in range(n) if k != m]
           + [[col[a] for col in g_r] + [0.0] * n for a in range(n)])
    metric = ([[_dot(r, q) for q in g_r] + [0.0] * n for r in rotations]
              + [zeros + row for row in g_inv])
    frame = ([[r[a] for r in rotations] + [0.0] * n for a in range(n)]
             + [zeros + [float(a == b) for b in range(n)] for a in range(n)])
    return (AlmostContactMetric(zeros + [-v / s for v in g_inv_x],
                                zeros + [-v / s for v in x], phi, metric,
                                frame), [_dot(x, w) for w in ws])


def cone_metric_defect(p: polylattice.PolyhedralSet,
                       cp: ContactPoint) -> float:
    """Max-abs entry of d/dt|0 of the dilated metric minus twice the metric.

    The dilation sends (x, theta) to (e^t x, theta); a metric cone would
    make the derivative exactly twice the metric, so a positive value is
    the obstruction. On a cone every offset is zero, so the slacks scale
    with e^t and the Hessian G at the point x (cp.x scaled by e^cp.t)
    dilates to I + e^-t (G - I). The
    derivative of the metric diag(e^2t G(e^t x), G(e^t x)^-1) minus twice
    the metric is then I - G on the action block and -(G^-1 + G^-2) on the
    angle block; G^-1 + G^-2 is positive definite, so the defect is
    positive at every interior point.

    Raises:
        NotInterior: cp touches the cone boundary.
    """
    from .kahlerpotential import _dot
    _, g, g_inv = _hessians(p, cp)
    return max(max(abs(float(a == b) - v) for a, row in enumerate(g)
                   for b, v in enumerate(row)),
               max(abs(v + _dot(row, col)) for row in g_inv
                   for v, col in zip(row, zip(*g_inv))))
