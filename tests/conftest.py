"""Shared fixture sets and interior-point samplers for the test suite."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from toriccut import cutmodel as cm
from toriccut import polylattice as pl


def determinant(mat):
    """Exact determinant of a square rational matrix, from sympy."""
    return sympy.Matrix(mat).det()


def f1():
    """Unit interval [0, 1] in R^1."""
    return pl.polyhedral_set(1, [((-1,), 0), ((1,), 1)])


def f2():
    """Standard unimodular triangle in R^2."""
    return pl.polyhedral_set(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])


def f3():
    """Half-plane cone {x1 >= 0} in R^2."""
    return pl.polyhedral_set(2, [((-1, 0), 0)], kind=pl.CONE)


def f4():
    """First-quadrant cone in R^2, given with inward (lower) conormals."""
    return pl.polyhedral_set(2, [((1, 0), 0), ((0, 1), 0)], kind=pl.CONE,
                             orientation=pl.LOWER)


def f5():
    """Triangle with a determinant-2 vertex at (1, 0)."""
    return pl.polyhedral_set(2, [((-1, 0), 0), ((0, -1), 0), ((2, 1), 2)])


def slab():
    """Vertical slab 0 <= x1 <= 1, unconstrained x2."""
    return pl.polyhedral_set(2, [((-1, 0), 0), ((1, 0), 1)])


def lens_cone():
    """Pointed cone with inward conormals (1,0) and (1,2)."""
    return pl.polyhedral_set(2, [((-1, 0), 0), ((-1, -2), 0)], kind=pl.CONE)


def halfspace_r3():
    """Weakly convex half-space cone {x1 >= 0} in R^3."""
    return pl.polyhedral_set(3, [((-1, 0, 0), 0)], kind=pl.CONE)


def f5_lift_cone():
    """Cone in R^3 over the determinant-2 triangle; not good off the apex."""
    return pl.polyhedral_set(
        3,
        [((-1, 0, 0), 0), ((0, -1, 0), 0), ((2, 1, -2), 0), ((0, 0, -1), 0)],
        kind=pl.CONE)


def pyramid():
    """Square pyramid in R^3 whose apex has four active facets."""
    return pl.polyhedral_set(
        3,
        [((0, 0, -1), 0), ((1, 0, 1), 1), ((-1, 0, 1), 1),
         ((0, 1, 1), 1), ((0, -1, 1), 1)])


def cube(n):
    """Unit cube [0, 1]^n: facets -x_i <= 0 and x_i <= 1 for each i."""
    facets = []
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        facets += [(tuple(-v for v in e), 0), (e, 1)]
    return pl.polyhedral_set(n, facets)


def simplex(n):
    """Standard simplex: -x_i <= 0 for each i, then x_1 + ... + x_n <= 1."""
    facets = [(tuple(-int(j == i) for j in range(n)), 0) for i in range(n)]
    return pl.polyhedral_set(n, facets + [((1,) * n, 1)])


def orthant(n):
    """Positive orthant cone in R^n."""
    facets = [(tuple(-int(j == i) for j in range(n)), 0) for i in range(n)]
    return pl.polyhedral_set(n, facets, kind=pl.CONE)


def write_document(path, p):
    """Write a normalized set as a CLI input document; returns the path."""
    doc = {"schema_version": "1", "n": p.n, "kind": p.kind,
           "facets": [{"eta": list(f.eta), "kappa": str(f.kappa)}
                      for f in p.facets]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def section(p, x, theta):
    """The ambient point over (x, theta) whose z_i is the nonnegative real
    square root of the slack l_i(x), so it lies on the level
    |z_i|^2 = l_i; z_i = 0 on the facets tight at x. The slacks are exact
    when x is rational."""
    zs = []
    for i, f in enumerate(p.facets, start=1):
        slack = f.kappa - sum(e * v for e, v in zip(f.eta, x))
        assert slack >= 0, f"x violates facet {i}"
        zs.append(complex(math.sqrt(slack)))
    return cm.ambient_point(x, theta, zs)


def random_set(n, m, s):
    """ROADMAP's random(n, m, s): the n facets -e_i <= 1, then integer
    conormals drawn from [-3, 3]^n (zero vectors redrawn) with offsets in
    1..4, until there are m facets."""
    rng = random.Random(s)
    facets = [(tuple(-1 if j == i else 0 for j in range(n)), 1)
              for i in range(n)]
    while len(facets) < m:
        eta = [rng.randint(-3, 3) for _ in range(n)]
        if any(eta):
            facets.append((eta, rng.randint(1, 4)))
    return pl.polyhedral_set(n, facets)


def delzant_polygon(m):
    """ROADMAP's Delzant m-gon: the square [0, 1000]^2 with facets -x <= 0,
    -y <= 0, x <= 1000, y <= 1000 in cyclic order, then, while there are
    fewer than m facets, a cut of the vertex between the first two facets
    a and b by the facet (a + b, kappa_a + kappa_b - delta) inserted between
    them, with delta = 1/3, 1/9, 1/27, ..."""
    facets = [((-1, 0), Fraction(0)), ((0, -1), Fraction(0)),
              ((1, 0), Fraction(1000)), ((0, 1), Fraction(1000))]
    delta = Fraction(1, 3)
    while len(facets) < m:
        (a, kappa_a), (b, kappa_b) = facets[:2]
        facets.insert(1, (tuple(u + v for u, v in zip(a, b)),
                          kappa_a + kappa_b - delta))
        delta /= 3
    return pl.polyhedral_set(2, facets)


def delzant_cone(m):
    """Cone in R^3 over delzant_polygon(m) scaled by the lcm L of its offset
    denominators: the facets (eta, -L * kappa) <= 0. It is good, since two
    adjacent edges of the polygon have conormals of determinant +-1."""
    polygon = delzant_polygon(m)
    scale = math.lcm(*(f.kappa.denominator for f in polygon.facets))
    return pl.polyhedral_set(
        3, [((*f.eta, int(-scale * f.kappa)), 0) for f in polygon.facets],
        kind=pl.CONE)


def kahler_tensors(G, G_inv):
    """J = [[0, -G^-1], [G, 0]] and g = [[G, 0], [0, G^-1]] in the
    (x, theta) frame, the layout `metric` writes, as numpy arrays."""
    G, G_inv = np.array(G), np.array(G_inv)
    zero = np.zeros_like(G)
    return (np.block([[zero, -G_inv], [G, zero]]),
            np.block([[G, zero], [zero, G_inv]]))


def sample_interior(name, rng, count, margin=0.05):
    """Deterministic strictly interior samples for the named fixture."""
    pts = []
    for _ in range(count):
        if name == "f1":
            pts.append(np.array([rng.uniform(margin, 1 - margin)]))
        elif name == "f2":
            while True:
                u, v = rng.uniform(margin, 1, size=2)
                if u + v < 1 - margin:
                    pts.append(np.array([u, v]))
                    break
        elif name == "slab":
            pts.append(np.array([rng.uniform(margin, 1 - margin),
                                 rng.uniform(-3, 3)]))
        elif name == "f3":
            pts.append(np.array([rng.uniform(margin, 5), rng.uniform(-3, 3)]))
        elif name == "f4":
            pts.append(np.array([rng.uniform(margin, 5), rng.uniform(margin, 5)]))
        elif name == "f5":
            while True:
                u, v = rng.uniform(margin, 1, size=2)
                if 2 * u + v < 2 - margin:
                    pts.append(np.array([u, v]))
                    break
        else:
            raise KeyError(name)
    return pts


FIXTURES = {
    "f1": f1,
    "f2": f2,
    "f3": f3,
    "f4": f4,
    "f5": f5,
    "slab": slab,
    "lens": lens_cone,
    "halfspace_r3": halfspace_r3,
    "f5_lift": f5_lift_cone,
}


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens", action="store_true", default=False,
        help="rewrite CLI golden files instead of comparing against them")


@pytest.fixture
def regen_goldens(request):
    return request.config.getoption("--regen-goldens")
