"""Cone classification, Reeb data, induced structures, dilation defect."""

import itertools
import math
import random
import typing
from fractions import Fraction

import numpy as np
import pytest

from toriccut import contactcheck
from toriccut import contactcone as cc
from toriccut import cutmodel as cm
from toriccut import facelattice as fl
from toriccut import intlinalg as il
from toriccut import kahlerpotential as kp
from toriccut import polylattice as pl
from toriccut.errors import (IdentityViolation, NotACone, NotGood, NotInterior,
                             PointOutside, ZeroPoint)

from conftest import (FIXTURES, delzant_cone, determinant, kahler_tensors,
                      orthant)

GOOD_CONES = ["f3", "f4", "lens", "halfspace_r3"]
# pointed good cones for the almost contact metric structure
ACM_CONES = {"f4": FIXTURES["f4"], "lens": FIXTURES["lens"],
             "orthant3": lambda: orthant(3),
             "delzant_cone4": lambda: delzant_cone(4)}


def unit_f4(phi):
    return (math.cos(phi), math.sin(phi))


def unit_lens(s):
    # between the boundary rays (0, 1) and (2, -1)
    v = np.array([2.0 * s, 1.0 - 2.0 * s])
    return tuple(v / np.linalg.norm(v))


def unit(v):
    return tuple(np.asarray(v) / np.linalg.norm(v))


def diag_defect_oracle(x):
    """Closed-form dilation defect for cones whose metric is diagonal:
    the base block contributes c/2 and the angular block
    |c/2/(1+c/2)^2 - 2/(1+c/2)| per coordinate, c = 1/x_i."""
    best = 0.0
    for v in x:
        c = 1.0 / v
        best = max(best, c / 2.0)
        half = c / 2.0
        best = max(best, abs(half / (1.0 + half) ** 2 - 2.0 / (1.0 + half)))
    return best


def rays(p):
    """The extreme rays of a pointed cone by the path `classify` takes:
    read from the covers of the one face enumeration."""
    return cc._rays(fl.active_faces(p), p.n)


def classify(p):
    return cc.classify(p, fl.unimodularity_report(p), fl.convexity_class(p).k)


def ray_program(p):
    """The Reeb-type verdict by exact LP, with its certificate: on a
    pointed cone a vector X with <r, X> >= 1 on every extreme ray r, found
    by one feasibility solve over the rays; otherwise a nonzero integer
    vector of the conormals' kernel, a cone point that pairs to zero with
    every conormal."""
    kernel = il.integer_kernel_basis([list(f.eta) for f in p.facets])
    if kernel:
        return False, tuple(kernel[0])
    cons = [(tuple(-c for c in ray), pl.LE, Fraction(-1)) for ray in rays(p)]
    res = pl.feasible(cons, p.n)
    assert res.feasible, "pointed cone rejected its ray system"
    return True, tuple(res.witness)


def reference_rays(p):
    """Extreme rays by the C(m, n - 1) walk over facet subsets: n - 1
    conormals of rank n - 1 fix a line, spanned by the cofactors of their
    matrix, and each direction of that line that satisfies every
    inequality is a ray."""
    rows = [list(f.eta) for f in p.facets]
    found = set()
    for combo in itertools.combinations(rows, p.n - 1):
        line = [int((-1) ** j * determinant([r[:j] + r[j + 1:]
                                              for r in combo]))
                for j in range(p.n)]
        if not any(line):  # rank below n - 1
            continue
        g = math.gcd(*line)
        direction = tuple(v // g for v in line)
        for cand in (direction, tuple(-v for v in direction)):
            if all(sum(a * b for a, b in zip(eta, cand)) <= 0
                   for eta in rows):
                found.add(cand)
    return tuple(sorted(found))


def random_pointed_cones(count, seed):
    """Cones in R^n, n <= 4, with n to n + 4 conormals drawn from
    [-3, 3]^n that span R^n; some are lower-dimensional or only the apex."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        n = rng.randint(1, 4)
        etas = []
        while len(etas) < rng.randint(n, n + 4):
            eta = [rng.randint(-3, 3) for _ in range(n)]
            if any(eta):
                etas.append(eta)
        if pl.rational_rank(etas) == n:
            cones.append(pl.polyhedral_set(
                n, [(eta, 0) for eta in etas], kind=pl.CONE))
    return cones


@pytest.mark.parametrize("make", [FIXTURES["f4"], FIXTURES["lens"]]
                         + [lambda n=n: orthant(n) for n in range(2, 6)],
                         ids=["f4", "lens"] + [f"orthant{n}"
                                               for n in range(2, 6)])
def test_extreme_rays_match_subset_walk(make):
    p = make()
    assert rays(p) == reference_rays(p)


def test_extreme_rays_match_subset_walk_on_random_cones():
    cones = random_pointed_cones(200, 20261018)
    assert {p.n for p in cones} == {1, 2, 3, 4}
    for p in cones:
        assert rays(p) == reference_rays(p), p


def test_extreme_rays():
    assert rays(FIXTURES["f4"]()) == ((0, 1), (1, 0))
    assert rays(FIXTURES["lens"]()) == ((0, 1), (2, -1))
    half_line = pl.polyhedral_set(1, [((-1,), 0)], kind=pl.CONE)
    assert rays(half_line) == ((1,),)


def test_reeb_type_f4():
    assert ray_program(FIXTURES["f4"]()) == (True, (1, 1))
    assert classify(FIXTURES["f4"]()).reeb_vector == (1, 1)


def test_reeb_type_lens():
    p = FIXTURES["lens"]()
    reeb_type, witness = ray_program(p)
    assert reeb_type
    for ray in rays(p):
        assert sum(a * b for a, b in zip(ray, witness)) >= 1
        assert sum(a * b for a, b in zip(ray, classify(p).reeb_vector)) >= 1


def test_reeb_type_negative_certificates():
    # the certificate of a weakly convex cone is the lineality vector that
    # witnesses every face of the enumeration, with no LP
    for name, lineal in (("f3", (0, 1)), ("halfspace_r3", (0, 1, 0))):
        p = FIXTURES[name]()
        assert ray_program(p) == (False, lineal)
        assert fl.face_witness(p, ()) == lineal
        for f in p.facets:
            assert sum(a * b for a, b in zip(f.eta, lineal)) == 0


def test_reeb_type_requires_good():
    with pytest.raises(NotGood):
        classify(FIXTURES["f5_lift"]())


@pytest.mark.parametrize("name", GOOD_CONES)
def test_ray_program_matches_rank(name):
    p = FIXTURES[name]()
    verdict, _ = ray_program(p)
    assert verdict == (fl.convexity_class(p).k == 0)
    assert verdict == classify(p).k_contact


def test_reeb_vector_values():
    assert classify(FIXTURES["f4"]()).reeb_vector == (1, 1)
    assert classify(FIXTURES["lens"]()).reeb_vector == (2, 2)
    assert classify(FIXTURES["f3"]()).reeb_vector is None


@pytest.mark.parametrize("name", ["f4", "lens"])
def test_reeb_vector_positive_on_rays(name):
    p = FIXTURES[name]()
    vec = classify(p).reeb_vector
    for ray in rays(p):
        assert sum(a * b for a, b in zip(ray, vec)) > 0


def test_classify_f4():
    res = classify(FIXTURES["f4"]())
    assert res.k_contact
    assert res.reeb_vector == (1, 1)
    assert res.type_label == cc.SASAKIAN


def test_classify_weakly_convex():
    res = classify(FIXTURES["f3"]())
    assert not res.k_contact
    assert res.reeb_vector is None
    assert res.type_label == cc.NON_SASAKIAN
    half = classify(FIXTURES["halfspace_r3"]())
    assert half.type_label == cc.NON_SASAKIAN
    assert not half.k_contact


def test_classify_lens_and_failures():
    assert classify(FIXTURES["lens"]()).type_label == cc.SASAKIAN
    with pytest.raises(NotGood):
        classify(FIXTURES["f5_lift"]())
    with pytest.raises(NotACone):
        classify(FIXTURES["f2"]())


def test_contact_point_validation():
    p = FIXTURES["f4"]()
    with pytest.raises(ValueError):
        cc.contact_point(p, (1.0, 1.0))
    with pytest.raises(NotInterior):
        cc.contact_point(p, (1.0, 0.0))
    relaxed = cc.contact_point(p, (1.0, 0.0), strict=False)
    assert relaxed.x == (1.0, 0.0) and relaxed.t == 0.0
    with pytest.raises(PointOutside):
        cc.contact_point(p, (0.6, -0.8), strict=False)
    with pytest.raises(ValueError):
        cc.contact_point(p, (1.0,))


def test_normalize_moment():
    p = FIXTURES["f4"]()
    assert cc.normalize_moment(p, (3, 4)) == (0.6, 0.8)
    assert cc.normalize_moment(FIXTURES["f3"](), (0, 5)) == (0.0, 1.0)
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = rng.uniform(0.1, 5.0, size=2)
        once = cc.normalize_moment(p, v)
        twice = cc.normalize_moment(p, once)
        assert max(abs(a - b) for a, b in zip(once, twice)) < 1e-15
    with pytest.raises(ZeroPoint):
        cc.normalize_moment(p, (0, 0))
    with pytest.raises(PointOutside):
        cc.normalize_moment(p, (-1, 2))


@pytest.mark.parametrize("name,sampler", [
    ("f4", lambda rng: unit_f4(0.05 + rng.uniform() * (math.pi / 2 - 0.1))),
    ("lens", lambda rng: unit_lens(0.05 + 0.9 * rng.uniform())),
    ("orthant3", lambda rng: unit(rng.uniform(0.1, 1.0, size=3))),
])
def test_acm_identities_random_points(name, sampler):
    p = ACM_CONES[name]()
    rng = np.random.default_rng(29)
    for _ in range(20):
        cp = cc.contact_point(p, sampler(rng))
        acm = cc.AlmostContactMetric(
            *map(np.array, cc.induced_acm_structure(p, cp)))
        dim = 2 * p.n - 1
        assert abs(float(acm.alpha @ acm.xi) - 1.0) <= 1e-9
        assert np.max(np.abs(acm.phi @ acm.xi)) <= 1e-9
        assert np.max(np.abs(acm.phi @ acm.phi + np.eye(dim)
                             - np.outer(acm.xi, acm.alpha))) <= 1e-9
        assert np.max(np.abs(acm.phi.T @ acm.metric @ acm.phi
                             - acm.metric
                             + np.outer(acm.alpha, acm.alpha))) <= 1e-9
        assert np.all(np.linalg.eigvalsh(acm.metric) > 0)


def test_acm_fixture_point_compatibility():
    p = FIXTURES["f4"]()
    root_half = math.sqrt(0.5)
    acm = cc.AlmostContactMetric(*map(np.array, cc.induced_acm_structure(
        p, cc.contact_point(p, (root_half, root_half)))))
    rng = np.random.default_rng(41)
    for _ in range(20):
        vec = rng.uniform(-2, 2, size=3)
        lhs = float(vec @ acm.phi.T @ acm.metric @ acm.phi @ vec)
        rhs = float(vec @ acm.metric @ vec) - float(acm.alpha @ vec) ** 2
        assert abs(lhs - rhs) < 1e-9


def reference_acm(p, cp):
    """The structure by the numpy construction that the closed form
    replaced: nu, xi = -J nu and the tangential part of J taken from the
    2n x 2n tensors, with every frame coordinate from a linear solve in the
    basis (frame, nu)."""
    x = np.array([float(v) for v in cp.x]) * math.exp(cp.t)
    data = kp.point_data(p, [x])
    assert data.points.inside == [True]
    j_mat, h = kahler_tensors(data.G[0], data.G_inv[0])
    n = p.n
    nu_x = h[n:, n:] @ x
    nu = np.concatenate([nu_x, np.zeros(n)]) / math.sqrt(float(x @ nu_x))
    xi_amb = -(j_mat @ nu)
    m = int(np.argmax(np.abs(x)))
    cols = []
    for j in range(n):
        if j != m:
            col = np.zeros(2 * n)
            col[j], col[m] = x[m], -x[j]
            cols.append(col)
    cols += [np.eye(2 * n)[n + j] for j in range(n)]
    frame = np.column_stack(cols)
    basis = np.column_stack([frame, nu])
    phi_cols = []
    for k in range(2 * n - 1):
        image = j_mat @ frame[:, k]
        image = image - float(image @ (h @ nu)) * nu
        phi_cols.append(np.linalg.solve(basis, image)[:-1])
    return cc.AlmostContactMetric(
        frame.T @ (h @ xi_amb), np.linalg.solve(basis, xi_amb)[:-1],
        np.column_stack(phi_cols), frame.T @ h @ frame, frame)


@pytest.mark.parametrize("name", sorted(ACM_CONES))
def test_acm_matches_numpy_reference(name):
    # every field within 1e-12 of its largest entry (at least 1): over the
    # Delzant square the entries of G reach ~1e6
    p = ACM_CONES[name]()
    generators = np.array(rays(p), dtype=float)
    rng = np.random.default_rng(53)
    for _ in range(25):
        x = unit(rng.uniform(0.1, 1.0, size=len(generators)) @ generators)
        cp = cc.contact_point(p, x, rng.uniform(0, 2 * math.pi, size=p.n),
                              t=rng.uniform(-0.5, 0.5))
        for field, got, want in zip(cc.AlmostContactMetric._fields,
                                    cc.induced_acm_structure(p, cp),
                                    reference_acm(p, cp)):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * scale, \
                (field, x)


def test_float_type_hints_resolve():
    hints = typing.get_type_hints(cc.AlmostContactMetric)
    assert set(hints) == set(cc.AlmostContactMetric._fields)
    assert (typing.get_type_hints(cm._reduce_theta)["return"]
            == tuple[float, ...])


def test_acm_needs_interior():
    p = FIXTURES["f4"]()
    cp = cc.contact_point(p, (1.0, 0.0), strict=False)
    with pytest.raises(NotInterior):
        cc.induced_acm_structure(p, cp)
    with pytest.raises(NotInterior):
        cc.cone_metric_defect(p, cp)


def delzant_unit_points(m, count):
    """delzant_cone(m) and count random points of its unit level: positive
    combinations of its extreme rays with random.Random(m) weights."""
    p = delzant_cone(m)
    rays = cc._rays(fl.unimodularity_report(p).covers, p.n)
    rng = random.Random(m)
    points = []
    for _ in range(count):
        weights = [rng.random() for _ in rays]
        x = [sum(w * ray[j] for w, ray in zip(weights, rays))
             for j in range(p.n)]
        points.append([v / math.hypot(*x) for v in x])
    return p, points


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_acm_checks_scale_with_thin_cones(m):
    # the entries of G grow like 1/slack; an absolute tolerance of 1e-9
    # raised on up to 11 of these 20 points per cone
    p, points = delzant_unit_points(m, 20)
    for x in points:
        acm = cc.induced_acm_structure(p, cc.contact_point(p, x))
        assert len(acm.phi) == 2 * p.n - 1


@pytest.mark.parametrize("m", [4, 8])
def test_acm_checks_catch_a_perturbed_phi(m):
    # every nonzero entry of phi, off by 1e-8 relative, fails a check
    p, points = delzant_unit_points(m, 3)
    for x in points:
        x, g, g_inv = cc._hessians(p, cc.contact_point(p, x))
        acm, orth = cc._closed_form(x, g, g_inv)
        size = cc._closed_form(*contactcheck.magnitudes(x, g, g_inv),
                               contactcheck.sqrt)
        contactcheck.verify_structure((acm, orth), size)
        for i, row in enumerate(acm.phi):
            for j in (j for j, v in enumerate(row) if v):
                phi = [list(r) for r in acm.phi]
                phi[i][j] *= 1 + 1e-8
                with pytest.raises(IdentityViolation, match="entry"):
                    contactcheck.verify_structure(
                        (acm._replace(phi=phi), orth), size)


def test_magnitude_arithmetic():
    a, b = (contactcheck.Magnitude(abs(v), v) for v in (2.0, -3.0))
    results = [a - b, 1.0 - a, -a, a * -4.0, -4.0 * a, a / -4.0, 0.0 + a,
               a / b, contactcheck.sqrt(a * a)]
    assert [(float(v), v.value) for v in results] == [
        (5.0, 5.0), (3.0, -1.0), (2.0, -2.0), (8.0, -8.0), (8.0, -8.0),
        (1.0, -0.5), (2.0, 2.0), (4.0 / 3.0, 2.0 / -3.0), (4.0, 2.0)]
    assert all(type(v) is contactcheck.Magnitude for v in results)


def test_acm_checks_count_a_cancelling_denominator():
    # G = d I + v v^T with signs mixed in v: <x, G^-1 x> is up to ~10^4
    # times smaller than the sum of the magnitudes of its terms, and the
    # quotients by it and by its root carry that relative error
    rng = random.Random(3)
    worst = 0.0
    for _ in range(300):
        n = rng.randint(2, 5)
        d = 10 ** rng.uniform(-9, -1)
        v = [rng.choice([1, -1]) * rng.uniform(0.5, 1) for _ in range(n)]
        g = [[float(a == b) * d + v[a] * v[b] for b in range(n)]
             for a in range(n)]
        x = [rng.uniform(0.1, 1) for _ in range(n)]
        g_inv = kp.hessian_metric_inverse([g])[0]
        inputs = contactcheck.magnitudes(x, g, g_inv)
        size = cc._closed_form(*inputs, contactcheck.sqrt)
        s_sq = sum(a * b * c for a, row in zip(*inputs[::2])
                   for b, c in zip(row, inputs[0]))
        worst = max(worst, float(s_sq) / s_sq.value)
        contactcheck.verify_structure(cc._closed_form(x, g, g_inv), size)
    assert worst > 1e4


def central_difference_defect(p, cp, step=1e-5):
    """The dilation defect by central differences in t: the max-abs entry
    of the derivative of diag(e^2t G(e^t x), G(e^t x)^-1) at t = 0 minus
    twice the metric."""
    base_x = np.array([float(v) for v in cp.x]) * math.exp(cp.t)
    times = (step, -step, 0.0)
    scales = np.array([math.exp(tv) for tv in times])[:, None]
    g_small = kp.hessian_metric(kp.interior_point(p, scales * base_x))
    pulled = np.zeros((len(times), 2 * p.n, 2 * p.n))
    pulled[:, :p.n, :p.n] = (np.array([math.exp(2.0 * tv) for tv in times])
                             [:, None, None] * g_small)
    pulled[:, p.n:, p.n:] = kp.hessian_metric_inverse(g_small)
    derivative = (pulled[0] - pulled[1]) / (2.0 * step)
    return float(np.max(np.abs(derivative - 2.0 * pulled[2])))


@pytest.mark.parametrize("name,x,t", [
    ("f4", unit_f4(0.3), 0.0),
    ("f4", unit_f4(1.1), 0.4),
    ("f4", unit_f4(0.05), -0.7),
    ("lens", unit_lens(0.4), 0.0),
    ("lens", unit_lens(0.1), 0.3),
    ("lens", unit_lens(0.85), -0.5),
])
def test_cone_defect_matches_central_differences(name, x, t):
    p = FIXTURES[name]()
    cp = cc.contact_point(p, x, t=t)
    closed = cc.cone_metric_defect(p, cp)
    assert abs(closed - central_difference_defect(p, cp)) <= 1e-9 * closed


def test_cone_defect_f4_fixture():
    p = FIXTURES["f4"]()
    root_half = math.sqrt(0.5)
    cp = cc.contact_point(p, (root_half, root_half))
    value = cc.cone_metric_defect(p, cp)
    assert abs(value - 0.9289321881345247) < 1e-8
    assert abs(value - diag_defect_oracle([root_half, root_half])) < 1e-8
    assert value > 0.1


def test_cone_defect_scaled_point_stays_positive():
    p = FIXTURES["f4"]()
    root_half = math.sqrt(0.5)
    cp = cc.contact_point(p, (root_half, root_half), t=0.4)
    value = cc.cone_metric_defect(p, cp)
    scaled = [math.exp(0.4) * root_half] * 2
    assert abs(value - diag_defect_oracle(scaled)) < 1e-8
    assert value > 0


def test_cone_defect_lens_positive():
    p = FIXTURES["lens"]()
    value = cc.cone_metric_defect(p, cc.contact_point(p, unit_lens(0.4)))
    assert value > 0.1
