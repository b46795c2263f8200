"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
enforces the stated tolerance exactly; helpers here recompute reference
values independently of the library code under test.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from toriccut import contactcone as cc
from toriccut import cutmodel as cm
from toriccut import facelattice as fl
from toriccut import intlinalg as il
from toriccut import kahlerpotential as kp
from toriccut import polylattice as pl
from toriccut.errors import NotGood

from conftest import FIXTURES, kahler_tensors, sample_interior, section
from test_cli import GOLDEN_CASES, resolve, run_cli

GOLDEN = Path(__file__).parent / "golden"

SAMPLE_NAMES = ("f1", "f2", "slab", "f4")


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(20240811)
    return {name: sample_interior(name, rng, 50) for name in SAMPLE_NAMES}


def sp_value(p, x):
    return kp.symplectic_potential(kp.interior_point(p, [x]).require_all())[0]


def fd_gradient(p, x, h=1e-6):
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (sp_value(p, x + e) - sp_value(p, x - e)) / (2 * h)
    return out


def fd_hessian(p, x, h=1e-4):
    n = len(x)
    out = np.empty((n, n))
    f0 = sp_value(p, x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (sp_value(p, x + ei) - 2 * f0 + sp_value(p, x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (sp_value(p, x + ei + ej) - sp_value(p, x + ei - ej)
                     - sp_value(p, x - ei + ej)
                     + sp_value(p, x - ei - ej)) / (4 * h**2)
            out[i, j] = out[j, i] = mixed
    return out


def test_c01_finite_difference_consistency(samples):
    with criterion("C01 finite differences of the potential match the "
                   "metric and moment gradient"):
        start = time.perf_counter()
        for name in SAMPLE_NAMES:
            p = FIXTURES[name]()
            pts = kp.interior_point(p, samples[name]).require_all()
            for x, G, gtilde in zip(samples[name], kp.hessian_metric(pts),
                                    kp.legendre_map(pts)):
                H = fd_hessian(p, x)
                assert np.max(np.abs(H - G)) <= 1e-4 * np.max(np.abs(G))
                grad = fd_gradient(p, x)
                assert np.max(np.abs(grad - gtilde)) <= 1e-6
        assert time.perf_counter() - start < 5.0


def test_c02_complex_structure_compatibility(samples):
    with criterion("C02 complex structure, metric, and form are mutually "
                   "compatible"):
        start = time.perf_counter()
        for name in SAMPLE_NAMES:
            p = FIXTURES[name]()
            data = kp.point_data(p, samples[name])
            assert all(data.points.inside)
            eye = np.eye(2 * p.n)
            zero, unit = np.zeros((p.n, p.n)), np.eye(p.n)
            omega = np.block([[zero, unit], [-unit, zero]])
            for J, g in map(kahler_tensors, data.G, data.G_inv):
                assert np.max(np.abs(J @ J + eye)) < 1e-10
                # the sign convention here pairs dx before dtheta, which
                # makes the compatible product come out as +omega.J
                assert np.max(np.abs(g - omega @ J)) < 1e-10
                assert np.max(np.abs(J.T @ omega @ J - omega)) < 1e-10
                assert np.max(np.abs(g - g.T)) < 1e-10
                assert np.min(np.linalg.eigvalsh(g)) > 0
        assert time.perf_counter() - start < 1.0


def test_c03_legendre_map_onto_and_monotone():
    with criterion("C03 moment Legendre map reaches every target and has "
                   "monotone gradient"):
        start = time.perf_counter()
        rng = np.random.default_rng(907)
        f1 = FIXTURES["f1"]()
        for y in rng.uniform(-10.0, 10.0, size=100):
            result = kp.invert_legendre(f1, [y])
            assert result.residual < 1e-8
        f2 = FIXTURES["f2"]()
        for _ in range(100):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = 10.0 * math.sqrt(rng.uniform())
            y = [radius * math.cos(angle), radius * math.sin(angle)]
            result = kp.invert_legendre(f2, y)
            assert result.residual < 1e-8
        for name in ("f1", "f2"):
            p = FIXTURES[name]()
            a = sample_interior(name, rng, 100)
            b = sample_interior(name, rng, 100)
            ga = kp.legendre_map(kp.interior_point(p, a).require_all())
            gb = kp.legendre_map(kp.interior_point(p, b).require_all())
            for x, xp, diff in zip(a, b, np.subtract(ga, gb)):
                if np.array_equal(x, xp):
                    continue
                assert float(diff @ (x - xp)) > 0
        assert time.perf_counter() - start < 5.0


def test_c04_barycenter_fixed_point():
    with criterion("C04 simplex barycenter is a fixed point of the "
                   "Legendre map"):
        f1 = FIXTURES["f1"]()
        bary1 = np.array([0.5])
        out1 = kp.legendre_map(kp.interior_point(f1, [bary1]))[0]
        assert np.max(np.abs(out1 - bary1)) <= 1e-12
        f2 = FIXTURES["f2"]()
        bary2 = np.array([1.0 / 3.0, 1.0 / 3.0])
        out2 = kp.legendre_map(kp.interior_point(f2, [bary2]))[0]
        assert np.max(np.abs(out2 - bary2)) <= 1e-12


def test_c05_one_cut_inverse_closed_form():
    with criterion("C05 single-facet closed-form inverse matches numeric "
                   "inversion"):
        rng = np.random.default_rng(551)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            eta = rng.integers(-5, 6, size=n)
            while not eta.any():
                eta = rng.integers(-5, 6, size=n)
            l = float(rng.uniform(0.1, 3.0))
            closed = kp.one_cut_inverse(tuple(int(v) for v in eta), l)
            G = np.eye(n) + np.outer(eta, eta) / (2.0 * l)
            assert np.max(np.abs(closed - np.linalg.inv(G))) <= 1e-12
        # scalar case: the inverse entry is 2l/(2l+1); the superficially
        # similar l/(l+1) is not the inverse of 1 + 1/(2l)
        for l in (0.5, 1.0, 2.0):
            scalar = kp.one_cut_inverse((1,), l)[0][0]
            assert abs(scalar - 2 * l / (2 * l + 1)) <= 1e-15
            assert abs(scalar - l / (l + 1)) > 0.01


def _minor_gcd_saturated(rows):
    mat = sympy.Matrix(rows)
    r, n = len(rows), len(rows[0])
    if mat.rank() != r:
        return False
    value = 0
    for cols in itertools.combinations(range(n), r):
        minor = int(mat[:, list(cols)].det())
        value = math.gcd(value, abs(minor))
        if value == 1:
            return True
    return value == 1


def test_c06_saturation_oracle_and_fixture_verdicts():
    with criterion("C06 saturation check agrees with minor-gcd brute force "
                   "and fixture verdicts"):
        rng = np.random.default_rng(663)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            r = int(rng.integers(1, n + 1))
            rows = [[int(v) for v in rng.integers(-4, 5, size=n)]
                    for _ in range(r)]
            if any(not any(row) for row in rows):
                continue
            assert ((il.lattice_rank_index(rows) == (len(rows), 1))
                    == _minor_gcd_saturated(rows))
        assert fl.unimodularity_report(FIXTURES["f1"]()).is_unimodular
        assert fl.unimodularity_report(FIXTURES["f2"]()).is_unimodular
        rep5 = fl.unimodularity_report(FIXTURES["f5"]())
        assert not rep5.is_unimodular
        assert not rep5.saturated_faces
        assert tuple(rep5.saturated_witness) == (2, 3)


def test_c07_weakly_convex_splitting():
    with criterion("C07 weakly convex sets split off exact line factors"):
        for name in ("f3", "slab"):
            p = FIXTURES[name]()
            split = fl.split_weakly_convex(p)
            assert split.k == 1
            proj = split.projected_set
            assert fl.convexity_class(proj).label == "strongly_convex"
            assert fl.unimodularity_report(proj).is_unimodular
            change = split.unimodular_change
            for f in p.facets:
                moved = [sum(change[r][c] * f.eta[c] for c in range(p.n))
                         for r in range(p.n)]
                assert all(v == 0 for v in moved[p.n - split.k:])


def test_c08_cone_classification():
    with criterion("C08 cone classification with Reeb vectors and type "
                   "agreement"):
        def classify(name):
            p = FIXTURES[name]()
            return cc.classify(p, fl.unimodularity_report(p),
                               fl.convexity_class(p).k)

        def rays(p):
            return cc._rays(fl.active_faces(p), p.n)

        def ray_lp_verdict(p):
            # some X pairs to >= 1 with every extreme ray; a cone with a
            # line has no rays to pair, and a kernel vector of its
            # conormals refutes positivity
            if pl.rational_rank([list(f.eta) for f in p.facets]) < p.n:
                return False
            return pl.feasible([(tuple(-c for c in ray), pl.LE, -1)
                                for ray in rays(p)], p.n).feasible

        f4 = FIXTURES["f4"]()
        cls4 = classify("f4")
        assert cls4.type_label == "sasakian_type"
        assert cls4.reeb_vector == (1, 1)
        for ray in rays(f4):
            assert sum(a * b for a, b in zip(ray, cls4.reeb_vector)) > 0
        assert classify("lens").type_label == "sasakian_type"
        assert classify("f3").type_label == "non_sasakian_type"
        assert classify("halfspace_r3").type_label == "non_sasakian_type"
        for name in ("f3", "f4", "lens", "halfspace_r3"):
            p = FIXTURES[name]()
            lp_verdict = ray_lp_verdict(p)
            assert lp_verdict == (fl.convexity_class(p).k == 0)
            assert lp_verdict == classify(name).k_contact
        with pytest.raises(NotGood):
            classify("f5_lift")


def _circ_close(a, b, tol=1e-9):
    d = abs(float(a) - float(b)) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol


def test_c09_gauge_invariance_and_kernel():
    with criterion("C09 canonical representative is gauge invariant and "
                   "round-trips the embedding"):
        rng = np.random.default_rng(911)
        for name in ("f1", "f2", "slab"):
            p = FIXTURES[name]()
            etas = np.array([f.eta for f in p.facets], dtype=float)
            for x in sample_interior(name, rng, 2):
                theta = rng.uniform(0.0, 2.0 * math.pi, size=p.n)
                base = section(p, x, theta)
                ref = cm.canonical_representative(p, base)
                for _ in range(50):
                    t = rng.uniform(-8.0, 8.0, size=len(p.facets))
                    moved = cm.ambient_point(
                        base.x, np.array(base.theta) + t @ etas,
                        [zv * complex(math.cos(tv), math.sin(tv))
                         for zv, tv in zip(base.z, t)])
                    rep = cm.canonical_representative(p, moved)
                    assert rep.x == ref.x
                    assert rep.active == ref.active
                    assert all(_circ_close(a, b)
                               for a, b in zip(rep.theta, ref.theta))
            for x in sample_interior(name, rng, 20):
                theta = rng.uniform(0.0, 2.0 * math.pi, size=p.n)
                rep = cm.canonical_representative(p, section(p, x, theta))
                assert rep.x == tuple(x)
                assert all(_circ_close(a, b)
                           for a, b in zip(rep.theta, theta))
        kernel = cm.delzant_kernel(FIXTURES["f2"]())
        assert kernel.kernel_basis == ((1, 1, 1),)


def _unit_in_cone(name, rng):
    if name == "f4":
        phi = rng.uniform(0.05, math.pi / 2 - 0.05)
        return (math.cos(phi), math.sin(phi))
    lo = math.atan2(-1.0, 2.0)
    hi = math.pi / 2
    phi = lo + rng.uniform(0.05, 0.95) * (hi - lo)
    return (math.cos(phi), math.sin(phi))


def test_c10_almost_contact_identities_and_defect():
    with criterion("C10 hypersurface almost contact identities hold and "
                   "the metric is not a cone metric"):
        rng = np.random.default_rng(1013)
        for name in ("f4", "lens"):
            p = FIXTURES[name]()
            for _ in range(20):
                x = _unit_in_cone(name, rng)
                theta = rng.uniform(0.0, 2.0 * math.pi, size=p.n)
                acm = cc.AlmostContactMetric(*map(
                    np.array, cc.induced_acm_structure(
                        p, cc.contact_point(p, x, theta))))
                dim = len(acm.xi)
                eye = np.eye(dim)
                assert abs(acm.alpha @ acm.xi - 1.0) <= 1e-9
                assert np.max(np.abs(acm.phi @ acm.xi)) <= 1e-9
                assert np.max(np.abs(
                    acm.phi @ acm.phi + eye
                    - np.outer(acm.xi, acm.alpha))) <= 1e-9
                assert np.max(np.abs(
                    acm.phi.T @ acm.metric @ acm.phi
                    - acm.metric + np.outer(acm.alpha, acm.alpha))) <= 1e-9
        f4 = FIXTURES["f4"]()
        r = math.sqrt(0.5)
        defect = cc.cone_metric_defect(f4, cc.contact_point(f4, (r, r)))
        assert defect > 0.1


def test_c11_cli_determinism_and_exit_codes():
    with criterion("C11 CLI output is byte-identical across runs and the "
                   "exit-code contract holds"):
        data = Path(__file__).parent / "data"
        for name, argv, expected in GOLDEN_CASES:
            first = run_cli(resolve(argv))
            second = run_cli(resolve(argv))
            assert first == second
            assert first[0] == expected
            stored = (GOLDEN / name).read_text(encoding="utf-8")
            assert first[1] == stored
        assert run_cli(["validate", str(data / "f1.json")])[0] == 0
        assert run_cli(["validate", str(data / "bad_truncated.json")])[0] == 2
        assert run_cli(["validate", str(data / "f5.json")])[0] == 3
        assert run_cli(["invert", str(data / "f1_maxiter1.json"),
                        "--target", "40.0"])[0] == 5
