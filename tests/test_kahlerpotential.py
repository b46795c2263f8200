import numpy as np
import pytest
from mpmath import mp, mpf, log as mplog

from toriccut import kahlerpotential as kp
from toriccut import polylattice as pl
from toriccut.errors import NoConvergence, NotInterior, NotSPD

from conftest import f1, f2, f3, f4, sample_interior, slab

mp.dps = 40


def mp_symplectic(p, x):
    """High-precision oracle for the potential, straight from the formula."""
    xs = [mpf(float(v)) for v in np.atleast_1d(x)]
    total = sum(v * v for v in xs) / 2
    for f in p.facets:
        l = mpf(f.kappa.numerator) / f.kappa.denominator - sum(
            e * v for e, v in zip(f.eta, xs))
        total += l * mplog(l) / 2 - l / 2
    return float(total)


def fd_gradient(fun, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        hp = h * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = hp
        out[i] = (fun(x + e) - fun(x - e)) / (2 * hp)
    return out


def fd_hessian(fun, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        hi = h * max(1.0, abs(x[i]))
        for j in range(n):
            hj = h * max(1.0, abs(x[j]))
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = hi
            ej[j] = hj
            out[i, j] = (
                fun(x + ei + ej) - fun(x + ei - ej)
                - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4 * hi * hj)
    return out


class TestInteriorPoint:
    def test_f1_midpoint(self):
        pt = kp.interior_point(f1(), [0.5])
        assert np.allclose(pt.l_values, [0.5, 0.5])
        assert pt.l_infinity == 1.0

    def test_boundary_rejected(self):
        with pytest.raises(NotInterior, match="facet 2"):
            kp.interior_point(f1(), [1.0])
        with pytest.raises(NotInterior, match="facet 1"):
            kp.interior_point(f1(), [0.0])

    def test_margin_guard(self):
        with pytest.raises(NotInterior):
            kp.interior_point(f1(), [1e-13])

    def test_outside(self):
        with pytest.raises(NotInterior):
            kp.interior_point(f2(), [0.9, 0.9])
        for bad in ([float("nan"), 0.5], [float("inf"), 0.1]):
            with pytest.raises(NotInterior):
                kp.interior_point(f2(), bad)


class TestPotentials:
    def test_frozen_values(self):
        pt = kp.interior_point(f1(), [0.5])
        assert kp.symplectic_potential(pt) == pytest.approx(
            -0.7215735902799727, abs=1e-12)
        assert kp.guillemin_potential(pt) == pytest.approx(
            -0.8465735902799727, abs=1e-12)
        pt = kp.interior_point(f1(), [0.25])
        assert kp.symplectic_potential(pt) == pytest.approx(
            -0.7499175723094041, abs=1e-12)
        pt = kp.interior_point(f2(), [1 / 3, 1 / 3])
        assert kp.symplectic_potential(pt) == pytest.approx(
            -0.9381950332229437, abs=1e-12)
        assert kp.guillemin_potential(pt) == pytest.approx(
            -1.0493061443340548, abs=1e-12)

    def test_against_mpmath(self):
        rng = np.random.default_rng(7)
        for name, fix in (("f1", f1), ("f2", f2), ("slab", slab), ("f4", f4)):
            p = fix()
            for x in sample_interior(name, rng, 10):
                pt = kp.interior_point(p, x)
                assert kp.symplectic_potential(pt) == pytest.approx(
                    mp_symplectic(p, x), rel=1e-13, abs=1e-13)

    def test_difference_is_kinetic_term(self):
        rng = np.random.default_rng(8)
        p = f2()
        for x in sample_interior("f2", rng, 5):
            pt = kp.interior_point(p, x)
            diff = kp.symplectic_potential(pt) - kp.guillemin_potential(pt)
            assert diff == pytest.approx(0.5 * float(x @ x), abs=1e-14)


class TestHessianMetric:
    def test_frozen_values(self):
        assert np.allclose(
            kp.hessian_metric(kp.interior_point(f1(), [0.5])), [[3.0]], atol=1e-14)
        assert np.allclose(
            kp.hessian_metric(kp.interior_point(f1(), [0.25])), [[11 / 3]],
            atol=1e-14)
        g = kp.hessian_metric(kp.interior_point(f2(), [1 / 3, 1 / 3]))
        assert np.allclose(g, [[4.0, 1.5], [1.5, 4.0]], atol=1e-13)

    def test_inverse_frozen(self):
        g = kp.hessian_metric(kp.interior_point(f2(), [1 / 3, 1 / 3]))
        ginv = kp.hessian_metric_inverse(g)
        expected = np.array([[16 / 55, -6 / 55], [-6 / 55, 16 / 55]])
        assert np.allclose(ginv, expected, atol=1e-13)

    def test_inverse_residual(self):
        rng = np.random.default_rng(9)
        for name, fix in (("f2", f2), ("f4", f4)):
            p = fix()
            for x in sample_interior(name, rng, 10):
                g = kp.hessian_metric(kp.interior_point(p, x))
                ginv = kp.hessian_metric_inverse(g)
                assert np.max(np.abs(g @ ginv - np.eye(p.n))) < 1e-10

    def test_not_spd(self):
        with pytest.raises(NotSPD):
            kp.hessian_metric_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_fd_hessian_of_potential(self):
        rng = np.random.default_rng(10)
        p = f2()

        def fun(x):
            return kp.symplectic_potential(kp.interior_point(p, x))

        for x in sample_interior("f2", rng, 5):
            g = kp.hessian_metric(kp.interior_point(p, x))
            fd = fd_hessian(fun, x)
            assert np.max(np.abs(fd - g)) / np.max(np.abs(g)) < 1e-4

    def test_guillemin_hessian_degenerate(self):
        # weakly convex data: the log part of the Hessian has an exact kernel
        rng = np.random.default_rng(11)
        for name, fix in (("f3", f3), ("slab", slab)):
            p = fix()
            for x in sample_interior(name, rng, 5):
                pt = kp.interior_point(p, x)
                log_part = kp.hessian_metric(pt) - np.eye(p.n)
                eigs = np.linalg.eigvalsh(log_part)
                assert eigs[0] / max(1.0, eigs[-1]) < 1e-8


class TestOneCut:
    def test_examples(self):
        assert np.allclose(kp.one_cut_inverse([1], 0.5), [[0.5]], atol=1e-15)
        assert np.allclose(
            kp.one_cut_inverse([1, 0], 0.5), [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)
        assert np.allclose(
            kp.one_cut_inverse([1, 1], 1.0),
            [[0.75, -0.25], [-0.25, 0.75]], atol=1e-15)

    def test_matches_numeric_inverse(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = rng.integers(1, 6)
            eta = rng.integers(-4, 5, size=n)
            while not np.any(eta):
                eta = rng.integers(-4, 5, size=n)
            l = float(rng.uniform(0.1, 4.0))
            g = np.eye(n) + np.outer(eta, eta) / (2 * l)
            direct = np.linalg.inv(g)
            assert np.max(np.abs(kp.one_cut_inverse(eta, l) - direct)) < 1e-12

    def test_scalar_prefactor_discrepancy(self):
        # for eta = (1) the computed inverse is 2l/(2l+1); the naive
        # prefactor l/(l+1) differs and must not be reproduced
        for l in (0.5, 1.0, 2.0):
            computed = kp.one_cut_inverse([1], l)[0, 0]
            assert computed == pytest.approx(2 * l / (2 * l + 1), abs=1e-15)
            assert abs(computed - l / (l + 1)) > 0.01


class TestLegendre:
    def test_frozen_values(self):
        assert np.allclose(
            kp.legendre_map(kp.interior_point(f1(), [0.5])), [0.5], atol=1e-15)
        assert np.allclose(
            kp.legendre_map(kp.interior_point(f1(), [0.25])),
            [-0.29930614433405484], atol=1e-14)
        assert np.allclose(
            kp.legendre_map(kp.interior_point(f2(), [1 / 3, 1 / 3])),
            [1 / 3, 1 / 3], atol=1e-14)

    def test_fd_gradient_of_potential(self):
        rng = np.random.default_rng(13)
        p = f2()

        def fun(x):
            return kp.symplectic_potential(kp.interior_point(p, x))

        for x in sample_interior("f2", rng, 5):
            grad = kp.legendre_map(kp.interior_point(p, x))
            fd = fd_gradient(fun, x)
            assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-6

    def test_invert_fixed_point(self):
        res = kp.invert_legendre(f1(), [0.5])
        assert np.allclose(res.point.x, [0.5], atol=1e-12)
        assert res.iterations == 0
        res = kp.invert_legendre(f2(), [1 / 3, 1 / 3])
        assert np.allclose(res.point.x, [1 / 3, 1 / 3], atol=1e-12)

    def test_invert_roundtrip(self):
        rng = np.random.default_rng(14)
        for name, fix in (("f1", f1), ("f2", f2)):
            p = fix()
            for _ in range(20):
                y = rng.uniform(-10, 10, size=p.n)
                res = kp.invert_legendre(p, y)
                image = kp.legendre_map(res.point)
                assert np.max(np.abs(image - y)) < 1e-8

    def test_invert_quadrant(self):
        res = kp.invert_legendre(f4(), [0.0, 0.0])
        # root of x + log(x)/2 = 0 in each coordinate
        assert np.allclose(res.point.x, [0.4263027509962124] * 2, atol=1e-9)

    def test_monotonicity(self):
        # gradient of a strictly convex function is a monotone map
        rng = np.random.default_rng(15)
        p = f2()
        for _ in range(50):
            a, b = sample_interior("f2", rng, 2)
            ga = kp.legendre_map(kp.interior_point(p, a))
            gb = kp.legendre_map(kp.interior_point(p, b))
            assert (ga - gb) @ (a - b) > 0

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            kp.invert_legendre(f1(), [5.0], max_iter=1)


class TestBlockTensors:
    def test_f1_frozen(self):
        omega, jmat, metric = kp.block_tensors(kp.interior_point(f1(), [0.5]))
        assert np.allclose(omega, [[0, 1], [-1, 0]], atol=1e-15)
        assert np.allclose(jmat, [[0, -1 / 3], [3, 0]], atol=1e-14)
        assert np.allclose(metric, [[3, 0], [0, 1 / 3]], atol=1e-14)

    def test_compatibility(self):
        rng = np.random.default_rng(16)
        for name, fix in (("f1", f1), ("f2", f2), ("slab", slab), ("f4", f4)):
            p = fix()
            for x in sample_interior(name, rng, 5):
                pt = kp.interior_point(p, x)
                omega, jmat, metric = kp.block_tensors(pt)
                dim = 2 * p.n
                assert np.max(np.abs(jmat @ jmat + np.eye(dim))) < 1e-10
                assert np.max(np.abs(metric - omega @ jmat)) < 1e-10
                assert np.max(np.abs(jmat.T @ omega @ jmat - omega)) < 1e-10
                eigs = np.linalg.eigvalsh(metric)
                assert eigs[0] > 0
