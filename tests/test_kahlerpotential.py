import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, log as mplog

from toriccut import kahlerpotential as kp
from toriccut import polylattice as pl
from toriccut.errors import NoConvergence, NotInterior, NotSPD

from conftest import (cube, f1, f2, f3, f4, f5, kahler_tensors, random_set,
                      sample_interior, slab)

mp.dps = 40


def one(p, x):
    """A one-row batch at x, all of it interior."""
    return kp.interior_point(p, [x]).require_all()


def mp_symplectic(p, x):
    """High-precision oracle for the potential, straight from the formula."""
    xs = [mpf(float(v)) for v in np.atleast_1d(x)]
    total = sum(v * v for v in xs) / 2
    for f in p.facets:
        l = mpf(f.kappa.numerator) / f.kappa.denominator - sum(
            e * v for e, v in zip(f.eta, xs))
        total += l * mplog(l) / 2 - l / 2
    return float(total)


def mp_gradient_error(p, res, y):
    """Largest entry of |legendre_map - y| at an inversion's solution, in
    50 digits: the slacks of the chart's facets are e^log_slacks, the
    others exact at the float x."""
    chart = dict(zip(res.chart_facets, res.log_slacks))
    with mp.workdps(50):
        logs = []
        for j, f in enumerate(p.facets):
            l = f.kappa - sum(e * Fraction(v) for e, v in zip(f.eta, res.x))
            assert j in chart or l > 0
            logs.append(mpf(chart[j]) if j in chart
                        else mplog(mpf(l.numerator) / l.denominator))
        return float(max(
            abs(mpf(res.x[c]) - sum(lg * f.eta[c]
                                    for lg, f in zip(logs, p.facets)) / 2
                - y[c]) for c in range(p.n)))


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
        pt = kp.interior_point(f1(), [[0.5]])
        assert pt.l_values == [[0.5], [0.5]]
        assert pt.l_infinity == [1.0]

    def test_boundary_rejected(self):
        with pytest.raises(NotInterior, match="facet 2"):
            one(f1(), [1.0])
        with pytest.raises(NotInterior, match="facet 1"):
            one(f1(), [0.0])

    def test_margin_guard(self):
        with pytest.raises(NotInterior):
            one(f1(), [1e-13])

    def test_outside(self):
        with pytest.raises(NotInterior):
            one(f2(), [0.9, 0.9])
        for bad in ([float("nan"), 0.5], [float("inf"), 0.1]):
            with pytest.raises(NotInterior):
                one(f2(), bad)

    def test_rows_outside_are_masked(self):
        pts = kp.interior_point(f1(), [[0.5], [1.0], [0.25], [-0.5],
                                       [float("nan")]])
        assert pts.inside == [True, False, True, False, False]
        # the interior rows are held by column
        assert pts.x == [[0.5, 0.25]]
        assert pts.l_values == [[0.5, 0.25], [0.5, 0.75]]
        assert str(pts.rejection(1)) == "facet 2 slack 0.000e+00 below margin"
        assert str(pts.rejection(3)) == "facet 1 slack -5.000e-01 below margin"
        assert str(pts.rejection(4)) == "facet 1 slack nan below margin"
        with pytest.raises(NotInterior, match="facet 2"):
            pts.require_all()

    def test_nan_and_inf_rows_masked_without_warning(self):
        nan, inf = float("nan"), float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = kp.interior_point(f2(), [[0.25, 0.25], [nan, 0.5],
                                           [inf, 0.1], [-inf, 0.1],
                                           [inf, -inf], [0.5, 0.25]])
        assert pts.inside == [True, False, False, False, False, True]
        assert pts.x == [[0.25, 0.5], [0.25, 0.25]]
        # inf * 0 in a product makes the slack NaN, and the first NaN facet
        # is the one named
        assert [str(pts.rejection(row)) for row in (1, 2, 3, 4)] == [
            f"facet {i} slack nan below margin" for i in (1, 2, 2, 1)]

    def test_batch_shape_checked(self):
        for bad in ([0.5], [[0.5, 0.5]], [[[0.5]]]):
            with pytest.raises(ValueError):
                kp.interior_point(f1(), bad)
        empty = kp.interior_point(f2(), np.zeros((0, 2)))
        assert empty.x == [[], []] and empty.inside == []
        assert kp.symplectic_potential(empty) == []
        assert kp.legendre_map(empty) == []
        assert kp.hessian_metric(empty) == []


def reference_inverse(g):
    """G^-1 of each matrix of a stack by the per-matrix Cholesky loop that
    the column version replaced."""
    out = []
    for matrix in g:
        n = len(matrix)
        low = [[0.0] * n for _ in range(n)]
        for j in range(n):
            for i in range(j, n):
                s = matrix[i][j] - kp._dot(low[i][:j], low[j][:j])
                if i > j:
                    low[i][j] = s / low[j][j]
                elif s > 0.0:
                    low[j][j] = math.sqrt(s)
                else:
                    raise NotSPD(f"matrix has no Cholesky factorization: "
                                 f"pivot {j + 1} is {s!r}")
        inv = []
        for c in range(n):
            z = [0.0] * n
            for i in range(c, n):
                z[i] = ((float(i == c) - kp._dot(low[i][c:i], z[c:i]))
                        / low[i][i])
            for i in reversed(range(n)):
                z[i] = (z[i] - kp._dot([low[k][i] for k in range(i + 1, n)],
                                       z[i + 1:])) / low[i][i]
            inv.append(z)
        out.append([[0.5 * (inv[a][b] + inv[b][a]) for b in range(n)]
                    for a in range(n)])
    return out


def reference_worst(slack_rows):
    """(worst facet, worst slack) of a row as the full scan named them: the
    first NaN slack, else the first facet of smallest slack."""
    out = []
    for row in slack_rows:
        nans = [i for i, v in enumerate(row) if math.isnan(v)]
        worst = nans[0] if nans else row.index(min(row))
        out.append((worst, math.nan if nans else row[worst]))
    return out


COLUMN_SETS = [("f1", f1), ("f2", f2), ("f3", f3), ("f4", f4), ("f5", f5),
               ("slab", slab), ("cube3", lambda: cube(3)),
               ("one_facet", lambda: pl.polyhedral_set(2, [((1, 1), 1)]))]
COLUMN_SETS += [(f"random{n}_{m}_{s}",
                 lambda n=n, m=m, s=s: random_set(n, m, s))
                for n in range(1, 7) for m, s in ((n + 1, 1), (2 * n + 1, 2))]


class TestColumnMetric:
    @pytest.mark.parametrize("name, fix", COLUMN_SETS,
                             ids=[name for name, _ in COLUMN_SETS])
    def test_matches_per_point_reference(self, name, fix):
        # G and G^-1 are built entry by entry over the batch; every row
        # keeps the bits of the per-point formulas, in a batch with rows
        # outside the set and in a one-row batch
        p = fix()
        start, _ = pl.max_margin_point(p)
        rng = np.random.default_rng(len(name))
        center = [float(v) for v in start]
        xs = [center] + (center + rng.uniform(-1.5, 1.5, size=(60, p.n))
                         ).tolist()
        xs += [[float("nan")] * p.n, [1e308] * p.n]
        pts = kp.interior_point(p, xs)
        assert 0 < sum(pts.inside) < len(xs)
        expected = [reference_point(p, x)[3]
                    for x, ok in zip(xs, pts.inside) if ok]
        assert bits(kp.hessian_metric(pts)) == bits(expected)
        assert bits(kp.hessian_metric(kp.interior_point(p, xs[:1]))) == bits(
            expected[:1])
        data = kp.point_data(p, xs)
        assert bits(data.G) == bits(expected)
        assert bits(data.G_inv) == bits(reference_inverse(expected))
        assert bits(kp.hessian_metric_inverse(expected[:1])) == bits(
            reference_inverse(expected[:1]))
        # the worst facet is looked for in the masked rows only
        masked = [k for k, ok in enumerate(pts.inside) if not ok]
        slack_rows = [[float(f.kappa) - in_order(
            float(e) * v for e, v in zip(f.eta, xs[k])) for f in p.facets]
            for k in masked]
        for k, (facet, slack) in zip(masked, reference_worst(slack_rows)):
            assert pts.worst_facet[k] == facet
            assert pts.worst_slack[k] == slack or (
                math.isnan(pts.worst_slack[k]) and math.isnan(slack))
        assert all(pts.worst_facet[k] is None
                   for k, ok in enumerate(pts.inside) if ok)

    @pytest.mark.parametrize("name, fix", COLUMN_SETS[:8],
                             ids=[name for name, _ in COLUMN_SETS[:8]])
    def test_newton_jacobian_in_x_is_the_hessian(self, name, fix):
        # the Newton step in the chart of x takes the general chart
        # Jacobian, which there has the bits of the Hessian's entries
        p = fix()
        etas = kp.float_facets(p)[0]
        chart = kp._chart(p, ())
        rng = np.random.default_rng(len(name))
        for l in rng.uniform(1e-6, 5.0, size=(5, len(p.facets))).tolist():
            hessian = kp._hessian_columns(etas, [[v] for v in l])
            assert bits(kp._jacobian(chart, etas, l, [1.0] * p.n)) == bits(
                [[col[0] for col in row] for row in hessian])

    def test_not_spd_names_first_row_and_its_first_pivot(self):
        # the first row fails at pivot 3, the second already at pivot 1;
        # the error names the first row's pivot, as the per-row loop did
        stack = [[[1.0, 0.0, 0.0], [0.0, 1.0, 3.0], [0.0, 3.0, 1.0]],
                 [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 [[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]
        for rows in (stack, stack[1:], stack[2:], stack[::-1]):
            with pytest.raises(NotSPD) as got:
                kp.hessian_metric_inverse(rows)
            with pytest.raises(NotSPD) as expected:
                reference_inverse(rows)
            assert str(got.value) == str(expected.value)
        with pytest.raises(NotSPD, match="pivot 3 is -8.0"):
            kp.hessian_metric_inverse(stack)


class TestPotentials:
    def test_frozen_values(self):
        pt = kp.interior_point(f1(), [[0.5], [0.25]])
        assert kp.symplectic_potential(pt) == pytest.approx(
            [-0.7215735902799727, -0.7499175723094041], abs=1e-12)
        assert kp.guillemin_potential(pt)[0] == pytest.approx(
            -0.8465735902799727, abs=1e-12)
        pt = one(f2(), [1 / 3, 1 / 3])
        assert kp.symplectic_potential(pt)[0] == pytest.approx(
            -0.9381950332229437, abs=1e-12)
        assert kp.guillemin_potential(pt)[0] == pytest.approx(
            -1.0493061443340548, abs=1e-12)

    def test_against_mpmath(self):
        rng = np.random.default_rng(7)
        for name, fix in (("f1", f1), ("f2", f2), ("slab", slab), ("f4", f4)):
            p = fix()
            xs = sample_interior(name, rng, 10)
            values = kp.symplectic_potential(kp.interior_point(p, xs))
            for x, value in zip(xs, values):
                assert value == pytest.approx(
                    mp_symplectic(p, x), rel=1e-13, abs=1e-13)

    def test_difference_is_kinetic_term(self):
        rng = np.random.default_rng(8)
        p = f2()
        for x in sample_interior("f2", rng, 5):
            pt = one(p, x)
            diff = (kp.symplectic_potential(pt)[0]
                    - kp.guillemin_potential(pt)[0])
            assert diff == pytest.approx(0.5 * float(x @ x), abs=1e-14)


class TestHessianMetric:
    def test_frozen_values(self):
        assert np.allclose(
            kp.hessian_metric(kp.interior_point(f1(), [[0.5], [0.25]])),
            [[[3.0]], [[11 / 3]]], atol=1e-14)
        g = kp.hessian_metric(one(f2(), [1 / 3, 1 / 3]))
        assert np.allclose(g, [[[4.0, 1.5], [1.5, 4.0]]], atol=1e-13)

    def test_inverse_frozen(self):
        g = kp.hessian_metric(one(f2(), [1 / 3, 1 / 3]))
        ginv = kp.hessian_metric_inverse(g)[0]
        expected = np.array([[16 / 55, -6 / 55], [-6 / 55, 16 / 55]])
        assert np.allclose(ginv, expected, atol=1e-13)

    def test_inverse_residual(self):
        rng = np.random.default_rng(9)
        for name, fix in (("f2", f2), ("f4", f4)):
            p = fix()
            g = kp.hessian_metric(
                kp.interior_point(p, sample_interior(name, rng, 10)))
            ginv = kp.hessian_metric_inverse(g)
            assert np.max(np.abs(np.array(g) @ np.array(ginv)
                                 - np.eye(p.n))) < 1e-10

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_inverse_of_small_stacks(self, count):
        # stack lengths below, at and above n = 2: each matrix of the stack
        # is inverted on its own
        g = np.array([[[2.0, 0.5], [0.5, 1.0]], [[3.0, -1.0], [-1.0, 2.0]],
                      [[1.5, 0.0], [0.0, 4.0]]])[:count]
        ginv = np.array(kp.hessian_metric_inverse(g))
        assert ginv.shape == (count, 2, 2)
        assert np.max(np.abs(g @ ginv - np.eye(2))) < 1e-12

    def test_not_spd(self):
        with pytest.raises(NotSPD):
            kp.hessian_metric_inverse([[[1.0, 2.0], [2.0, 1.0]]])

    def test_fd_hessian_of_potential(self):
        rng = np.random.default_rng(10)
        p = f2()

        def fun(x):
            return kp.symplectic_potential(one(p, x))[0]

        for x in sample_interior("f2", rng, 5):
            g = kp.hessian_metric(one(p, x))[0]
            fd = fd_hessian(fun, x)
            assert np.max(np.abs(fd - g)) / np.max(np.abs(g)) < 1e-4

    def test_guillemin_hessian_degenerate(self):
        # weakly convex data: the log part of the Hessian has an exact kernel
        rng = np.random.default_rng(11)
        for name, fix in (("f3", f3), ("slab", slab)):
            p = fix()
            pts = kp.interior_point(p, sample_interior(name, rng, 5))
            for log_part in kp.hessian_metric(pts) - np.eye(p.n):
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
            computed = kp.one_cut_inverse([1], l)[0][0]
            assert computed == pytest.approx(2 * l / (2 * l + 1), abs=1e-15)
            assert abs(computed - l / (l + 1)) > 0.01


class TestLegendre:
    def test_frozen_values(self):
        assert np.allclose(
            kp.legendre_map(kp.interior_point(f1(), [[0.5], [0.25]])),
            [[0.5], [-0.29930614433405484]], atol=1e-14)
        assert np.allclose(
            kp.legendre_map(one(f2(), [1 / 3, 1 / 3])),
            [[1 / 3, 1 / 3]], atol=1e-14)

    def test_fd_gradient_of_potential(self):
        rng = np.random.default_rng(13)
        p = f2()

        def fun(x):
            return kp.symplectic_potential(one(p, x))[0]

        for x in sample_interior("f2", rng, 5):
            grad = kp.legendre_map(one(p, x))[0]
            fd = fd_gradient(fun, x)
            assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-6

    def test_invert_fixed_point(self):
        res = kp.invert_legendre(f1(), [0.5])
        assert np.allclose(res.x, [0.5], atol=1e-12)
        assert res.iterations == 0
        res = kp.invert_legendre(f2(), [1 / 3, 1 / 3])
        assert np.allclose(res.x, [1 / 3, 1 / 3], atol=1e-12)

    def test_invert_roundtrip(self):
        rng = np.random.default_rng(14)
        for name, fix in (("f1", f1), ("f2", f2)):
            p = fix()
            for _ in range(20):
                y = rng.uniform(-10, 10, size=p.n)
                res = kp.invert_legendre(p, y)
                image = kp.legendre_map(one(p, res.x))[0]
                assert np.max(np.abs(image - y)) < 1e-8

    def test_invert_quadrant(self):
        res = kp.invert_legendre(f4(), [0.0, 0.0])
        # root of x + log(x)/2 = 0 in each coordinate
        assert np.allclose(res.x, [0.4263027509962124] * 2, atol=1e-9)

    def test_monotonicity(self):
        # gradient of a strictly convex function is a monotone map
        rng = np.random.default_rng(15)
        p = f2()
        for _ in range(50):
            a, b = sample_interior("f2", rng, 2)
            ga, gb = kp.legendre_map(kp.interior_point(p, [a, b]))
            assert np.subtract(ga, gb) @ (a - b) > 0

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            kp.invert_legendre(f1(), [5.0], max_iter=1)

    def test_empty_set_is_not_interior(self):
        p = pl.polyhedral_set(1, [((1,), 0), ((-1,), -1)])
        with pytest.raises(NotInterior, match="set is empty"):
            kp.invert_legendre(p, [0.5])

    def test_singular_system_in_the_same_chart(self, monkeypatch):
        # a zero pivot where the chart would not change ends the solve
        monkeypatch.setattr(kp, "_solve", lambda a, b: None)
        with pytest.raises(NoConvergence,
                           match="iteration 0: singular Newton system"):
            kp.invert_legendre(f1(), [5.0])

    def test_iterate_leaves_interior(self):
        # the solution lies within rounding of the boundary: in x, the tiny
        # step of an exhausted line search would land outside the set, so
        # the solve moves to the chart of facet 3, whose slack is e^u
        y = [49.30956189235279, 34.19801309523521]
        res = kp.invert_legendre(f5(), y)
        assert res.chart_facets == (2,)
        assert res.log_slacks[0] < -60
        assert res.residual < 1e-9
        assert mp_gradient_error(f5(), res, y) < 1e-8 * max(map(abs, y))
        # a slack of e^-1998 underflows to 0.0 even in the chart
        with pytest.raises(NoConvergence, match="left the interior"):
            kp.invert_legendre(f1(), [1000.0])

    def test_chart_facets_independent(self):
        # the slab's two facets are parallel: only the smaller slack joins
        assert kp._chart_facets(slab(), [5e-4, 1e-4]) == (1,)
        assert kp._chart_facets(f2(), [5e-4, 2e-3, 1e-4]) == (0, 2)
        assert kp._chart_facets(cube(3), [0.5] * 6) == ()

    @pytest.mark.parametrize("name, y, facets", [
        # slacks of 1e-8 and 1.6e-10, a facet x_j >= -1 each: x_j rounded
        # to floats misses the target by more than the tolerance
        ("random6_12_1", (0, -7, 5, 0, 0, 0), (1,)),
        ("random6_12_1", (-7, 1, -6, -6, 0, 0), (0,)),
        ("random6_12_1", (-6, 0, 1, 0, -8, -8), (4,)),
        # a slack of e^-98: x rounds onto the facet x <= 1
        ("f1", (50,), (1,)),
        ("f2", (20, -25), (1, 2)),
        # where two slacks are about 1e-12 and 2e-16, a pivot of the Newton
        # system is exactly zero: the solve moves to the chart of both
        ("singular3", (20, 1, 20), (2, 4))])
    def test_invert_in_chart(self, name, y, facets):
        p, _ = batch_set(name)
        res = kp.invert_legendre(p, y)
        assert res.chart_facets == facets
        assert res.residual < 1e-9
        assert mp_gradient_error(p, res, y) < 1e-8 * max(map(abs, y))

    def test_exact_interior_check(self):
        # in the chart of x, z is x itself
        x_chart = kp._chart(f1(), ())
        res = kp._solution(f1(), x_chart, [5e-324], [5e-324], 2, 0.0)
        assert res == ((5e-324,), 2, 0.0, (), ())
        with pytest.raises(NotInterior, match="facet 1 slack -5.000e-01"):
            kp._solution(f1(), x_chart, [-0.5], [-0.5], 0, 0.0)
        with pytest.raises(NotInterior, match="facet 2 slack 0.000e"):
            kp._solution(f1(), x_chart, [1.0], [1.0], 0, 0.0)
        # in the chart of facet 2, u = 1 names x = 1 - e, outside facet 1
        chart = kp._chart(f1(), (1,))
        with pytest.raises(NotInterior, match="facet 1 slack -1.718e"):
            kp._solution(f1(), chart, [1.0], None, 0, 0.0)
        res = kp._solution(f1(), chart, [-1.0], None, 3, 0.0)
        assert res == ((1 - math.exp(-1.0),), 3, 0.0, (1,), (-1.0,))

    def test_solve_zero_pivot(self):
        assert kp._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None
        assert kp._solve([[0.0]], [1.0]) is None

    def test_solve_pivots(self):
        rng = np.random.default_rng(17)
        a = [[0.0, 2.0, 1.0], [1e-3, 1.0, 4.0], [3.0, -1.0, 0.5]]
        for _ in range(20):
            b = rng.uniform(-5, 5, size=3)
            z = kp._solve([row[:] for row in a], b.tolist())
            assert np.allclose(np.array(a) @ z, b, rtol=0, atol=1e-12)


def symplectic_form(n):
    """The constant form [[0, I], [-I, 0]] in the (x, theta) frame."""
    eye = np.eye(n)
    return np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])


class TestBlockTensors:
    def test_f1_frozen(self):
        data = kp.point_data(f1(), [[0.5]])
        assert data.G == [[[3.0]]] and np.allclose(data.G_inv, [[[1 / 3]]])
        jmat, metric = kahler_tensors(data.G[0], data.G_inv[0])
        assert np.allclose(jmat, [[0, -1 / 3], [3, 0]], atol=1e-14)
        assert np.allclose(metric, [[3, 0], [0, 1 / 3]], atol=1e-14)

    def test_compatibility(self):
        rng = np.random.default_rng(16)
        for name, fix in (("f1", f1), ("f2", f2), ("slab", slab), ("f4", f4)):
            p = fix()
            data = kp.point_data(p, sample_interior(name, rng, 5))
            assert all(data.points.inside)
            omega = symplectic_form(p.n)
            for G, G_inv in zip(data.G, data.G_inv):
                jmat, metric = kahler_tensors(G, G_inv)
                dim = 2 * p.n
                assert np.max(np.abs(jmat @ jmat + np.eye(dim))) < 1e-10
                assert np.max(np.abs(metric - omega @ jmat)) < 1e-10
                assert np.max(np.abs(jmat.T @ omega @ jmat - omega)) < 1e-10
                eigs = np.linalg.eigvalsh(metric)
                assert eigs[0] > 0


BATCH_SETS = {"f1": f1, "f2": f2, "f4": f4, "f5": f5, "slab": slab,
              "cube3": lambda: cube(3),
              "random4_12_1": lambda: random_set(4, 12, 1),
              "random6_12_1": lambda: random_set(6, 12, 1),
              "singular3": lambda: pl.polyhedral_set(3, [
                  ((2, 1, -2), 3), ((-2, 1, -2), -1), ((-2, -2, 2), 2),
                  ((-2, 2, 0), 1), ((2, 2, -1), 0)])}


@lru_cache(maxsize=None)
def batch_set(name):
    """The named set and a float point of largest margin in it."""
    p = BATCH_SETS[name]()
    start, _ = pl.max_margin_point(p)
    return p, np.array([float(v) for v in start])


def evaluate(p, xs):
    """Every output of the float layer on a batch: per input row the mask
    and the smallest slack, per interior row each value and tensor."""
    data = kp.point_data(p, xs)
    pts = data.points
    per_input = [pts.inside, pts.worst_facet, pts.worst_slack]
    per_interior = [list(zip(*pts.x)), list(zip(*pts.l_values)),
                    list(zip(*pts.log_values)), pts.l_infinity,
                    kp.symplectic_potential(pts), kp.guillemin_potential(pts),
                    kp.legendre_map(pts), data.G, data.G_inv]
    return per_input, per_interior


def in_order(terms):
    """The sum of the terms in order from 0.0, as numpy sums fewer than 8."""
    total = 0.0
    for term in terms:
        total += term
    return total


def reference_point(p, x):
    """Slacks, both potentials, Hessian and Legendre map of one point by
    the single-point formulas, in plain floats: numpy's order of
    operations, each product sum taken in order."""
    etas = [[float(v) for v in f.eta] for f in p.facets]
    l = [float(f.kappa) - in_order(e * v for e, v in zip(eta, x))
         for f, eta in zip(p.facets, etas)]
    l_inf = in_order(l)
    entropy = 0.5 * in_order(v * math.log(v) for v in l)
    sp = (in_order((0.5 * v) * v for v in x) + entropy) - 0.5 * l_inf
    guillemin = entropy - 0.5 * l_inf
    g = [[float(a == b) + 0.5 * in_order(eta[a] / v * eta[b]
                                         for eta, v in zip(etas, l))
          for b in range(p.n)] for a in range(p.n)]
    g = [[0.5 * (g[a][b] + g[b][a]) for b in range(p.n)]
         for a in range(p.n)]
    gtilde = [x[c] - 0.5 * in_order(math.log(v) * eta[c]
                                    for eta, v in zip(etas, l))
              for c in range(p.n)]
    return l, sp, guillemin, g, gtilde


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


class TestBatches:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(BATCH_SETS)), data=st.data())
    def test_rows_match_one_row_batches(self, name, data):
        # the batch is evaluated column by column; every row must come out
        # with the bits of its own one-row batch
        p, center = batch_set(name)
        offsets = data.draw(st.lists(
            st.lists(st.floats(-1.5, 1.5), min_size=p.n, max_size=p.n),
            min_size=1, max_size=12))
        xs = center + np.array(offsets)
        per_input, per_interior = evaluate(p, xs)
        k = 0
        for i in range(len(xs)):
            one_input, one_interior = evaluate(p, xs[i:i + 1])
            for batch, single in zip(per_input, one_input):
                assert bits(batch[i]) == bits(single[0])
            if not per_input[0][i]:
                assert all(len(single) == 0 for single in one_interior)
                continue
            for batch, single in zip(per_interior, one_interior):
                assert bits(batch[k]) == bits(single[0])
            k += 1
        assert k == len(per_interior[0])

    @pytest.mark.parametrize("name", sorted(BATCH_SETS))
    def test_batch_matches_single_point_formulas(self, name):
        p, center = batch_set(name)
        rng = np.random.default_rng(3)
        xs = center + rng.uniform(-0.5, 0.5, size=(200, p.n))
        pts = kp.interior_point(p, xs)
        batched = zip(zip(*pts.l_values), kp.symplectic_potential(pts),
                      kp.guillemin_potential(pts), kp.hessian_metric(pts),
                      kp.legendre_map(pts))
        for x, got in zip(xs[pts.inside], batched):
            for value, expected in zip(got, reference_point(p, x.tolist())):
                assert bits(value) == bits(expected)


def solution_batch(p, res):
    """The one-row batch at an inversion's solution. It may lie closer to
    a facet than the default margin of `interior_point` (f5 at (-3, 8) has
    a slack of 3.7e-13), and the slacks of a chart's facets are
    e^log_slacks, which x rounded to floats may not resolve (random6_12_1
    at (-6, 0, 1, 0, -8, -8): 1.6e-10 = 1 + x_5)."""
    etas = [[float(v) for v in f.eta] for f in p.facets]
    l = [float(f.kappa) - in_order(e * v for e, v in zip(eta, res.x))
         for f, eta in zip(p.facets, etas)]
    for i, u in zip(res.chart_facets, res.log_slacks):
        l[i] = math.exp(u)
    assert all(v > 0 for v in l)
    worst = l.index(min(l))
    logs = [math.log(v) for v in l]
    for i, u in zip(res.chart_facets, res.log_slacks):
        logs[i] = u
    return kp.InteriorPoints(x=[[v] for v in res.x],
                             l_values=[[v] for v in l],
                             log_values=[[v] for v in logs],
                             l_infinity=[in_order(l)], etas=etas,
                             inside=[True], worst_facet=[worst],
                             worst_slack=[l[worst]])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["f1", "f2", "f4", "f5", "cube3", "random4_12_1",
                        "random6_12_1"]),
       st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6))
def test_invert_matches_batch_legendre_map(name, coords):
    # invert_legendre evaluates the gradient of one point in its chart and
    # legendre_map a batch in x: the two must agree at the solution
    p, _ = batch_set(name)
    y = coords[:p.n]
    res = kp.invert_legendre(p, y)
    image = np.array(kp.legendre_map(solution_batch(p, res))[0])
    assert np.max(np.abs(image - y)) <= 1e-8 * max(1.0, np.max(np.abs(y)))
