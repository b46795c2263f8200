import itertools
import math
import random
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, log as mplog

from toriccut import facelattice as fl
from toriccut import floatbase as fb
from toriccut import floatreports as fr
from toriccut import kahlerpotential as kp
from toriccut import legendreinverse as li
from toriccut import polylattice as pl
from toriccut.errors import (NoConvergence, NotInterior, NotSPD,
                             ScaleLimitExceeded)

from conftest import (cube, delzant_polygon, f1, f2, f3, f4, f5,
                      gradient_rows, halfspace_r3, kahler_tensors, lens_cone,
                      random_set, sample_interior, simplex, slab)

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
    """Largest entry of |gradient - y| at an inversion's solution, in
    50 digits, at the point x = v + M q that its chart names (see
    `li._Chart`), with q = (-e^u, x_c) for the log slacks u and the chart's
    columns c. A slack is an exact rational plus sum_i (eta_j M)_i e^(u_i),
    so slacks far below the spacing of the float x stay resolved. The float
    x itself must lie strictly inside every facet outside the chart."""
    for j, f in enumerate(p.facets):
        l = f.kappa - sum(e * Fraction(v) for e, v in zip(f.eta, res.x))
        assert j in res.chart_facets or l > 0
    chart = li._chart(p, res.chart_facets)
    k = len(res.chart_facets)
    w = [Fraction(res.x[c]) for c in chart.columns]
    with mp.workdps(50):
        e_u = [mp.exp(u) for u in res.log_slacks]

        def affine(base, row):  # base + <row, q>
            exact = base + sum(r * v for r, v in zip(row[k:], w))
            return mpf(exact.numerator) / exact.denominator - sum(
                mpf(r.numerator) / r.denominator * e
                for r, e in zip(map(Fraction, row[:k]), e_u))

        x = [affine(Fraction(b), row)
             for b, row in zip(chart.base, chart.inverse)]
        logs = []
        for j, f in enumerate(p.facets):
            if j in res.chart_facets:
                logs.append(mpf(res.log_slacks[res.chart_facets.index(j)]))
                continue
            row = [-sum(e * m for e, m in zip(f.eta, col))
                   for col in zip(*chart.inverse)]
            l = affine(f.kappa - sum(e * b for e, b in zip(f.eta, chart.base)),
                       row)
            assert l > 0
            logs.append(mplog(l))
        return float(max(
            abs(x[c] - sum(lg * f.eta[c] for lg, f in zip(logs, p.facets)) / 2
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

    def test_infinite_slack_rows_masked(self):
        # <eta_2, x> overflows to -inf and the slack to +inf, which names
        # facet 2; a slack below the margin is still named first, and finite
        # slacks whose sum alone overflows name the largest of them
        p = pl.polyhedral_set(2, [((-1, 0), 0), ((-1, -2), 0), ((1, 0), 1)])
        pts = kp.interior_point(p, [[0.5, 1e308], [2.0, 1e308], [0.5, 0.5]])
        assert pts.inside == [False, False, True]
        assert str(pts.rejection(0)) == "facet 2 slack overflows"
        assert str(pts.rejection(1)) == (
            "facet 3 slack -1.000e+00 below margin")
        wide = pl.polyhedral_set(1, [((1,), 10**308), ((-1,), 10**308)])
        # (the slacks of every point sum to 2e308)
        pts = kp.interior_point(wide, [[0.0], [1e300]])
        assert pts.inside == [False, False]
        assert [str(pts.rejection(row)) for row in (0, 1)] == [
            f"facet {i} slack overflows" for i in (1, 2)]

    def test_batch_shape_checked(self):
        for bad in ([0.5], [[0.5, 0.5]], [[[0.5]]]):
            with pytest.raises(ValueError):
                kp.interior_point(f1(), bad)
        empty = kp.interior_point(f2(), np.zeros((0, 2)))
        assert empty.x == [[], []] and empty.inside == []
        assert kp.symplectic_potential(empty) == []
        assert gradient_rows(empty) == []
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
                s = matrix[i][j] - fb.dot(low[i][:j], low[j][:j])
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
                z[i] = ((float(i == c) - fb.dot(low[i][c:i], z[c:i]))
                        / low[i][i])
            for i in reversed(range(n)):
                z[i] = (z[i] - fb.dot([low[k][i] for k in range(i + 1, n)],
                                       z[i + 1:])) / low[i][i]
            inv.append(z)
        out.append([[0.5 * (inv[a][b] + inv[b][a]) for b in range(n)]
                    for a in range(n)])
    return out


def reference_worst(slack_rows):
    """(worst facet, worst slack) of a masked row as the full scan named
    them: the first NaN slack, else the first facet of smallest slack when
    it is below the margin, else the first facet of largest slack, reported
    as +inf: the slacks then sum past the float range."""
    out = []
    for row in slack_rows:
        nans = [i for i, v in enumerate(row) if math.isnan(v)]
        worst = nans[0] if nans else row.index(min(row))
        if not nans and row[worst] >= kp.INTERIOR_MARGIN:
            out.append((row.index(max(row)), math.inf))
            continue
        out.append((worst, math.nan if nans else row[worst]))
    return out


def masked_messages(p, xs, pts):
    """The error `rejection` gives for each masked row of the batch, and
    the one that `reference_worst` names from the row's per-point slacks."""
    masked = [k for k, ok in enumerate(pts.inside) if not ok]
    slack_rows = [[float(f.kappa) - in_order(
        float(e) * v for e, v in zip(f.eta, xs[k])) for f in p.facets]
        for k in masked]
    return [str(pts.rejection(k)) for k in masked], [
        f"facet {facet + 1} slack " + (
            "overflows" if slack == math.inf else f"{slack:.3e} below margin")
        for facet, slack in reference_worst(slack_rows)]


COLUMN_SETS = [("f1", f1), ("f2", f2), ("f3", f3), ("f4", f4), ("f5", f5),
               ("slab", slab), ("cube3", lambda: cube(3)),
               ("one_facet", lambda: pl.polyhedral_set(2, [((1, 1), 1)]))]
COLUMN_SETS += [(f"random{n}_{m}_{s}",
                 lambda n=n, m=m, s=s: random_set(n, m, s))
                for n in range(1, 7) for m, s in ((n + 1, 1), (2 * n + 1, 2))]


def jacobian_slacks(p, rng):
    """Rows of slacks for a chart Jacobian batch: five uniform in
    [1e-6, 5], and one with slack 5e-324 on facet 1."""
    rows = rng.uniform(1e-6, 5.0, size=(5, len(p.facets))).tolist()
    return rows + [[5e-324] + rows[0][1:]]


def reference_chart_jacobian(etas, l, chart, scale):
    """The chart Jacobian at one point, every sum a `dot` over all facets
    outside the chart (see `li._Chart` and `fb.chart_jacobian`)."""
    n = len(scale)
    outside = [j for j in range(len(l)) if j not in chart.facets]
    jac = [[chart.float_inverse[a][b] * scale[b] + 0.5 * fb.dot(
        [etas[j][a] / l[j] for j in outside],
        [chart.rows[j][b] * scale[b] for j in outside]) for b in range(n)]
        for a in range(n)]
    for b, i in enumerate(chart.facets):
        for a in range(n):
            jac[a][b] -= 0.5 * etas[i][a]
    return jac


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
        # each masked row names the facet the full scan names
        got, expected = masked_messages(p, xs, pts)
        assert got == expected

    def test_grid_chunk_rejections(self):
        # one chunk of the f2 grid that `potential` evaluates, with NaN and
        # +-inf rows and rows whose slacks sum past the float range after
        # it (to NaN on the triangle, to +inf on the quadrant): every masked
        # row gives the error of the full scan
        nan, inf = float("nan"), float("inf")
        grid, _ = fr._parse_grid("-0.01:1.01:300,-0.01:1.01:300", 2)
        xs = [list(row) for row in itertools.islice(grid, fr.CSV_CHUNK_ROWS)]
        xs += [[nan, 0.5], [0.5, nan], [nan, nan], [inf, 0.1], [-inf, 0.1],
               [0.1, -inf], [inf, -inf], [1.7e308, 1e308], [1e308, 1e308],
               [1e308, 1.5e308], [-1e308, 0.5]]
        messages = set()
        for p in (f2(), f4()):
            pts = kp.interior_point(p, xs)
            assert 0 < sum(pts.inside) < fr.CSV_CHUNK_ROWS
            assert not any(pts.inside[fr.CSV_CHUNK_ROWS:])
            got, expected = masked_messages(p, xs, pts)
            assert got == expected
            messages.update(got)
        assert {"facet 1 slack nan below margin", "facet 1 slack overflows",
                "facet 2 slack overflows", "facet 3 slack -inf below margin",
                "facet 2 slack -1.000e-02 below margin"} <= messages

    @pytest.mark.parametrize("name, fix", COLUMN_SETS[:8],
                             ids=[name for name, _ in COLUMN_SETS[:8]])
    def test_newton_jacobian_in_x_is_the_hessian(self, name, fix):
        # the Newton step in the chart of x takes the chart Jacobian, which
        # there has the bits of I + (1/2) sum_j eta_j eta_j^T / l_j summed
        # with `dot` (a slack of 5e-324 makes 1 / l_j inf, and 0 * inf a
        # NaN in dot and in `combinations` alike)
        p = fix()
        etas = fb.float_facets(p)[0]
        chart = li._chart(p, ())
        rows = jacobian_slacks(p, np.random.default_rng(len(name)))
        jac = fb.chart_jacobian(etas, [list(col) for col in zip(*rows)],
                                chart.float_inverse, chart.rows,
                                [1.0] * p.n, chart.facets)
        for k, l in enumerate(rows):
            hessian = [[float(a == b) + 0.5 * fb.dot(
                [eta[a] / v for eta, v in zip(etas, l)],
                [eta[b] for eta in etas]) for b in range(p.n)]
                for a in range(p.n)]
            assert bits([[col[k] for col in row] for row in jac]) == bits(
                hessian)

    @pytest.mark.parametrize("name, fix", COLUMN_SETS[:8],
                             ids=[name for name, _ in COLUMN_SETS[:8]])
    def test_chart_jacobian_matches_dot_reference(self, name, fix):
        # in every chart of independent facets that `_chart` builds on the
        # set (the chart of x is the test above), every row of a batch has
        # the bits of the one-point formula summed with `dot` over all
        # facets outside the chart, zero terms included
        p = fix()
        etas = fb.float_facets(p)[0]
        rng = np.random.default_rng(len(name))
        charts = [facets for size in range(1, p.n + 1) for facets in
                  itertools.combinations(range(len(p.facets)), size)
                  if pl.rational_rank([p.facets[i].eta for i in facets])
                  == size]
        assert charts
        for facets in charts:
            chart = li._chart(p, facets)
            rows = jacobian_slacks(p, rng)
            scale = ([-v for v in rng.uniform(1e-3, 3, len(facets)).tolist()]
                     + [1.0] * len(chart.columns))
            scale[0] = -1.0  # a coefficient of +-1 takes the exact shortcut
            jac = fb.chart_jacobian(etas, [list(col) for col in zip(*rows)],
                                    chart.float_inverse, chart.rows, scale,
                                    facets)
            for k, l in enumerate(rows):
                expected = reference_chart_jacobian(etas, l, chart, scale)
                assert bits([[col[k] for col in row] for row in jac]) == bits(
                    expected)

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


# ROADMAP's invert sweep: the eight sets, then the cones f4 and lens and the
# slab, whose targets are drawn the same way
SWEEP_SETS = {"f1": f1, "f2": f2, "f5": f5, "cube2": lambda: cube(2),
              "simplex3": lambda: simplex(3),
              "random3_8_1": lambda: random_set(3, 8, 1),
              "dp40": lambda: delzant_polygon(40),
              "dp64": lambda: delzant_polygon(64),
              "f4": f4, "lens": lens_cone, "slab": slab}


class TestLegendre:
    def test_frozen_values(self):
        assert np.allclose(
            gradient_rows(kp.interior_point(f1(), [[0.5], [0.25]])),
            [[0.5], [-0.29930614433405484]], atol=1e-14)
        assert np.allclose(
            gradient_rows(one(f2(), [1 / 3, 1 / 3])),
            [[1 / 3, 1 / 3]], atol=1e-14)

    def test_fd_gradient_of_potential(self):
        rng = np.random.default_rng(13)
        p = f2()

        def fun(x):
            return kp.symplectic_potential(one(p, x))[0]

        for x in sample_interior("f2", rng, 5):
            grad = gradient_rows(one(p, x))[0]
            fd = fd_gradient(fun, x)
            assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-6

    def test_invert_fixed_point(self):
        res = li.invert_legendre(f1(), [0.5])
        assert np.allclose(res.x, [0.5], atol=1e-12)
        assert res.iterations == 0
        res = li.invert_legendre(f2(), [1 / 3, 1 / 3])
        assert np.allclose(res.x, [1 / 3, 1 / 3], atol=1e-12)

    def test_invert_roundtrip(self):
        rng = np.random.default_rng(14)
        for name, fix in (("f1", f1), ("f2", f2)):
            p = fix()
            for _ in range(20):
                y = rng.uniform(-10, 10, size=p.n)
                res = li.invert_legendre(p, y)
                image = gradient_rows(one(p, res.x))[0]
                assert np.max(np.abs(image - y)) < 1e-8

    def test_invert_quadrant(self):
        res = li.invert_legendre(f4(), [0.0, 0.0])
        # root of x + log(x)/2 = 0 in each coordinate
        assert np.allclose(res.x, [0.4263027509962124] * 2, atol=1e-9)

    def test_monotonicity(self):
        # gradient of a strictly convex function is a monotone map
        rng = np.random.default_rng(15)
        p = f2()
        for _ in range(50):
            a, b = sample_interior("f2", rng, 2)
            ga, gb = gradient_rows(kp.interior_point(p, [a, b]))
            assert np.subtract(ga, gb) @ (a - b) > 0

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            li.invert_legendre(f1(), [5.0], max_iter=1)

    def test_empty_set_is_not_interior(self):
        p = pl.polyhedral_set(1, [((1,), 0), ((-1,), -1)])
        with pytest.raises(NotInterior, match="set is empty"):
            li.invert_legendre(p, [0.5])

    def test_singular_system_in_the_same_chart(self, monkeypatch):
        # a zero pivot where the chart would not change ends the solve
        monkeypatch.setattr(li, "_solve", lambda a, b: None)
        with pytest.raises(NoConvergence,
                           match="iteration 0: singular Newton system"):
            li.invert_legendre(f1(), [5.0])

    def test_iterate_leaves_interior(self):
        # the solutions lie within rounding of the boundary: in x, a step
        # would land outside the set, so the solve moves to the chart of
        # the small slacks, whose slacks are e^u
        y = [49.30956189235279, 34.19801309523521]
        res = li.invert_legendre(f5(), y)
        assert res.chart_facets == (0, 2)
        assert res.log_slacks[1] < -60
        assert res.residual < 1e-9
        assert mp_gradient_error(f5(), res, y) < 1e-8 * max(map(abs, y))
        # a slack of e^-1998 underflows to 0.0, but its log is u
        res = li.invert_legendre(f1(), [1000.0])
        assert res.chart_facets == (1,) and res.log_slacks[0] < -1990
        assert res.residual < 1e-9
        assert mp_gradient_error(f1(), res, [1000.0]) < 1e-8 * 1000.0

    @pytest.mark.parametrize("u", [-1998.0, -1e4])
    def test_exp_below_the_float_range(self, u):
        # e^u underflows to 0.0; its rational is positive and close
        value = li._exp(u)
        with mp.workdps(50):
            exact = mp.exp(mpf(u))
            assert value > 0
            ratio = mpf(value.numerator) / value.denominator / exact
            assert abs(ratio - 1) < 1e-12

    def test_exp_is_the_float_where_normal(self):
        rng = np.random.default_rng(18)
        for u in [0.0, -1.0, -708.0, *rng.uniform(-700.0, 0.0, 200)]:
            assert li._exp(float(u)) == Fraction(math.exp(u))

    def test_log_slack_floor(self):
        # e^u past LOG_SLACK_FLOOR has too many bits for the exact check
        chart = li._chart(f1(), (1,))
        with pytest.raises(ScaleLimitExceeded, match="facet 2 log slack"):
            li._solution(f1(), chart, [2 * li.LOG_SLACK_FLOOR], 0, 0.0)

    @pytest.mark.parametrize("s", [10, 100, 1000])
    def test_invert_sweep(self, s):
        # 40 targets per set, each coordinate +-uniform(1, s). Only targets
        # of random(3, 8, 1) fail, each with a preimage near a vertex on
        # four facets: (-1, -1, 0) on facets 1, 2, 4, 5 or (-1, -1, -1/3) on
        # 1, 2, 5, 7. A chart holds three of them and leaves the slack of
        # facet 5 (down to about e^-188) to a float correction. Three stop
        # at the iteration cap; at four the solve ends, but x in floats
        # lies on facet 5, so it is refused (see `test_x_on_a_facet_...`)
        rng = random.Random(7)
        failed = {}
        for name, make in SWEEP_SETS.items():
            p = make()
            for k in range(40):
                y = [rng.choice((-1, 1)) * rng.uniform(1, s)
                     for _ in range(p.n)]
                try:
                    res = li.invert_legendre(p, y)
                except (NoConvergence, ScaleLimitExceeded) as exc:
                    failed[name, k] = str(exc)
                    continue
                assert mp_gradient_error(p, res, y) < 1e-8 * max(map(abs, y))
        cap = "after 200 iterations"
        lost = "facet 5 slack below the resolution of x in floats"
        expected = {10: {}, 100: {7: lost},
                    1000: {4: cap, 7: cap, 18: lost, 26: lost, 28: cap,
                           29: lost}}[s]
        assert sorted(failed) == [("random3_8_1", k) for k in expected]
        for (_, k), message in failed.items():
            assert expected[k] in message

    def test_x_on_a_facet_outside_the_chart(self):
        # random(3, 8, 1) has the vertex (-1, -1, 0) on facets 1, 2, 4 and
        # 5. In the chart of 1, 2 and 4 the slack of facet 5 is
        # e^u_1 + 3 e^u_2: positive, but at u = -40 x in floats rounds to
        # the vertex, which `potential` would refuse
        p = random_set(3, 8, 1)
        chart = li._chart(p, (0, 1, 3))
        with pytest.raises(ScaleLimitExceeded, match="facet 5 slack below"):
            li._solution(p, chart, [-40.0] * 3, 0, 0.0)
        res = li._solution(p, chart, [-1.0] * 3, 0, 0.0)
        assert res.chart_facets == (0, 1, 3)
        assert mp_gradient_error(p, res, [0.0] * 3) < math.inf

    def test_no_chart_move_right_after_a_move(self, monkeypatch):
        # were the chart rule to alternate between two charts, the solve
        # would take a step in each before it moves on, and converge
        answers = itertools.cycle([(1,), ()])
        monkeypatch.setattr(li, "_chart_facets", lambda p, l: next(answers))
        res = li.invert_legendre(f1(), [1.0])
        assert res.residual < 1e-9
        assert mp_gradient_error(f1(), res, [1.0]) < 1e-8

    def test_chart_facets_independent(self):
        # the slab's two facets are parallel: only the smaller slack joins
        assert li._chart_facets(slab(), [5e-4, 1e-4]) == (1,)
        assert li._chart_facets(f2(), [5e-4, 2e-3, 1e-4]) == (0, 2)
        assert li._chart_facets(cube(3), [0.5] * 6) == ()

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
        res = li.invert_legendre(p, y)
        assert res.chart_facets == facets
        assert res.residual < 1e-9
        assert mp_gradient_error(p, res, y) < 1e-8 * max(map(abs, y))

    def test_exact_interior_check(self):
        # in the chart of x, z is x itself
        x_chart = li._chart(f1(), ())
        res = li._solution(f1(), x_chart, [5e-324], 2, 0.0)
        assert res == ((5e-324,), 2, 0.0, (), ())
        with pytest.raises(NotInterior, match="facet 1 slack -5.000e-01"):
            li._solution(f1(), x_chart, [-0.5], 0, 0.0)
        with pytest.raises(NotInterior, match="facet 2 slack 0.000e"):
            li._solution(f1(), x_chart, [1.0], 0, 0.0)
        # in the chart of facet 2, u = 1 names x = 1 - e, outside facet 1
        chart = li._chart(f1(), (1,))
        with pytest.raises(NotInterior, match="facet 1 slack -1.718e"):
            li._solution(f1(), chart, [1.0], 0, 0.0)
        res = li._solution(f1(), chart, [-1.0], 3, 0.0)
        assert res == ((1 - math.exp(-1.0),), 3, 0.0, (1,), (-1.0,))

    def test_solve_zero_pivot(self):
        assert li._solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None
        assert li._solve([[0.0]], [1.0]) is None

    def test_solve_pivots(self):
        rng = np.random.default_rng(17)
        a = [[0.0, 2.0, 1.0], [1e-3, 1.0, 4.0], [3.0, -1.0, 0.5]]
        for _ in range(20):
            b = rng.uniform(-5, 5, size=3)
            z = li._solve([row[:] for row in a], b.tolist())
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
    and the slacks, the error of each masked row, and per interior row each
    value and tensor."""
    data = kp.point_data(p, xs)
    pts = data.points
    per_input = [pts.inside, list(zip(*pts.slacks))]
    errors = [str(pts.rejection(k)) for k, ok in enumerate(pts.inside)
              if not ok]
    per_interior = [list(zip(*pts.x)), list(zip(*pts.l_values)),
                    list(zip(*pts.log_values)), pts.l_infinity,
                    kp.symplectic_potential(pts), kp.guillemin_potential(pts),
                    gradient_rows(pts), data.G, data.G_inv]
    return per_input, errors, per_interior


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
        per_input, errors, per_interior = evaluate(p, xs)
        k = 0
        for i in range(len(xs)):
            one_input, one_errors, one_interior = evaluate(p, xs[i:i + 1])
            for batch, single in zip(per_input, one_input):
                assert bits(batch[i]) == bits(single[0])
            if not per_input[0][i]:
                assert one_errors == [errors[i - k]]
                assert all(len(single) == 0 for single in one_interior)
                continue
            for batch, single in zip(per_interior, one_interior):
                assert bits(batch[k]) == bits(single[0])
            k += 1
        assert k == len(per_interior[0]) == len(xs) - len(errors)

    @pytest.mark.parametrize("name", sorted(BATCH_SETS))
    def test_batch_matches_single_point_formulas(self, name):
        p, center = batch_set(name)
        rng = np.random.default_rng(3)
        xs = center + rng.uniform(-0.5, 0.5, size=(200, p.n))
        pts = kp.interior_point(p, xs)
        batched = zip(zip(*pts.l_values), kp.symplectic_potential(pts),
                      kp.guillemin_potential(pts), kp.hessian_metric(pts),
                      gradient_rows(pts))
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
    logs = [math.log(v) for v in l]
    for i, u in zip(res.chart_facets, res.log_slacks):
        logs[i] = u
    return kp.InteriorPoints(x=[[v] for v in res.x],
                             l_values=[[v] for v in l],
                             log_values=[[v] for v in logs],
                             l_infinity=[in_order(l)], etas=etas,
                             inside=[True], slacks=[[v] for v in l])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["f1", "f2", "f4", "f5", "cube3", "random4_12_1",
                        "random6_12_1"]),
       st.lists(st.floats(-8.0, 8.0), min_size=6, max_size=6))
def test_invert_matches_batch_legendre_map(name, coords):
    # invert_legendre evaluates the gradient of one point in its chart and
    # potential that of a batch in x: the two must agree at the solution
    p, _ = batch_set(name)
    y = coords[:p.n]
    res = li.invert_legendre(p, y)
    batch = solution_batch(p, res)
    image = np.array(gradient_rows(batch)[0])
    assert np.max(np.abs(image - y)) <= 1e-8 * max(1.0, np.max(np.abs(y)))
    if not res.chart_facets:
        # in the chart of x the solve ran the batch formula on one row
        columns = fb.gradient(batch.x, batch.log_values, batch.etas)
        assert max(abs(col[0] - t) for col, t in zip(columns, y)) == (
            res.residual)


def splitting_sets():
    """Weakly convex unimodular sets: f3, halfspace_r3, slab, one whose
    change of basis is not the identity, and Delzant cores times R^k in a
    random lattice basis W: the conormals (eta, 0) W of the core's."""
    sets = {"f3": f3(), "halfspace_r3": halfspace_r3(), "slab": slab(),
            "tilted": pl.polyhedral_set(3, [((-1, -1, 0), 0),
                                            ((0, -1, -2), 0),
                                            ((1, 2, 2), 1)])}
    rng = random.Random(31)
    cores = [f1(), f2(), f4(), cube(2), simplex(3), delzant_polygon(6)]
    for index in range(12):
        core, k = rng.choice(cores), rng.randint(1, 2)
        n = core.n + k
        w = pl.identity_matrix(n)
        for _ in range(8):
            (i, j), c = rng.sample(range(n), 2), rng.choice((-2, -1, 1, 2))
            w[i] = [a + c * b for a, b in zip(w[i], w[j])]
        facets = [(tuple(sum(e * w[r][c] for r, e in enumerate(f.eta))
                         for c in range(n)), f.kappa) for f in core.facets]
        sets[f"random{index}"] = pl.polyhedral_set(n, facets, kind=core.kind)
    return sets


SPLITTING_SETS = splitting_sets()


@pytest.mark.parametrize("name", list(SPLITTING_SETS))
def test_splitting_is_an_identity_for_the_metric(name):
    # with U the unimodular change of `classify`'s splitting, the conormals
    # U eta_j end in k zeros, and <U eta_j, U^-T x> = <eta_j, x>; so with x'
    # the first n - k coordinates of U^-T x, the slacks of the core at x'
    # are those of the set at x, and U (G(x) - I) U^T = (G_core(x') - I) + 0
    p = SPLITTING_SETS[name]
    split = fl.split_weakly_convex(p)
    u, r = split.unimodular_change, p.n - split.k
    assert split.k > 0
    if name == "tilted":
        assert u != tuple(map(tuple, pl.identity_matrix(p.n)))
    core = split.projected_set
    center, margin = pl.max_margin_point(core)
    assert margin > 0
    rng = random.Random(name)
    # each core slack moves by at most 0.99 of the margin
    radius = 0.99 * float(margin) / max(sum(map(abs, f.eta))
                                        for f in core.facets)
    xs = []
    for _ in range(8):
        y = [float(c) + rng.uniform(-radius, radius) for c in center]
        y += [rng.uniform(-3, 3) for _ in range(split.k)]
        xs.append([float(sum(Fraction(a) * b for a, b in zip(col, y)))
                   for col in zip(*u)])  # U^T y
    u_inv_t = list(zip(*pl.rational_inverse([list(row) for row in u])))
    cores = [[float(sum(a * Fraction(v) for a, v in zip(row, x)))
              for row in u_inv_t[:r]] for x in xs]
    g = kp.hessian_metric(kp.interior_point(p, xs).require_all())
    g_core = kp.hessian_metric(kp.interior_point(core, cores).require_all())
    # relative to U G U^T: an entry of G - I carries the rounding of G's
    um = np.array(u, dtype=float)
    for gx, gc in zip(g, g_core):
        lhs = um @ (np.array(gx) - np.eye(p.n)) @ um.T
        rhs = np.zeros((p.n, p.n))
        rhs[:r, :r] = np.array(gc) - np.eye(r)
        scale = np.max(np.abs(um @ np.array(gx) @ um.T))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
