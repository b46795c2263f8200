"""The Newton solve of `invert`: the preimage of one target under the
gradient of the canonical potential, a diffeomorphism of the interior onto
R^n (Guillemin 1994), in plain Python floats. Its residual and Jacobian
are `floatbase.gradient` and `chart_jacobian` on a one-row batch; charts
of log slacks (`_Chart`) keep small slacks exact. It does not load the
field of `kahlerpotential`."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import polylattice
from .errors import NoConvergence, NotInterior, ScaleLimitExceeded
from .floatbase import chart_jacobian, dot, float_facets, floats, gradient

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200
# a larger max_iter exits 4: at n = 8 and 64 facets an iteration took up to
# 15 ms on a 2-vCPU host, where a solve that never converges ends in ~30 s
NEWTON_MAX_ITER_LIMIT = 2000
BOUNDARY_FRACTION = 0.95
CHART_SLACK = 1e-3
LOG_SLACK_FLOOR = -1e6  # below it, e^u has over 1.4 million bits


class NewtonResult(NamedTuple):
    """The solution x of an inversion. When it ended in a chart (`_Chart`),
    chart_facets (0-based) names its facets and log_slacks the logs of
    their slacks, the only ones x in floats may not resolve; else empty."""

    x: tuple[float, ...]
    iterations: int
    residual: float
    chart_facets: tuple[int, ...] = ()
    log_slacks: tuple[float, ...] = ()


class _Chart(NamedTuple):
    """Newton coordinates z = (u, w) on the interior: u_i = log l_i for the
    facets B (0-based, ascending) and w = x_c for the coordinate columns c
    that complete eta_B to an invertible matrix A. With M = A^-1,
    v = M (kappa_B, 0) and q = (-e^u, w), the point is x = v + M q, and
    every slack is an exact offset less a float correction:
    l_j = (kappa_j - <eta_j, v>) - <eta_j M, q>. A slack of B is e^u and
    loses no digits to cancellation. With B empty, z is x itself."""

    facets: tuple[int, ...]
    columns: tuple[int, ...]
    inverse: list[list[Fraction]]  # M
    base: list[Fraction]  # v
    offsets: list[float]  # kappa_j - <eta_j, v>
    rows: list[list[float]]  # eta_j M
    float_inverse: list[list[float]]
    float_base: list[float]


def _chart(p: polylattice.PolyhedralSet, facets) -> _Chart:
    if not facets:  # x itself: no exact arithmetic needed
        identity = polylattice.identity_matrix(p.n)
        etas, kappas = float_facets(p)
        return _Chart((), tuple(range(p.n)), identity, [0] * p.n, kappas, etas,
                      [list(map(float, row)) for row in identity], [0.0] * p.n)
    a = [list(p.facets[i].eta) for i in facets]
    columns = []
    for c, unit in enumerate(polylattice.identity_matrix(p.n)):
        if len(a) < p.n and polylattice.rational_rank(a + [unit]) > len(a):
            a.append(unit)
            columns.append(c)
    inverse = polylattice.rational_inverse(a)
    rhs = [p.facets[i].kappa for i in facets] + [0] * len(columns)
    base = [sum(m * r for m, r in zip(row, rhs)) for row in inverse]
    rows = [[sum(e * m for e, m in zip(f.eta, col)) for col in zip(*inverse)]
            for f in p.facets]
    offsets = [f.kappa - sum(e * v for e, v in zip(f.eta, base))
               for f in p.facets]
    return _Chart(tuple(facets), tuple(columns), inverse, base,
                  [float(v) for v in offsets],
                  [[float(v) for v in row] for row in rows],
                  [[float(v) for v in row] for row in inverse],
                  [float(v) for v in base])


def _chart_facets(p: polylattice.PolyhedralSet, l) -> tuple[int, ...]:
    """The facets of slack below CHART_SLACK, taken from the smallest slack
    up while their conormals stay linearly independent; ascending."""
    chosen = []
    for j in sorted(range(len(l)), key=l.__getitem__):
        if l[j] >= CHART_SLACK or len(chosen) == p.n:
            break
        rows = [p.facets[i].eta for i in (*chosen, j)]
        if polylattice.rational_rank(rows) == len(rows):
            chosen.append(j)
    return tuple(sorted(chosen))


def _state(chart: _Chart, etas, z, y):
    """(slacks, log slacks, x, gradient(x) - y, its largest |entry|) at
    chart coordinates z, or None if a slack outside the chart is not finite
    and positive. A chart facet's log slack is its u, even if e^u is 0.0."""
    k = len(chart.facets)
    try:
        q = [-math.exp(u) for u in z[:k]] + z[k:]
    except OverflowError:
        return None
    # a facet i of B has offset 0 and row e_i, so its slack is e^u exactly
    l = [o - dot(row, q) for o, row in zip(chart.offsets, chart.rows)]
    logs = dict(zip(chart.facets, z))
    if not all(0.0 < v < math.inf for j, v in enumerate(l) if j not in logs):
        return None
    logs = [logs[j] if j in logs else math.log(v) for j, v in enumerate(l)]
    # in the chart of x, 0.0 + dot(e_c, q) is q_c: no iterate is -0.0
    x = [b + dot(row, q) for b, row in
         zip(chart.float_base, chart.float_inverse)]
    # the gradient formula of `potential`, on a batch of one row
    grad = [col[0] - yj for col, yj in
            zip(gradient([[v] for v in x], [[v] for v in logs], etas), y)]
    return l, logs, x, grad, max(map(abs, grad))


def _solve(a, b):
    """The solution z of a z = b, by Gaussian elimination with partial
    pivoting, or None at a zero pivot; a and b are overwritten."""
    n = len(b)
    for k in range(n):
        pivot = max(range(k, n), key=lambda r: abs(a[r][k]))
        a[k], a[pivot] = a[pivot], a[k]
        b[k], b[pivot] = b[pivot], b[k]
        row_k = a[k]
        if row_k[k] == 0.0:
            return None
        for r in range(k + 1, n):
            factor = a[r][k] / row_k[k]
            if factor:
                row = a[r]
                for c in range(k + 1, n):
                    row[c] -= factor * row_k[c]
                b[r] -= factor * b[k]
    for k in reversed(range(n)):  # column-oriented back substitution
        b[k] /= a[k][k]
        for r in range(k):
            b[r] -= b[k] * a[r][k]
    return b


def _exp(u: float) -> Fraction:
    """e^u as a positive Fraction: Fraction(math.exp(u)) where that is
    normal, else (e^(u/2^s))^(2^s), s least, within ~2^s ulps of e^u."""
    s = 0
    while math.exp(u / 2 ** s) < 2.0 ** -1022:  # the least normal float
        s += 1
    return Fraction(math.exp(u / 2 ** s)) ** 2 ** s


def _solution(p: polylattice.PolyhedralSet, chart: _Chart, z, iterations,
              residual) -> NewtonResult:
    """The result at chart coordinates z: the exact point v + M q that they
    name, with q = (-e^u, w) (see `_exp`), and x, its rounding to floats.

    Raises:
        ScaleLimitExceeded: a log slack is below LOG_SLACK_FLOOR, or x is
            not inside a facet outside the chart, whose slack x cannot show.
        NotInterior: an exact slack is not positive (names the first least).
    """
    k = len(chart.facets)
    low = [i + 1 for i, u in zip(chart.facets, z) if u < LOG_SLACK_FLOOR]
    if low:
        raise ScaleLimitExceeded(
            f"facet {low[0]} log slack below {LOG_SLACK_FLOOR:g}")
    q = [-_exp(u) for u in z[:k]] + [Fraction(w) for w in z[k:]]
    # 2^bits q is integral, so 2^bits x and 2^bits l need no gcd of huge ints
    bits = max(v.denominator.bit_length() for v in q) - 1
    q = [v.numerator << (bits + 1 - v.denominator.bit_length()) for v in q]
    point = [b * 2 ** bits + sum(m * v for m, v in zip(row, q))
             for b, row in zip(chart.base, chart.inverse)]
    slacks = [f.kappa * 2 ** bits - sum(a * v for a, v in zip(f.eta, point))
              for f in p.facets]
    values = [v.numerator / (v.denominator << bits) for v in point + slacks]
    worst = min(range(len(slacks)), key=slacks.__getitem__)
    if slacks[worst] <= 0:
        raise NotInterior(f"facet {worst + 1} slack "
                          f"{values[p.n + worst]:.3e} below margin")
    x = tuple(values[:p.n])
    lost = [j + 1 for j, f in enumerate(p.facets) if j not in chart.facets
            and f.kappa <= sum(e * Fraction(v) for e, v in zip(f.eta, x))]
    if lost:  # e.g. at a vertex of four facets in R^3, three in the chart
        raise ScaleLimitExceeded(
            f"facet {lost[0]} slack below the resolution of x in floats")
    return NewtonResult(x, iterations, residual, chart.facets, tuple(z[:k]))


def invert_legendre(p: polylattice.PolyhedralSet, y,
                    tol: float = NEWTON_TOL,
                    max_iter: int = NEWTON_MAX_ITER) -> NewtonResult:
    """Newton solve of gradient(x) = y over the strict interior, for one
    target y in R^n, in floats, from the max-margin point in the chart of
    x. Each iteration moves, at the same point, to the chart of the slacks
    below CHART_SLACK (`_chart_facets`) unless it has just moved, or takes
    a Newton step there: each slack outside the chart keeps >= 5% of its
    value, and the step halves up to 40 times while the residual norm does
    not fall. It ends at a residual below tol in its own chart.

    Raises:
        ScaleLimitExceeded: max_iter exceeds NEWTON_MAX_ITER_LIMIT; checked
            before any exact work.
        ValueError: y does not have n coordinates.
        NotInterior: the set is empty or has no strict interior.
        NoConvergence: after max_iter iterations above tolerance, when
            rounding puts an iterate outside the interior, or at a singular
            Newton system.
        NotInterior, ScaleLimitExceeded: see `_solution`.
    """
    if max_iter > NEWTON_MAX_ITER_LIMIT:
        raise ScaleLimitExceeded(f"newton_max_iter {max_iter} exceeds the "
                                 f"limit of {NEWTON_MAX_ITER_LIMIT}")
    yv = [float(v) for v in y]
    if len(yv) != p.n:
        raise ValueError(f"expected a target in R^{p.n}")
    try:
        start, margin = polylattice.max_margin_point(p)
    except ValueError as exc:
        raise NotInterior("set is empty") from exc
    if margin <= 0:
        raise NotInterior("set has no strict interior")
    etas = float_facets(p)[0]
    chart, moved = _chart(p, ()), False
    z = floats(start, "the max-margin start point")
    for iteration in range(max_iter + 1):
        state = _state(chart, etas, z, yv)
        if state is None:
            raise NoConvergence(f"iterate {iteration} left the interior")
        l, logs, x, grad, residual = state
        facets = chart.facets if moved else _chart_facets(p, l)
        if residual < tol and facets == chart.facets:
            return _solution(p, chart, z, iteration, residual)
        if iteration == max_iter:
            raise NoConvergence(
                f"residual {residual:.3e} after {max_iter} iterations")
        moved = facets != chart.facets
        if moved:
            chart = _chart(p, facets)
            z = [logs[i] for i in facets] + [x[c] for c in chart.columns]
            continue
        scale = [-l[i] for i in chart.facets] + [1.0] * len(chart.columns)
        jac = chart_jacobian(etas, [[v] for v in l], chart.float_inverse,
                             chart.rows, scale, chart.facets)
        step = _solve([[c[0] for c in row] for row in jac], [-g for g in grad])
        if step is None:
            raise NoConvergence(
                f"iteration {iteration}: singular Newton system")
        dq = [s * d for s, d in zip(scale, step)]
        ratios = [l[j] / d for j, d in
                  enumerate(dot(row, dq) for row in chart.rows)
                  if d > 0 and j not in chart.facets]  # slack loss rate
        t = min(1.0, BOUNDARY_FRACTION * min(ratios)) if ratios else 1.0
        for _ in range(40):  # an exhausted search keeps its tiny step
            trial = _state(chart, etas,
                           [zj + t * sj for zj, sj in zip(z, step)], yv)
            if trial is not None and trial[-1] < residual:
                break
            t *= 0.5
        z = [zj + t * sj for zj, sj in zip(z, step)]
