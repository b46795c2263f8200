"""The Newton solve of `invert`: the preimage of one target under the
gradient of the canonical potential, a diffeomorphism of the interior onto
R^n (Guillemin 1994), in plain Python floats. Its residual is
`floatbase.gradient` on a one-row batch; charts of log slacks (`_Chart`)
keep small slacks exact. It does not load the field of `kahlerpotential`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import polylattice
from .errors import NoConvergence, NotInterior
from .floatbase import dot, float_facets, floats, gradient

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200
BOUNDARY_FRACTION = 0.95
CHART_SLACK = 1e-3


class NewtonResult(NamedTuple):
    """The solution x of an inversion. When the solve ended in a chart
    (see `_Chart`), chart_facets (0-based) names its facets and
    log_slacks their slacks' logarithms, which x rounded to floats may not
    resolve; both are empty when it ended in x itself."""

    x: tuple[float, ...]
    iterations: int
    residual: float
    chart_facets: tuple[int, ...] = ()
    log_slacks: tuple[float, ...] = ()



class _Chart(NamedTuple):
    """Newton coordinates z = (u, w) on the interior.

    u_i = log l_i for the facets B (0-based, ascending) and w = x_c for the
    coordinate columns c that complete eta_B to an invertible matrix A.
    With M = A^-1, v = M (kappa_B, 0) and q = (-e^u, w), the point is
    x = v + M q, and every slack is an exact offset less a float
    correction: l_j = (kappa_j - <eta_j, v>) - <eta_j M, q>. A slack of B
    is e^u and never loses digits to cancellation, however small it is.
    With B empty, z is x itself.
    """

    facets: tuple[int, ...]
    columns: tuple[int, ...]
    inverse: list[list[Fraction]]  # M
    base: list[Fraction]  # v
    offsets: list[float]  # kappa_j - <eta_j, v>
    rows: list[list[float]]  # eta_j M
    float_inverse: list[list[float]]
    float_base: list[float]


def _chart(p: polylattice.PolyhedralSet, facets) -> _Chart:
    n = p.n
    if not facets:  # x itself: no exact arithmetic needed
        identity = polylattice.identity_matrix(n)
        etas, kappas = float_facets(p)
        return _Chart((), tuple(range(n)), identity, [0] * n, kappas, etas,
                      [list(map(float, row)) for row in identity], [0.0] * n)
    a = [list(p.facets[i].eta) for i in facets]
    columns = []
    for c in range(n):
        unit = [int(j == c) for j in range(n)]
        if len(a) < n and polylattice.rational_rank(a + [unit]) > len(a):
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
    """(slacks, log slacks, x, gradient(x) - y, its largest entry in
    absolute value) at chart coordinates z, or None when a slack is not
    finite and positive."""
    k = len(chart.facets)
    try:
        q = [-math.exp(u) for u in z[:k]] + z[k:]
    except OverflowError:
        return None
    # a facet i of B has offset 0 and row e_i, so its slack is e^u exactly
    l = [o - dot(row, q) for o, row in zip(chart.offsets, chart.rows)]
    if not all(0.0 < v < math.inf for v in l):
        return None
    logs = [math.log(v) for v in l]
    for i, u in zip(chart.facets, z):
        logs[i] = u
    x = [b + dot(row, q) for b, row in
         zip(chart.float_base, chart.float_inverse)] if k else q
    # the gradient formula of `potential`, on a batch of one row
    grad = [col[0] - yj for col, yj in
            zip(gradient([[v] for v in x], [[v] for v in logs], etas), y)]
    return l, logs, x, grad, max(map(abs, grad))


def _jacobian(chart: _Chart, etas, l, scale):
    """d(gradient(x) - y)/dz entry by entry (not symmetrized), with
    scale = dq/dz. Entry (a, b) is M[a][b] scale[b], plus
    eta_j[a] (eta_j M)[b] scale[b] / (2 l_j) for each facet j outside B,
    less eta_i[a] / 2 when b is the column of u_i. In the chart of x
    (M = I, scale = 1) these are the bits of
    `kahlerpotential._hessian_columns`.
    """
    n = len(scale)
    outside = [j for j in range(len(l)) if j not in chart.facets]
    weighted = [[etas[j][a] / l[j] for j in outside] for a in range(n)]
    moved = [[chart.rows[j][b] * scale[b] for j in outside] for b in range(n)]
    jac = [[chart.float_inverse[a][b] * scale[b]
            + 0.5 * dot(weighted[a], moved[b]) for b in range(n)]
           for a in range(n)]
    for b, i in enumerate(chart.facets):
        for a in range(n):
            jac[a][b] -= 0.5 * etas[i][a]
    return jac


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


def _solution(p: polylattice.PolyhedralSet, chart: _Chart, z, x, iterations,
              residual) -> NewtonResult:
    """The result at chart coordinates z: x itself in the chart of x, else
    the exact point v + M q that the float coordinates z name.

    Raises:
        NotInterior: an exact slack of that point is not positive; names
            the first facet of smallest slack.
    """
    k = len(chart.facets)
    q = [-Fraction(math.exp(u)) for u in z[:k]] + [Fraction(w) for w in z[k:]]
    point = [b + sum(m * v for m, v in zip(row, q))
             for b, row in zip(chart.base, chart.inverse)] if k else q
    slacks = [f.kappa - sum(e * v for e, v in zip(f.eta, point))
              for f in p.facets]
    worst = min(range(len(slacks)), key=slacks.__getitem__)
    if slacks[worst] <= 0:
        raise NotInterior(f"facet {worst + 1} slack "
                          f"{float(slacks[worst]):.3e} below margin")
    return NewtonResult(tuple(map(float, point)) if k else tuple(x),
                        iterations, residual, chart.facets, tuple(z[:k]))


def invert_legendre(p: polylattice.PolyhedralSet, y,
                    tol: float = NEWTON_TOL,
                    max_iter: int = NEWTON_MAX_ITER) -> NewtonResult:
    """Newton solve of gradient(x) = y over the strict interior, for
    one target y in R^n, in plain Python floats.

    The start point maximizes the smallest slack (computed exactly, then
    rounded to float). Each step solves the Jacobian system in the current
    chart and is damped two ways: a fraction-to-boundary rule keeps every
    slack outside the chart's facets at >= 5% of its current value, and
    the step is halved while the residual norm (the merit function) fails
    to decrease. The solve starts in the chart of x. When the halving runs
    out, or a pivot of the Newton system is zero, the float point no
    longer resolves its small slacks, and the solve moves, at the same
    point, to the chart of the facets whose slacks are below CHART_SLACK
    (once per new set of facets; an iteration). The solution is returned
    only when its exact slacks are positive (see `_solution`).

    Raises:
        ValueError: y does not have n coordinates.
        NotInterior: the set is empty or has no strict interior, or an
            exact slack of the solution is not positive.
        NoConvergence: after max_iter iterations above tolerance, when
            rounding has put an iterate outside the interior, or at a
            singular Newton system in an unchanged chart.
    """
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
    chart = _chart(p, ())
    z = floats(start, "the max-margin start point")
    iteration = 0
    while True:
        state = _state(chart, etas, z, yv)
        if state is None:
            raise NoConvergence(f"iterate {iteration} left the interior")
        l, logs, x, grad, residual = state
        if residual < tol:
            return _solution(p, chart, z, x, iteration, residual)
        if iteration >= max_iter:
            raise NoConvergence(
                f"residual {residual:.3e} after {max_iter} iterations")
        scale = [-l[i] for i in chart.facets] + [1.0] * len(chart.columns)
        step = _solve(_jacobian(chart, etas, l, scale), [-g for g in grad])
        if step is not None:  # else the system is singular: no search
            dq = [s * d for s, d in zip(scale, step)]
            ratios = [l[j] / d for j, d in
                      enumerate(dot(row, dq) for row in chart.rows)
                      if d > 0 and j not in chart.facets]  # slack loss rate
            t = min(1.0, BOUNDARY_FRACTION * min(ratios)) if ratios else 1.0
        for _ in range(40 if step is not None else 0):
            trial = _state(chart, etas,
                           [zj + t * sj for zj, sj in zip(z, step)], yv)
            if trial is not None and trial[-1] < residual:
                break
            t *= 0.5
        else:  # the search ran out, or there was none
            facets = _chart_facets(p, l)
            if facets != chart.facets:
                chart = _chart(p, facets)
                z = [logs[i] for i in facets] + [x[c] for c in chart.columns]
                iteration += 1
                continue
            if step is None:
                raise NoConvergence(
                    f"iteration {iteration}: singular Newton system")
        # an exhausted search in an unchanged chart keeps the tiny step;
        # the iteration cap above is the arbiter of non-convergence
        z = [zj + t * sj for zj, sj in zip(z, step)]
        iteration += 1
