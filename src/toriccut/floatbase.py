"""The float arithmetic that more than one command path shares, in plain
Python floats: the in-order dot product, the facets as floats, the column
sums of a batch, the gradient of the potential and its Jacobian. The field
(`kahlerpotential`), the Newton solve (`legendreinverse`), `cutmodel` and
`contactmetric` import it, so each command loads only its own float code.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat

from . import polylattice
from .errors import ScaleLimitExceeded


def dot(u, v) -> float:
    """Sum of the products, taken in order (`sum` of floats rounds
    differently across Python versions)."""
    acc = 0.0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53: k roundings move a value by at
    most gamma_k times the sum of the magnitudes of its terms (Higham 2002,
    Accuracy and Stability of Numerical Algorithms, section 3.1)."""
    return k * 2.0 ** -53 / (1 - k * 2.0 ** -53)


def combinations(columns, coefficient_rows) -> list[list[float]]:
    """For each coefficient vector c, sum_k c[k] columns[k] over the rows,
    with the bits of `dot(c, row)`. Such a sum starts at 0.0 and so is
    never -0.0: a term 0.0 * v changes it only when v is not finite, and is
    skipped when its whole column is finite."""
    finite = {}
    out = []
    for coefficients in coefficient_rows:
        acc = None
        for k, (c, col) in enumerate(zip(coefficients, columns)):
            if not c:
                if k not in finite:
                    finite[k] = all(map(math.isfinite, col))
                if finite[k]:
                    continue
            start = repeat(0.0) if acc is None else acc
            if c in (1.0, -1.0):  # the product is v or -v exactly
                acc = list(map(operator.add if c > 0 else operator.sub,
                               start, col))
            else:
                acc = [a + c * v for a, v in zip(start, col)]
        out.append([0.0] * len(columns[0]) if acc is None else acc)
    return out


def floats(values, where: str) -> list[float]:
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise ScaleLimitExceeded(f"{where} exceeds the float range") from exc


def float_facets(p: polylattice.PolyhedralSet):
    """(etas, kappas): the conormals and offsets of p as floats."""
    rows = [floats((*f.eta, f.kappa), f"facet {i}")
            for i, f in enumerate(p.facets, start=1)]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def gradient(x, logs, etas) -> list[list[float]]:
    """The gradient of the symplectic potential (the Legendre map) by
    columns: for each coordinate c, the list over the rows of
    x_c - (1/2) sum_i log(l_i) eta_i[c], from the columns of x and of the
    log slacks."""
    return [[v - 0.5 * s for v, s in zip(col, sums)] for col, sums in
            zip(x, combinations(logs, list(zip(*etas))))]


def chart_jacobian(etas, l_values, inverse, rows, scale, facets=()):
    """Entry (a, b) of d gradient / dz in the coordinates z of a chart
    (`legendreinverse._Chart`) by column over a batch, not symmetrized:
    M[a][b] s_b + (1/2) sum_j (eta_j[a] / l_j) (r_j[b] s_b) over j outside
    B by `combinations`, less eta_i[a] / 2 in the column of u_i; M = inverse,
    r = rows, s = scale, B = facets. In the chart of x, the Hessian G."""
    n, out = len(scale), []
    for a in range(n):
        used = [j for j, eta in enumerate(etas) if eta[a] and j not in facets]
        sums = combinations(
            [[etas[j][a] / v for v in l_values[j]] for j in used],
            [[rows[j][b] * scale[b] for j in used] for b in range(n)]
        ) if used else [[0.0] * len(l_values[0])] * n
        half = [0.5 * etas[i][a] for i in facets] + [0.0] * (n - len(facets))
        out.append([[inverse[a][b] * scale[b] + 0.5 * v - h for v in col]
                    for b, (col, h) in enumerate(zip(sums, half))])
    return out
