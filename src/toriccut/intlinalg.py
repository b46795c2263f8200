"""The Hermite normal form on small dense matrices, and what is read off
it: rank and saturation index, and integer kernel bases.

Everything here works on plain Python lists of ints, which is plenty fast
at the supported problem sizes and keeps all verdicts exact. Matrices are
lists of rows. Rational elimination (rank, solutions, inverse) is the
tableau of `polylattice`'s exact kernel, which every command loads.
"""

from __future__ import annotations

import math

from . import polylattice


def hermite_normal_form(mat):
    """Row-style Hermite normal form of the lattice spanned by the rows.

    In each column, from the left, the rows not yet pivots are reduced by
    the one of least nonzero |entry| there, with nearest-integer quotients,
    until one nonzero entry remains; that row, made positive there, is the
    pivot, and the pivot rows above it are reduced into [0, pivot). The
    rounded quotients keep the rows that are not yet pivots small.

    Returns:
        The nonzero HNF rows; a row's pivot is its first nonzero entry.
        Zero input rows are dropped.
    """
    h, rest = [], [[int(v) for v in row] for row in mat]
    for col in range(len(rest[0]) if rest else 0):
        live = [row for row in rest if row[col]]
        while len(live) > 1:
            least = min(live, key=lambda row: abs(row[col]))
            for row in live:
                if row is not least:  # leaves |row[col]| <= |least[col]| / 2
                    q = (2 * row[col] + least[col]) // (2 * least[col])
                    row[:] = [a - q * b for a, b in zip(row, least)]
            live = [row for row in live if row[col]]
        if live:
            pivot = live[0]
            rest = [row for row in rest if row is not pivot]
            if pivot[col] < 0:
                pivot[:] = [-v for v in pivot]
            for row in h:
                q = row[col] // pivot[col]
                if q:
                    row[:] = [a - q * b for a, b in zip(row, pivot)]
            h.append(pivot)
    return h


def lattice_rank_index(rows):
    """(rank, index) of the lattice spanned by integer rows: the index is
    that of the lattice in its saturation, the product of its invariant
    factors. The columns of the Hermite rows H span a full-rank lattice of
    Z^rank with the same invariant factors, whose determinant is the
    product of the diagonal of HNF(H^T)."""
    h = hermite_normal_form(rows)
    square = hermite_normal_form([list(col) for col in zip(*h)])
    return len(h), math.prod(row[i] for i, row in enumerate(square))


def hermite_transform(mat, ncols: int):
    """Hermite normal form of [mat^T | I_ncols], split in two.

    Returns (image, u): the Hermite rows of the lattice the columns of mat
    span, and the unimodular ncols x ncols transform u with
    u mat^T = [image; 0]. The rows of u past len(image) are the Hermite
    normal form of the integer kernel {x in Z^ncols : mat @ x = 0}.
    """
    m = len(mat)
    unit = polylattice.identity_matrix(ncols)
    h = hermite_normal_form([[row[i] for row in mat] + unit[i]
                             for i in range(ncols)])
    image = [row[:m] for row in h if any(row[:m])]
    return image, [row[m:] for row in h]


def integer_kernel_basis(mat, ncols: int | None = None):
    """Canonical basis of the integer kernel {x in Z^ncols : mat @ x = 0}.

    The returned rows are the Hermite normal form of the kernel lattice,
    so the basis is deterministic and spans the full (saturated) kernel.
    """
    if ncols is None:
        if not mat:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(mat[0])
    image, u = hermite_transform(mat, ncols)
    return [tuple(row) for row in u[len(image):]]

