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


def _copy_int_matrix(mat):
    return [[int(v) for v in row] for row in mat]


def hermite_normal_form(mat):
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Pivots are chosen in the leftmost column containing a nonzero entry,
    rows are combined by Euclidean steps, pivot entries are made positive,
    and entries above each pivot are reduced into [0, pivot).

    Returns:
        The nonzero HNF rows; a row's pivot is its first nonzero entry.
        Zero input rows are dropped.
    """
    h = _copy_int_matrix(mat)
    m = len(h)
    ncols = len(h[0]) if h else 0
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == m:
            break
        nz = [i for i in range(pivot_row, m) if h[i][col] != 0]
        if not nz:
            continue
        if nz[0] != pivot_row:
            h[pivot_row], h[nz[0]] = h[nz[0]], h[pivot_row]
        for i in range(pivot_row + 1, m):
            while h[i][col] != 0:
                q = h[pivot_row][col] // h[i][col]
                h[pivot_row] = [a - q * b for a, b in zip(h[pivot_row], h[i])]
                h[pivot_row], h[i] = h[i], h[pivot_row]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-v for v in h[pivot_row]]
        p = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // p
            if q != 0:
                h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
        pivot_row += 1
    return h[:pivot_row]


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

