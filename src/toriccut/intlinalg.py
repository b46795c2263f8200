"""Integer normal forms on small dense matrices: Hermite and Smith normal
forms, integer kernel bases, unimodular completion and inverse.

Everything here works on plain Python lists of ints, which is plenty fast
at the supported problem sizes and keeps all verdicts exact. Matrices are
lists of rows. Rational elimination (rank, solutions, inverse, the
unit-determinant check) is the tableau of `polylattice`'s exact kernel,
which every command loads.
"""

from __future__ import annotations

from . import polylattice


def _copy_int_matrix(mat):
    return [[int(v) for v in row] for row in mat]


def invert_unimodular(mat):
    """Inverse of an integer matrix with determinant +-1, as integers; the
    inverse of an integer matrix is integral exactly then."""
    inverse = polylattice.rational_inverse(mat)
    if any(v.denominator != 1 for row in inverse for v in row):
        raise ValueError("matrix is not unimodular")
    return [[v.numerator for v in row] for row in inverse]


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


def smith_normal_form(mat):
    """Smith normal form with transforms: U @ mat @ V = diag(factors).

    Returns:
        (factors, U, V): the invariant factors (nonnegative, each dividing
        the next) and unimodular transforms U (rows) and V (columns).
    """
    a = _copy_int_matrix(mat)
    m = len(a)
    n = len(a[0]) if a else 0
    u = polylattice.identity_matrix(m)
    v = polylattice.identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        # deterministic pivot: smallest nonzero magnitude, ties by position
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    key = (abs(a[i][j]), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    factors = [a[i][i] for i in range(limit) if a[i][i] != 0]
    return factors, u, v


def integer_kernel_basis(mat, ncols: int | None = None):
    """Canonical basis of the integer kernel {x in Z^ncols : mat @ x = 0}.

    The returned rows are the Hermite normal form of the kernel lattice,
    so the basis is deterministic and spans the full (saturated) kernel.
    """
    if ncols is None:
        if not mat:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(mat[0])
    if not mat:
        return [tuple(r) for r in polylattice.identity_matrix(ncols)]
    factors, _, v = smith_normal_form(mat)
    return kernel_basis_from_smith(len(factors), v)


def kernel_basis_from_smith(rank: int, v):
    """The basis `integer_kernel_basis` returns, read from a Smith normal
    form of the matrix: its rank and its column transform V.

    The last columns of V span the integer kernel; their Hermite normal
    form makes the basis canonical.
    """
    ncols = len(v)
    cols = [[v[i][j] for i in range(ncols)] for j in range(rank, ncols)]
    if not cols:
        return []
    return [tuple(row) for row in hermite_normal_form(cols)]


def unimodular_row_completion(rows):
    """Extend the lattice spanned by integer rows to a basis of Z^n.

    Requires the row lattice to be saturated (all Smith invariant factors
    equal to 1). Returns a square integer matrix with determinant +-1 whose
    first r rows are the Hermite normal form basis of the input lattice.
    """
    h = hermite_normal_form(rows)
    if not h:
        raise ValueError("zero lattice has no distinguished basis rows")
    n = len(h[0])
    r = len(h)
    factors, _, v = smith_normal_form(h)
    if len(factors) != r or any(f != 1 for f in factors):
        raise ValueError("row lattice is not saturated")
    vinv = invert_unimodular(v)
    comp = [list(h[i]) for i in range(r)]
    for i in range(r, n):
        comp.append(list(vinv[i]))
    if not polylattice.unit_determinant(comp):
        raise AssertionError("completion construction lost unimodularity")
    return comp
