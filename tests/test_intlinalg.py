import itertools
import math
import random

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.matrices.normalforms import smith_normal_form

from toriccut import intlinalg as il
from toriccut import polylattice as pl

from conftest import determinant


def minor_gcd_saturated(rows):
    """Brute-force saturation oracle: full rank and maximal minors coprime."""
    k = len(rows)
    n = len(rows[0])
    if pl.rational_rank(rows) != k:
        return False
    g = 0
    for cols in itertools.combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = math.gcd(g, abs(int(determinant(sub))))
    return g == 1


def matmul(a, b):
    """Exact product of two list-of-rows matrices."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


small_int = st.integers(min_value=-6, max_value=6)


def matrix_strategy(max_rows=4, max_cols=4):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda n: st.lists(
                st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def minor_gcd(rows, k):
    """gcd of the k x k minors of an integer matrix, from sympy."""
    g = 0
    for sel in itertools.combinations(range(len(rows)), k):
        for cols in itertools.combinations(range(len(rows[0])), k):
            sub = [[rows[i][c] for c in cols] for i in sel]
            g = math.gcd(g, abs(int(determinant(sub))))
    return g


@settings(max_examples=120, deadline=None)
@given(matrix_strategy())
def test_rank_index_is_minor_gcd(mat):
    # the product of the invariant factors of a rank r lattice is the gcd
    # of the r x r minors of any matrix whose rows span it
    rank, index = il.lattice_rank_index(mat)
    assert rank == pl.rational_rank(mat)
    assert index == (minor_gcd(mat, rank) if rank else 1)


def _pivot_cols(h):
    return [next(c for c, v in enumerate(row) if v) for row in h]


@settings(max_examples=120, deadline=None)
@given(matrix_strategy())
def test_hnf_spans_same_lattice(mat):
    h = il.hermite_normal_form(mat)
    pivots = _pivot_cols(h)
    assert pivots == sorted(set(pivots))
    assert len(h) == pl.rational_rank(mat)
    # idempotence: HNF of the HNF is itself
    if h:
        h2 = il.hermite_normal_form(h)
        assert h2 == h and _pivot_cols(h2) == pivots
    # every original row must be an integer combination of the HNF rows:
    # appending it must not change the canonical form
    for row in mat:
        h3 = il.hermite_normal_form(h + [list(row)])
        assert h3 == h or (not h and not any(row))


@settings(max_examples=100, deadline=None)
@given(matrix_strategy())
def test_integer_kernel(mat):
    basis = il.integer_kernel_basis(mat)
    n = len(mat[0])
    assert len(basis) == n - pl.rational_rank(mat)
    for vec in basis:
        for row in mat:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    if basis:
        assert il.lattice_rank_index(basis) == (len(basis), 1)


def test_rank_index_agrees_with_minor_gcd_oracle():
    rng = random.Random(20260823)
    for _ in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(k, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        verdict = il.lattice_rank_index(rows) == (k, 1)
        assert verdict == minor_gcd_saturated(rows)


def test_hnf_known_cases():
    h = il.hermite_normal_form([[-1, 0]])
    assert h == [[1, 0]] and _pivot_cols(h) == [0]
    h = il.hermite_normal_form([[-1, 0], [1, 0]])
    assert h == [[1, 0]] and _pivot_cols(h) == [0]
    h = il.hermite_normal_form([[-1, 0], [0, -1], [1, 1]])
    assert h == [[1, 0], [0, 1]] and _pivot_cols(h) == [0, 1]
    h = il.hermite_normal_form([[2, 1]])
    assert h == [[2, 1]] and _pivot_cols(h) == [0]


def test_kernel_known_cases():
    assert il.integer_kernel_basis([[1, -1]]) == [(1, 1)]
    assert il.integer_kernel_basis([[1, 0, -1], [0, 1, -1]]) == [(1, 1, 1)]


def test_rational_inverse():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if determinant(mat) == 0:
            with pytest.raises(ValueError):
                pl.rational_inverse(mat)
            continue
        inv = pl.rational_inverse(mat)
        assert all(isinstance(v, Fraction) for row in inv for v in row)
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)]
                for row in mat] == pl.identity_matrix(n)
    assert pl.rational_inverse([[2, 1], [0, 1]]) == [
        [Fraction(1, 2), Fraction(-1, 2)], [0, 1]]


def test_solve_and_determinant():
    for mat, det in (([[0, -1], [1, 1]], 1), ([[0, -1], [2, 1]], 2)):
        assert determinant(mat) == det


def _sympy_fractions(mat):
    return [[Fraction(int(v.p), int(v.q)) for v in row]
            for row in mat.tolist()]


def _random_rational_rows(rng, m, n, rank):
    """An m x n rational matrix of rank at most `rank`, as a product of
    random m x rank and rank x n factors."""
    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    left = [[entry() for _ in range(rank)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(rank)]
    return [[sum((a * r[j] for a, r in zip(row, right)), Fraction(0))
             for j in range(n)] for row in left]


def test_elimination_matches_sympy():
    # rank, solve and inverse on random rational matrices, singular and
    # rank-deficient ones included; half the right-hand sides are A x0, the
    # others random, which a rank-deficient system generically cannot meet
    rng = random.Random(20261019)
    seen = set()
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_rational_rows(rng, m, n, rng.randint(0, min(m, n)))
        a = sympy.Matrix(mat)
        rank = a.rank()
        assert pl.rational_rank(mat) == rank
        if rng.random() < 0.5:
            x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(n)]
            rhs = [sum((u * v for u, v in zip(row, x0)), Fraction(0))
                   for row in mat]
        else:
            rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(m)]
        solvable, x = pl.rational_solve(
            [(*row, b) for row, b in zip(mat, rhs)], n)
        try:
            sol, params = a.gauss_jordan_solve(sympy.Matrix(rhs))
        except ValueError:
            assert (solvable, x) == (False, None)
            seen.add("inconsistent")
            continue
        assert solvable
        if params.shape[0]:
            assert x is None
            seen.add("underdetermined")
        else:
            assert list(x) == [row[0] for row in _sympy_fractions(sol)]
            seen.add("unique")
        if m == n:
            if rank < n:
                with pytest.raises(ValueError):
                    pl.rational_inverse(mat)
                seen.add("singular")
            else:
                assert pl.rational_inverse(mat) == _sympy_fractions(a.inv())
    assert seen == {"inconsistent", "underdetermined", "unique", "singular"}


def _draws(rng):
    """One matrix of each family: 5 x 3 with entries in [-1000, 1000],
    8 x 8 in [-3, 3], and m x n with m <= 64, n <= 8 in [-1000, 1000]."""
    def draw(m, n, bound):
        return [[rng.randint(-bound, bound) for _ in range(n)]
                for _ in range(m)]
    yield draw(5, 3, 1000)
    yield draw(8, 8, 3)
    yield draw(rng.randint(1, 64), rng.randint(1, 8), 1000)


def _column_norm_bound(mat):
    # Hadamard: no r x r minor of mat exceeds the product of its column
    # norms, each rounded up and at least 1
    return math.prod(max(1, math.isqrt(sum(row[j] ** 2 for row in mat)) + 1)
                     for j in range(len(mat[0])))


def _sympy_factors(mat):
    snf = smith_normal_form(sympy.Matrix(mat), domain=ZZ)
    return [abs(int(snf[i, i])) for i in range(min(snf.shape))
            if snf[i, i] != 0]


def test_normal_forms_match_sympy():
    # rank, index and kernel against sympy on the families on which the
    # Smith normal form with transforms blew up; the work is bounded by the
    # size of what the transforms hold, not by wall time
    rng = random.Random(1)
    completed = 0
    for _ in range(100):
        for mat in _draws(rng):
            n = len(mat[0])
            factors = _sympy_factors(mat)
            rank, index = il.lattice_rank_index(mat)
            assert (rank, index) == (len(factors), math.prod(factors))
            image, u = il.hermite_transform(mat, n)
            bound = _column_norm_bound(mat)
            assert max(abs(v) for row in u for v in row) <= bound
            kernel = il.integer_kernel_basis(mat)
            assert [list(v) for v in kernel] == u[len(image):]
            assert len(kernel) == n - rank
            for vec in kernel:
                assert all(sum(a * b for a, b in zip(row, vec)) == 0
                           for row in mat)
            if kernel:
                assert _sympy_factors(kernel) == [1] * len(kernel)
            for vec in sympy.Matrix(mat).nullspace():
                scale = math.lcm(*(int(v.q) for v in vec))
                ints = [int(v * scale) for v in vec]
                # in the span over Z: the Hermite form does not move
                assert il.hermite_normal_form(
                    [list(v) for v in kernel] + [ints]) == u[len(image):]
    # the gauge lattice of `cutmodel`: for K the integer kernel of a family
    # of r < n active conormals, K Z^n = Z^(n-r), and P = K^T (K K^T)^-1 K
    # sends e_j to sum_i (K e_j)_i w_i, w_i the rows of (K K^T)^-1 K
    for _ in range(200):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))]
        kernel = il.integer_kernel_basis(rows, n)
        if not kernel:
            continue
        completed += 1
        assert il.hermite_normal_form(
            [list(col) for col in zip(*kernel)]) == pl.identity_matrix(
                len(kernel))
        gram = matmul(kernel, [list(col) for col in zip(*kernel)])
        weights = matmul(pl.rational_inverse(gram), kernel)
        project = matmul([list(col) for col in zip(*kernel)], weights)
        for j in range(n):
            assert [row[j] for row in project] == [
                sum((k[j] * w[c] for k, w in zip(kernel, weights)),
                    Fraction(0)) for c in range(n)]
    assert completed >= 100
