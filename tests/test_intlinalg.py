import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriccut import intlinalg as il
from toriccut import polylattice as pl


def minor_gcd_saturated(rows):
    """Brute-force saturation oracle: full rank and maximal minors coprime."""
    import math

    k = len(rows)
    n = len(rows[0])
    if pl.rational_rank(rows) != k:
        return False
    g = 0
    for cols in itertools.combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        g = math.gcd(g, abs(int(pl.determinant(sub))))
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


@settings(max_examples=120, deadline=None)
@given(matrix_strategy())
def test_snf_reconstruction(mat):
    factors, u, v = il.smith_normal_form(mat)
    assert abs(pl.determinant(u)) == 1
    assert abs(pl.determinant(v)) == 1
    d = matmul(matmul(u, mat), v)
    m, n = len(mat), len(mat[0])
    for i in range(m):
        for j in range(n):
            if i == j and i < len(factors):
                assert d[i][j] == factors[i]
            else:
                assert d[i][j] == 0
    for a, b in zip(factors, factors[1:]):
        assert a > 0 and b % a == 0


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
        factors, _, _ = il.smith_normal_form([list(v) for v in basis])
        assert all(f == 1 for f in factors)


def test_snf_agrees_with_minor_gcd_oracle():
    rng = random.Random(20260823)
    for _ in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(k, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        factors, _, _ = il.smith_normal_form(rows)
        snf_verdict = len(factors) == k and all(f == 1 for f in factors)
        assert snf_verdict == minor_gcd_saturated(rows)


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


def test_unimodular_completion():
    comp = il.unimodular_row_completion([[-1, 0]])
    assert comp[0] == [1, 0]
    assert abs(pl.determinant(comp)) == 1
    comp = il.unimodular_row_completion([[1, 2]])
    assert comp[0] == [1, 2]
    assert abs(pl.determinant(comp)) == 1
    with pytest.raises(ValueError):
        il.unimodular_row_completion([[2, 0]])


def test_rational_inverse():
    from fractions import Fraction
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if pl.determinant(mat) == 0:
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
    assert pl.determinant([[0, -1], [1, 1]]) == 1
    assert pl.determinant([[0, -1], [2, 1]]) == 2
