import io
import itertools
import json
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from toriccut import facelattice as fl
from toriccut import intlinalg as il
from toriccut import polylattice as pl
from toriccut.cli import main
from toriccut.errors import (
    ConeWithNonzeroOffset,
    NotUnimodular,
    ScaleLimitExceeded,
    ZeroConormal,
)

from conftest import (
    FIXTURES, cube, delzant_cone, delzant_polygon, determinant, f1, f2, f3,
    f4, f5,
    f5_lift_cone, halfspace_r3, lens_cone, orthant, pyramid, random_set,
    simplex, slab, write_document,
)


def _dot(coeffs, point):
    return sum(Fraction(c) * Fraction(v) for c, v in zip(coeffs, point))


def _assert_witness(cons, witness):
    for coeffs, rel, rhs in cons:
        val = _dot(coeffs, witness)
        if rel == pl.LT:
            assert val < Fraction(rhs)
        elif rel == pl.LE:
            assert val <= Fraction(rhs)
        else:
            assert val == Fraction(rhs)


def _assert_certificate(cons, y, n):
    """Farkas alternative, checked from the input alone: no point can
    satisfy every row when y >= 0 on inequalities, y^T A = 0, and y^T b is
    negative, or zero with weight on a strict row."""
    assert len(y) == len(cons)
    for yk, (_, rel, _) in zip(y, cons):
        if rel != pl.EQ:
            assert yk >= 0
    for j in range(n):
        assert sum(yk * Fraction(c[j]) for yk, (c, _, _) in zip(y, cons)) == 0
    yb = sum(yk * Fraction(rhs) for yk, (_, _, rhs) in zip(y, cons))
    assert yb < 0 or (yb == 0 and any(
        yk > 0 for yk, (_, rel, _) in zip(y, cons) if rel == pl.LT))


@st.composite
def linear_systems(draw, rhs=st.integers(-3, 3)):
    """Mixed <=, <, == systems with n <= 5 variables and m <= 10 rows."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(-2, 2)] * n),
                  st.sampled_from([pl.LE, pl.LT, pl.EQ]), rhs),
        min_size=1, max_size=10))
    return n, rows


def _highs_verdict(cons, n):
    """Feasibility by two HiGHS LPs: the smallest violation u of the closed
    system, then the largest margin t <= 1 of the strict rows."""
    a = np.array([[float(v) for v in c] for c, _, _ in cons])
    b = np.array([float(r) for _, _, r in cons])
    eq = np.array([rel == pl.EQ for _, rel, _ in cons])
    strict = np.array([rel == pl.LT for _, rel, _ in cons], dtype=float)
    free = [(None, None)] * n
    # min u  s.t.  a x - u <= b on every row, -a x - u <= -b on equalities
    a_ub = np.vstack([a, -a[eq]])
    b_ub = np.concatenate([b, -b[eq]])
    closure = linprog(np.r_[np.zeros(n), 1.0],
                      A_ub=np.hstack([a_ub, -np.ones((len(a_ub), 1))]),
                      b_ub=b_ub, bounds=free + [(0, None)], method="highs")
    assert closure.status == 0
    if closure.fun > 1e-7:
        return False
    if not strict.any():
        return True
    ineq = ~eq
    margin = linprog(
        np.r_[np.zeros(n), -1.0],
        A_ub=np.hstack([a[ineq], strict[ineq, None]]), b_ub=b[ineq],
        A_eq=np.hstack([a[eq], np.zeros((eq.sum(), 1))]) if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=free + [(0, 1)], method="highs")
    return margin.status == 0 and -margin.fun > 1e-7


class TestNormalize:
    def test_lower_to_upper(self):
        q = pl.polyhedral_set(1, [((1,), 0)], orientation=pl.LOWER)
        assert q.facets[0].eta == (-1,)
        assert q.facets[0].kappa == 0

    def test_primitivize(self):
        q = pl.polyhedral_set(2, [((2, 2), 1)], auto_primitivize=True)
        assert q.facets[0].eta == (1, 1)
        assert q.facets[0].kappa == Fraction(1, 2)

    def test_zero_conormal(self):
        with pytest.raises(ZeroConormal):
            pl.polyhedral_set(2, [((0, 0), 1)])

    def test_cone_offset(self):
        with pytest.raises(ConeWithNonzeroOffset):
            pl.polyhedral_set(2, [((1, 0), 1)], kind=pl.CONE)

    def test_idempotent(self):
        for fix in (f1, f2, f3, f4, f5, slab, lens_cone):
            p = fix()
            assert pl.polyhedral_set(p.n, p.facets, p.kind) == p


class TestFeasible:
    def test_interval(self):
        res = pl.feasible([((-1,), pl.LE, 0), ((1,), pl.LE, 1)])
        assert res.feasible
        assert 0 <= res.witness[0] <= 1

    def test_empty_strict(self):
        res = pl.feasible([((1,), pl.LT, 0), ((-1,), pl.LE, 0)])
        assert not res.feasible

    def test_equality_chain_infeasible(self):
        p = f2()
        cons = [(f.eta, pl.EQ, f.kappa) for f in p.facets]
        assert not pl.feasible(cons).feasible

    def test_witness_is_exact(self):
        p = f2()
        cons = [(f.eta, pl.LE, f.kappa) for f in p.facets]
        cons.append(((1, 0), pl.LT, Fraction(1, 3)))
        res = pl.feasible(cons)
        assert res.feasible
        for coeffs, rel, rhs in cons:
            val = sum(Fraction(c) * w for c, w in zip(coeffs, res.witness))
            if rel == pl.LT:
                assert val < Fraction(rhs)
            else:
                assert val <= Fraction(rhs)

    def test_certificate_on_strict_conflict(self):
        cons = [((1,), pl.LT, 0), ((-1,), pl.LE, 0)]
        res = pl.feasible(cons)
        assert res.certificate == (1, 1)
        _assert_certificate(cons, res.certificate, 1)

    @settings(max_examples=200, deadline=None)
    @given(linear_systems(rhs=st.fractions(-3, 3, max_denominator=3)))
    def test_witness_or_certificate(self, system):
        n, cons = system
        res = pl.feasible(cons, n)
        if res.feasible:
            assert res.certificate is None
            _assert_witness(cons, res.witness)
        else:
            assert res.witness is None
            _assert_certificate(cons, res.certificate, n)

    @settings(max_examples=150, deadline=None)
    @given(linear_systems())
    def test_against_highs(self, system):
        n, cons = system
        res = pl.feasible(cons, n)
        assert res.feasible == _highs_verdict(cons, n)
        if res.feasible:
            _assert_witness(cons, res.witness)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=6))
    def test_box_systems(self, bounds):
        # intervals [a, b] per variable; feasibility is decidable by inspection
        cons = []
        for i, (a, b) in enumerate(bounds):
            lo, hi = min(a, b), max(a, b)
            row_lo = tuple(-1 if j == i else 0 for j in range(len(bounds)))
            row_hi = tuple(1 if j == i else 0 for j in range(len(bounds)))
            cons.append((row_lo, pl.LE, -lo))
            cons.append((row_hi, pl.LE, hi))
        res = pl.feasible(cons, len(bounds))
        assert res.feasible
        for i, (a, b) in enumerate(bounds):
            assert min(a, b) <= res.witness[i] <= max(a, b)


class TestCheckScale:
    # the gates are checked on the loaded set; feasible itself has none
    def test_scale_limit(self):
        with pytest.raises(ScaleLimitExceeded,
                           match="dimension 9 exceeds supported bound 8"):
            pl.check_scale(pl.polyhedral_set(9, [((1,) * 9, 1)]))
        with pytest.raises(ScaleLimitExceeded,
                           match="65 constraints exceed supported bound 64"):
            pl.check_scale(delzant_polygon(65))
        pl.check_scale(delzant_polygon(64))
        assert pl.feasible([((1,) * 9, pl.LE, 1)]).feasible

    def test_env_raises_bound(self, monkeypatch):
        monkeypatch.setenv("TORIC_MAX_DIM", "10")
        pl.check_scale(pl.polyhedral_set(10, [((1,) * 10, 1)]))
        with pytest.raises(ScaleLimitExceeded,
                           match="dimension 11 exceeds supported bound 10"):
            pl.check_scale(pl.polyhedral_set(11, [((1,) * 11, 1)]))


class TestMinimal:
    def test_f1(self):
        assert fl.is_minimal(f1()) == fl.MinimalityResult(True, None)

    def test_redundant(self):
        p = pl.polyhedral_set(1, [((1,), 1), ((1,), 2)])
        res = fl.is_minimal(p)
        assert not res.minimal
        assert res.witness == 2

    def test_half_space(self):
        p = pl.polyhedral_set(2, [((1, 0), 0)])
        assert fl.is_minimal(p).minimal


class TestActiveFaces:
    def test_f1(self):
        faces = fl.active_faces(f1())
        assert list(faces) == [(), (1,), (2,)]

    def test_f4_excludes_apex(self):
        faces = fl.active_faces(f4())
        assert list(faces) == [(), (1,), (2,)]

    def test_single_facet(self):
        p = pl.polyhedral_set(2, [((1, 0), 0)])
        faces = fl.active_faces(p)
        assert list(faces) == [(), (1,)]

    def test_f2(self):
        faces = fl.active_faces(f2())
        assert list(faces) == [
            (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]

    def test_candidate_budget(self, monkeypatch):
        # the square has 9 faces among 11 candidates: the empty set, 4
        # facets and 6 pairs, of which the opposite {1, 2} and {3, 4} are empty
        square = cube(2)
        monkeypatch.setattr(fl, "FACE_CANDIDATE_BUDGET", 11)
        assert len(fl.active_faces(square)) == 9
        monkeypatch.setattr(fl, "FACE_CANDIDATE_BUDGET", 10)
        with pytest.raises(ScaleLimitExceeded, match="budget of 10 candidate"):
            fl.active_faces(square)

    @pytest.mark.parametrize("m", [17, 24, 40])
    def test_delzant_polygon(self, m):
        # more facets than any subset walk could take; the faces are the
        # polygon, its m edges and its m vertices
        assert len(fl.active_faces(delzant_polygon(m))) == 2 * m + 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_form_counts(self, n):
        # cube: each coordinate free, 0 or 1; simplex: every proper subset
        # of its n + 1 facets; orthant: every subset but the apex
        assert len(fl.active_faces(cube(n))) == 3 ** n
        assert len(fl.active_faces(simplex(n))) == 2 ** (n + 1) - 1
        assert len(fl.active_faces(orthant(n))) == 2 ** n - 1

    @pytest.mark.parametrize("make", [f1, f2, f5, pyramid, lambda: cube(3),
                                      lambda: simplex(4)],
                             ids=["f1", "f2", "f5", "pyramid", "cube3",
                                  "simplex4"])
    def test_euler_poincare(self, make):
        # a face of a polytope is the hull of its vertices, so distinct
        # vertex sets count the faces whatever facet subsets cut them out
        p = make()
        faces = fl.active_faces(p)
        vertices = {cover.witness for fi, cover in faces.items()
                    if pl.rational_rank([p.facets[i - 1].eta
                                                   for i in fi]) == p.n}

        def on_face(v, fi):
            return all(_dot(p.facets[i - 1].eta, v) == p.facets[i - 1].kappa
                       for i in fi)

        distinct = {frozenset(v for v in vertices if on_face(v, fi))
                    for fi in faces}
        euler = 0
        for vs in distinct:
            v0, *rest = sorted(vs)
            dim = pl.rational_rank(
                [[a - b for a, b in zip(v, v0)] for v in rest])
            euler += (-1) ** dim
        assert euler == 1


def _reference_witness(p, combo):
    """A point of F_I, nonzero for cones, found by the 2n slices x_m = +-1
    on cones whatever their rank."""
    cons = [(f.eta, pl.EQ if i in combo else pl.LE, f.kappa)
            for i, f in enumerate(p.facets, start=1)]
    slices = [[]]
    if p.kind == pl.CONE:
        slices = [[(tuple(int(j == m) for j in range(p.n)), pl.EQ, sign)]
                  for m in range(p.n) for sign in (1, -1)]
    for extra in slices:
        res = pl.feasible(cons + extra, p.n)
        if res.feasible:
            return res.witness
    return None


def _subset_walk(p):
    """Reference enumeration: every facet subset by size, then
    lexicographically, with one LP each unless it contains an empty face."""
    dead, found = [], {}
    for size in range(len(p.facets) + 1):
        for combo in itertools.combinations(range(1, len(p.facets) + 1), size):
            if any(d <= set(combo) for d in dead):
                continue
            w = _reference_witness(p, combo)
            if w is None:
                dead.append(set(combo))
            else:
                found[combo] = w
    return found


REFERENCE_SETS = {
    **FIXTURES,
    **{f"{family.__name__}{n}": (lambda family=family, n=n: family(n))
       for family in (cube, simplex, orthant) for n in range(2, 6)},
    **{f"random{n}_{m}_{s}": (lambda n=n, m=m, s=s: random_set(n, m, s))
       for n, m in [(3, 8), (3, 10), (4, 8), (4, 10), (4, 12), (5, 10),
                    (5, 12), (6, 12), (4, 16)]
       for s in (1, 2)},
}


def _rank(p, combo):
    return pl.rational_rank([p.facets[i - 1].eta for i in combo])


@pytest.mark.parametrize("name", list(REFERENCE_SETS))
def test_active_faces_match_subset_walk(name):
    p = REFERENCE_SETS[name]()
    faces = fl.active_faces(p)
    reference = _subset_walk(p)
    assert list(faces) == list(reference)
    for fi, cover in faces.items():
        w = cover.witness
        for i, f in enumerate(p.facets, start=1):
            assert (_dot(f.eta, w) == f.kappa if i in fi
                    else _dot(f.eta, w) <= f.kappa)
        if p.kind == pl.CONE:
            assert any(w)
        if fi and _rank(p, fi) == p.n:  # a vertex: one point only
            assert w == reference[fi]


def test_one_lp_per_new_vertex(monkeypatch):
    # the subset walk takes 952 LPs on this set, one per candidate
    calls = []
    original = fl.face_witness
    monkeypatch.setattr(fl, "face_witness",
                        lambda p, indices, *rank: calls.append(indices)
                        or original(p, indices, *rank))
    assert len(fl.active_faces(random_set(6, 12, 1))) == 922
    assert len(calls) == 102


def test_cone_lines_need_no_lp(monkeypatch):
    # on a cone whose conormals span R^3, a pair of facets cuts out a line
    # through the apex; <r, x> > 0 off the apex, so the line meets the
    # cone at most in the ray through its point on the slice <r, x> = 1.
    # Of the 276 LPs the enumeration once took here, 254 went to such pairs
    calls = []
    original = pl.feasible
    monkeypatch.setattr(pl, "feasible",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    assert len(fl.active_faces(delzant_cone(24))) == 49
    assert len(calls) == 22


@pytest.mark.parametrize("make, face", [(lens_cone, (1, 2)),
                                        (lambda: orthant(3), (1, 2, 3)),
                                        (lambda: orthant(3), (1, 2))])
def test_one_slice_on_pointed_cones(monkeypatch, make, face):
    p = make()
    calls = []
    original = pl.feasible
    monkeypatch.setattr(pl, "feasible",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    w = fl.face_witness(p, face)
    assert len(calls) == 1
    assert (w is None) == (_rank(p, face) == p.n)


@pytest.mark.parametrize("make", [f3, halfspace_r3],
                         ids=["f3", "halfspace_r3"])
def test_lineality_witness_needs_no_lp(monkeypatch, make):
    # an integer kernel vector of the conormals lies on every face, so it
    # covers every candidate
    p = make()
    calls = []
    original = pl.feasible
    monkeypatch.setattr(pl, "feasible",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    assert len(fl.active_faces(p)) == 2 ** len(p.facets)
    assert calls == []


def _saturated(rows):
    return il.lattice_rank_index(rows) == (len(rows), 1)


class TestSaturation:
    def test_examples(self):
        assert _saturated([(1, 0)])
        assert _saturated([(1, 0), (1, 1)])
        assert not _saturated([(0, -1), (2, 1)])
        assert not _saturated([(1, 0), (-1, 0)])  # dependent


class TestUnimodularity:
    def test_f1_f2(self):
        for fix in (f1, f2):
            rep = fl.unimodularity_report(fix())
            assert rep.is_unimodular

    def test_f5(self):
        rep = fl.unimodularity_report(f5())
        assert rep.minimal and rep.primitive and rep.simple_vertices
        assert not rep.saturated_faces
        assert rep.saturated_witness == (2, 3)
        assert not rep.is_unimodular
        # the witness family really fails in isolation
        etas = [f5().facets[i - 1].eta for i in rep.saturated_witness]
        assert not _saturated(etas)

    def test_non_primitive(self):
        p = pl.polyhedral_set(2, [((2, 2), 1)])
        rep = fl.unimodularity_report(p)
        assert not rep.primitive
        assert rep.primitive_witness == 1

    def test_pyramid_not_simple(self):
        rep = fl.unimodularity_report(pyramid())
        assert not rep.simple_vertices
        assert rep.simple_witness == (0, 0, 1)

    def test_unimodular_implies_simple(self):
        for fix in (f1, f2, f3, f4, lens_cone, slab, halfspace_r3):
            rep = fl.unimodularity_report(fix())
            if rep.saturated_faces:
                assert rep.simple_vertices


class TestConvexity:
    def test_labels(self):
        assert fl.convexity_class(f2()) == fl.ConvexityReport(2, 0, "strongly_convex")
        assert fl.convexity_class(f4()).k == 0
        assert fl.convexity_class(f3()) == fl.ConvexityReport(1, 1, "weakly_convex")
        assert fl.convexity_class(slab()).k == 1
        assert fl.convexity_class(halfspace_r3()).k == 2


class TestGoodCone:
    # a cone is good exactly when its off-apex unimodularity report is;
    # `validate` prints that verdict as good_cone
    def test_good(self):
        for make in (f4, lens_cone, f3, halfspace_r3):
            assert fl.unimodularity_report(make()).is_unimodular

    def test_not_good(self):
        rep = fl.unimodularity_report(f5_lift_cone())
        assert not rep.is_unimodular
        assert rep.saturated_witness == (2, 3)

    def test_requires_cone(self, tmp_path):
        for make, cone in ((f2, False), (f4, True), (f5_lift_cone, True)):
            path = write_document(tmp_path / "set.json", make())
            with redirect_stdout(io.StringIO()) as out:
                main(["validate", path])
            report = json.loads(out.getvalue())["report"]["validate"]
            assert ("good_cone" in report) == cone
            if cone:
                assert report["good_cone"] == report["is_unimodular"]


class TestSplit:
    def test_f3(self):
        sr = fl.split_weakly_convex(f3())
        assert sr.k == 1
        assert sr.coordinate_indices == (1,)
        assert sr.projected_set.n == 1
        assert sr.projected_set.facets[0].eta == (-1,)
        assert sr.projected_set.kind == pl.CONE
        assert abs(determinant(
            [list(r) for r in sr.unimodular_change])) == 1

    def test_slab(self):
        sr = fl.split_weakly_convex(slab())
        assert sr.k == 1
        proj = sr.projected_set
        assert [f.eta for f in proj.facets] == [(-1,), (1,)]
        assert [f.kappa for f in proj.facets] == [0, 1]

    def test_strongly_convex_identity(self):
        sr = fl.split_weakly_convex(f2())
        assert sr.k == 0
        assert sr.unimodular_change == ((1, 0), (0, 1))
        assert sr.projected_set == f2()

    def test_tail_zero_and_projected_checks(self):
        # the fixtures, and weakly convex sets with conormals off the axes
        moved = [
            pl.polyhedral_set(2, [((-2, -1), 0), ((2, 1), 1)]),
            pl.polyhedral_set(3, [((-1, 0, -1), 0), ((1, 0, 1), 1),
                                  ((-2, -1, -2), 0)]),
            pl.polyhedral_set(3, [((-1, 0, -1), 0)], kind=pl.CONE)]
        for p in (f3(), slab(), halfspace_r3(), *moved):
            sr = fl.split_weakly_convex(p)
            change = sr.unimodular_change
            rank = p.n - sr.k
            for f in p.facets:
                transformed = [sum(change[r][c] * f.eta[c] for c in range(p.n))
                               for r in range(p.n)]
                assert all(v == 0 for v in transformed[rank:])
            # its last k rows are the Hermite basis of the conormals' kernel
            assert change[rank:] == tuple(
                il.integer_kernel_basis([list(e) for e in p.etas]))
            assert fl.convexity_class(sr.projected_set).k == 0
            assert fl.unimodularity_report(sr.projected_set).is_unimodular

    def test_unsaturated_span(self):
        p = pl.polyhedral_set(2, [((2, 0), 0)])
        with pytest.raises(NotUnimodular):
            fl.split_weakly_convex(p)


class TestHomotopy:
    def test_f3(self):
        hr = fl.homotopy_report(fl.split_weakly_convex(f3()))
        assert hr.k == 1
        assert hr.pi1 == "Z^1 x pi_1(M_core)"
        assert hr.pi0 == "trivial"

    def test_f2(self):
        hr = fl.homotopy_report(fl.split_weakly_convex(f2()))
        assert hr.k == 0
        assert hr.pi1 == "pi_1(M_core)"

    def test_halfspace_r3(self):
        hr = fl.homotopy_report(fl.split_weakly_convex(halfspace_r3()))
        assert hr.k == 2
        assert hr.pi1 == "Z^2 x pi_1(M_core)"


class TestMaxMargin:
    def test_f1_center(self):
        x, m = pl.max_margin_point(f1())
        assert x == (Fraction(1, 2),)
        assert m == Fraction(1, 2)

    def test_cone_unbounded_margin(self):
        x, m = pl.max_margin_point(f4())
        assert m == 1
        for f in f4().facets:
            val = sum(Fraction(a) * b for a, b in zip(f.eta, x))
            assert val <= f.kappa - m

    def test_f2(self):
        x, m = pl.max_margin_point(f2())
        assert m > 0
        for f in f2().facets:
            val = sum(Fraction(a) * b for a, b in zip(f.eta, x))
            assert val <= f.kappa - m

    def test_no_interior(self):
        p = pl.polyhedral_set(2, [((1, 0), 0), ((-1, 0), 0)])
        x, m = pl.max_margin_point(p)
        assert m == 0
        assert x[0] == 0

    def test_empty(self):
        p = pl.polyhedral_set(1, [((1,), 0), ((-1,), -1)])
        with pytest.raises(ValueError):
            pl.max_margin_point(p)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-2, 3))
        .filter(lambda f: any(f[0])), min_size=1, max_size=10)))
    def test_against_highs(self, facets):
        n = len(facets[0][0])
        p = pl.polyhedral_set(n, facets)
        a = np.array([[float(v) for v in eta] + [1.0] for eta, _ in facets])
        b = np.array([float(kappa) for _, kappa in facets])
        ref = linprog(np.r_[np.zeros(n), -1.0], A_ub=a, b_ub=b,
                      bounds=[(None, None)] * n + [(0, None)], method="highs")
        assert ref.status in (0, 2, 3)
        if ref.status == 2:
            with pytest.raises(ValueError):
                pl.max_margin_point(p)
            return
        x, m = pl.max_margin_point(p)
        if ref.status == 3:
            assert m == 1
        else:
            assert abs(float(m) + ref.fun) <= 1e-9
        for f in p.facets:
            assert _dot(f.eta, x) <= f.kappa - m


class TestHardRandomSets:
    """Sets of ROADMAP's random(n, m, s) family on which elimination used to
    run for more than five seconds per call."""

    def test_face_witness(self):
        p = random_set(5, 12, 1)
        w = fl.face_witness(p, ())
        assert w is not None
        _assert_witness([(f.eta, pl.LE, f.kappa) for f in p.facets], w)

    def test_is_minimal(self):
        assert fl.is_minimal(random_set(6, 12, 1)) == fl.MinimalityResult(True, None)

    @pytest.mark.parametrize("s, margin", [(1, Fraction(1)), (2, Fraction(11, 10))])
    def test_max_margin(self, s, margin):
        p = random_set(4, 16, s)
        x, m = pl.max_margin_point(p)
        assert m == margin
        for f in p.facets:
            assert _dot(f.eta, x) <= f.kappa - m
