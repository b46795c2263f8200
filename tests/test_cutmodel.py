"""Kernel lattices, level membership, canonical representatives, freeness."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriccut import cutmodel as cm
from toriccut import facelattice as fl
from toriccut import intlinalg as il
from toriccut import polylattice as pl
from toriccut.errors import NotOnLevel

from conftest import FIXTURES, random_set, sample_interior, section, simplex
from test_cli import _sympy_saturated

TWO_PI = 2.0 * math.pi


def circ_close(a, b, tol=1e-9):
    d = abs(float(a) - float(b)) % TWO_PI
    return min(d, TWO_PI - d) <= tol


def gauge(p, a, t):
    """Apply the gauge circle parameters t to an ambient point."""
    etas = np.array([f.eta for f in p.facets], dtype=float)
    theta = np.array(a.theta) + np.asarray(t) @ etas
    z = [zv * cmath.exp(1j * tv) for zv, tv in zip(a.z, t)]
    return cm.ambient_point(a.x, theta, z)


def test_kernel_f1():
    k = cm.delzant_kernel(FIXTURES["f1"]())
    assert k.pi_matrix == ((1, -1),)
    assert k.kernel_basis == ((1, 1),)
    assert k.surjective_onto_lattice


def test_kernel_f2():
    p = FIXTURES["f2"]()
    k = cm.delzant_kernel(p)
    for row, col_entries in enumerate(k.pi_matrix):
        for i, f in enumerate(p.facets):
            assert col_entries[i] == -f.eta[row]
    assert k.kernel_basis == ((1, 1, 1),)
    assert k.surjective_onto_lattice


def test_kernel_weakly_convex_not_surjective():
    assert not cm.delzant_kernel(FIXTURES["f3"]()).surjective_onto_lattice
    assert not cm.delzant_kernel(FIXTURES["slab"]()).surjective_onto_lattice


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_kernel_exact_sequence(name):
    p = FIXTURES[name]()
    k = cm.delzant_kernel(p)
    nfac = len(p.facets)
    pi_rows = [list(r) for r in k.pi_matrix]
    for vec in k.kernel_basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0
                   for row in pi_rows)
    assert len(k.kernel_basis) == nfac - pl.rational_rank(pi_rows)
    if k.kernel_basis:
        rows = [list(vec) for vec in k.kernel_basis]
        assert il.lattice_rank_index(rows) == (len(rows), 1)


def test_kernel_takes_one_hermite_transform(monkeypatch):
    # the kernel and the surjectivity flag come off one Hermite form
    calls = []
    original = il.hermite_normal_form

    def counted(mat):
        calls.append(mat)
        return original(mat)

    monkeypatch.setattr(il, "hermite_normal_form", counted)
    for name in ("f1", "f2", "f5", "slab", "f5_lift"):
        p = FIXTURES[name]()
        calls.clear()
        cm.delzant_kernel(p)
        assert len(calls) == 1, name


def test_membership_ignores_phases():
    p = FIXTURES["f1"]()
    rng = np.random.default_rng(11)
    for _ in range(10):
        phases = rng.uniform(0, TWO_PI, size=2)
        z = [math.sqrt(0.5) * cmath.exp(1j * t) for t in phases]
        a = cm.ambient_point([0.5], [0.0], z)
        assert cm.canonical_representative(p, a).active == pl.FaceIndexSet(())
    with pytest.raises(NotOnLevel):
        cm.canonical_representative(
            p, cm.ambient_point([0.5], [0.0], [1.0, 1.0]))


def test_membership_boundary_and_outside():
    p = FIXTURES["f1"]()
    boundary = cm.ambient_point([0.0], [0.0], [0.0, 1.0])
    assert cm.canonical_representative(p, boundary).active == \
        pl.FaceIndexSet([1])
    outside = cm.ambient_point([1.5], [0.0], [0.0, 0.0])
    with pytest.raises(NotOnLevel):
        cm.canonical_representative(p, outside)


def test_canonical_phase_transfer():
    p = FIXTURES["f1"]()
    for phi in (0.7, -1.2, 3.9):
        z = [math.sqrt(0.5) * cmath.exp(1j * phi), math.sqrt(0.5)]
        rep = cm.canonical_representative(
            p, cm.ambient_point([0.5], [0.0], z))
        assert rep.x == (0.5,)
        assert len(rep.active) == 0
        assert circ_close(rep.theta[0], phi % TWO_PI, 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
       st.floats(0.05, 0.95))
def test_canonical_phase_formula(theta0, phi1, phi2, x):
    # with conormals (-1) and (1) the transferred angle is
    # theta + phi1 - phi2, up to full turns
    p = FIXTURES["f1"]()
    z = [math.sqrt(x) * cmath.exp(1j * phi1),
         math.sqrt(1 - x) * cmath.exp(1j * phi2)]
    rep = cm.canonical_representative(
        p, cm.ambient_point([x], [theta0], z))
    assert circ_close(rep.theta[0], (theta0 + phi1 - phi2) % TWO_PI, 1e-9)


def test_canonical_full_rank_stabilizer_kills_theta():
    p = FIXTURES["f1"]()
    rep = cm.canonical_representative(
        p, cm.ambient_point([0.0], [2.5], [0.0, 1.0]))
    assert rep.x == (0.0,)
    assert tuple(rep.active) == (1,)
    assert rep.theta == (0.0,)


def test_canonical_identity_on_real_positive():
    p = FIXTURES["f2"]()
    a = section(p, [0.2, 0.3], [1.0, 4.5])
    rep = cm.canonical_representative(p, a)
    assert rep.x == (0.2, 0.3)
    assert rep.theta == (1.0, 4.5)


def test_canonical_rejects_off_level():
    p = FIXTURES["f2"]()
    with pytest.raises(NotOnLevel):
        cm.canonical_representative(
            p, cm.ambient_point([0.2, 0.3], [0.0, 0.0], [1.0, 1.0, 1.0]))


def moved(p, g):
    """p after the unimodular change eta -> g eta of its conormals, and the
    map x -> g^-T x of its points, which keeps every slack."""
    facets = [(tuple(sum(a * e for a, e in zip(row, f.eta)) for row in g),
               f.kappa) for f in p.facets]
    inverse = pl.rational_inverse(g)
    return (pl.polyhedral_set(p.n, facets, kind=p.kind),
            lambda y: [float(sum(inverse[k][j] * Fraction(y[k])
                                 for k in range(p.n))) for j in range(p.n)])


# weakly convex sets with conormals off the coordinate axes, whose cut
# representatives depend on the basis the angle reduction rounds against
SLAB_MOVED, MOVE_SLAB = moved(FIXTURES["slab"](), ((2, 1), (1, 1)))
SLAB3_MOVED, MOVE_SLAB3 = moved(
    pl.polyhedral_set(3, [((-1, 0, 0), 0), ((1, 0, 0), 1), ((0, -1, 0), 0)]),
    ((1, 2, 0), (0, 1, 3), (1, 2, 1)))


@pytest.mark.parametrize("name", ["f1", "f2", "slab", "slab_moved"])
def test_gauge_invariance_interior(name):
    p = SLAB_MOVED if name == "slab_moved" else FIXTURES[name]()
    rng = np.random.default_rng(23)
    points = sample_interior(name.removesuffix("_moved"), rng, 10)
    for x in (map(MOVE_SLAB, points) if p is SLAB_MOVED else points):
        theta = rng.uniform(0, TWO_PI, size=p.n)
        base = section(p, x, theta)
        ref = cm.canonical_representative(p, base)
        for _ in range(10):
            t = rng.uniform(-8, 8, size=len(p.facets))
            rep = cm.canonical_representative(p, gauge(p, base, t))
            assert rep.x == ref.x
            assert tuple(rep.active) == tuple(ref.active)
            assert all(circ_close(a, b, 1e-9)
                       for a, b in zip(rep.theta, ref.theta))


BOUNDARY_CASES = [  # (set, point, facets active there)
    (FIXTURES["f2"](), [0.0, 0.4], (1,)),
    (SLAB_MOVED, MOVE_SLAB([0, 0.4]), (1,)),
    (SLAB3_MOVED, MOVE_SLAB3([1, 2, 0.7]), (2,)),
    (SLAB3_MOVED, MOVE_SLAB3([0, 0, 0.7]), (1, 3)),
]


def test_gauge_invariance_boundary_edge():
    # the free phases over the active facets must not change the output
    rng = np.random.default_rng(31)
    for p, x, active in BOUNDARY_CASES:
        slacks = [max(0.0, float(f.kappa)
                      - sum(e * v for e, v in zip(f.eta, x)))
                  for f in p.facets]
        for _ in range(25):
            phases = rng.uniform(0, TWO_PI, size=len(p.facets))
            theta = rng.uniform(0, TWO_PI, size=p.n)
            z = [math.sqrt(s) * cmath.exp(1j * t)
                 for s, t in zip(slacks, phases)]
            base = cm.ambient_point(x, theta, z)
            ref = cm.canonical_representative(p, base)
            assert tuple(ref.active) == active
            t = rng.uniform(-8, 8, size=len(p.facets))
            rep = cm.canonical_representative(p, gauge(p, base, t))
            assert all(circ_close(a, b, 1e-9)
                       for a, b in zip(rep.theta, ref.theta))


def test_gauge_reduction_matches_direct_cut_point():
    # theta moved along the active conormal (-1, 0), and a phase of z_2
    # that the rotation by the conormal (0, -1) of facet 2 undoes, give
    # the quotient point of the section
    p = FIXTURES["f2"]()
    direct = cm.canonical_representative(p, section(p, (0.0, 0.4),
                                                    (1.0, 2.0)))
    for shift, phase in ((0.3, 1.1), (-2.0, -0.4), (7.5, 2.9)):
        base = cm.ambient_point([0.0, 0.4], [1.0 - shift, 2.0 - phase],
                                [0.0, math.sqrt(0.4) * cmath.exp(1j * phase),
                                 math.sqrt(0.6)])
        rep = cm.canonical_representative(p, base)
        assert all(circ_close(a, b, 1e-12)
                   for a, b in zip(rep.theta, direct.theta))


@pytest.mark.parametrize("name", ["f1", "f2", "slab"])
def test_roundtrip_interior(name):
    p = FIXTURES[name]()
    rng = np.random.default_rng(47)
    for x in sample_interior(name, rng, 15):
        theta = rng.uniform(0, TWO_PI - 0.01, size=p.n)
        rep = cm.canonical_representative(p, section(p, x, theta))
        assert rep.x == tuple(float(v) for v in x)
        assert len(rep.active) == 0
        assert max(abs(a - b) for a, b in zip(rep.theta, theta)) <= 1e-9


def test_embed_values():
    # the section of the level that the tests embed action-angle points by
    p = FIXTURES["f1"]()
    a = section(p, [0.5], [1.0])
    root_half = math.sqrt(0.5)
    assert a.z == (complex(root_half), complex(root_half))
    assert a.theta == (1.0,)
    b = section(FIXTURES["f2"](), [1 / 3, 1 / 3], [0.0, 0.0])
    third = math.sqrt(1 / 3)
    assert all(abs(z - third) < 1e-15 for z in b.z)
    assert section(p, [0], [0.0]).z == (0j, 1 + 0j)
    third = cm.canonical_representative(p, section(p, [Fraction(1, 3)], [0.0]))
    assert third.active == pl.FaceIndexSet(())


def _stabilizer_at(p, x):
    # the stabilizer over x, with the active set that the representative
    # of the point over x finds
    return cm.stabilizer(p, cm.canonical_representative(
        p, section(p, x, (0.0,) * p.n)).active)


def test_stabilizer_examples():
    assert _stabilizer_at(FIXTURES["f1"](), (0,)) == cm.Stabilizer(
        ((-1,),), 1, True)
    s = _stabilizer_at(FIXTURES["f2"](), (0, 0))
    assert s.generators == ((-1, 0), (0, -1))
    assert s.rank == 2 and s.saturated
    assert _stabilizer_at(FIXTURES["f2"](), (0.25, 0.25)) == cm.Stabilizer(
        (), 0, True)
    assert cm.stabilizer(FIXTURES["f2"](), pl.FaceIndexSet((3,))) == (
        cm.Stabilizer(((1, 1),), 1, True))


def test_stabilizer_f5_vertex_not_saturated():
    s = cm.stabilizer(FIXTURES["f5"](), pl.FaceIndexSet((2, 3)))
    assert s == _stabilizer_at(FIXTURES["f5"](), (1, 0))
    assert s.generators == ((0, -1), (2, 1))
    assert s.rank == 2
    assert not s.saturated


def test_stabilizer_needs_an_active_set():
    # a point is not an active set: its coordinates are no facet indices
    with pytest.raises(AttributeError):
        cm.stabilizer(FIXTURES["f1"](), (0,))


# random(3, 8, 1) has a non-simple vertex; both have unsaturated faces
RANDOM = {"random3_8_1": lambda: random_set(3, 8, 1),
          "random4_8_1": lambda: random_set(4, 8, 1)}
SETS = {**FIXTURES, **RANDOM}


def _freeness(name):
    table = cm.freeness_table(SETS[name]())
    return {(face.indices, j): free for face, j, free in table}


def test_free_action_examples():
    assert _freeness("f2")[(2,), 3]
    assert _freeness("f1")[(), 1]
    assert not _freeness("f5")[(2,), 3]


def test_freeness_table_skips_empty_faces():
    # F_{1,2} of the triangle is the vertex 0, which facet 3 misses
    table = _freeness("f2")
    assert ((1, 2), 3) not in table
    assert all(j not in face for face, j in table)
    # a pair is listed iff its combined face has a point (off the apex),
    # and it is free iff the combined conormals are saturated (sympy)
    for name in ("f2", "f5", "f4", "f5_lift", *RANDOM):
        p = SETS[name]()
        nonempty = {(face.indices, j) for face in fl.active_faces(p)
                    for j in range(1, len(p.facets) + 1) if j not in face
                    and fl.face_witness(p, (*face, j)) is not None}
        table = _freeness(name)
        assert set(table) == nonempty
        for (face, j), free in table.items():
            etas = [list(p.facets[i - 1].eta) for i in sorted((*face, j))]
            assert free == _sympy_saturated(etas), (name, face, j)
        if name in RANDOM:
            assert not all(table.values())


def test_one_rank_index_per_unsaturated_face(monkeypatch):
    # free(K) is decided once per face K, by its cover when the cover is
    # saturated; testing every row took 3751 calls on this set
    p = random_set(6, 12, 1)
    covers = fl.active_faces(p)
    calls = []
    original = il.lattice_rank_index
    monkeypatch.setattr(fl, "active_faces", lambda q: covers)
    monkeypatch.setattr(il, "lattice_rank_index",
                        lambda rows: calls.append(rows) or original(rows))
    assert len(cm.freeness_table(p)) == 3751
    assert len(calls) == sum(1 for face, cover in covers.items()
                             if face.indices and not cover.saturated) == 921


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_free_action_everywhere_on_unimodular(name):
    assert all(_freeness(name).values())


def test_moment_map_projection_and_range():
    # the moment map of a quotient point is its base point
    p = FIXTURES["f1"]()
    values = []
    for v in np.linspace(0.0, 1.0, 101):
        cp = cm.canonical_representative(p, section(p, (float(v),), (0.0,)))
        assert cp.x == (float(v),)
        values.append(cp.x[0])
    values.sort()
    assert values[0] == 0.0 and values[-1] == 1.0
    assert max(b - a for a, b in zip(values, values[1:])) < 0.02


def test_moment_map_vertices():
    p = FIXTURES["f2"]()
    for vertex in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
        cp = cm.canonical_representative(p, section(p, vertex, (0.0, 0.0)))
        assert cp.x == vertex
        assert len(cp.active) == 2 and cp.theta == (0.0, 0.0)


def test_cut_point_canonicalizes_theta():
    p = FIXTURES["f1"]()
    wrapped = cm.canonical_representative(p, section(p, (0.5,), (7.0,)))
    assert abs(wrapped.theta[0] - (7.0 - TWO_PI)) < 1e-12
    boundary = cm.canonical_representative(p, section(p, (0.0,), (1.0,)))
    assert boundary.theta == (0.0,)
    with pytest.raises(NotOnLevel):
        cm.canonical_representative(
            p, cm.ambient_point((-0.1,), (0.0,), (0.0, 1.0)))


def reference_reduce_theta(p, theta, active):
    """The angle reduction by the numpy construction that the exact
    projection replaced: the span of the active conormals is removed with
    the left singular vectors of their matrix."""
    n = p.n
    v = np.array([float(c) for c in theta])
    if len(active) > 0:
        rows = [list(p.facets[i - 1].eta) for i in active]
        span_rank = pl.rational_rank(rows)
        if span_rank == n:
            return (0.0,) * n
        # the tail of a unimodular completion of the saturated span: the
        # columns past r of u^-1, for u h^T = [I_r; 0]
        saturated = il.integer_kernel_basis(il.integer_kernel_basis(rows), n)
        _, u = il.hermite_transform(saturated, n)
        tail = list(zip(*pl.rational_inverse(u)))[len(saturated):]
        u, _, _ = np.linalg.svd(np.array(rows, dtype=float).T)
        project = np.eye(n) - u[:, :span_rank] @ u[:, :span_rank].T
        v = project @ v
        lattice = [TWO_PI * (project @ np.array(t, dtype=float))
                   for t in tail]
        gs = []
        for b in lattice:
            for g in gs:
                b = b - (b @ g) / (g @ g) * g
            gs.append(b)
        for b, g in reversed(list(zip(lattice, gs))):
            v = v - round(float((v @ g) / (g @ g))) * b
    out = np.mod(v, TWO_PI)
    out[out >= TWO_PI - cm.SEAM_TOL] = 0.0
    return tuple(float(c) for c in out)


@pytest.mark.parametrize("make", [FIXTURES["f2"], FIXTURES["f5"],
                                  lambda: simplex(3)],
                         ids=["f2", "f5", "simplex3"])
def test_reduce_theta_matches_numpy_reference(make):
    # exact points on each facet whose conormal is not a unit vector:
    # random convex combinations of the facet's vertices, so vertices,
    # edges and facet interiors all occur
    p = make()
    faces = fl.active_faces(p)
    rng = np.random.default_rng(59)
    for j, f in enumerate(p.facets, start=1):
        if sum(map(abs, f.eta)) == 1:
            continue
        vertices = [cover.witness for face, cover in faces.items()
                    if j in face and len(face) == p.n]
        for _ in range(60):
            size = int(rng.integers(1, len(vertices) + 1))
            picked = [vertices[i] for i in
                      rng.choice(len(vertices), size, replace=False)]
            weights = [Fraction(int(rng.integers(1, 50))) for _ in picked]
            x = tuple(sum(c * v[k] for c, v in zip(weights, picked))
                      / sum(weights) for k in range(p.n))
            theta = rng.uniform(-20.0, 20.0, size=p.n)
            rep = cm.canonical_representative(p, section(p, x, theta))
            assert j in rep.active
            want = reference_reduce_theta(p, theta, rep.active)
            assert all(circ_close(a, b, 1e-12)
                       for a, b in zip(rep.theta, want)), (x, theta)
