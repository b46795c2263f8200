"""Point-level model of the torus quotient behind a polyhedral set.

Ties together the kernel lattice of the facet map, membership in the zero
level of the ambient moment map, canonical per-orbit representatives with
their residual angle reduction, stabilizer data at boundary points, and
the freeness table for stepwise cutting.

The slacks and angles are plain Python floats, the projection exact.
The float layer's `_dot` and `float_facets` are imported where they run,
so plain `cut` loads no float layer.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import NamedTuple

from . import facelattice, intlinalg, polylattice
from .errors import NotOnLevel

ACTIVITY_TOL = 1e-9
LEVEL_TOL = 1e-9
# snapping moves an angle by up to SEAM_TOL; kept well below the 1e-9
# angle accuracy so that a snapped angle still meets it after rounding
SEAM_TOL = 1e-10
TWO_PI = 2.0 * math.pi


class DelzantKernel(NamedTuple):
    """Kernel data of the integer facet map e_i -> -eta_i."""

    pi_matrix: tuple[tuple[int, ...], ...]
    kernel_basis: tuple[tuple[int, ...], ...]
    surjective_onto_lattice: bool


class CutPoint(NamedTuple):
    """Quotient point: base point, active facets, canonical angle vector."""

    x: tuple
    active: polylattice.FaceIndexSet
    theta: tuple[float, ...]


class AmbientPoint(NamedTuple):
    """Raw point of the ambient product model before any quotient."""

    x: tuple[float, ...]
    theta: tuple[float, ...]
    z: tuple[complex, ...]


class Stabilizer(NamedTuple):
    """Conormal generators of the subtorus fixing a boundary point."""

    generators: tuple[tuple[int, ...], ...]
    rank: int
    saturated: bool


def ambient_point(x, theta, z) -> AmbientPoint:
    return AmbientPoint(tuple(float(v) for v in x),
                        tuple(float(v) for v in theta),
                        tuple(complex(v) for v in z))


def delzant_kernel(p: polylattice.PolyhedralSet) -> DelzantKernel:
    """Integer kernel basis and lattice-surjectivity flag of the facet map.

    The map sends the i-th standard basis vector to minus the i-th stored
    conormal, so its matrix has columns -eta_i. The kernel basis spans the
    full integer kernel, which is saturated by construction.
    """
    pi = [[-f.eta[row] for f in p.facets] for row in range(p.n)]
    image, u = intlinalg.hermite_transform(pi, len(p.facets))
    return DelzantKernel(tuple(tuple(row) for row in pi),
                         tuple(tuple(row) for row in u[len(image):]),
                         image == polylattice.identity_matrix(p.n))


def _level_slacks(p: polylattice.PolyhedralSet, a: AmbientPoint):
    """The float slacks of a.x, one per facet, or None when some |z_i|^2
    is not within LEVEL_TOL of the i-th; |z|^2 is a product, so a modulus
    past 1e154 squares to inf, which is off, and does not raise, and a NaN
    slack (inf - inf) is off too."""
    from .kahlerpotential import _dot, float_facets
    etas, kappas = float_facets(p)
    slacks = [kappa - _dot(eta, a.x) for eta, kappa in zip(etas, kappas)]
    if not all(abs(abs(z) * abs(z) - s) <= LEVEL_TOL
               for z, s in zip(a.z, slacks)):
        return None
    return slacks


def stabilizer(p: polylattice.PolyhedralSet,
               active: polylattice.FaceIndexSet) -> Stabilizer:
    """Generators of the subtorus fixing the fibers where the facets of
    `active`, a `CutPoint`'s, are tight: their conormals.

    Their rank and the index of their lattice in its saturation come off
    the Hermite normal form; the saturation flag records whether they form
    a basis of a saturated sublattice, which is what smoothness of the
    quotient needs. An empty family is vacuously saturated.
    """
    gens = tuple(p.facets[i - 1].eta for i in active.indices)
    rank, index = intlinalg.lattice_rank_index(gens)
    return Stabilizer(gens, rank, (rank, index) == (len(gens), 1))


def _babai_reduce(v, basis_vectors):
    # nearest-plane rounding: subtracts an integer combination so the
    # result lands in the Gram-Schmidt fundamental domain of the lattice
    from .kahlerpotential import _dot
    gs = []
    for b in basis_vectors:
        w = list(b)
        for g in gs:
            c = _dot(w, g) / _dot(g, g)
            w = [wi - c * gi for wi, gi in zip(w, g)]
        gs.append(w)
    out = list(v)
    for b, g in reversed(list(zip(basis_vectors, gs))):
        coeff = round(_dot(out, g) / _dot(g, g))
        out = [o - coeff * bi for o, bi in zip(out, b)]
    return out


def _reduce_theta(p: polylattice.PolyhedralSet, theta,
                  active: polylattice.FaceIndexSet) -> tuple[float, ...]:
    """Canonical angle representative modulo the residual gauge freedom.

    Active conormals act with free phases, so theta is only defined modulo
    their real span plus 2*pi Z^n; it is taken modulo 2*pi first. The span
    is removed by the projection P = K^T (K K^T)^-1 K onto the integer
    kernel K of the active conormals, computed exactly and rounded to
    floats. K is the tail of a unimodular transform, so K Z^n = Z^(n-r)
    and P Z^n is spanned by the rows of (K K^T)^-1 K; Babai rounding
    against them picks one representative per coset. A final floor into
    [0, 2*pi) with a seam snap makes the result stable under float noise
    on either side of 0.
    """
    from .kahlerpotential import _dot
    v = [float(c) % TWO_PI for c in theta]
    if len(active) > 0:
        perp = intlinalg.integer_kernel_basis(
            [list(p.facets[i - 1].eta) for i in active])
        if not perp:  # the conormals span: every angle is gauge
            return (0.0,) * p.n
        gram = [[sum(map(operator.mul, r, s)) for s in perp] for r in perp]
        weights = [[sum(map(operator.mul, row, col)) for col in zip(*perp)]
                   for row in polylattice.rational_inverse(gram)]
        project = [[float(sum(map(operator.mul, a, b))) for b in zip(*weights)]
                   for a in zip(*perp)]  # K^T (K K^T)^-1 K
        lattice = [[TWO_PI * float(c) for c in row] for row in weights]
        v = _babai_reduce([_dot(row, v) for row in project], lattice)
    out = [c % TWO_PI for c in v]
    return tuple(0.0 if c >= TWO_PI - SEAM_TOL else c for c in out)


def canonical_representative(p: polylattice.PolyhedralSet,
                             a: AmbientPoint) -> CutPoint:
    """Gauge-fixed quotient point for an ambient point on the zero level.

    Rotating each nonzero z_i onto the positive real axis spends the phase
    t_i = -arg(z_i), which shifts theta by t_i times the i-th conormal.
    Phases over active facets stay free and are quotiented out by the
    angle reduction. The active facets are those of slack below
    ACTIVITY_TOL; the level test has rejected a slack below -LEVEL_TOL.

    Raises:
        NotOnLevel: the moduli of z do not match the slacks.
        ScaleLimitExceeded: as `kahlerpotential.float_facets`.
    """
    slacks = _level_slacks(p, a)
    if slacks is None:
        raise NotOnLevel("|z_i|^2 does not match the facet slacks")
    active = polylattice.FaceIndexSet(
        i for i, s in enumerate(slacks, start=1) if s < ACTIVITY_TOL)
    theta = [float(v) for v in a.theta]
    for i, (f, z) in enumerate(zip(p.facets, a.z), start=1):
        if i in active or z == 0:
            continue
        phase = cmath.phase(z)
        theta = [t - phase * e for t, e in zip(theta, f.eta)]
    return CutPoint(a.x, active, _reduce_theta(p, theta, active))


def freeness_table(p: polylattice.PolyhedralSet):
    """Whether each cutting circle acts freely over each face it meets.

    Lists (I, j, free) for every nonempty face F_I and every facet j
    outside I whose combined face F_{I+j} is nonempty, in face enumeration
    order and then by j. Every subset of a face's facets is a face, so
    these are the rows (K - j, j, free(K)) for each nonempty face K and
    each j in K. The lattice form of the freeness argument: the conormals
    of K must span a saturated sublattice, otherwise a finite stabilizer
    survives. It is decided once per face, by the cover of K's witness
    when its conormals are saturated, and otherwise by the rank and index
    of K's own conormals.
    """
    covers = facelattice.active_faces(p)
    rows = {face: [] for face in covers}
    for key, cover in covers.items():
        if not key:  # the whole set: no facet to drop
            continue
        free = cover.saturated or intlinalg.lattice_rank_index(
            [p.facets[i - 1].eta for i in key]) == (len(key), 1)
        for j in key:
            rows[polylattice.FaceIndexSet(i for i in key if i != j)].append(
                (j, free))
    return [(face, j, free) for face, row in rows.items() for j, free in row]
