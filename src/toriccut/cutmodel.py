"""Point-level model of the torus quotient behind a polyhedral set.

Ties together the kernel lattice of the facet map, membership in the zero
level of the ambient moment map, canonical per-orbit representatives with
their residual angle reduction, stabilizer data at boundary points, and
the freeness table for stepwise cutting.

The slacks and angles are plain Python floats, the projection exact.
`floatbase` is imported in the functions that run it, so plain `cut`
loads no float module and `cut --ambient` loads only `floatbase`.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import NamedTuple

from . import facelattice, intlinalg, polylattice
from .errors import NotOnLevel

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
    active: tuple[int, ...]
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


def stabilizer(p: polylattice.PolyhedralSet,
               active: tuple[int, ...]) -> Stabilizer:
    """Generators of the subtorus fixing the fibers where the facets of
    `active`, a `CutPoint`'s, are tight: their conormals. An index below
    1 raises ValueError.

    Their rank and the index of their lattice in its saturation come off
    the Hermite normal form; the saturation flag records whether they form
    a basis of a saturated sublattice, which is what smoothness of the
    quotient needs. An empty family is vacuously saturated.
    """
    if any(i < 1 for i in active):
        raise ValueError("facet indices are 1-based")
    gens = tuple(p.facets[i - 1].eta for i in active)
    rank, index = intlinalg.lattice_rank_index(gens)
    return Stabilizer(gens, rank, (rank, index) == (len(gens), 1))


def _babai_reduce(v, basis_vectors):
    # nearest-plane rounding: subtracts an integer combination so the
    # result lands in the Gram-Schmidt fundamental domain of the lattice
    from .floatbase import dot
    gs = []
    for b in basis_vectors:
        w = list(b)
        for g in gs:
            c = dot(w, g) / dot(g, g)
            w = [wi - c * gi for wi, gi in zip(w, g)]
        gs.append(w)
    out = list(v)
    for b, g in reversed(list(zip(basis_vectors, gs))):
        coeff = round(dot(out, g) / dot(g, g))
        out = [o - coeff * bi for o, bi in zip(out, b)]
    return out


def _reduce_theta(p: polylattice.PolyhedralSet, theta,
                  active: tuple[int, ...]) -> tuple[float, ...]:
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
    from .floatbase import dot
    v = [float(c) % TWO_PI for c in theta]
    if active:
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
        v = _babai_reduce([dot(row, v) for row in project], lattice)
    out = [c % TWO_PI for c in v]
    return tuple(0.0 if c >= TWO_PI - SEAM_TOL else c for c in out)


def canonical_representative(p: polylattice.PolyhedralSet,
                             a: AmbientPoint) -> CutPoint:
    """Gauge-fixed quotient point for an ambient point on the zero level.

    Facet i is on the level when ||z_i|^2 - l_i| is within gamma_k times
    |kappa_i| + sum_j |eta_ij x_j| + |z_i|^2 (`floatbase.gamma`), and
    active when |l_i| is. k = n + 4 counts the roundings on the path: the
    float kappa_i, the n products and sums of `dot` (an inner product of
    length n is within gamma_n), the subtraction, and |z_i| with its
    square. A modulus or bound past the float range puts it off the level.
    Rotating each nonzero z_i onto the positive real axis spends the phase
    t_i = -arg(z_i), which shifts theta by t_i times the i-th conormal.
    Phases over active facets stay free and are quotiented out by the
    angle reduction.

    Raises:
        NotOnLevel: the moduli of z do not match the slacks.
        ScaleLimitExceeded: as `floatbase.float_facets`.
    """
    from .floatbase import dot, float_facets, gamma
    etas, kappas = float_facets(p)
    rounding, active = gamma(p.n + 4), []
    theta = [float(v) for v in a.theta]
    for i, (eta, kappa, z) in enumerate(zip(etas, kappas, a.z), start=1):
        try:
            modulus = abs(z)
        except OverflowError:  # |z_i| past the float range
            modulus = math.inf
        slack, square = kappa - dot(eta, a.x), modulus * modulus
        bound = rounding * (abs(kappa) + dot(map(abs, eta), map(abs, a.x))
                            + square)
        if not abs(square - slack) <= bound < math.inf:
            raise NotOnLevel("|z_i|^2 does not match the facet slacks")
        if abs(slack) <= bound:
            active.append(i)
        elif z:
            theta = [t - cmath.phase(z) * e for t, e in zip(theta, eta)]
    active = tuple(active)
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
            rows[tuple(i for i in key if i != j)].append((j, free))
    return [(face, j, free) for face, row in rows.items() for j, free in row]
