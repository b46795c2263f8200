"""Contact type of polyhedral cones: the strong/weak convexity
classification of good cones with its Reeb data, all exact.

The almost contact metric structure on a level of the cone, and its
dilation defect, are float work; they live in `contactmetric`, so
`classify` compiles none of it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import facelattice, polylattice
from .errors import NotACone, NotGood

SASAKIAN = "sasakian_type"
NON_SASAKIAN = "non_sasakian_type"


class ContactClassification(NamedTuple):
    reeb_vector: tuple[int, ...] | None
    type_label: str
    k_contact: bool


def _require_cone(p: polylattice.PolyhedralSet) -> None:
    if p.kind != polylattice.CONE:
        raise NotACone("operation needs a conical set")


def _rays(covers, n: int) -> tuple[tuple[int, ...], ...]:
    """The rays of a pointed cone in R^n, read from the Covers of its faces.

    A nonzero cone point whose tight conormals have rank n - 1 lies on a
    one-dimensional face, and every such face is a key of the enumeration
    with a witness on it; the ray is the witness scaled to a primitive
    integer vector, which keeps its sign.
    """
    found = set()
    for cover in covers.values():
        if cover.rank == n - 1:
            ints, _ = polylattice.integer_row(cover.witness)
            g = math.gcd(*ints)
            found.add(tuple(v // g for v in ints))
    return tuple(sorted(found))


def _checked_reeb(p: polylattice.PolyhedralSet, rays) -> tuple[int, ...]:
    vec = facelattice.reeb_candidate(p)
    for ray in rays:
        if sum(a * b for a, b in zip(ray, vec)) <= 0:
            raise AssertionError("candidate fails on an extreme ray")
    return vec


def classify(p: polylattice.PolyhedralSet,
             report: facelattice.UnimodularityReport,
             k: int) -> ContactClassification:
    """Good-cone classification from the cone's unimodularity report and
    its count k of line factors (`facelattice.convexity_class`): strongly
    convex cones (k == 0) carry a Reeb vector and the metric-compatible
    label, weakly convex ones do not. The rays that check the Reeb vector
    come from the report's faces.

    Raises:
        NotGood: non-good cones are orbifold territory and not classified.
    """
    _require_cone(p)
    if not report.is_unimodular:
        raise NotGood("cone is not good; classification out of scope")
    strongly = k == 0
    reeb = _checked_reeb(p, _rays(report.covers, p.n)) if strongly else None
    return ContactClassification(reeb, SASAKIAN if strongly else NON_SASAKIAN,
                                 strongly)
