"""Scale-aware verification of the almost contact metric structure.

`contactcone.induced_acm_structure` builds the structure in closed form
from x, G and G^-1, and the entries of G grow like 1/slack, so no absolute
tolerance suits every cone. Each entry of each identity is judged instead
against gamma_k = k u / (1 - k u), the bound on k roundings of unit
roundoff u (Higham 2002, Accuracy and Stability of Numerical Algorithms,
section 3.1), times the sum of the magnitudes of its terms. The terms are
expanded through the closed form down to x, G and G^-1: the closed form
and the identities run once more on `Magnitude`s of those inputs, so the
cancellations of the closed form count at the size of what cancelled, and
a quotient counts the relative error of its computed denominator.
`contactcone` imports this module where it runs, so `classify` does not
compile it.
"""

from __future__ import annotations

import math
import sys

from .errors import IdentityViolation


class Magnitude(float):
    """A value computed from exact inputs (`value`), as the float size
    that bounds its rounding error in units of gamma_k. Under -, + and *
    the size is the sum of the magnitudes of the terms the value expands
    to. A quotient a / b has size(a) / |b| (1 + size(b) / |b|) at the
    computed b, so that b's relative error counts too (to first order);
    `sqrt` does likewise. A plain float in an operation is an exact input."""

    def __new__(cls, size, value):
        self = super().__new__(cls, size)
        self.value = value
        return self

    def __add__(self, other):
        return Magnitude(float(self) + abs(other), self.value + _value(other))

    def __sub__(self, other):
        return Magnitude(float(self) + abs(other), self.value - _value(other))

    def __rsub__(self, other):
        return Magnitude(float(self) + abs(other), _value(other) - self.value)

    def __mul__(self, other):
        return Magnitude(float(self) * abs(other), self.value * _value(other))

    def __truediv__(self, other):
        below = abs(_value(other))
        return Magnitude(float(self) / below * (1.0 + abs(other) / below),
                         self.value / _value(other))

    def __neg__(self):
        return Magnitude(float(self), -self.value)

    __radd__ = __add__
    __rmul__ = __mul__


def _value(v):
    return getattr(v, "value", v)


def sqrt(b: Magnitude) -> Magnitude:
    """math.sqrt for `Magnitude`s: a root's relative error is at most half
    its radicand's, plus one rounding."""
    root = math.sqrt(b.value)
    return Magnitude(root * (1.0 + float(b) / b.value), root)


def magnitudes(x, g, g_inv):
    """x, G and G^-1 as `Magnitude`s of exact inputs."""
    return ([Magnitude(abs(v), v) for v in x],
            *([[Magnitude(abs(v), v) for v in row] for row in matrix]
              for matrix in (g, g_inv)))


def identities(acm, orth) -> dict:
    """The residual entries of each identity, keyed by the failure it
    names: the angle directions' images under J are tangent to the level
    (orth, <x, w> of each w of the closed form), alpha(xi) = 1, phi xi = 0,
    phi^2 = -id + xi (x) alpha and g(phi., phi.) = g - alpha (x) alpha."""
    from .kahlerpotential import _dot
    cols = list(zip(*acm.phi))
    g_phi = [[_dot(row, col) for row in acm.metric] for col in cols]
    frame = range(len(cols))
    return {
        "J of an angle direction leaves the level": orth,
        "alpha(xi) misses 1": [_dot(acm.alpha, acm.xi) - 1.0],
        "phi does not annihilate xi": [_dot(row, acm.xi) for row in acm.phi],
        "phi squared misses -id + xi (x) alpha": [
            _dot(row, col) + float(a == b) - acm.xi[a] * acm.alpha[b]
            for a, row in enumerate(acm.phi) for b, col in enumerate(cols)],
        "metric is not phi-compatible": [
            _dot(cols[a], g_phi[b]) - acm.metric[a][b]
            + acm.alpha[a] * acm.alpha[b] for a in frame for b in frame]}


def verify_structure(structure, size) -> None:
    """Check a structure (acm, orth) against `size`, the same built from
    `magnitudes`. The frame has d = 2n - 1 directions, and k = 3d + 9
    bounds the roundings on any path from x, G and G^-1 to a residual:
    dot products of length n in the closed form (two on a path), of
    length d in an identity (two), and at most nine scalar steps.

    Raises:
        IdentityViolation: an entry exceeds its bound (or is NaN); names
            the identity, the entry, its residual and the bound.
    """
    k = 3 * len(structure[0].xi) + 9
    u = sys.float_info.epsilon / 2
    gamma = k * u / (1 - k * u)
    for (name, residuals), sizes in zip(identities(*structure).items(),
                                        identities(*size).values()):
        for entry, (residual, bound) in enumerate(zip(residuals, sizes)):
            if not abs(residual) <= gamma * bound:
                raise IdentityViolation(
                    f"{name}: entry {entry} residual {residual!r} exceeds "
                    f"{gamma * bound!r}")
