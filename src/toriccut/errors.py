"""Exception hierarchy shared by every module in the package."""


class ToricError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroConormal(ToricError):
    """A facet was given with an all-zero conormal vector."""


class ConeWithNonzeroOffset(ToricError):
    """A set declared as a cone carries a facet with nonzero offset."""


class ConfigError(ToricError):
    """An environment setting holds a value that does not parse."""


class ScaleLimitExceeded(ToricError):
    """Input exceeds the supported dimension or constraint count."""


class NotACone(ToricError):
    pass


class NotUnimodular(ToricError):
    pass


class NotGood(ToricError):
    """A cone failed the off-apex unimodularity checks."""


class NotInterior(ToricError):
    """Point is on or outside the boundary where strict interiority is required."""


class NotSPD(ToricError):
    """Matrix is not symmetric positive definite."""


class NoConvergence(ToricError):
    """Iteration budget exhausted before the residual target was met."""


class NotOnLevel(ToricError):
    """Ambient point does not satisfy the moment-level equations."""


class PointOutside(ToricError):
    pass


class ZeroPoint(ToricError):
    pass


class IdentityViolation(ToricError):
    """A structural identity failed its numerical verification."""
