"""Exception hierarchy shared by all besselgeom modules."""


class BesselGeomError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BesselGeomError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(BesselGeomError):
    """A Pochhammer or Gamma denominator sits at a pole (q in {0, -1, -2, ...})."""


class NoConvergenceError(BesselGeomError):
    """The truncation rule did not certify the requested tail bound within the term cap."""


class SeriesOverflowError(NoConvergenceError):
    """A series term overflowed binary64, so no tail bound can be certified past it."""


class SingularityError(BesselGeomError):
    """A threshold function was evaluated exactly at its essential singularity."""


class NoBracketError(BesselGeomError):
    """No sign-changing bracket exists in the searched windows."""


class BetaMismatchError(BesselGeomError):
    """A criterion defined only for beta = 1 was requested with a different beta."""
