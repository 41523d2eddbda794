"""Exception types shared across the package.

Every error raised on a violated precondition subclasses SelfPacedError, so
callers can distinguish contract violations from programming bugs.  Names
state the violated condition rather than the operation that raised them.
"""


class SelfPacedError(Exception):
    """Base class for all contract violations raised by this package."""


# ---- sampled-function / conjugacy errors ------------------------------------

class NonProper(SelfPacedError):
    """Function has no finite value, a non-interval domain, or NaN values."""


class BadGrid(SelfPacedError):
    """Grid is not strictly increasing or is too short."""


class EmptyOverlap(SelfPacedError):
    """Supremal convolution has no feasible split at any output point."""


class DimensionMismatch(SelfPacedError):
    """Vector arguments disagree in length, or dimension unsupported."""


# ---- regularizer errors ------------------------------------------------------

class BadParam(SelfPacedError):
    """Age parameter or loss argument outside its allowed range."""


class NotMonotone(SelfPacedError):
    """Weight function supplied to the design pipeline is not non-increasing."""


class BadLimits(SelfPacedError):
    """Weight function does not start at 1 near zero loss."""


class NotConvex(SelfPacedError):
    """Candidate penalty fails the convexity check."""


class BadDomain(SelfPacedError):
    """Candidate penalty domain is not contained in [0, 1] with 0, 1 in closure."""


# ---- curriculum errors -------------------------------------------------------

class SingularRegion(SelfPacedError):
    """Feasible region misses the weight-domain interior or excludes nothing."""


class EmptyFeasible(SelfPacedError):
    """No grid point satisfies the constraints."""


class UnsupportedRegularizer(SelfPacedError):
    """Closed form or solver requested for a regularizer it does not cover."""


class NoRoot(SelfPacedError):
    """A halfspace's weight balance never reaches its offset: no multiplier meets it."""


class BadPartition(SelfPacedError):
    """Group structure is not a partition of the sample indices."""


# ---- trainer errors ----------------------------------------------------------

class BadLabels(SelfPacedError):
    """Logistic loss requires labels in {-1, +1}."""


class SingularSystem(SelfPacedError):
    """Weighted normal equations are singular (only possible at ridge 0)."""


class InfeasibleCurriculum(SelfPacedError):
    """Curriculum region has no feasible weight vector in the unit box."""


class BadFractions(SelfPacedError):
    """Portion schedule fractions must be increasing and inside (0, 1]."""


# ---- warnings ----------------------------------------------------------------

class WeightTail(UserWarning):
    """Designed weight function does not decay to 0 by the end of the loss grid."""
