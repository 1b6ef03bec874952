"""Exception types shared across the package."""


class StrataBoundsError(Exception):
    """Base class for all package errors."""


class ZeroShareError(StrataBoundsError):
    """Stratum share (denominator moment) fell at or below its floor."""


class AllTrimmedError(StrataBoundsError):
    """Every observation fell inside the trimming band."""


class PartitionError(StrataBoundsError):
    """A moment was requested on rows whose partition label does not support it."""


class DegenerateTrimError(StrataBoundsError):
    """A smoothed trimming fraction evaluated at or below zero."""


class EmptyCellError(StrataBoundsError):
    """A learner was asked about a treatment arm or a discrete covariate
    level with no training observations."""


class EmptyTailError(StrataBoundsError):
    """No training observation fell inside a requested truncation region."""


class SeparationWarning(UserWarning):
    """A fitted logistic index exceeded the quasi-separation threshold."""
