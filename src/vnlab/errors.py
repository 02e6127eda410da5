"""Exception types shared across the package."""


class VnLabError(Exception):
    """Base class for all package errors."""


class InvariantViolation(VnLabError):
    """A constructed state failed one of its structural invariants."""


class LeakageBudgetExceeded(InvariantViolation):
    """Too much probability mass sits in the outer band of a grid."""


class ShapeMismatch(VnLabError):
    """Array shapes or grids of two objects do not line up."""


class DimensionMismatch(VnLabError):
    """Operator and state dimensions disagree."""


class KernelMismatch(VnLabError):
    """A decoherence kernel was built for a different observable."""


class NonHermitianObservable(VnLabError):
    """An observable matrix is not Hermitian within tolerance."""


class BasisMismatch(VnLabError):
    """A density operator is expressed in the wrong basis for this operation."""


class NegligibleProbability(VnLabError):
    """Conditioning was requested on an outcome of negligible probability."""


class UnsupportedObservable(VnLabError):
    """The observable kind is not handled by the requested code path."""


class TruncationTooSmall(VnLabError):
    """A truncated basis leaves too much tail weight."""


class ConfigInvalid(VnLabError):
    """A run configuration failed validation; the message names the field."""


class GridTooNarrow(ConfigInvalid):
    """A requested state does not fit inside the grid with safe margins."""
