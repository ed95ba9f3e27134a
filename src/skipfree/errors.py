"""Exception types shared across the package."""


class SkipFreeError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SkipFreeError):
    """Chain-spec document is structurally malformed (missing/extra/ill-typed fields)."""


class ValidationError(SkipFreeError):
    """A chain (or law) invariant is violated.

    Carries the offending row index and the numeric residual when the
    violation is a row-sum mismatch; both are None otherwise.
    """

    def __init__(self, message, row=None, residual=None):
        super().__init__(message)
        self.row = row
        self.residual = residual


class RangeError(SkipFreeError, ValueError):
    """Argument outside its documented range: an index, a tolerance, a count or a grid."""


class InvariantError(SkipFreeError):
    """A law computed from a chain that passed validation broke down in floating point.

    The chain is valid; a number computed from it is not one the law can
    have (for example a mean absorption time that overflows a double), so
    this is a numerical failure, not bad input.
    """


class ConvergenceError(SkipFreeError):
    """The LAPACK eigenvalue solver did not converge on the transient block."""


class PoleError(SkipFreeError):
    """Transform evaluated too close to a pole of its denominator."""


class TailError(SkipFreeError):
    """Tail mass of a distribution table cannot be bounded."""


class DegenerateSpectrumError(SkipFreeError):
    """Partial-fraction inversion requested for a near-repeated spectrum."""


class SingularSystemError(SkipFreeError):
    """Linear system for expected hitting times is singular."""


class RunawayPathError(SkipFreeError):
    """A simulated trajectory exceeded the per-path step cap."""
