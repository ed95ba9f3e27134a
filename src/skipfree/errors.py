"""Exception types shared across the package.

Each error derives from :class:`InputError` (the input is not valid; the CLI
exits 1) or :class:`NumericalError` (a valid input broke down; exit 2).
"""


class SkipFreeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SkipFreeError):
    """The input is not valid: the CLI reports "invalid input" and exits 1."""


class NumericalError(SkipFreeError):
    """A valid input broke down in floating point: the CLI reports "numerical failure" and exits 2."""


class SchemaError(InputError):
    """Chain-spec document is structurally malformed (missing/extra/ill-typed fields)."""


class ValidationError(InputError):
    """A chain (or law) invariant is violated.

    Carries the offending row index and the numeric residual when the
    violation is a row-sum mismatch; both are None otherwise.
    """

    def __init__(self, message, row=None, residual=None):
        super().__init__(message)
        self.row = row
        self.residual = residual


class RangeError(InputError, ValueError):
    """Argument outside its documented range: an index, a tolerance, a count or a grid."""


class InvariantError(NumericalError):
    """A law computed from a chain that passed validation broke down in floating point.

    The chain is valid; a number computed from it is not one the law can
    have (for example a mean absorption time that overflows a double), so
    this is a numerical failure, not bad input.
    """


class ConvergenceError(NumericalError):
    """The LAPACK eigenvalue solver did not converge on the transient block."""


class PoleError(NumericalError):
    """Transform evaluated too close to a pole of its denominator."""


class TailError(NumericalError):
    """Tail mass of a distribution table cannot be bounded."""


class DegenerateSpectrumError(NumericalError):
    """Partial fractions forced on no positive phases or on eps sum|w_i| > UNIFORMIZATION_TOL."""


class RunawayPathError(NumericalError):
    """A sampler run passed a cap: PATH_STEP_CAP steps of a path or SAMPLE_JUMP_CAP jumps in all."""
