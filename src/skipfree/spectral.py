"""Transient-block spectra: eigenvalue extraction and realness classification.

The d eigenvalues of the transient block drive every closed form downstream:
for a discrete chain they are the reciprocal roots of det(I - s P_{d-1}),
for a continuous chain the negated roots of det(s I - Q_{d-1}).  They are
taken from the block itself by LAPACK, never from the denominator's
monomial coefficients, whose roots are ill-conditioned: the symmetric
tridiagonal solver for birth-death chains (real spectrum by construction),
the general nonsymmetric solver otherwise.  A value that is not finite
raises ConvergenceError.  A continuous chain's eigenvalues carry its time
unit, so they are classified by their directions v / |v|; a discrete
chain's lie in the unit disc and are classified as they stand.
"""

import cmath
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chains import transient_block
from .errors import ConvergenceError, RangeError

DEFAULT_REAL_TOL = 1e-9
_TINY = sys.float_info.min  # the smallest normal double


class SpectrumClass(enum.Enum):
    REAL_NONNEGATIVE = "RealNonnegative"
    REAL_MIXED_SIGN = "RealMixedSign"
    COMPLEX = "Complex"


@dataclass(frozen=True)
class Spectrum:
    """Multiset of transient-block eigenvalues plus realness classification.

    ``values`` are complex, sorted by descending real part (ties by
    ascending imaginary part).  When the classification is real, values are
    already snapped onto the real axis so downstream closed forms can use
    ``v.real`` without residual imaginary noise.
    """

    values: tuple
    classification: SpectrumClass
    tolerance_used: float


def classify(values, tol):
    """Classify a multiset of complex values for the closed-form dispatch.

    RealNonnegative iff every value has |Im| <= tol*(1+|value|) and
    Re >= -tol; RealMixedSign iff all values pass the same realness test but
    at least one has Re < -tol; Complex otherwise.  Raises RangeError
    unless 0 < tol < inf.
    """
    if not 0.0 < tol < np.inf:
        raise RangeError(f"tol must be positive and finite, got {tol}")
    vals = [complex(v) for v in values]
    if any(abs(v.imag) > tol * (1.0 + abs(v)) for v in vals):
        return SpectrumClass.COMPLEX
    if any(v.real < -tol for v in vals):
        return SpectrumClass.REAL_MIXED_SIGN
    return SpectrumClass.REAL_NONNEGATIVE


def _build_spectrum(values, cls, tol):
    if cls is not SpectrumClass.COMPLEX:
        values = [complex(v.real, 0.0) for v in values]
    ordered = tuple(sorted((complex(v) for v in values), key=lambda v: (-v.real, v.imag)))
    return Spectrum(values=ordered, classification=cls, tolerance_used=tol)


def _block_eigenvalues(chain):
    """Eigenvalues of the transient block P_{d-1} (resp. Q_{d-1}) by LAPACK.

    A birth-death block is tridiagonal with nonnegative off-diagonal
    products, so it is diagonally similar to the symmetric tridiagonal with
    off-diagonal sqrt(m[i,i+1] m[i+1,i]); its spectrum is then taken by the
    symmetric solver and is real by construction.  Every other block goes to
    the general nonsymmetric solver.  A solver that fails, or returns a
    value that is not finite, raises ConvergenceError.
    """
    m = transient_block(chain, chain.d - 1)
    try:
        if np.tril(m, -2).any():  # a down jump past the state directly below
            values = np.linalg.eigvals(m)
        else:
            # outside the normal range a product overflowed or lost bits: take the roots first
            off = [math.sqrt(u * w) if _TINY <= u * w < math.inf else math.sqrt(u) * math.sqrt(w)
                   for u, w in zip(m.diagonal(1).tolist(), m.diagonal(-1).tolist())]
            # eigvalsh reads only the lower triangle, here the diagonal and the subdiagonal
            m.flat[chain.d :: chain.d + 1] = off
            values = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solver did not converge: {exc}") from exc
    values = values.tolist()
    if not all(map(cmath.isfinite, values)):
        raise ConvergenceError("eigenvalue solver returned a value that is not finite")
    return values


def eigenvalues_discrete(chain, tol=DEFAULT_REAL_TOL):
    """The d non-unit eigenvalues of P, i.e. the spectrum of P_{d-1}."""
    values = _block_eigenvalues(chain)
    return _build_spectrum(values, classify(values, tol), tol)


def eigenvalues_continuous(chain, tol=DEFAULT_REAL_TOL):
    """The d non-zero eigenvalues of -Q, i.e. the negated spectrum of Q_{d-1}.

    They scale with the chain's rates, so each is classified by its
    direction v / |v|: the realness test is then relative, |Im v| <= 2 tol |v|,
    and a chain's class does not depend on its time unit.
    """
    values = [-v for v in _block_eigenvalues(chain)]
    # with subnormal rates an eigenvalue can round to 0, which stays 0
    unit = [v / abs(v) if v else v for v in values]
    return _build_spectrum(values, classify(unit, tol), tol)
