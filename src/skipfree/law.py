"""The absorption-time law and its evaluators.

A :class:`HittingLaw` packages the exact rational transform of the time to
absorption: for a discrete chain the probability generating function

    phi(s) = p_0...p_{d-1} s^d / det(I_{d-1} - s P_{d-1}),

for a continuous chain the Laplace transform

    phi(s) = alpha_0...alpha_{d-1} / det(s I_{d-1} - Q_{d-1}).

The rational form (leading constant over the recurrence's denominator
polynomial) is the authoritative evaluator everywhere; the eigenvalue
product form and the geometric/exponential phase representation are
verification surfaces layered on top of it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ContinuousChain, DiscreteChain
from .charpoly import (
    Polynomial,
    continuous_charpoly_seq,
    discrete_charpoly_seq,
    poly_derivative,
    poly_eval,
)
from .errors import DegenerateSpectrumError, InvariantError, PoleError, TailError
from .spectral import (
    DEFAULT_REAL_TOL,
    Spectrum,
    SpectrumClass,
    eigenvalues_continuous,
    eigenvalues_discrete,
)

POLE_GUARD = 1e-13
DEFAULT_PMF_EPS = 1e-12
DEFAULT_GRID_POINTS = 200
PF_MIN_RELATIVE_GAP = 1e-6
MAX_PMF_TERMS = 1_000_000


@dataclass(frozen=True)
class HittingLaw:
    """Absorption-time law of a skip-free chain started at state 0.

    Fields
    ------
    kind : "discrete" or "continuous"
    d : int
        The absorbing state index; also the number of phases.
    leading : float
        p_0...p_{d-1} (discrete) or alpha_0...alpha_{d-1} (continuous).
    denom : Polynomial
        det(I - s P_{d-1}) resp. det(s I - Q_{d-1}).
    spectrum : Spectrum
        Transient-block eigenvalues with realness classification.
    source : chain, optional
        The chain the law was built from; needed only by the
        uniformization route of :func:`pdf_cdf_table`.
    """

    kind: str
    d: int
    leading: float
    denom: Polynomial
    spectrum: Spectrum
    source: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class DistributionTable:
    """Tabulated mass/density values with running cumulative and tail bound."""

    support: tuple
    mass_or_density: tuple
    cumulative: tuple
    tail_bound: float


@dataclass(frozen=True)
class NotApplicable:
    """Marker returned when no phase representation exists; says why."""

    classification: SpectrumClass


def build_law(chain, tol=DEFAULT_REAL_TOL):
    """Assemble the HittingLaw of a chain, verifying its invariants.

    Discrete laws must have denom(0) = 1 and denom(1) equal to the leading
    constant (the transform is 1 at s=1); continuous laws must be monic with
    denom(0) equal to the leading constant.  The chain itself is already
    valid, so a violation is a numerical failure and raises InvariantError.
    """
    if isinstance(chain, DiscreteChain):
        denom = discrete_charpoly_seq(chain)[-1]
        leading = math.prod(chain.up)
        spectrum = eigenvalues_discrete(chain, tol)
        if denom.coeffs[0] != 1.0:
            raise InvariantError(f"denominator constant term is {denom.coeffs[0]!r}, not 1")
        at_one = poly_eval(denom, 1.0)
        if abs(at_one - leading) > 1e-10 * max(1.0, abs(leading)):
            raise InvariantError(
                f"denom(1)={at_one!r} does not match up-probability product {leading!r}"
            )
        law = HittingLaw("discrete", chain.d, leading, denom, spectrum, source=chain)
    elif isinstance(chain, ContinuousChain):
        denom = continuous_charpoly_seq(chain)[-1]
        leading = math.prod(chain.up)
        spectrum = eigenvalues_continuous(chain, tol)
        if denom.degree != chain.d or denom.coeffs[-1] != 1.0:
            raise InvariantError("denominator is not monic of degree d")
        at_zero = poly_eval(denom, 0.0)
        if abs(at_zero - leading) > 1e-10 * abs(leading):
            raise InvariantError(
                f"denom(0)={at_zero!r} does not match up-rate product {leading!r}"
            )
        law = HittingLaw("continuous", chain.d, leading, denom, spectrum, source=chain)
    else:
        raise TypeError(f"not a chain: {type(chain).__name__}")
    return law


def _denom_at(law, s):
    value = poly_eval(law.denom, s)
    if abs(value) < POLE_GUARD:
        raise PoleError(f"denominator is {abs(value):.3e} at s={s}; too close to a pole")
    return value


def pgf(law, s):
    """Probability generating function E[s^tau] of a discrete law.

    Evaluates the rational form leading * s^d / denom(s).  Valid on the
    pole-free disc |s| < 1/max|lambda_i|; the caller owns that precondition,
    only near-pole evaluation is rejected.
    """
    if law.kind != "discrete":
        raise ValueError("pgf is defined for discrete laws only")
    return law.leading * s**law.d / _denom_at(law, s)


def laplace(law, s):
    """Laplace transform E[exp(-s tau)] of a continuous law, Re(s) >= 0."""
    if law.kind != "continuous":
        raise ValueError("laplace is defined for continuous laws only")
    return law.leading / _denom_at(law, s)


def pmf_table(law, eps=DEFAULT_PMF_EPS, max_terms=MAX_PMF_TERMS):
    """Exact absorption-time PMF by power-series inversion of the PGF.

    The series coefficients of leading * s^d / denom(s) obey the linear
    recurrence a_d = leading, a_n = -sum_k denom_k a_{n-k} for n > d (valid
    because denom(0) = 1), costing O(d) per term.  The table extends until
    the cumulative mass reaches 1 - eps.

    The reported tail bound is the geometric envelope K * rho^n fitted to
    the last 10 terms with rho = max|lambda_i| + 1e-6, capped by the exact
    remaining mass 1 - cumulative so that finite-support laws report a zero
    tail.

    An ``eps`` below the double accumulation floor (about 1e-13) saturates
    there: the table stops once further terms can no longer move the
    cumulative sum, which still leaves every mass-balance invariant intact.

    Raises
    ------
    TailError
        If max|lambda_i| >= 1 (no geometric tail) or the table would exceed
        ``max_terms``.
    """
    if law.kind != "discrete":
        raise ValueError("pmf_table is defined for discrete laws only")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    rho_spectral = max((abs(v) for v in law.spectrum.values), default=0.0)
    if rho_spectral >= 1.0:
        raise TailError(f"spectral radius {rho_spectral} >= 1; tail mass cannot be bounded")
    rho = rho_spectral + 1e-6

    g = law.denom.coeffs
    d = law.d
    masses = []
    cum = 0.0
    n = 0
    while cum < 1.0 - eps:
        n += 1
        if n > max_terms:
            raise TailError(f"PMF table exceeded {max_terms} terms at cumulative {cum}")
        if n < d:
            a_n = 0.0
        elif n == d:
            a_n = law.leading
        else:
            a_n = -sum(g[k] * masses[n - k - 1] for k in range(1, min(len(g), n - d + 1)))
        masses.append(a_n)
        if n > d:
            if a_n != 0.0 and cum + a_n == cum:
                break  # accumulation floor: the sum can no longer move
            if all(m == 0.0 for m in masses[-len(g) :]):
                break  # series terminated exactly
        cum += a_n

    window = masses[-10:]
    offset = len(masses) - len(window)
    envelope = max(
        (a / rho ** (offset + j + 1) for j, a in enumerate(window) if a > 0.0), default=0.0
    )
    tail = envelope * rho ** (len(masses) + 1) / (1.0 - rho)
    tail = min(tail, max(0.0, 1.0 - cum))
    return DistributionTable(
        support=tuple(range(1, len(masses) + 1)),
        mass_or_density=tuple(masses),
        cumulative=tuple(np.cumsum(masses)),
        tail_bound=tail,
    )


def _partial_fraction_weights(rates):
    rates = np.asarray(rates, dtype=float)
    weights = np.empty_like(rates)
    for i, lam in enumerate(rates):
        others = np.delete(rates, i)
        weights[i] = np.prod(others / (others - lam))
    return weights


def _distinct_real_positive(spectrum):
    if spectrum.classification is not SpectrumClass.REAL_NONNEGATIVE:
        return False
    lam = sorted(v.real for v in spectrum.values)
    if lam and lam[0] <= 0.0:
        return False
    for a, b in zip(lam, lam[1:]):
        if b - a <= PF_MIN_RELATIVE_GAP * max(abs(a), abs(b)):
            return False
    return True


def default_grid(law, points=DEFAULT_GRID_POINTS, grid_max=None):
    """Evaluation grid for continuous tables: ``points`` values on [0, grid_max].

    ``grid_max`` defaults to five times the mean absorption time.
    """
    if grid_max is None:
        grid_max = 5.0 * moments(law)[0]
    return np.linspace(0.0, grid_max, points)


def pdf_cdf_table(law, grid=None, method="auto", tol=1e-10):
    """Density and CDF of a continuous law on a grid.

    With distinct, real, strictly positive eigenvalues (pairwise relative
    gap above 1e-6) the hypoexponential partial-fraction closed form

        f(t) = sum_i [prod_{j!=i} lambda_j/(lambda_j - lambda_i)] lambda_i exp(-lambda_i t)

    is used.  Every other spectrum routes through the uniformization engine
    on the source chain, which is exact up to ``tol`` truncation.
    ``method`` forces one route; "auto" picks per the rule above.

    Raises
    ------
    DegenerateSpectrumError
        If partial_fractions is forced on a near-repeated spectrum.
    """
    if law.kind != "continuous":
        raise ValueError("pdf_cdf_table is defined for continuous laws only")
    if method not in ("auto", "partial_fractions", "uniformization"):
        raise ValueError(f"unknown method {method!r}")
    if grid is None:
        grid = default_grid(law)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid < 0.0) or np.any(np.diff(grid) < 0.0):
        raise ValueError("grid must be nonempty, sorted and nonnegative")

    separable = _distinct_real_positive(law.spectrum)
    if method == "partial_fractions" and not separable:
        raise DegenerateSpectrumError(
            "partial fractions need distinct real positive eigenvalues "
            f"(classification {law.spectrum.classification.value})"
        )
    if method == "auto":
        method = "partial_fractions" if separable else "uniformization"

    if method == "partial_fractions":
        lam = np.array([v.real for v in law.spectrum.values])
        w = _partial_fraction_weights(lam)
        decay = np.exp(-np.outer(grid, lam))
        density = decay @ (w * lam)
        cdf = (1.0 - decay) @ w
    else:
        # imported here: oracle depends on this module for DistributionTable
        from .oracle import transient_profile

        if law.source is None:
            raise ValueError("uniformization needs the law's source chain")
        chain = law.source
        occupancy = transient_profile(chain, grid, tol)
        density = chain.up[chain.d - 1] * occupancy[:, -1]
        cdf = 1.0 - occupancy.sum(axis=1)

    tail = max(0.0, 1.0 - float(cdf[-1]))
    return DistributionTable(
        support=tuple(float(t) for t in grid),
        mass_or_density=tuple(float(x) for x in density),
        cumulative=tuple(float(x) for x in cdf),
        tail_bound=tail,
    )


def moments(law):
    """Mean and variance of the absorption time.

    Discrete laws differentiate the rational PGF at s=1 (mean is
    d - denom'(1)/denom(1)); continuous laws use the spectral sums
    sum 1/lambda_i and sum 1/lambda_i^2, whose imaginary parts cancel over
    conjugate pairs.

    Returns
    -------
    (mean, variance) : tuple of float
    """
    if law.kind == "discrete":
        g1 = poly_eval(law.denom, 1.0)
        dg = poly_derivative(law.denom)
        gp = poly_eval(dg, 1.0)
        gpp = poly_eval(poly_derivative(dg), 1.0)
        d = law.d
        phi1 = law.leading / g1  # 1 up to build tolerance
        mean = d - gp / g1
        phip = phi1 * mean
        # u = phi * denom with u(s) = leading * s^d, differentiated twice at s=1
        phipp = (law.leading * d * (d - 1) - 2.0 * phip * gp - phi1 * gpp) / g1
        return mean, phipp + phip - phip * phip
    mean = sum(1.0 / v for v in law.spectrum.values).real
    variance = sum(1.0 / (v * v) for v in law.spectrum.values).real
    return mean, variance


def phase_representation(law):
    """Independent-phase parameters when the spectrum allows them.

    Returns the geometric success probabilities (1 - lambda_i) for a
    discrete law, or the exponential rates lambda_i for a continuous one,
    whenever the classification is RealNonnegative (and, discretely, every
    eigenvalue is below 1).  Otherwise returns :class:`NotApplicable`
    carrying the classification.
    """
    spectrum = law.spectrum
    if spectrum.classification is not SpectrumClass.REAL_NONNEGATIVE:
        return NotApplicable(spectrum.classification)
    lam = [v.real for v in spectrum.values]
    if law.kind == "discrete":
        if any(x >= 1.0 for x in lam):
            return NotApplicable(spectrum.classification)
        return tuple(1.0 - x for x in lam)
    return tuple(lam)
