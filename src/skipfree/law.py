"""The absorption-time law and its evaluators.

A :class:`HittingLaw` packages the exact rational transform of the time to
absorption: for a discrete chain the probability generating function

    phi(s) = p_0...p_{d-1} s^d / det(I_{d-1} - s P_{d-1}),

for a continuous chain the Laplace transform

    phi(s) = alpha_0...alpha_{d-1} / det(s I_{d-1} - Q_{d-1}).

The rational form (leading constant over the recurrence's denominator
polynomial) is the authoritative evaluator of the transforms and the
discrete moments.  The discrete PMF comes from the transient block instead:
vector iteration in blocks of PMF_BLOCK powers, whose products are all of
nonnegative numbers, with the exact mass left in the transient states as
its tail bound; the power series of the rational form is its oracle
(:func:`pgf_coefficients`).  The eigenvalue product form and the
geometric/exponential phase representation are verification surfaces
layered on top.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .chains import ContinuousChain, DiscreteChain, transient_block
from .charpoly import (
    Polynomial,
    continuous_charpoly_seq,
    discrete_charpoly_seq,
    poly_derivative,
    poly_eval,
)
from .errors import (
    DegenerateSpectrumError,
    InvariantError,
    PoleError,
    RangeError,
    TailError,
)
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
PMF_BLOCK = 256


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
        The chain the law was built from; needed by :func:`pmf_table`, which
        iterates its transient block, and by the uniformization route of
        :func:`pdf_cdf_table`.
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


def _pmf_panel(block, exit_prob):
    """The block route's set-up, by doubling: (panel, P^PMF_BLOCK).

    Column j of the panel's left half is P^j e_{d-1} p_{d-1}, column j of its
    right half is P^{j+1} 1, for j < PMF_BLOCK; so for any row vector v the
    product v @ panel holds the next PMF_BLOCK masses and the transient mass
    left after each of those steps.
    """
    d = block.shape[0]
    panel = np.zeros((d, 2, PMF_BLOCK))  # [:, 0, j] exit column j, [:, 1, j] remainder
    panel[-1, 0, 0] = exit_prob
    panel[:, 1, 0] = block.sum(axis=1)
    power = block
    width = 1
    while width < PMF_BLOCK:
        shifted = power @ panel[:, :, :width].reshape(d, 2 * width)
        panel[:, :, width : 2 * width] = shifted.reshape(d, 2, width)
        power = power @ power
        width *= 2
    return panel.reshape(d, 2 * PMF_BLOCK), power


def pmf_table(law, eps=DEFAULT_PMF_EPS, max_terms=MAX_PMF_TERMS):
    """Exact absorption-time PMF by vector iteration on the transient block.

    With v_0 = e_0 and v_n = v_{n-1} P_{d-1}, the mass P(tau = n) is
    v_{n-1}[d-1] p_{d-1} and the mass left in the transient states after step
    n is v_n . 1.  The iteration runs in blocks of PMF_BLOCK steps: each
    block is two vector-matrix products, v @ panel for the block's masses and
    remaining masses (see :func:`_pmf_panel`) and v @ P^PMF_BLOCK for the
    next block's start.  Every product is of nonnegative numbers, so nothing
    cancels.

    The table stops at the first n whose transient mass left is <= eps, and
    that mass, the exact remainder 1 - sum of the masses up to rounding, is
    the reported tail bound.

    Raises
    ------
    ValueError
        If the law has no source chain.
    RangeError
        If eps is not in (0, 1).
    TailError
        If the table would exceed ``max_terms``.
    """
    if law.kind != "discrete":
        raise ValueError("pmf_table is defined for discrete laws only")
    if not 0.0 < eps < 1.0:
        raise RangeError(f"eps must be in (0,1), got {eps}")
    if law.source is None:
        raise ValueError("pmf_table needs the law's source chain")
    chain = law.source
    panel, power = _pmf_panel(transient_block(chain, chain.d - 1), chain.up[chain.d - 1])
    v = np.zeros(chain.d)
    v[0] = 1.0
    blocks = []
    for start in range(0, max_terms, PMF_BLOCK):
        out = v @ panel
        done = np.flatnonzero(out[PMF_BLOCK:] <= eps)
        if done.size:
            stop = int(done[0]) + 1
            if start + stop > max_terms:
                break
            masses = np.concatenate(blocks + [out[:stop]])
            return DistributionTable(
                support=tuple(range(1, masses.size + 1)),
                mass_or_density=tuple(masses.tolist()),
                cumulative=tuple(np.cumsum(masses).tolist()),
                tail_bound=float(out[PMF_BLOCK + stop - 1]),
            )
        blocks.append(out[:PMF_BLOCK])
        v = v @ power
    raise TailError(f"PMF table exceeded {max_terms} terms before the mass left fell to {eps}")


def pgf_coefficients(law, n_max):
    """Taylor coefficients a_1..a_{n_max} of the rational PGF.

    The series of leading * s^d / denom(s) obeys the linear recurrence
    a_n = 0 for n < d, a_d = leading, a_n = -sum_k denom_k a_{n-k} for n > d
    (valid because denom(0) = 1), O(d) per term.  This is the oracle for
    :func:`pmf_table`: it reaches the masses from the monomial coefficients
    of denom, not from the block, and its alternating sums cancel once those
    coefficients grow, so it has no stop rule of its own.
    """
    if law.kind != "discrete":
        raise ValueError("pgf_coefficients is defined for discrete laws only")
    g = law.denom.coeffs
    d = law.d
    coeffs = []
    for n in range(1, n_max + 1):
        if n < d:
            a_n = 0.0
        elif n == d:
            a_n = law.leading
        else:
            k_end = min(len(g), n - d + 1)
            a_n = -sum(map(operator.mul, g[1:k_end], reversed(coeffs[n - k_end : n - 1])))
        coeffs.append(a_n)
    return np.array(coeffs, dtype=float)


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

    ``grid_max`` defaults to five times the mean absorption time.  Raises
    RangeError if ``points`` is below 1.
    """
    if points < 1:
        raise RangeError(f"grid points must be >= 1, got {points}")
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
    RangeError
        If the grid is empty, unsorted or negative.
    """
    if law.kind != "continuous":
        raise ValueError("pdf_cdf_table is defined for continuous laws only")
    if method not in ("auto", "partial_fractions", "uniformization"):
        raise ValueError(f"unknown method {method!r}")
    if grid is None:
        grid = default_grid(law)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid < 0.0) or np.any(np.diff(grid) < 0.0):
        raise RangeError("grid must be nonempty, sorted and nonnegative")

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
