"""The absorption-time law and its evaluators.

A :class:`HittingLaw` packages the law of the time to absorption from state
0, whose transform is the probability generating function
p_0...p_{d-1} s^d / det(I - s P_{d-1}) of a discrete chain or the Laplace
transform alpha_0...alpha_{d-1} / det(s I - Q_{d-1}) of a continuous one.

The chain climbs one state at a time, so the passage 0 -> d is the sum of
the independent stage passages n -> n+1.  The transforms are the product of
the stage transforms, which follow the determinants' bottom-row recurrence
in ratio form (:func:`_transform`, vectorized over the points); the moments
are the sums of the stage means and variances, a scalar recursion over the
chain's own rows (:func:`moments`).  Both keep the passages j -> n as
suffixes, and no monomial coefficient enters either.  A stage denominator
is judged too close to a pole relative to the size of its terms, so a
continuous chain's transforms and moments do not depend on its time unit.
The discrete PMF is vector iteration on the transient block in blocks of
PMF_BLOCK powers, the masses of a batch of 1, 2, 4, ... blocks taken in one
product, with the exact mass left in the transient states as its tail
bound.  A continuous table takes partial fractions over the phases where
their weights' rounding, eps sum |w_i|, stays within UNIFORMIZATION_TOL,
else the chain's occupancy by uniformization (Jensen 1953,
:func:`transient_profile`), kept here so that no oracle is imported; one
rule, :func:`_grid`, validates every continuous grid.  The monomial
denominator is computed only on request (:attr:`HittingLaw.denom`), for the
``law`` output.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chains import ContinuousChain, DiscreteChain, is_integer, jump_totals, transient_block
from .charpoly import continuous_charpoly_seq, discrete_charpoly_seq
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
MAX_PMF_TERMS = 1_000_000
PMF_BLOCK = 256
UNIFORMIZATION_TOL = 1e-10  # the largest error of a continuous table entry, by either route
PHASE_MEAN_TOL = 1e-8  # |sum 1/lambda_i / E[tau] - 1| allowed before a spectrum is read or printed


@dataclass(frozen=True)
class HittingLaw:
    """Absorption-time law of a skip-free chain started at state 0.

    Fields
    ------
    source : DiscreteChain or ContinuousChain
        The chain the law was built from; the transforms, moments, PMF and
        uniformization route read it.
    spectrum : Spectrum
        Transient-block eigenvalues with realness classification.
    """

    source: object
    spectrum: Spectrum

    @property
    def kind(self):
        """"discrete" or "continuous"."""
        return self.source.kind

    @property
    def d(self):
        """The absorbing state index; also the number of phases."""
        return self.source.d

    @property
    def leading(self):
        """p_0...p_{d-1} resp. alpha_0...alpha_{d-1}; InvariantError outside the double range."""
        leading = math.prod(self.source.up)
        if not 0.0 < leading < math.inf:
            raise InvariantError(f"the up product {leading!r} leaves the double range")
        return leading

    @property
    def denom(self):
        """det(I - s P_{d-1}) resp. det(s I - Q_{d-1}) as a Polynomial.

        Computed when read, by the O(d^3) monomial recurrence, whose
        coefficients cancel on large chains; only the ``law`` output reads
        it.  A coefficient that is not finite raises InvariantError.
        """
        seq = discrete_charpoly_seq if self.kind == "discrete" else continuous_charpoly_seq
        with np.errstate(over="ignore", invalid="ignore"):
            denom = seq(self.source)[-1]
        if not np.isfinite(denom.coeffs).all():
            raise InvariantError("a denominator coefficient overflows a double")
        return denom


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Tabulated mass/density values with running cumulative and tail bound.

    ``support``, ``mass_or_density`` and ``cumulative`` are read-only 1-D
    ndarrays of equal length, whatever sequences the constructor was given:
    the int64 step counts 1..n of a PMF table, or the float64 grid of a
    continuous one, with float64 values.  Arrays have no truth value, so
    tables compare by identity; compare their fields with ``np.array_equal``.
    """

    support: np.ndarray
    mass_or_density: np.ndarray
    cumulative: np.ndarray
    tail_bound: float

    def __post_init__(self):
        for name in ("support", "mass_or_density", "cumulative"):
            view = np.asarray(getattr(self, name)).view()
            view.setflags(write=False)  # the view only: a caller's own array stays writable
            object.__setattr__(self, name, view)


def build_law(chain, tol=DEFAULT_REAL_TOL):
    """Assemble the HittingLaw of a chain: the chain and its spectrum."""
    if not isinstance(chain, (DiscreteChain, ContinuousChain)):
        raise TypeError(f"not a chain: {type(chain).__name__}")
    eigenvalues = eigenvalues_discrete if chain.kind == "discrete" else eigenvalues_continuous
    spectrum = eigenvalues(chain, tol)
    return HittingLaw(chain, spectrum)


def _transform(law, s):
    """(product of the stage transforms psi_n, stage denominators) at s, a scalar or 1-D array.

    psi_n(s) = up_n z / den_n(s), den_n(s) = step_n(s) - z sum_j down_{n,j} psi_j...psi_{n-1},
    with z = s and step_n(s) = 1 - r_n s for a discrete chain, z = 1 and step_n(s) = s + gamma_n
    for a continuous one.  The denominators, of shape (d, points), multiply to the prefix
    determinants: den_0...den_n = det(I - s P_n) resp. det(s I - Q_n).  A stage denominator
    below POLE_GUARD (1 + |s|) resp. POLE_GUARD (|s| + gamma_n) in modulus raises PoleError.
    """
    points = np.asarray(s)
    if points.ndim > 1:
        raise ValueError("s must be a scalar or a 1-D array of points")
    points = np.atleast_1d(points).astype(np.result_type(points, float))
    discrete = law.kind == "discrete"
    z = points if discrete else 1.0
    chain = law.source
    block = transient_block(chain, chain.d - 1)
    # row j: psi_j...psi_{n-1}, the transform of the passage j -> n, a suffix product and
    # never a quotient of prefixes
    below = np.ones((chain.d, points.size), dtype=points.dtype)
    denominators = np.empty_like(below)
    for n in range(chain.d):
        step = 1.0 - block[n, n] * points if discrete else points - block[n, n]
        denom = step - z * (block[n, :n] @ below[:n])
        # relative to the size of the step's terms, which carry a continuous chain's time unit
        scale = 1.0 + np.abs(points) if discrete else np.abs(points) - block[n, n]
        near = (np.abs(denom) / scale).min()
        if near < POLE_GUARD:
            raise PoleError(f"a stage denominator is {near:.3e} of its scale; too close to a pole")
        denominators[n] = denom
        below[: n + 1] *= chain.up[n] * z / denom
    value = below[0]
    return (value if np.ndim(s) else value[0].item()), denominators


def pgf(law, s):
    """Probability generating function E[s^tau] of a discrete law.

    ``s`` is a real or complex scalar or a 1-D array of points; the value is
    the product of the stage transforms (:func:`_transform`).  Valid on the
    pole-free disc |s| < 1/max|lambda_i|, which the caller owns; only
    near-pole evaluation is rejected.  For |s| <= 1 no stage transform
    exceeds 1 in modulus, so the product underflows only where phi does.

    >>> from skipfree import DiscreteChain, build_law
    >>> law = build_law(DiscreteChain(d=1, hold=[0.5], up=[0.5]))
    >>> pgf(law, [0.0, 0.5, 1.0]).tolist()
    [0.0, 0.3333333333333333, 1.0]
    """
    if law.kind != "discrete":
        raise ValueError("pgf is defined for discrete laws only")
    return _transform(law, s)[0]


def laplace(law, s):
    """Laplace transform E[exp(-s tau)] of a continuous law, Re(s) >= 0.

    Takes and returns the same forms as :func:`pgf`.
    """
    if law.kind != "continuous":
        raise ValueError("laplace is defined for continuous laws only")
    return _transform(law, s)[0]


def _pmf_panel(block, exit_prob):
    """The block route's set-up, by doubling: (panel, P^PMF_BLOCK).

    The panel has shape (2, d, PMF_BLOCK): panel[0, :, j] is
    P^j e_{d-1} p_{d-1} and panel[1, :, j] is P^{j+1} 1, for j < PMF_BLOCK.
    So for a stack of row vectors v, (v @ panel)[0] holds the next
    PMF_BLOCK masses after each v and (v @ panel)[1] the transient mass
    left after each of those steps.  Each doubling writes the next columns
    of both halves with one product, in place.
    """
    d = block.shape[0]
    panel = np.zeros((2, d, PMF_BLOCK))
    panel[0, -1, 0] = exit_prob
    panel[1, :, 0] = block.sum(axis=1)
    power = block
    width = 1
    while width < PMF_BLOCK:
        np.matmul(power, panel[:, :, :width], out=panel[:, :, width : 2 * width])
        power = power @ power
        width *= 2
    return panel, power


def pmf_table(law, eps=DEFAULT_PMF_EPS):
    """Exact absorption-time PMF by vector iteration on the transient block.

    With v_0 = e_0 and v_n = v_{n-1} P_{d-1}, the mass P(tau = n) is
    v_{n-1}[d-1] p_{d-1} and the mass left in the transient states after step
    n is v_n . 1.  The iteration runs in blocks of PMF_BLOCK steps, whose
    starts v_0, v_PMF_BLOCK, v_{2 PMF_BLOCK}, ... follow one another by
    v @ P^PMF_BLOCK.  The blocks are taken in batches of 1, 2, 4, ...: the
    starts of a batch are stacked, and one product starts @ panel gives the
    masses and remaining masses of all its blocks (see :func:`_pmf_panel`).
    Every product is of nonnegative numbers, so nothing cancels.

    The table stops at the first n whose transient mass left is <= eps, and
    that mass, the exact remainder 1 - sum of the masses up to rounding, is
    the reported tail bound.

    Raises
    ------
    RangeError
        If eps is not in (0, 1).
    TailError
        If the table would exceed MAX_PMF_TERMS rows.
    """
    if law.kind != "discrete":
        raise ValueError("pmf_table is defined for discrete laws only")
    if not 0.0 < eps < 1.0:
        raise RangeError(f"eps must be in (0,1), got {eps}")
    chain = law.source
    panel, power = _pmf_panel(transient_block(chain, chain.d - 1), chain.up[chain.d - 1])
    width = panel.shape[2]
    starts = np.zeros((1, chain.d))  # the batch's block starts, one row each
    starts[0, 0] = 1.0
    masses = []
    start = 0  # steps before the batch
    while True:
        out = starts @ panel  # [0] masses, [1] mass left, one row per block
        left = out[1]
        if left.min() <= eps:
            stop = int(np.flatnonzero(left <= eps)[0]) + 1
            if start + stop > MAX_PMF_TERMS:
                break
            masses = np.concatenate(masses + [out[0].ravel()[:stop]])
            return DistributionTable(
                support=np.arange(1, masses.size + 1, dtype=np.int64),
                mass_or_density=masses,
                cumulative=masses.cumsum(),
                tail_bound=float(left.flat[stop - 1]),
            )
        masses.append(out[0].ravel())
        start += starts.shape[0] * width
        if start >= MAX_PMF_TERMS:
            break
        # twice the blocks, but none that starts past the cap
        batch = min(2 * starts.shape[0], -(-(MAX_PMF_TERMS - start) // width))
        following = np.empty((batch, chain.d))
        np.matmul(starts[-1], power, out=following[0])
        for i in range(1, batch):
            np.matmul(following[i - 1], power, out=following[i])
        starts = following
    raise TailError(f"PMF table exceeded {MAX_PMF_TERMS} terms before the mass left fell to {eps}")


def default_grid(law, points=DEFAULT_GRID_POINTS, grid_max=None):
    """Evaluation grid for continuous tables: ``points`` values on [0, grid_max].

    ``grid_max`` defaults to five times the mean absorption time.  Raises
    RangeError if ``points`` is not an integer in 1..MAX_PMF_TERMS, the row
    cap of the discrete tables, or ``grid_max`` is not finite.
    """
    if not (is_integer(points) and 1 <= points <= MAX_PMF_TERMS):
        raise RangeError(f"grid points must be >= 1 and at most {MAX_PMF_TERMS}, got {points}")
    if grid_max is None:
        grid_max = 5.0 * moments(law)[0]
    if not math.isfinite(grid_max):
        raise RangeError(f"grid_max must be finite, got {grid_max}")
    return np.linspace(0.0, grid_max, points)


def _grid(t):
    """``t`` as a new 1-D float grid; RangeError unless nonempty, finite, sorted and nonnegative."""
    grid = np.array(t, dtype=float, ndmin=1)
    valid = grid.ndim == 1 and grid.size and np.all(np.isfinite(grid) & (grid >= 0.0))
    if not valid or np.any(np.diff(grid) < 0.0):
        raise RangeError("grid must be nonempty, finite, sorted and nonnegative")
    return grid


def _step_matrix(onestep, rate, gap, tol):
    """exp(Q gap) within ``tol`` in every row sum.

    Uniformize a short step h = gap / 2^s, the least s with mu = Lambda h <= 1/2:
    exp(Q h) is the Poisson(mu) mixture of the powers of ``onestep`` = I + Q/Lambda
    (Jensen 1953), whose weights w_k = w_{k-1} mu / k do not underflow at that
    size.  Then square s times (Moler & Van Loan 2003).  Each squaring at most
    doubles the mass the truncated series misses, so the series stops once its
    tail is below tol / 2^s.  Every product is of nonnegative numbers, but
    squaring also doubles the rows' relative rounding, so after very many
    squarings a row sum may overflow; that raises InvariantError.
    """
    # Lambda * gap < 2^(a + b) from the binary exponents, since the product may overflow
    squarings = max(0, math.frexp(rate)[1] + math.frexp(gap)[1] + 1)
    mu = rate * math.ldexp(gap, -squarings)
    if squarings and mu <= 0.25:
        squarings -= 1
        mu *= 2.0
    budget = math.ldexp(tol, -squarings)
    term = np.eye(len(onestep))
    step = term.copy()
    k, weight = 0, 1.0  # mu^k / k!
    # the tail past term k sums to less than twice its first weight
    while 2.0 * weight * mu / (k + 1) > budget:
        k += 1
        weight *= mu / k
        term = term @ onestep * (mu / k)
        step += term
    step *= math.exp(-mu)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            if not step.any():  # underflowed to zero, which squaring keeps
                break
            step = step @ step
    if not np.isfinite(step).all():  # inf and nan survive every later squaring
        raise InvariantError(f"the step matrix over a gap of {gap!r} overflows in squaring")
    return step


def transient_profile(chain, t):
    """Occupancy of the transient states at time t, by uniformization and squaring.

    ``t`` is a scalar or a 1-D array of times, sorted, repeats allowed.
    Returns e_0^T exp(Q_{d-1} t), of shape (d,) for a scalar and (len(t), d)
    for an array, every entry within tol = UNIFORMIZATION_TOL of the exact
    value.  Each gap g between consecutive times is crossed by one product
    v <- v exp(Q g).  One step matrix serves every equal gap (an evenly
    spaced grid has a few distinct ones); it is built by :func:`_step_matrix`
    in O(d^3 log(Lambda g)), Lambda = max gamma_i, with tol split evenly
    over the steps.  v stays nonnegative with mass at most 1, so each step
    adds at most its own share of the error.  Truncating the series only
    drops mass, so a row whose mass passes 1 + tol was made by rounding,
    which the squarings amplify; it raises InvariantError.
    """
    if not isinstance(chain, ContinuousChain):
        raise TypeError("transient_profile needs a continuous chain")
    grid = _grid(t)
    rate = max(jump_totals(chain, chain.d))
    onestep = np.eye(chain.d) + transient_block(chain, chain.d - 1) / rate
    gaps = np.diff(grid, prepend=0.0).tolist()
    budget = UNIFORMIZATION_TOL / max(1, np.count_nonzero(gaps))
    steps = {gap: _step_matrix(onestep, rate, gap, budget) for gap in set(gaps) if gap}
    occupancy = np.empty((grid.size, chain.d))
    v = np.zeros(chain.d)
    v[0] = 1.0
    # a row made past the double range by rounding fails the mass check below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for row, gap in enumerate(gaps):
            if gap:
                v = v @ steps[gap]
            occupancy[row] = v
        mass = occupancy.sum(axis=1).max()
    if not mass <= 1.0 + UNIFORMIZATION_TOL:  # NaN fails too
        raise InvariantError(f"a uniformized occupancy has mass 1 + {mass - 1.0:.3e}")
    return occupancy if np.ndim(t) else occupancy[0]


def _partial_fractions(rates, grid):
    """(density, cdf) on ``grid`` by the hypoexponential closed form, or None where not admitted.

    The weights w_i = prod_{j!=i} lambda_j / (lambda_j - lambda_i) give the density
    sum_i w_i lambda_i exp(-lambda_i t) and the CDF 1 - sum_i w_i exp(-lambda_i t), whose
    rounding is of order eps sum_i |w_i|.  The form is admitted on positive ``rates`` (the
    phases) when that is within UNIFORMIZATION_TOL, the uniformized route's promise.
    """
    if rates is None or min(rates) <= 0.0:
        return None
    lam = np.array(rates)
    # a repeated rate divides by zero, a running product may overflow: both fail the bound
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = lam / (lam - lam[:, None])  # row i: lambda_j / (lambda_j - lambda_i)
        np.fill_diagonal(ratio, 1.0)
        w = ratio.prod(axis=1)
        error = np.finfo(float).eps * np.abs(w).sum()
    if not error <= UNIFORMIZATION_TOL:  # NaN fails too
        return None
    # t lambda overflows to inf only where exp(-t lambda) is 0 anyway
    with np.errstate(over="ignore"):
        decay = np.exp(-np.outer(grid, lam))
    return decay @ (w * lam), (1.0 - decay) @ w


def pdf_cdf_table(law, grid=None, method="auto"):
    """Density and CDF of a continuous law on a grid.

    The hypoexponential partial-fraction closed form over the phases is used
    wherever :func:`_partial_fractions` admits it; every other law routes
    through :func:`transient_profile` on the source chain, within
    UNIFORMIZATION_TOL of every entry.  ``method`` forces one route.  Unless
    uniformization is forced, :func:`check_phase_mean` raises InvariantError
    on a spectrum, real or complex, whose Re sum_i 1/lambda_i misses the
    stage mean.

    Raises
    ------
    DegenerateSpectrumError
        If partial_fractions is forced where the closed form is not admitted.
    InvariantError
        If the spectrum misses the mean, or a uniformized row leaves its range.
    RangeError
        If the grid is empty, not finite, unsorted or negative.
    """
    if law.kind != "continuous":
        raise ValueError("pdf_cdf_table is defined for continuous laws only")
    if method not in ("auto", "partial_fractions", "uniformization"):
        raise ValueError(f"unknown method {method!r}")
    grid = _grid(default_grid(law) if grid is None else grid)  # a copy, kept as the support

    if method != "uniformization":
        check_phase_mean(law)
    rates = None if method == "uniformization" else phase_representation(law)
    closed = _partial_fractions(rates, grid)
    if closed is not None:
        density, cdf = closed
    elif method == "partial_fractions":
        raise DegenerateSpectrumError(
            "partial fractions need positive phases with eps sum|w_i| within "
            f"{UNIFORMIZATION_TOL} (classification {law.spectrum.classification.value})"
        )
    else:
        chain = law.source
        occupancy = transient_profile(chain, grid)
        density = chain.up[chain.d - 1] * occupancy[:, -1]
        cdf = 1.0 - occupancy.sum(axis=1)

    tail = max(0.0, 1.0 - float(cdf[-1]))
    return DistributionTable(support=grid, mass_or_density=density, cumulative=cdf, tail_bound=tail)


def moments(law):
    """Mean and variance of the absorption time, as sums over the stages.

    By first-step analysis, stage n's mean m_n and second moment u_n solve

        up_n m_n = 1 + sum_j down_{n,j} M_j
        up_n u_n = 2 m_n - c + sum_j down_{n,j} (V_j + M_j^2 + 2 M_j m_n)

    where M_j, V_j are the mean and variance of the passage j -> n and c = 1
    (discrete) or 0 (continuous); its variance is u_n - m_n^2.  The recursion
    runs on the chain's rows as Python floats: each sum over j is taken left
    to right over the nonzero down rates, and M_j, V_j are suffix sums of the
    stage moments j..n-1, never differences of prefixes, so the means are
    sums of positive terms.  No hold probability is read: 1 - r_n is taken
    as p_n + sum_j q_{n,j}, which leaves up_n on the left.  Returns (mean,
    variance) as floats; raises InvariantError, with no warning, if a stage
    sum overflows a double.

    >>> from skipfree import DiscreteChain, build_law
    >>> moments(build_law(DiscreteChain(d=1, hold=[0.5], up=[0.5])))
    (2.0, 2.0)
    """
    mean, variance = _passage_moments(law)
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise InvariantError(f"the stage moments overflow: mean {mean!r}, variance {variance!r}")
    return mean, variance


def _passage_moments(law):
    """The recursion of :func:`moments` without its overflow check: (mean, variance)."""
    chain = law.source
    c = 1.0 if law.kind == "discrete" else 0.0
    means, variances = [], []  # entry j: the passage j -> n, its stage moments summed as a suffix
    for n, up in enumerate(chain.up):
        row = [(q, means[j], variances[j]) for j, q in enumerate(chain.down[n]) if q]
        first = 0.0
        for q, mean_j, _ in row:
            first += q * mean_j
        m = (1.0 + first) / up
        second = 0.0
        for q, mean_j, var_j in row:
            second += q * (var_j + mean_j * (mean_j + 2.0 * m))
        v = (2.0 * m - c + second) / up - m * m
        means = [x + m for x in means]
        variances = [x + v for x in variances]
        means.append(m)
        variances.append(v)
    return means[0], variances[0]


def _phase_mean_miss(law):
    """|Re sum 1/lambda_i / E[tau] - 1| of a continuous law: inf or NaN where a term overflows.

    The transform factors over the transient block's eigenvalues, so Re sum 1/lambda_i is the
    stage mean for every continuous spectrum, real or complex.
    """
    lam = np.asarray(law.spectrum.values)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return abs(np.sum((1.0 / lam).real) / _passage_moments(law)[0] - 1.0)


def check_phase_mean(law):
    """Raise InvariantError if a continuous spectrum misses the mean Re sum 1/lambda_i.

    A miss past PHASE_MEAN_TOL relative (or a mean that overflows) is too far off to print
    or to read as phases, whether the spectrum is real or complex.  Discrete laws are not
    checked: their 1 - lambda_i errs by eps / (1 - lambda_i) relative, past the tolerance at
    means past 1e8.
    """
    if law.kind == "discrete":
        return
    miss = _phase_mean_miss(law)
    if not miss <= PHASE_MEAN_TOL:  # NaN fails too
        raise InvariantError(f"the phases' mean sum(1/lambda_i) is off by {miss:.3e} relative")


def phase_representation(law):
    """Independent-phase parameters when the spectrum allows them, else None.

    Returns a tuple, in the spectrum's order, of the geometric success
    probabilities min(1, 1 - lambda_i) for a discrete law (a RealNonnegative
    lambda_i may be as low as -tol) or the exponential rates lambda_i for a
    continuous one, whenever the classification is RealNonnegative (and,
    discretely, every eigenvalue is below 1); the absorption time is then
    the sum of those independent phases.  Returns None otherwise;
    ``law.spectrum.classification`` says why.
    """
    spectrum = law.spectrum
    if spectrum.classification is not SpectrumClass.REAL_NONNEGATIVE:
        return None
    lam = [v.real for v in spectrum.values]
    if law.kind == "discrete":
        return None if any(x >= 1.0 for x in lam) else tuple(min(1.0, 1.0 - x) for x in lam)
    return tuple(lam)
