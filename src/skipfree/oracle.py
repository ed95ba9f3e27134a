"""Independent ground-truth engines for the closed forms.

Everything here reaches the absorption law through a route disjoint from the
charpoly/spectral pipeline: dense vector-matrix iteration, literal path
enumeration, inversion of the stage transform and of the geometric phases'
product on the unit circle, uniformization of the generator, and Monte
Carlo simulation.  :func:`report_from_errors` turns pointwise errors into
pass/fail reports, and the KS statistics at the bottom compare samples.

Randomness contract, stream version 2: samplers draw from numpy's Philox
counter-based bit generator keyed by ``SamplerConfig.seed``, consuming draws
in wave order, so a given (seed, paths, start_state) triple yields the same
samples on any platform.  A wave is one jump for every live path, in path
order: every live path first draws one standard exponential E, which a
continuous path in state i scales to its holding time E / gamma_i and a
discrete one turns into its whole hold run, the Geometric(1 - r_i) step
count 1 + floor(E / -log r_i); then every live path draws one uniform that
picks its jump target.  Version 1 spent one wave per discrete step, holds
included; continuous chains consume the same draws in the same order under
both versions.  How a uniform is mapped to its target is not part of the
stream: a guide table (Chen & Asau 1974) answers most draws with one
lookup, and the answer is always the one a binary search of the
cumulative jump probabilities gives (see :func:`_guide_table`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .chains import ContinuousChain, DiscreteChain, transient_block
from .errors import (
    InvariantError,
    RangeError,
    RunawayPathError,
    SingularSystemError,
)
from .law import DistributionTable, pgf

PATH_STEP_CAP = 10**9
GUIDE_BUCKETS = 1024  # a power of two, so that u * GUIDE_BUCKETS is exact


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible Monte Carlo run: seed, number of paths, start state."""

    seed: int
    paths: int
    start_state: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**128:  # the range of a Philox key
            raise RangeError(f"seed must be in 0..2**128-1, got {self.seed}")
        if self.paths < 1:
            raise RangeError(f"paths must be >= 1, got {self.paths}")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two value tables pointwise."""

    max_abs_err: float
    mean_err: float
    n_points: int
    passed: bool
    threshold: float

    @property
    def margin(self):
        """max_abs_err / threshold: below 1 passes, and how close it came."""
        return self.max_abs_err / self.threshold


def report_from_errors(errors, threshold):
    errs = np.abs(np.asarray(errors, dtype=float))
    worst = float(errs.max()) if errs.size else 0.0
    return ComparisonReport(
        max_abs_err=worst,
        mean_err=float(errs.mean()) if errs.size else 0.0,
        n_points=int(errs.size),
        passed=worst <= threshold,
        threshold=threshold,
    )


def _pmf_table(masses):
    """The table of masses on 1..n, whose tail bound is the mass they miss."""
    cum = np.cumsum(masses)
    return DistributionTable(
        support=np.arange(1, cum.size + 1, dtype=np.int64),
        mass_or_density=masses,
        cumulative=cum,
        tail_bound=max(0.0, 1.0 - float(cum[-1])),
    )


def pmf_by_matrix_power(chain, n_max):
    """Absorption-time PMF by transient vector-matrix iteration.

    P(tau = n) is the mass that flows from state d-1 into d on step n:
    v_0 = e_0, v_k = v_{k-1} P_{d-1}, and P(tau = n) = v_{n-1}[d-1] p_{d-1}.
    O(d^2) work per step, never a dense matrix power.
    """
    if not isinstance(chain, DiscreteChain):
        raise TypeError("pmf_by_matrix_power needs a discrete chain")
    if n_max < chain.d:
        raise ValueError(f"n_max must be at least d={chain.d}")
    block = transient_block(chain, chain.d - 1)
    exit_prob = chain.up[chain.d - 1]
    v = np.zeros(chain.d)
    v[0] = 1.0
    masses = np.empty(n_max)
    for n in range(n_max):
        masses[n] = v[-1] * exit_prob
        v = v @ block
    return _pmf_table(masses)


def pmf_by_path_enumeration(chain, n_max):
    """Absorption-time PMF by exhaustive trajectory enumeration.

    Walks every positive-probability path of length <= n_max from state 0,
    multiplying step probabilities.  Exponential cost; strictly a desk-scale
    oracle, independent of any matrix machinery.
    """
    if not isinstance(chain, DiscreteChain):
        raise TypeError("pmf_by_path_enumeration needs a discrete chain")
    masses = [0.0] * n_max

    def steps_from(i):
        out = [(i, chain.hold[i]), (i + 1, chain.up[i])]
        out.extend((j, q) for j, q in enumerate(chain.down[i]))
        return [(j, p) for j, p in out if p > 0.0]

    def walk(state, step, prob):
        if state == chain.d:
            masses[step - 1] += prob
            return
        if step == n_max:
            return
        for nxt, p in steps_from(state):
            walk(nxt, step + 1, prob * p)

    walk(0, 0, 1.0)
    return _pmf_table(masses)


def _invert_on_circle(transform, n_max):
    """Masses a_1..a_{n_max} of a law on 0, 1, 2, ..., from its PGF ``transform``.

    With K = 2 (n_max + 1), the values of the PGF at the K-th roots of unity
    are the discrete Fourier transform of the masses folded modulo K (Abate &
    Whitt 1992), so an inverse real FFT recovers a_n plus the aliased masses
    a_{n+K}, a_{n+2K}, ..., which sum to at most P(tau > 2 n_max + 2).  Only
    k = 0..K/2 is evaluated; the other half is the complex conjugate.
    """
    points = 2 * (n_max + 1)
    values = transform(np.exp(2j * np.pi * np.arange(points // 2 + 1) / points))
    return np.fft.irfft(values.conj(), n=points)[1 : n_max + 1]


def pmf_by_transform_inversion(law, n_max):
    """Masses a_1..a_{n_max} of a discrete law, by inverting its PGF on the unit circle.

    The PGF is the stage-ratio product of :func:`~skipfree.law.pgf`, which shares nothing
    with the block iteration of ``pmf_table``; :func:`_invert_on_circle` bounds the aliasing.
    """
    if law.kind != "discrete":
        raise ValueError("pmf_by_transform_inversion is defined for discrete laws only")
    return _invert_on_circle(lambda z: pgf(law, z), n_max)


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


def transient_profile(chain, t, tol=1e-10):
    """Occupancy of the transient states at time t, by uniformization and squaring.

    ``t`` is a scalar or a 1-D array of times, in any order and with repeats.
    Returns e_0^T exp(Q_{d-1} t), of shape (d,) for a scalar and (len(t), d)
    for an array, every entry within ``tol`` of the exact value.  The times
    are visited in sorted order, and each gap g between consecutive times is
    crossed by one product v <- v exp(Q g).  One step matrix serves every
    equal gap (an evenly spaced grid has a few distinct ones); it is built by
    :func:`_step_matrix` in O(d^3 log(Lambda g)), Lambda = max gamma_i, with
    ``tol`` split evenly over the steps.  v stays nonnegative with mass at
    most 1, so each step adds at most its own share of the error.
    """
    if not isinstance(chain, ContinuousChain):
        raise TypeError("transient_profile needs a continuous chain")
    if not 0.0 < tol < 1.0:
        raise RangeError(f"tol must be in (0,1), got {tol}")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise RangeError("t must be a scalar or a 1-D array of times")
    grid = np.atleast_1d(times)
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid >= 0.0)):
        raise RangeError(f"t must be finite and nonnegative, got {t}")
    rate = max(chain.gamma)
    onestep = np.eye(chain.d) + transient_block(chain, chain.d - 1) / rate
    order = np.argsort(grid, kind="stable")
    gaps = np.diff(grid[order], prepend=0.0).tolist()
    budget = tol / max(1, np.count_nonzero(gaps))
    steps = {gap: _step_matrix(onestep, rate, gap, budget) for gap in set(gaps) if gap}
    occupancy = np.empty((grid.size, chain.d))
    v = np.zeros(chain.d)
    v[0] = 1.0
    for row, gap in zip(order, gaps):
        if gap:
            v = v @ steps[gap]
        occupancy[row] = v
    return occupancy if times.ndim else occupancy[0]


def cdf_by_uniformization(chain, t, tol=1e-10):
    """P(tau <= t) within ``tol``, via uniformization.

    ``t`` is a scalar (returns a float) or a 1-D array of times (returns an
    array), as for :func:`transient_profile`.
    """
    return 1.0 - transient_profile(chain, t, tol).sum(axis=-1)


def _jump_keys(chain, levels):
    """Jump totals and sorted target-search keys for the states below ``levels``.

    A state's jump total is p_i + sum_j q_ij (discrete: 1 - r_i within the
    row-sum tolerance, and exact when r_i is near 1, but it may exceed 1 by
    that tolerance) or gamma_i (continuous).  Row i of the
    keys holds the cumulative jump probabilities over targets 0..levels,
    offset by 2i so that the rows fill disjoint intervals [2i, 2i+1] of one
    sorted array: a path in state i that draws u jumps to the number of
    row-i keys below 2i + u, one ``searchsorted`` for every path at once;
    :func:`_guide_table` gives that number without the search for most u.
    """
    totals = np.array([chain.up[i] + math.fsum(chain.down[i]) for i in range(levels)])
    rows = np.zeros((levels, levels + 1))
    for i in range(levels):
        rows[i, :i] = chain.down[i]
        rows[i, i + 1] = chain.up[i]
        rows[i] /= totals[i]
    cum = np.cumsum(rows, axis=1)
    state = np.arange(levels)[:, None]
    # the up jump closes each row at exactly 1, so no draw can pass it
    cum[np.arange(levels + 1) > state] = 1.0
    # leading impossible targets sit below the row, out of reach even when
    # 2i + u rounds down to 2i
    cum[cum == 0.0] = -0.5
    return totals, (cum + 2 * state).ravel()


def _guide_table(keys, levels):
    """Exact guide table over the sorted keys of :func:`_jump_keys`.

    Entry i * GUIDE_BUCKETS + b covers the draws u in bucket
    [b/M, (b+1)/M), M = GUIDE_BUCKETS, of a path in state i.  It is the
    number of row-i keys below 2i + b/M when no key lies in the closed
    interval [2i + b/M, 2i + (b+1)/M], and -1 otherwise.  The edges are
    exact doubles and fl(u + 2i) is monotone in u, so for every u in a
    bucket without a key the entry is the target that ``searchsorted`` of
    2i + u would give; only the -1 buckets need the search.
    """
    width = levels + 1
    edges = 2.0 * np.arange(levels)[:, None] + np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    below = keys.searchsorted(edges[:, :-1].ravel(), side="left")
    upto = keys.searchsorted(edges[:, 1:].ravel(), side="right")
    rows = np.repeat(np.arange(levels) * width, GUIDE_BUCKETS)
    return np.where(below == upto, below - rows, -1)


def sample_hitting_times(chain, cfg, stop_level=None):
    """Monte Carlo samples of the first-passage time to a level.

    Simulates ``cfg.paths`` independent trajectories from ``cfg.start_state``
    until they first reach ``stop_level`` (default: the absorbing state d).
    Discrete chains return step counts (int64), drawing each hold run in
    state i as one Geometric(1 - r_i) count of steps; continuous chains
    return elapsed times (float64), accumulating Exponential(gamma_i) holds
    between jumps.  Deterministic given ``cfg.seed``; see the module
    docstring for the stream contract.  Raises RunawayPathError once a path
    needs more than PATH_STEP_CAP steps.
    """
    target = chain.d if stop_level is None else int(stop_level)
    if not 1 <= target <= chain.d:
        raise RangeError(f"stop_level must be in 1..{chain.d}, got {target}")
    if not 0 <= cfg.start_state < target:
        raise RangeError(
            f"start_state must be in 0..{target - 1}, got {cfg.start_state}"
        )
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    totals, keys = _jump_keys(chain, target)
    table = _guide_table(keys, target)
    width = target + 1
    discrete = isinstance(chain, DiscreteChain)
    if discrete:
        # hold run 1 + floor(E / -log r_i) is Geometric(1 - r_i) for E ~ Exp(1);
        # a total at or above 1 means no hold: an infinite rate, one step
        with np.errstate(divide="ignore"):
            hold_rate = -np.log1p(-np.minimum(totals, 1.0))
    else:
        scales = 1.0 / totals

    # live paths only, compacted after every wave: original index, state, clock
    index = np.arange(cfg.paths)
    state = np.full(cfg.paths, cfg.start_state, dtype=np.intp)
    clock = np.zeros(cfg.paths)  # steps are integers far below 2**53
    result = np.zeros(cfg.paths, dtype=np.int64 if discrete else np.float64)
    wave = 0
    while index.size:
        wave += 1
        holds = rng.standard_exponential(index.size)
        if discrete:
            clock += np.floor(holds / hold_rate[state]) + 1.0
        else:
            clock += holds * scales[state]
        if (clock.max() if discrete else wave) > PATH_STEP_CAP:
            raise RunawayPathError(f"a path exceeded {PATH_STEP_CAP} steps")
        draws = rng.random(index.size)
        bucket = (draws * GUIDE_BUCKETS).astype(np.intp)
        nxt = table[state * GUIDE_BUCKETS + bucket]
        (miss,) = (nxt < 0).nonzero()
        if miss.size:
            from_state = state[miss]
            nxt[miss] = keys.searchsorted(draws[miss] + 2 * from_state) - width * from_state
        state = nxt
        hit = state == target
        (done,) = hit.nonzero()
        if done.size:
            result[index[done]] = clock[done]
            (keep,) = (~hit).nonzero()
            index, state, clock = index[keep], state[keep], clock[keep]
    return result


def expected_hitting_times(chain):
    """Mean absorption times from each transient state, by first-step analysis.

    Solves (I - P_{d-1}) h = 1 (discrete) or (-Q_{d-1}) h = 1 (continuous).
    """
    block = transient_block(chain, chain.d - 1)
    if isinstance(chain, DiscreteChain):
        system = np.eye(chain.d) - block
    else:
        system = -block
    try:
        return np.linalg.solve(system, np.ones(chain.d))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"hitting-time system is singular: {exc}") from exc


def geometric_sum_pmf(params, length):
    """PMF of a sum of independent geometric variables, by inversion on the unit circle.

    ``params`` are success probabilities theta_i in (0, 1]; each component has
    mass theta (1-theta)^{n-1} on n >= 1 and PGF theta z / ((1 - z) + theta z),
    so theta = 1 is a unit point mass.  Returns masses for n = 1..length,
    aliased as :func:`_invert_on_circle` says.
    """

    def transform(z):
        value = np.ones_like(z)
        for theta in params:
            value *= theta * z / ((1.0 - z) + theta * z)
        return value

    return _invert_on_circle(transform, length)


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(n, m, alpha=0.01):
    """Large-sample two-sided KS rejection threshold at level alpha."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))
