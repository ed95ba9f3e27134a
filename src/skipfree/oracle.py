"""Independent ground-truth engines for the closed forms.

Everything here reaches the absorption law through a route disjoint from the
charpoly/spectral pipeline: dense vector-matrix iteration, literal path
enumeration, uniformization of the generator, explicit convolution of phase
components, and Monte Carlo simulation.  The comparators at the bottom turn
pairs of tables into pass/fail reports.

Randomness contract: samplers draw from numpy's Philox counter-based bit
generator keyed by ``SamplerConfig.seed``; draws are consumed in wave order
(one synchronized step for every active path per wave), so a given
(seed, paths, start_state) triple yields the same samples on any platform.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chains import ContinuousChain, DiscreteChain, transient_block
from .errors import (
    RangeError,
    RunawayPathError,
    SingularSystemError,
    SupportMismatchError,
)
from .law import DistributionTable

PATH_STEP_CAP = 10**9


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible Monte Carlo run: seed, number of paths, start state."""

    seed: int
    paths: int
    start_state: int = 0

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths}")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two value tables pointwise."""

    max_abs_err: float
    mean_err: float
    n_points: int
    passed: bool
    threshold: float


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
    cum = np.cumsum(masses)
    return DistributionTable(
        support=tuple(range(1, n_max + 1)),
        mass_or_density=tuple(masses),
        cumulative=tuple(cum),
        tail_bound=max(0.0, 1.0 - float(cum[-1])),
    )


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
    cum = np.cumsum(masses)
    return DistributionTable(
        support=tuple(range(1, n_max + 1)),
        mass_or_density=tuple(masses),
        cumulative=tuple(cum),
        tail_bound=max(0.0, 1.0 - float(cum[-1])),
    )


def _poisson_weights(mu, tol):
    """Poisson(mu) weights w_0..w_K with total mass >= 1 - tol.

    Built outward from the mode so that no intermediate underflows for
    large mu; entries far below the mode may round to zero harmlessly.
    """
    if mu == 0.0:
        return np.array([1.0])
    mode = int(mu)
    log_mode = mode * math.log(mu) - mu - math.lgamma(mode + 1)
    below = np.empty(mode + 1)
    below[mode] = math.exp(log_mode)
    for k in range(mode, 0, -1):
        below[k - 1] = below[k] * k / mu
    weights = list(below)
    total = float(below.sum())
    k = mode
    w = below[mode]
    while total < 1.0 - tol:
        k += 1
        w = w * mu / k
        weights.append(w)
        total += w
    return np.asarray(weights)


def transient_profile(chain, t, tol=1e-10):
    """Occupancy of the transient states at time t, by uniformization.

    Returns the vector e_0^T exp(Q_{d-1} t) with entrywise truncation error
    at most ``tol``: exp(Q t) is expanded as a Poisson(Lambda*t) mixture of
    powers of the substochastic matrix I + Q/Lambda with Lambda = max gamma_i.
    """
    if not isinstance(chain, ContinuousChain):
        raise TypeError("transient_profile needs a continuous chain")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    rate = max(chain.gamma)
    onestep = np.eye(chain.d) + transient_block(chain, chain.d - 1) / rate
    weights = _poisson_weights(rate * t, tol)
    v = np.zeros(chain.d)
    v[0] = 1.0
    acc = np.zeros(chain.d)
    for i, w in enumerate(weights):
        acc += w * v
        if i < len(weights) - 1:
            v = v @ onestep
    return acc


def cdf_by_uniformization(chain, t, tol=1e-10):
    """P(tau <= t) with absolute error at most ``tol``, via uniformization."""
    return 1.0 - float(transient_profile(chain, t, tol).sum())


def _jump_cumulatives(chain, levels):
    """Cumulative transition rows over target states 0..levels for states < levels."""
    rows = np.zeros((levels, levels + 1))
    discrete = isinstance(chain, DiscreteChain)
    gamma = None if discrete else chain.gamma
    for i in range(levels):
        for j, x in enumerate(chain.down[i]):
            rows[i, j] = x
        if discrete:
            rows[i, i] = chain.hold[i]
            rows[i, i + 1] = chain.up[i]
        else:
            rows[i] /= gamma[i]
            rows[i, i + 1] = chain.up[i] / gamma[i]
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = 1.0  # guard the roundoff edge so draws can never overflow the row
    return cum


def sample_hitting_times(chain, cfg, stop_level=None):
    """Monte Carlo samples of the first-passage time to a level.

    Simulates ``cfg.paths`` independent trajectories from ``cfg.start_state``
    until they first reach ``stop_level`` (default: the absorbing state d).
    Discrete chains return step counts (int64); continuous chains return
    elapsed times (float64), accumulating Exponential(gamma_i) holds between
    jumps.  Deterministic given ``cfg.seed``; see the module docstring for
    the stream contract.
    """
    target = chain.d if stop_level is None else int(stop_level)
    if not 1 <= target <= chain.d:
        raise RangeError(f"stop_level must be in 1..{chain.d}, got {target}")
    if not 0 <= cfg.start_state < target:
        raise RangeError(
            f"start_state must be in 0..{target - 1}, got {cfg.start_state}"
        )
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    cum = _jump_cumulatives(chain, target)
    discrete = isinstance(chain, DiscreteChain)
    scales = None if discrete else 1.0 / np.asarray(chain.gamma[:target])

    live = np.arange(cfg.paths)
    state = np.full(cfg.paths, cfg.start_state, dtype=np.intp)
    if discrete:
        result = np.zeros(cfg.paths, dtype=np.int64)
    else:
        result = np.zeros(cfg.paths, dtype=np.float64)
        clock = np.zeros(cfg.paths)
    wave = 0
    while live.size:
        wave += 1
        if wave > PATH_STEP_CAP:
            raise RunawayPathError(f"a path exceeded {PATH_STEP_CAP} steps")
        if not discrete:
            clock[live] += rng.exponential(scales[state])
        draws = rng.random(live.size)
        nxt = (cum[state] < draws[:, None]).sum(axis=1)
        hit = nxt == target
        if discrete:
            result[live[hit]] = wave
        else:
            result[live[hit]] = clock[live[hit]]
        live = live[~hit]
        state = nxt[~hit]
    return result


def compare_pmf(analytic, oracle, threshold):
    """Pointwise comparison of two tables over their common support."""
    idx_a = {n: i for i, n in enumerate(analytic.support)}
    shared = [(idx_a[n], j) for j, n in enumerate(oracle.support) if n in idx_a]
    if not shared:
        raise SupportMismatchError("tables have disjoint supports")
    errors = [
        analytic.mass_or_density[i] - oracle.mass_or_density[j] for i, j in shared
    ]
    return report_from_errors(errors, threshold)


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
    """PMF of a sum of independent geometric variables, by convolution.

    ``params`` are success probabilities theta_i; each component has mass
    theta (1-theta)^{n-1} on n >= 1 (theta = 1 degenerates to a unit point
    mass, so repeated and zero eigenvalues need no special handling).
    Returns masses for n = 1..length.
    """
    out = np.zeros(length + 1)
    out[0] = 1.0  # empty sum: unit mass at 0
    for theta in params:
        component = np.zeros(length + 1)
        n = np.arange(1, length + 1)
        component[1:] = theta * (1.0 - theta) ** (n - 1)
        out = np.convolve(out, component)[: length + 1]
    return out[1:]


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
