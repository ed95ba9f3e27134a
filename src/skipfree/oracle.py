"""Independent ground-truth engines for the closed forms.

Everything here reaches the absorption law through a route disjoint from the
charpoly/spectral pipeline: dense vector-matrix iteration, inversion of the
stage transform and of the geometric phases' product on the unit circle,
uniformization of the generator, GTH elimination for the mean absorption
times, and Monte Carlo simulation; the uniformization engine is the law's
own fallback route, :func:`~skipfree.law.transient_profile`, and checks the
partial fractions here.  :func:`report_from_errors` turns pointwise errors
into pass/fail reports, and the KS statistics at the bottom compare samples.

Randomness contract, stream version 3: samplers draw from numpy's SFC64 bit
generator seeded with ``SamplerConfig.seed``, consuming draws in wave order,
so a given (seed, paths, start_state) triple yields the same samples on any
platform.  A wave is one jump for every live path, in path order: every
live path first draws one standard exponential E and multiplies it by its
state's scale s_i, giving a continuous path its holding time E / gamma_i
(s_i = 1 / gamma_i) and a discrete one its hold run, the Geometric(1 - r_i)
step count 1 + floor(E s_i) with s_i = 1 / -log r_i (0 when there is no
hold); then every live path draws one uniform that picks its jump target.
Version 2 drew the same draws in the same order from the Philox generator
and divided a discrete E by -log r_i, so its samples are not reproduced;
version 1 spent one wave per discrete step, holds included.  How a uniform
is mapped to its target is not part of the stream: a guide table (Chen &
Asau 1974) answers most draws with one lookup, and the answer is always the
one a binary search of the cumulative jump probabilities gives (see
:func:`_guide_table`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .chains import DiscreteChain, is_integer, jump_totals, transient_block
from .errors import InvariantError, RangeError, RunawayPathError
from .law import MAX_PMF_TERMS, DistributionTable, pgf, transient_profile

PATH_STEP_CAP = 10**9  # steps of one discrete path, so that its clock stays integral
SAMPLE_JUMP_CAP = 10**9  # jumps of all paths in one run
GUIDE_BUCKETS = 1024  # a power of two, so that u * GUIDE_BUCKETS is exact


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible Monte Carlo run: seed, number of paths, start state."""

    seed: int
    paths: int
    start_state: int = 0

    def __post_init__(self):
        # the seed range is kept from stream version 2; paths stop at every table's row cap
        if not (is_integer(self.seed) and 0 <= self.seed < 2**128):
            raise RangeError(f"seed must be in 0..2**128-1, got {self.seed}")
        if not (is_integer(self.paths) and 1 <= self.paths <= MAX_PMF_TERMS):
            raise RangeError(f"paths must be >= 1 and at most {MAX_PMF_TERMS}, got {self.paths}")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two value tables pointwise.

    ``max_abs_err`` and ``mean_err`` are the largest and mean magnitude of the errors in
    each check's own units: relative for the determinant, eigenvalue-product and mean
    checks of :mod:`skipfree.verify`, absolute for its transform and table checks.
    """

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


def pmf_by_matrix_power(chain, n_max):
    """Absorption-time PMF by transient vector-matrix iteration.

    P(tau = n) is the mass that flows from state d-1 into d on step n:
    v_0 = e_0, v_k = v_{k-1} P_{d-1}, and P(tau = n) = v_{n-1}[d-1] p_{d-1}.
    O(d^2) work per step, never a dense matrix power.  The table covers
    n = 1..n_max, and its tail bound is the mass it misses.
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
        support=np.arange(1, n_max + 1, dtype=np.int64),
        mass_or_density=masses,
        cumulative=cum,
        tail_bound=max(0.0, 1.0 - float(cum[-1])),
    )


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


def cdf_by_uniformization(chain, t):
    """P(tau <= t) within UNIFORMIZATION_TOL, via uniformization.

    ``t`` is a scalar (returns a float) or a sorted 1-D array of times
    (returns an array), as for :func:`~skipfree.law.transient_profile`, the
    engine the law's own tables fall back on.
    """
    return 1.0 - transient_profile(chain, t).sum(axis=-1)


def _jump_keys(chain, levels):
    """Jump totals and sorted target-search keys for the states below ``levels``.

    A state's jump total is p_i + sum_j q_ij (discrete: 1 - r_i within the
    row-sum tolerance, and exact when r_i is near 1, but it may exceed 1 by
    that tolerance) or gamma_i (continuous), from :func:`~skipfree.chains.jump_totals`,
    which raises InvariantError where gamma_i passes the largest double.  Row i of the
    keys holds the cumulative jump probabilities over targets 0..levels,
    offset by 2i so that the rows fill disjoint intervals [2i, 2i+1] of one
    sorted array: a path in state i that draws u jumps to the number of
    row-i keys below 2i + u, one ``searchsorted`` for every path at once;
    :func:`_guide_table` gives that number without the search for most u.
    """
    totals = np.array(jump_totals(chain, levels))
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


def sample_hitting_times(chain, cfg):
    """Monte Carlo samples of the absorption time.

    Simulates ``cfg.paths`` independent trajectories from ``cfg.start_state``
    until they first reach the absorbing state d.  Discrete chains return
    step counts (int64), drawing each hold run in state i as one
    Geometric(1 - r_i) count of steps; continuous chains return elapsed
    times (float64), accumulating Exponential(gamma_i) holds between jumps.
    Deterministic given ``cfg.seed``; see the module docstring for the
    stream contract.  Raises RunawayPathError once the live paths have made
    more than SAMPLE_JUMP_CAP jumps in all (13 s at 10k paths on a 2-vCPU
    host; the CLI exits 2), or a discrete path more than PATH_STEP_CAP steps.

    To sample the passage to a level n < d, sample the chain of the first n
    rows: it is a valid chain of the same kind, whose absorbing state is n,
    and it draws the same samples as a run on the whole chain stopped at n.
    """
    d = chain.d
    if not (is_integer(cfg.start_state) and 0 <= cfg.start_state < d):
        raise RangeError(f"start_state must be in 0..{d - 1}, got {cfg.start_state}")
    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    totals, keys = _jump_keys(chain, d)
    discrete = isinstance(chain, DiscreteChain)
    if discrete:
        # hold run 1 + floor(E s_i), s_i = 1 / -log r_i, is Geometric(1 - r_i) for
        # E ~ Exp(1); a total at or above 1 means no hold: s_i = 0, one step
        with np.errstate(divide="ignore"):
            scale = 1.0 / -np.log1p(-np.minimum(totals, 1.0))
    else:
        scale = 1.0 / totals
    # a path in state i is kept as its guide-table row offset i * GUIDE_BUCKETS:
    # the table's targets are scaled to the offsets of their rows (a search
    # bucket stays negative), and s_i is repeated over row i
    table = _guide_table(keys, d) * GUIDE_BUCKETS
    scale = np.repeat(scale, GUIDE_BUCKETS)
    width, absorbed = d + 1, d * GUIDE_BUCKETS

    # live paths only, compacted after every wave: original index, row, clock.
    # A discrete clock sums the holds and gets the one jump per wave when its
    # path finishes; its integers stay far below 2**53 up to the cap
    index = np.arange(cfg.paths)
    row = np.full(cfg.paths, cfg.start_state * GUIDE_BUCKETS, dtype=np.intp)
    clock = np.zeros(cfg.paths)
    result = np.zeros(cfg.paths, dtype=np.int64 if discrete else np.float64)
    wave = jumps = 0
    while index.size:
        wave += 1
        jumps += index.size
        if jumps > SAMPLE_JUMP_CAP:
            raise RunawayPathError(f"the paths exceeded {SAMPLE_JUMP_CAP} jumps in all")
        holds = rng.standard_exponential(index.size)
        holds *= scale[row]
        if discrete:
            np.floor(holds, out=holds)
        clock += holds
        draws = rng.random(index.size)
        nxt = table[row + (draws * GUIDE_BUCKETS).astype(np.intp)]
        (miss,) = (nxt < 0).nonzero()
        if miss.size:
            from_state = row[miss] // GUIDE_BUCKETS
            found = keys.searchsorted(draws[miss] + 2 * from_state) - width * from_state
            nxt[miss] = found * GUIDE_BUCKETS
        row = nxt
        hit = row == absorbed
        (done,) = hit.nonzero()
        if done.size:
            finished = clock[done]
            if discrete:
                finished += wave
                if finished.max() > PATH_STEP_CAP:
                    raise RunawayPathError(f"a path exceeded {PATH_STEP_CAP} steps")
            result[index[done]] = finished
            (keep,) = (~hit).nonzero()
            index, row, clock = index[keep], row[keep], clock[keep]
    return result


def expected_hitting_times(chain):
    """Mean absorption times from each transient state, by GTH elimination on the chain's weights.

    First-step analysis gives w_k h_k = 1 + up_k h_{k+1} + sum_{j<k} down_{k,j} h_j, h_d = 0, w_k
    the row's total weight.  Elimination from the top (Grassmann, Taksar & Heyman 1985) folds
    state k into k - 1, the only state with an edge into k: row k - 1 trades its up weight for the
    share up_{k-1} / w'_k of row k's cost, exit and weights below k - 1, where the pivot w'_k sums
    row k's exit and weights.  Pivots sum nonnegative weights: nothing cancels, no hold or total
    rate is read, and one that underflows (a mean past the double range) raises InvariantError.
    """
    d = chain.d
    # column 0: the cost; 1: the weight into absorption; 2 + j: the weight into state j
    rows = np.zeros((d, d + 2))
    rows[:, 2:] = np.tril(transient_block(chain, d - 1), -1)
    rows[:, 0], rows[-1, 1] = 1.0, chain.up[-1]
    pivots, h = np.empty(d), np.empty(d)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(d - 1, 0, -1):
            pivots[k] = rows[k, 1:].sum()
            rows[k - 1, : k + 1] += chain.up[k - 1] / pivots[k] * rows[k, : k + 1]
        pivots[0] = rows[0, 1]
        for k in range(d):
            h[k] = (rows[k, 0] + rows[k, 2 : k + 2] @ h[:k]) / pivots[k]
    if not np.isfinite(h).all():
        raise InvariantError("a mean absorption time passes the largest double")
    return h


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


def ks_critical_value(n, m):
    """Large-sample two-sided KS rejection threshold at the 1% level."""
    c = math.sqrt(-math.log(0.01 / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))
