"""Cross-check every closed form of one chain against its oracles.

Each check pairs an output of the spectral/law pipeline with an independent
route (prefix determinants by Hyman's method, O(d^3) for all prefixes at
once, against the stage denominators; the eigenvalue product; the stage
transform and the geometric phases inverted on the unit circle;
uniformization; the first-step means by GTH elimination from the top state,
where the stage means build up from state 0) and reduces the pointwise errors,
relative for the determinants, the eigenvalue product and the mean, to a
ComparisonReport, which the CLI's ``verify`` and the corpus scripts print.
"""

import math

import numpy as np

from .chains import DiscreteChain, is_integer, jump_totals, transient_block
from .errors import RangeError
from .law import (
    _partial_fractions,
    _transform,
    build_law,
    default_grid,
    laplace,
    pgf,
    phase_representation,
    pmf_table,
    moments,
)
from .oracle import (
    cdf_by_uniformization,
    expected_hitting_times,
    geometric_sum_pmf,
    pmf_by_transform_inversion,
    report_from_errors,
)

DET_THRESHOLD = 1e-10
DUAL_FORM_THRESHOLD = 1e-8
PRODUCT_THRESHOLD = 1e-8
PMF_THRESHOLD = 1e-9
MEAN_THRESHOLD = 1e-8
CDF_THRESHOLD = 1e-7
DET_POINTS = 20  # the points s at which charpoly_vs_determinant compares each prefix


def _prefix_slogdets(block, s, discrete):
    """(sign, log|det|) of A_n = I - s M_n (resp. s I - M_n) for every prefix n, each (d, points).

    Hyman's method from the top (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, section 14.6.1).  A_n = a I - b M_n is lower Hessenberg.  The y with y_n = 1 and
    y^T A_n[:, 1:] = 0 follows from column n down, y_{j-1} = (a y_j - b (y . M[:, j])) /
    (b M_{j-1,j}), and then det A_n = (-1)^n (y . A_n[:, 0]) prod_{i<n} A_{i,i+1}
    = (y . A_n[:, 0]) prod_{i<n} b M_{i,i+1}.  Row n of ``y`` is prefix n's vector, so step j
    fills column j - 1 of every row n >= j at once; a row whose new entry passes 1e100 is
    divided by it, and the log kept aside.  The method starts from each prefix's top state
    and the stage recursion from state 0, so the two share no intermediate.
    """
    d = block.shape[0]
    a, b = (1.0, s[:, None]) if discrete else (s[:, None], 1.0)
    y = np.zeros((s.size, d, d))
    y[:, range(d), range(d)] = 1.0
    log_scale = np.zeros((s.size, d))
    for j in range(d - 1, 0, -1):
        column = (a * y[:, j:, j] - b * (y[:, j:, j:] @ block[j:, j])) / (b * block[j - 1, j])
        y[:, j:, j - 1] = column
        point, row = np.nonzero(np.abs(column) > 1e100)
        if point.size:
            size = np.abs(column[point, row])
            y[point, row + j] /= size[:, None]
            log_scale[point, row + j] += np.log(size)
    gamma = a * y[:, :, 0] - b * (y @ block[:, 0])
    n = np.arange(d)
    log_up = np.concatenate(([0.0], np.cumsum(np.log(block.diagonal(1)))))
    sign = np.sign(gamma) * np.sign(b) ** n
    logabsdet = np.log(np.abs(gamma)) + log_scale + n * np.log(np.abs(b)) + log_up
    return sign.T, logabsdet.T


def _determinant_errors(law, rng):
    """Prefix determinants as products of stage denominators against Hyman's method.

    The error ratio / direct - 1 is relative, from each route's signs and log-magnitudes.
    Both routes' factors are divided by the chain's time unit, a power of two, so their logs
    sum as at unit rates and the error is the same at every unit.  A sign that differs, a
    zero or overflowing determinant, inf or NaN fails.
    """
    chain = law.source
    discrete = chain.kind == "discrete"
    if discrete:
        unit, draws = 1.0, rng.uniform(-1.0, 1.0, size=DET_POINTS)
    else:
        # the chain's time unit: with every rate times 2^k, it is times 2^k exactly
        unit = math.ldexp(1.0, math.frexp(max(jump_totals(chain, chain.d)))[1] - 2)
        draws = rng.uniform(0.0, 5.0, size=DET_POINTS)
    _, denominators = _transform(law, unit * draws)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_ratio = np.cumsum(np.log(np.abs(denominators / unit)), axis=0)
        sign_ratio = np.cumprod(np.sign(denominators), axis=0)
        block = transient_block(chain, chain.d - 1) / unit
        sign, log_direct = _prefix_slogdets(block, draws, discrete)
        return (sign_ratio * sign * np.exp(log_ratio - log_direct) - 1.0).ravel()


def _product_identity(factors, chain):
    """|prod(factors) / prod(up) - 1|, summed in logs so neither product underflows."""
    log_ratio = np.sum(np.log(factors)) - np.sum(np.log(chain.up))
    # a ratio past the double range is inf (a complex one inf + nan j), which fails
    with np.errstate(over="ignore", invalid="ignore"):
        return report_from_errors([abs(np.expm1(log_ratio))], PRODUCT_THRESHOLD)


def verification_reports(chain, seed=0):
    """All oracle cross-checks for one chain.

    Returns an ordered list of (check name, ComparisonReport).  Checks that
    need a special spectrum are emitted only when it qualifies: geometric
    phases, and ``cdf_vs_uniformization`` exactly where the partial-fraction
    closed form is admitted.  Raises RangeError unless ``seed`` is an
    integer >= 0.
    """
    if not (is_integer(seed) and seed >= 0):
        raise RangeError(f"seed must be >= 0 and an integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    law = build_law(chain)
    discrete = isinstance(chain, DiscreteChain)
    errs = _determinant_errors(law, rng)
    reports = [("charpoly_vs_determinant", report_from_errors(errs, DET_THRESHOLD))]
    lam = np.asarray(law.spectrum.values)[:, None]

    if discrete:
        s = np.arange(0.1, 0.95, 0.1)
        dual = pgf(law, s) - np.prod((1.0 - lam) * s / (1.0 - lam * s), axis=0)
        reports.append(("pgf_dual_form", report_from_errors(np.abs(dual), DUAL_FORM_THRESHOLD)))
        reports.append(("eigen_product_identity", _product_identity(1.0 - lam, chain)))
        # the block-route table is the matrix-power side of this check
        table = pmf_table(law, eps=1e-10)
        inverted = pmf_by_transform_inversion(law, len(table.support))
        errs = np.asarray(table.mass_or_density) - inverted
        reports.append(("pmf_vs_matrix_power", report_from_errors(errs, PMF_THRESHOLD)))
        phases = phase_representation(law)
        if phases is not None:
            convolved = geometric_sum_pmf(phases, len(table.support))
            errs = np.asarray(table.mass_or_density) - convolved
            reports.append(
                ("pmf_vs_geometric_convolution", report_from_errors(errs, PMF_THRESHOLD))
            )
    else:
        at_zero = abs(laplace(law, 0.0) - 1.0)
        reports.append(("laplace_at_zero", report_from_errors([at_zero], 1e-10)))
        reports.append(("eigen_product_identity", _product_identity(lam, chain)))
        grid = default_grid(law, 50)
        closed = _partial_fractions(phase_representation(law), grid)
        if closed is not None:
            errs = closed[1] - cdf_by_uniformization(chain, grid)
            reports.append(
                ("cdf_vs_uniformization", report_from_errors(errs, CDF_THRESHOLD))
            )

    mean, _ = moments(law)
    h = expected_hitting_times(chain)
    rel = abs(mean - h[0]) / abs(h[0])
    reports.append(("mean_vs_linear_system", report_from_errors([rel], MEAN_THRESHOLD)))
    return reports
