"""Cross-check every closed form of one chain against its oracles.

Each check pairs an output of the spectral/law pipeline with an independent
route (dense determinants against the stage denominators, the eigenvalue
product, the stage transform and the geometric phases inverted on the unit
circle, uniformization, first-step linear systems) and reduces the pointwise
errors to a ComparisonReport.  The CLI's ``verify`` command and the corpus
scripts are thin wrappers over :func:`verification_reports`.
"""

import numpy as np

from .chains import DiscreteChain, transient_block
from .errors import DegenerateSpectrumError, RangeError
from .charpoly import _shifted_stack
from .law import (
    _transform,
    build_law,
    default_grid,
    laplace,
    pdf_cdf_table,
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


def _determinant_errors(law, rng):
    """Prefix determinants as products of stage denominators against dense LU, in signed logs.

    The error (ratio - direct) / (1 + |direct|) is evaluated with its numerator and its
    denominator scaled by exp(-max(0, log|direct|)), which changes nothing in exact
    arithmetic and keeps both sides in range where the determinants pass the largest
    double.  An error that still overflows is inf, and inf or NaN fails.
    """
    chain = law.source
    lo, hi = (-1.0, 1.0) if chain.kind == "discrete" else (0.0, 5.0)
    s = rng.uniform(lo, hi, size=DET_POINTS)
    _, denominators = _transform(law, s)
    log_ratio = np.cumsum(np.log(np.abs(denominators)), axis=0)
    sign_ratio = np.cumprod(np.sign(denominators), axis=0)
    block = transient_block(chain, chain.d - 1)
    prefixes = [np.linalg.slogdet(_shifted_stack(block[: n + 1, : n + 1], s, chain.kind)[1])
                for n in range(chain.d)]
    sign = np.array([p.sign for p in prefixes])
    log_direct = np.array([p.logabsdet for p in prefixes])
    shift = np.maximum(0.0, log_direct)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = sign_ratio * np.exp(log_ratio - shift) - sign * np.exp(log_direct - shift)
        return (gap / (np.exp(-shift) + np.exp(log_direct - shift))).ravel()


def _product_identity(factors, chain):
    """|prod(factors) / prod(up) - 1|, summed in logs so neither product underflows."""
    log_ratio = np.sum(np.log(factors)) - np.sum(np.log(chain.up))
    # a ratio past the double range is inf (a complex one inf + nan j), which fails
    with np.errstate(over="ignore", invalid="ignore"):
        return report_from_errors([abs(np.expm1(log_ratio))], PRODUCT_THRESHOLD)


def verification_reports(chain, seed=0):
    """All oracle cross-checks for one chain.

    Returns an ordered list of (check name, ComparisonReport).  Checks that
    need a special spectrum (geometric phases, hypoexponential CDF)
    are emitted only when the spectrum qualifies.  Raises RangeError if
    ``seed`` is negative.
    """
    if seed < 0:
        raise RangeError(f"seed must be >= 0, got {seed}")
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
        try:
            closed = pdf_cdf_table(law, grid, method="partial_fractions")
        except DegenerateSpectrumError:
            closed = None
        if closed is not None:
            errs = np.asarray(closed.cumulative) - cdf_by_uniformization(chain, grid)
            reports.append(
                ("cdf_vs_uniformization", report_from_errors(errs, CDF_THRESHOLD))
            )

    mean, _ = moments(law)
    h = expected_hitting_times(chain)
    rel = abs(mean - h[0]) / abs(h[0])
    reports.append(("mean_vs_linear_system", report_from_errors([rel], MEAN_THRESHOLD)))
    return reports
