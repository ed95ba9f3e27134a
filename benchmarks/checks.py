"""Checks of the program's outputs against the benchmark's own answers.

Every checker returns ``{check name: margin}``, where the margin is the
error divided by the threshold it is judged against, so a check passes iff
its margin is at most 1 (NaN never passes).  Checkers use numpy only; the
reference values they compare against come from ``reference.py``.

The first block of thresholds is a copy of the ones in ``skipfree/verify.py``
as the benchmark was defined.  They are copied, not imported, so that a
change that loosens the program's thresholds does not loosen the benchmark.
"""

import math

import numpy as np

VERIFY_THRESHOLDS = {
    "charpoly_vs_determinant": 1e-10,
    "pgf_dual_form": 1e-8,
    "eigen_product_identity": 1e-8,
    "pmf_vs_matrix_power": 1e-9,
    "pmf_vs_geometric_convolution": 1e-9,
    "cdf_vs_uniformization": 1e-7,
    "laplace_at_zero": 1e-10,
    "mean_vs_linear_system": 1e-8,
}
MEAN_THRESHOLD = VERIFY_THRESHOLDS["mean_vs_linear_system"]
PMF_THRESHOLD = VERIFY_THRESHOLDS["pmf_vs_matrix_power"]
CDF_THRESHOLD = VERIFY_THRESHOLDS["cdf_vs_uniformization"]
PRODUCT_THRESHOLD = VERIFY_THRESHOLDS["eigen_product_identity"]

# The benchmark's own: how far a CDF may step down or leave [0, 1] through
# rounding, and how many standard errors a Monte Carlo mean may stray.
MONOTONE_SLACK = 1e-12
SAMPLE_SIGMAS = 5.0


def passed(margins):
    """True iff every margin is a number at most 1."""
    return all(m <= 1.0 for m in margins.values())


def failed_names(margins):
    return sorted(name for name, m in margins.items() if not m <= 1.0)


def _relative(value, ref):
    return abs(value - ref) / abs(ref)


def _flag(ok):
    return 0.0 if ok else math.inf


def moments(mean, variance, ref_mean, ref_variance):
    """Mean and variance against the first-step linear solves.

    The variance error is taken relative to the second moment, which stays
    positive when the variance is 0 (a pure-birth chain).
    """
    second = ref_variance + ref_mean**2
    return {
        "mean": _relative(mean, ref_mean) / MEAN_THRESHOLD,
        "variance": abs(variance - ref_variance) / second / MEAN_THRESHOLD,
    }


def _poly_error(values, ref_values):
    """Relative coefficient distance between the monic polynomials of two multisets.

    Comparing spectra through the polynomial they expand to keeps the check
    fair on repeated eigenvalues, which no solver resolves beyond
    eps**(1/multiplicity), while a wrong eigenvalue still moves a coefficient.
    """
    values = np.asarray(values, dtype=complex)
    ref_values = np.asarray(ref_values, dtype=complex)
    if values.shape != ref_values.shape:
        return math.inf
    ours, ref = np.poly(values), np.poly(ref_values)
    return float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))


def spectrum(values, ref_eigenvalues, name="spectrum"):
    """Reported eigenvalues against numpy.linalg.eigvals of the dense block."""
    return {name: _poly_error(values, ref_eigenvalues) / PRODUCT_THRESHOLD}


def separable(eigenvalues):
    """Distinct real positive spectrum: the program's partial-fraction rule."""
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    lam = np.sort(eigenvalues.real)
    real = np.all(np.abs(eigenvalues.imag) <= 1e-9 * (1.0 + np.abs(eigenvalues)))
    return bool(real and lam[0] > 0.0 and np.all(np.diff(lam) > 1e-6 * lam[1:]))


def phases(params, kind, ref_eigenvalues):
    """Phase parameters are 1 - lambda (discrete) or lambda.

    A law may go without them (``params`` None) only when its spectrum is
    not separable or, for a discrete chain, reaches 1.  A distinct real
    positive spectrum must get them, so that a spectrum misclassified as
    complex or mixed-sign shows here.
    """
    if params is None:
        lam = np.asarray(ref_eigenvalues)
        expected = separable(lam) and (kind == "continuous" or float(lam.real.max()) < 1.0)
        return {"phases_missing": _flag(not expected)}
    lam = 1.0 - np.asarray(params) if kind == "discrete" else np.asarray(params)
    return spectrum(lam, ref_eigenvalues, name="phases")


def denominator(coeffs, leading, doc, ref_eigenvalues):
    """Leading constant and denominator polynomial of the law.

    The denominator is det(I - sP) = prod(1 - lambda_i s) for a discrete
    chain and det(sI - Q) = prod(s + lambda_i) for a continuous one, in
    ascending powers; exact trailing zeros may be trimmed.
    """
    ups = [row["p"] if doc["type"] == "discrete" else row["alpha"] for row in doc["rows"]]
    ref_leading = math.prod(ups)
    if doc["type"] == "discrete":
        ref = np.poly(ref_eigenvalues).real
    else:
        ref = np.poly(-np.asarray(ref_eigenvalues)).real[::-1]
    ours = np.zeros(len(ref))
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size > ref.size:
        return {"leading": _relative(leading, ref_leading) / PRODUCT_THRESHOLD,
                "denominator": math.inf}
    ours[: coeffs.size] = coeffs
    err = float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
    return {
        "leading": _relative(leading, ref_leading) / PRODUCT_THRESHOLD,
        "denominator": err / PRODUCT_THRESHOLD,
    }


def pmf(support, masses, ref_masses):
    """PMF masses against the vector iteration, and coverage of the mass.

    The reference runs until under 1e-15 of the mass is left, so past its
    end the true masses are below that and count as zero.
    """
    masses = np.asarray(masses, dtype=float)
    n = masses.size
    ref = np.zeros(n)
    k = min(n, len(ref_masses))
    ref[:k] = ref_masses[:k]
    support_ok = n > 0 and list(support) == list(range(1, n + 1))
    return {
        "pmf_support": _flag(support_ok),
        "pmf": float(np.max(np.abs(masses - ref), initial=0.0)) / PMF_THRESHOLD,
        "pmf_coverage": max(0.0, 1.0 - math.fsum(masses)) / PMF_THRESHOLD,
    }


def cdf_table(support, density, cdf, ref_grid, ref_density, ref_cdf):
    """Density and CDF on the default grid against scipy.linalg.expm.

    The grid must be the documented default, 200 points on [0, 5*mean];
    the program's mean may differ from the reference mean within the mean
    threshold, which moves the grid by no more than that share.  The CDF
    must also be monotone within [0, 1], up to rounding.
    """
    support = np.asarray(support, dtype=float)
    cdf = np.asarray(cdf, dtype=float)
    density = np.asarray(density, dtype=float)
    if support.shape != ref_grid.shape or cdf.shape != ref_cdf.shape:
        return {"grid": math.inf}
    grid_err = float(np.max(np.abs(support - ref_grid))) / ref_grid[-1]
    out_of_range = max(float(-cdf.min()), float(cdf.max() - 1.0), 0.0)
    step_down = max(float(-np.diff(cdf).min(initial=0.0)), 0.0)
    return {
        "grid": grid_err / MEAN_THRESHOLD,
        "cdf": float(np.max(np.abs(cdf - ref_cdf))) / CDF_THRESHOLD,
        "density": float(np.max(np.abs(density - ref_density)))
        / (CDF_THRESHOLD * max(1.0, float(ref_density.max()))),
        "cdf_monotone": max(out_of_range, step_down) / MONOTONE_SLACK,
    }


def samples(values, kind, d, paths, ref_mean, ref_variance):
    """Monte Carlo absorption times: count, support, and mean within 5 standard errors."""
    values = np.asarray(values)
    if values.size != paths:
        return {"sample_count": math.inf}
    if kind == "discrete":
        support_ok = np.issubdtype(values.dtype, np.integer) and int(values.min()) >= d
    else:
        support_ok = bool(np.all(np.isfinite(values)) and values.min() > 0.0)
    err = abs(float(values.mean()) - ref_mean)
    stderr = math.sqrt(max(ref_variance, 0.0) / paths)
    if stderr > 0.0:
        z = err / stderr
    else:  # a deterministic absorption time: every sample must hit it
        z = 0.0 if err <= 1e-12 * ref_mean else math.inf
    return {"sample_support": _flag(support_ok), "sample_mean": z / SAMPLE_SIGMAS}


def reports(rows):
    """The program's verification reports, re-judged by the copied thresholds.

    ``rows`` are (check name, max_abs_err, passed).  A known check must be
    within the benchmark's copy of its threshold; any check the program
    reports as failed fails here too.
    """
    if not rows:
        return {"verify_empty": math.inf}
    out = {}
    for name, err, ok in rows:
        limit = VERIFY_THRESHOLDS.get(name)
        margin = 0.0 if limit is None else err / limit
        out[f"verify:{name}"] = margin if ok else math.inf
    return out
