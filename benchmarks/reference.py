"""The benchmark's own answers, computed with numpy/scipy from a chain document.

Nothing here imports skipfree: every value is derived from the dense
transient block that :func:`block` builds straight from the JSON rows, so a
fault in the program cannot leak into the reference it is checked against.
"""

import numpy as np
import scipy.linalg

GRID_POINTS = 200
PMF_REMAINDER = 1e-15
PMF_MAX_TERMS = 2_000_000


def block(doc):
    """Transient block P_{d-1} (discrete) or generator block Q_{d-1} (continuous)."""
    d = doc["d"]
    m = np.zeros((d, d))
    for i, row in enumerate(doc["rows"]):
        if doc["type"] == "discrete":
            m[i, :i] = row.get("q", [0.0] * i)
            m[i, i] = row["r"]
            up = row["p"]
        else:
            m[i, :i] = row.get("beta", [0.0] * i)
            up = row["alpha"]
            m[i, i] = -(up + sum(row.get("beta", [])))
        if i + 1 < d:
            m[i, i + 1] = up
    return m


def exit_rate(doc):
    """Up probability or up rate of the last transient state into absorption."""
    last = doc["rows"][-1]
    return last["p"] if doc["type"] == "discrete" else last["alpha"]


def mean_time(doc):
    """Mean absorption time from state 0: (I - P) h = 1 or -Q h = 1."""
    m = block(doc)
    system = np.eye(doc["d"]) - m if doc["type"] == "discrete" else -m
    return float(np.linalg.solve(system, np.ones(doc["d"]))[0])


def first_step_moments(doc):
    """Mean and variance of the absorption time from state 0, by linear solves.

    Discrete: (I - P) h = 1 and (I - P) m2 = 1 + 2 P h.
    Continuous: -Q h = 1 and -Q m2 = 2 h.
    """
    m = block(doc)
    ones = np.ones(doc["d"])
    if doc["type"] == "discrete":
        system = np.eye(doc["d"]) - m
        h = np.linalg.solve(system, ones)
        m2 = np.linalg.solve(system, ones + 2.0 * m @ h)
    else:
        h = np.linalg.solve(-m, ones)
        m2 = np.linalg.solve(-m, 2.0 * h)
    return float(h[0]), float(m2[0] - h[0] ** 2)


def spectrum(doc):
    """Eigenvalues of P_{d-1}, or of -Q_{d-1}: the spectrum the program reports."""
    m = block(doc)
    return np.linalg.eigvals(m if doc["type"] == "discrete" else -m)


def pmf(doc):
    """P(tau = n) for n = 1, 2, ... by transient vector iteration.

    Runs until the mass left in the transient states is below 1e-15, so the
    result is at least as long as any table the program stops at 1 - eps.
    """
    m = block(doc)
    p_exit = exit_rate(doc)
    v = np.zeros(doc["d"])
    v[0] = 1.0
    masses = []
    while v.sum() > PMF_REMAINDER and len(masses) < PMF_MAX_TERMS:
        masses.append(v[-1] * p_exit)
        v = v @ m
    return np.asarray(masses)


def default_grid(mean):
    """The documented default grid of continuous tables: 200 points on [0, 5*mean]."""
    return np.linspace(0.0, 5.0 * mean, GRID_POINTS)


def density_cdf(doc, grid):
    """Density and CDF of a continuous law at each grid time, via scipy's expm."""
    q = block(doc)
    alpha_last = exit_rate(doc)
    density = np.empty(len(grid))
    cdf = np.empty(len(grid))
    for i, t in enumerate(grid):
        row = scipy.linalg.expm(q * t)[0]
        density[i] = alpha_last * row[-1]
        cdf[i] = 1.0 - row.sum()
    return density, cdf
