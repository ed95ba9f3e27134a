"""Each of the benchmark's checks accepts the program's output on a shipped
chain and rejects the same output deliberately perturbed.

    python -m pytest benchmarks/tests
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

import checks
import reference
from skipfree import (
    SamplerConfig,
    build_law,
    moments,
    parse_chain,
    pdf_cdf_table,
    phase_representation,
    pmf_table,
    sample_hitting_times,
    verification_reports,
)

CHAINS = pathlib.Path(__file__).resolve().parents[1] / "cli_chains"
DISCRETE = "d4_lazy_birth_death.json"
CONTINUOUS = "d3_skipfree_rates.json"


def load(name):
    doc = json.loads((CHAINS / name).read_text())
    return doc, parse_chain(json.dumps(doc))


def fails(margins, name):
    return not margins[name] <= 1.0


@pytest.mark.parametrize("name", [DISCRETE, CONTINUOUS, "d3_pure_birth.json"])
def test_moments(name):
    doc, chain = load(name)
    mean, var = moments(build_law(chain))
    ref_mean, ref_var = reference.first_step_moments(doc)
    assert checks.passed(checks.moments(mean, var, ref_mean, ref_var))
    assert fails(checks.moments(mean * (1 + 1e-6), var, ref_mean, ref_var), "mean")
    assert fails(checks.moments(mean, var + 1e-6 * mean**2, ref_mean, ref_var), "variance")


@pytest.mark.parametrize("name", [DISCRETE, CONTINUOUS, "d3_erlang.json", "d2_mixed.json"])
def test_spectrum(name):
    doc, chain = load(name)
    values = np.array(build_law(chain).spectrum.values)
    eigs = reference.spectrum(doc)
    assert checks.passed(checks.spectrum(values, eigs))
    values[-1] += 1e-5
    assert fails(checks.spectrum(values, eigs), "spectrum")
    assert fails(checks.spectrum(values[:-1], eigs), "spectrum")


@pytest.mark.parametrize("name", [DISCRETE, CONTINUOUS])
def test_phases(name):
    doc, chain = load(name)
    params = phase_representation(build_law(chain))
    eigs = reference.spectrum(doc)
    assert checks.passed(checks.phases(params, doc["type"], eigs))
    bent = (params[0] * (1 + 1e-5),) + params[1:]
    assert fails(checks.phases(bent, doc["type"], eigs), "phases")
    assert fails(checks.phases(None, doc["type"], eigs), "phases_missing")


def test_phases_may_be_missing_on_a_repeated_eigenvalue():
    doc, _ = load("d3_erlang.json")
    assert checks.passed(checks.phases(None, doc["type"], reference.spectrum(doc)))


@pytest.mark.parametrize("name", [DISCRETE, CONTINUOUS, "d3_pure_birth.json"])
def test_denominator(name):
    doc, chain = load(name)
    law = build_law(chain)
    eigs = reference.spectrum(doc)
    coeffs = list(law.denom.coeffs)
    assert checks.passed(checks.denominator(coeffs, law.leading, doc, eigs))
    assert fails(checks.denominator(coeffs, law.leading * (1 + 1e-6), doc, eigs), "leading")
    coeffs[0] += 1e-6
    assert fails(checks.denominator(coeffs, law.leading, doc, eigs), "denominator")


@pytest.mark.parametrize("name", [DISCRETE, "d3_pure_birth.json", "d1_geometric.json"])
def test_pmf(name):
    doc, chain = load(name)
    table = pmf_table(build_law(chain))
    ref = reference.pmf(doc)
    support, masses = list(table.support), list(table.mass_or_density)
    assert checks.passed(checks.pmf(support, masses, ref))
    bent = masses.copy()
    bent[len(bent) // 2] += 1e-8
    assert fails(checks.pmf(support, bent, ref), "pmf")
    half = len(masses) // 2 or 1
    assert fails(checks.pmf(support[:half], masses[:half], ref), "pmf_coverage")
    assert fails(checks.pmf([n + 1 for n in support], masses, ref), "pmf_support")


@pytest.mark.parametrize("method", ["auto", "uniformization"])
def test_cdf_table(method):
    doc, chain = load(CONTINUOUS)
    table = pdf_cdf_table(build_law(chain), method=method)
    grid = reference.default_grid(reference.first_step_moments(doc)[0])
    density, cdf = reference.density_cdf(doc, grid)
    support = np.array(table.support)
    dens = np.array(table.mass_or_density)
    cum = np.array(table.cumulative)

    def judge(s=support, f=dens, c=cum):
        return checks.cdf_table(s, f, c, grid, density, cdf)

    assert checks.passed(judge())
    assert fails(judge(c=cum + 1e-6), "cdf")
    assert fails(judge(f=dens * (1 + 1e-5)), "density")
    assert fails(judge(s=support * (1 + 1e-6)), "grid")
    swapped = cum.copy()
    swapped[[100, 101]] = swapped[[101, 100]]
    assert fails(judge(c=swapped), "cdf_monotone")
    below = cum.copy()
    below[0] = -1e-9
    assert fails(judge(c=below), "cdf_monotone")


@pytest.mark.parametrize("name", [DISCRETE, CONTINUOUS])
def test_samples(name):
    doc, chain = load(name)
    paths = 10_000
    values = sample_hitting_times(chain, SamplerConfig(seed=7, paths=paths))
    mean, var = reference.first_step_moments(doc)
    assert checks.passed(checks.samples(values, doc["type"], doc["d"], paths, mean, var))
    shifted = values + (6.0 * np.sqrt(var / paths)).astype(values.dtype) + (
        1 if doc["type"] == "discrete" else 0)
    assert fails(checks.samples(shifted, doc["type"], doc["d"], paths, mean, var), "sample_mean")
    short = checks.samples(values[:-1], doc["type"], doc["d"], paths, mean, var)
    assert fails(short, "sample_count")
    low = values.copy()
    low[0] = 0
    assert fails(checks.samples(low, doc["type"], doc["d"], paths, mean, var), "sample_support")


@pytest.mark.parametrize("name", [DISCRETE, CONTINUOUS])
def test_reports(name):
    _, chain = load(name)
    reports = verification_reports(chain, seed=3)
    rows = [(n, r.max_abs_err, r.passed) for n, r in reports]
    assert checks.passed(checks.reports(rows))
    # a program that loosened its own threshold still fails the copied one
    name0, report0 = reports[0]
    loose = dataclasses.replace(report0, max_abs_err=10 * checks.VERIFY_THRESHOLDS[name0],
                                passed=True)
    rows_loose = [(name0, loose.max_abs_err, loose.passed)] + rows[1:]
    assert fails(checks.reports(rows_loose), f"verify:{name0}")
    rows_failed = [(name0, report0.max_abs_err, False)] + rows[1:]
    assert fails(checks.reports(rows_failed), f"verify:{name0}")
    assert fails(checks.reports([]), "verify_empty")
