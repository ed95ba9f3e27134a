"""Acceptance suite: one test per criterion, at the stated tolerances.

Corpora are random but pinned by seed, and conditioned to desk scale via the
first-step linear system (an oracle independent of every pipeline under
test): strongly downward-biased chains push the transient spectral radius
within ~1e-8 of 1, where double-precision coefficients of det(I - sP)
cannot express the compared quantities at the required tolerances and PMF
tables outgrow memory.  Each criterion prints one PASS line (visible with
pytest -s); a failure fails its test.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from skipfree import (
    SamplerConfig,
    SpectrumClass,
    build_law,
    cdf_by_uniformization,
    continuous_charpoly_seq,
    discrete_charpoly_seq,
    expected_hitting_times,
    geometric_sum_pmf,
    ks_critical_value,
    ks_two_sample,
    moments,
    pdf_cdf_table,
    pgf,
    phase_representation,
    pmf_by_matrix_power,
    pmf_table,
    sample_hitting_times,
    transient_block,
)
from skipfree.corpus import (
    desk_scale,
    random_birth_death_continuous,
    random_birth_death_discrete,
    random_continuous_chain,
    random_discrete_chain,
)
from skipfree.oracle import report_from_errors
from tests.conftest import CHAIN_DIR, GOLDEN_DIR, csv_rows, prefix


def _corpus(generator, n, d_range, seed, accept=lambda chain: True):
    rng = np.random.default_rng(seed)
    chains = []
    while len(chains) < n:
        d = int(rng.integers(d_range[0], d_range[1] + 1))
        chain = generator(rng, d)
        if accept(chain):
            chains.append(chain)
    return chains


@pytest.fixture(scope="module")
def discrete_corpus():
    return _corpus(random_discrete_chain, 200, (1, 8), seed=20230211, accept=desk_scale)


@pytest.fixture(scope="module")
def continuous_corpus():
    return _corpus(random_continuous_chain, 200, (1, 8), seed=20230212)


@pytest.fixture(scope="module")
def birth_death_discrete_corpus():
    return _corpus(random_birth_death_discrete, 50, (1, 8), seed=20230213)


@pytest.fixture(scope="module")
def birth_death_continuous_corpus():
    return _corpus(random_birth_death_continuous, 50, (1, 8), seed=20230214)


def test_criterion_1_recurrence_determinant_agreement(discrete_corpus, continuous_corpus):
    started = time.monotonic()
    rng = np.random.default_rng(1)
    for chain in discrete_corpus:
        g = discrete_charpoly_seq(chain)[-1]
        block = transient_block(chain, chain.d - 1)
        for s in rng.uniform(-1.0, 1.0, size=20):
            det = np.linalg.det(np.eye(chain.d) - s * block)
            assert abs(np.polyval(g.coeffs[::-1], s) - det) <= 1e-10 * (1 + abs(det))
    for chain in continuous_corpus:
        g = continuous_charpoly_seq(chain)[-1]
        block = transient_block(chain, chain.d - 1)
        for s in rng.uniform(0.0, 5.0, size=20):
            det = np.linalg.det(s * np.eye(chain.d) - block)
            assert abs(np.polyval(g.coeffs[::-1], s) - det) <= 1e-10 * (1 + abs(det))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: recurrences match determinants on 400 chains ({elapsed:.1f}s)")


def test_criterion_2_transform_identity(discrete_corpus):
    for chain in discrete_corpus:
        law = build_law(chain)
        lam = law.spectrum.values
        for s in np.arange(0.1, 0.95, 0.1):
            product = np.prod([(1 - v) * s / (1 - v * s) for v in lam])
            assert abs(pgf(law, s) - product) <= 1e-8
        up = math.prod(chain.up)
        assert abs(np.prod([1 - v for v in lam]) - up) <= 1e-8 * up
    print("\nPASS criterion 2: PGF dual forms and eigenvalue product identity at 1e-8")


def test_criterion_3_distributional_identity(discrete_corpus, birth_death_discrete_corpus):
    checked_convolutions = 0
    for chain in discrete_corpus + birth_death_discrete_corpus:
        law = build_law(chain)
        table = pmf_table(law, eps=1e-10)
        masses = np.asarray(table.mass_or_density)
        oracle = pmf_by_matrix_power(chain, len(table.support))
        report = report_from_errors(masses - oracle.mass_or_density, threshold=1e-9)
        assert report.passed, f"pmf gap {report.max_abs_err:.3e}"
        params = phase_representation(law)
        if params is None:
            continue
        convolved = geometric_sum_pmf(params, len(table.support))
        gap = np.max(np.abs(masses - convolved))
        assert gap <= 1e-9, f"convolution gap {gap:.3e}"
        checked_convolutions += 1
    assert checked_convolutions >= 50
    print(
        "\nPASS criterion 3: pmf matches matrix powers on 250 chains; "
        f"geometric convolution on {checked_convolutions}"
    )


def test_criterion_4_continuous_distributional_identity():
    corpus = _corpus(
        random_birth_death_continuous,
        100,
        (1, 6),
        seed=20230215,
        accept=lambda chain: desk_scale(chain, 20.0),
    )
    for chain in corpus:
        law = build_law(chain)
        assert law.spectrum.classification is SpectrumClass.REAL_NONNEGATIVE
        mean, _ = moments(law)
        grid = np.linspace(0.0, 5.0 * mean, 50)
        closed = pdf_cdf_table(law, grid, method="partial_fractions")
        for i, t in enumerate(grid):
            assert abs(closed.cumulative[i] - cdf_by_uniformization(chain, t)) <= 1e-7
        rates = math.prod(chain.up)
        assert abs(np.prod(law.spectrum.values) - rates) <= 1e-8 * rates
    print("\nPASS criterion 4: hypoexponential CDF matches uniformization on 100 chains")


def test_criterion_5_moment_checks(discrete_corpus, continuous_corpus, d2_mixed):
    for chain in discrete_corpus + continuous_corpus:
        mean, _ = moments(build_law(chain))
        target = expected_hitting_times(chain)[0]
        assert abs(mean - target) <= 1e-8 * abs(target)
    assert moments(build_law(d2_mixed))[0] == pytest.approx(4.6875, rel=1e-12)
    print("\nPASS criterion 5: transform moments match first-step linear systems; 4.6875 reproduced")


def test_criterion_6_monte_carlo(discrete_corpus, continuous_corpus):
    started = time.monotonic()
    small = lambda chain: expected_hitting_times(chain)[0] <= 25.0 and chain.d <= 5
    for kind_corpus, offset in ((discrete_corpus, 0), (continuous_corpus, 10_000)):
        chains = [c for c in kind_corpus if small(c)][:20]
        assert len(chains) == 20
        for i, chain in enumerate(chains):
            samples = sample_hitting_times(chain, SamplerConfig(seed=offset + i, paths=100_000))
            analytic_mean = moments(build_law(chain))[0]
            stderr = samples.std() / math.sqrt(samples.size)
            assert abs(samples.mean() - analytic_mean) <= 4 * stderr

    # telescoping: direct tau_{0,d} vs summed independent stage passages
    paths = 10_000
    for chain, base_seed in (
        (random_discrete_chain(np.random.default_rng(77), 3), 500),
        (random_continuous_chain(np.random.default_rng(78), 3), 600),
    ):
        direct = sample_hitting_times(chain, SamplerConfig(seed=base_seed, paths=paths))
        staged = np.zeros(paths)
        for i in range(chain.d):
            cfg = SamplerConfig(seed=base_seed + 1 + i, paths=paths, start_state=i)
            staged = staged + sample_hitting_times(prefix(chain, i + 1), cfg)
        assert ks_two_sample(direct, staged) < ks_critical_value(paths, paths)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 6: Monte Carlo means within 4 SE; telescoping KS at 1% ({elapsed:.1f}s)")


def test_criterion_7_birth_death_regression(
    birth_death_discrete_corpus, birth_death_continuous_corpus
):
    for chain in birth_death_discrete_corpus + birth_death_continuous_corpus:
        law = build_law(chain, tol=1e-7)
        assert law.spectrum.classification is SpectrumClass.REAL_NONNEGATIVE
        params = phase_representation(law)
        assert params is not None
        assert all(p > 0 for p in params)
    print("\nPASS criterion 7: 100 birth-death chains classify RealNonnegative with phases")


def test_criterion_8_cli_verify_and_goldens():
    for chain_file in sorted(CHAIN_DIR.glob("*.json")):
        proc = subprocess.run(
            [sys.executable, "-m", "skipfree.cli", "verify", str(chain_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{chain_file.name}: {proc.stderr}"

    for chain_name, golden_name in (
        ("d1_geometric.json", "d1_geometric_pmf.csv"),
        ("d2_mixed.json", "d2_mixed_pmf.csv"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "skipfree.cli", "pmf", str(CHAIN_DIR / chain_name)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        emitted = csv_rows(proc.stdout)
        golden = csv_rows((GOLDEN_DIR / golden_name).read_text())
        assert np.array_equal(emitted, golden)  # equality of parsed doubles: 17-digit normalization
    print("\nPASS criterion 8: CLI verify exits 0 on all example chains; goldens match")
