import ast
import math
import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skipfree import (
    ContinuousChain,
    DegenerateSpectrumError,
    DiscreteChain,
    DistributionTable,
    InvariantError,
    PoleError,
    RangeError,
    SpectrumClass,
    TailError,
    build_law,
    expected_hitting_times,
    geometric_sum_pmf,
    laplace,
    moments,
    parse_chain,
    pdf_cdf_table,
    pgf,
    phase_representation,
    pmf_by_matrix_power,
    pmf_by_transform_inversion,
    pmf_table,
    transient_block,
    verification_reports,
)
from skipfree import law as law_module
from skipfree.corpus import (
    desk_scale,
    random_birth_death_continuous,
    random_birth_death_discrete,
    random_continuous_chain,
    random_discrete_chain,
)
from skipfree.law import MAX_PMF_TERMS, PMF_BLOCK, default_grid
from skipfree.verify import _determinant_errors
from tests.conftest import CHAIN_DIR, GOLDEN_DIR, csv_rows, in_time_unit, pmf_by_path_enumeration


def test_build_law_worked_values(d1_geometric, d2_mixed, rates12_pure_birth):
    law = build_law(d1_geometric)
    assert law.leading == 0.5 and law.denom.coeffs == (1.0, -0.5)
    law2 = build_law(d2_mixed)
    assert law2.leading == pytest.approx(0.32)
    assert law2.denom.coeffs == pytest.approx((1.0, -0.5, -0.18))
    lawc = build_law(rates12_pure_birth)
    assert lawc.leading == 2.0 and lawc.denom.coeffs == (2.0, 3.0, 1.0)


def _determinant_transform(law, s):
    """leading s^d / det(I - s P) or leading / det(s I - Q) at the points s, by dense LU."""
    block, eye = transient_block(law.source, law.d - 1), np.eye(law.d)
    if law.kind == "discrete":
        return law.leading * s**law.d / np.linalg.det(eye - s[:, None, None] * block)
    return law.leading / np.linalg.det(s[:, None, None] * eye - block)


def test_pgf_values(d1_geometric, d2_mixed, d3_pure_birth):
    assert pgf(build_law(d1_geometric), 1.0) == pytest.approx(1.0)
    # oracle: 0.32*0.25 / (1 - 0.25 - 0.045)
    assert pgf(build_law(d2_mixed), 0.5) == pytest.approx(0.08 / 0.705)
    law = build_law(d3_pure_birth)
    for s in (0.3, 0.7, 1.4):
        assert pgf(law, s) == pytest.approx(s**3)
    law = build_law(d2_mixed)
    points = np.array([-0.9, 0.0, 0.5, 1.0, 0.3 + 0.4j, -0.6j])
    values = pgf(law, points)
    assert np.array_equal(values, [pgf(law, s) for s in points])
    assert isinstance(pgf(law, 0.5), float) and isinstance(pgf(law, 0.5j), complex)
    oracle = _determinant_transform(law, points[4:])
    assert np.max(np.abs(values[4:] / oracle - 1.0)) <= 1e-12


def test_pgf_pole_and_kind_guard(d1_geometric, rates12_pure_birth):
    law = build_law(d1_geometric)
    rates = build_law(rates12_pure_birth)
    with pytest.raises(PoleError):
        pgf(law, 2.0)  # denominator 1 - 0.5 s vanishes at 2
    with pytest.raises(ValueError):
        pgf(rates, 0.5)
    with pytest.raises(ValueError):
        laplace(law, 1.0)
    with pytest.raises(ValueError, match="s must be a scalar or a 1-D array"):
        pgf(law, [[0.5]])
    with pytest.raises(TypeError, match="not a chain: dict"):
        build_law({"type": "discrete"})
    with pytest.raises(ValueError, match="pmf_table is defined for discrete laws only"):
        pmf_table(rates)
    with pytest.raises(ValueError, match="pdf_cdf_table is defined for continuous laws only"):
        pdf_cdf_table(law, [0.0, 1.0])
    with pytest.raises(TypeError, match="transient_profile needs a continuous chain"):
        law_module.transient_profile(d1_geometric, 1.0)


def test_laplace_values(rate2_single, rates12_pure_birth, rates11_coupled):
    assert laplace(build_law(rate2_single), 2.0) == pytest.approx(0.5)
    assert laplace(build_law(rates12_pure_birth), 1.0) == pytest.approx(1.0 / 3.0)
    assert laplace(build_law(rates12_pure_birth), 0.0) == pytest.approx(1.0, abs=1e-10)
    law = build_law(rates11_coupled)
    points = np.array([0.0, 0.5, 4.0, 1.0 + 2.0j, 0.1 - 3.0j])
    values = laplace(law, points)
    assert np.array_equal(values, [laplace(law, s) for s in points])
    oracle = _determinant_transform(law, points[3:])
    assert np.max(np.abs(values[3:] / oracle - 1.0)) <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the stage ratios at s = 0 pass on "
                   "each stage's rounding, so laplace(law, 0) drifts from 1 with the mean")
def test_laplace_at_zero_on_a_slow_birth_death_chain():
    law = build_law(random_birth_death_continuous(np.random.default_rng(2), 256))
    assert abs(laplace(law, 0.0) - 1.0) <= 1e-10  # misses by 9.96e-6


def test_pmf_geometric(d1_geometric):
    table = pmf_table(build_law(d1_geometric))
    for n, mass in zip(table.support, table.mass_or_density):
        assert mass == pytest.approx(0.5**n, rel=1e-12)
    assert table.cumulative[-1] >= 1 - 1e-12
    assert table.cumulative[-1] + table.tail_bound == pytest.approx(1.0, abs=1e-9)


def test_pmf_worked_chain(d2_mixed):
    table = pmf_table(build_law(d2_mixed))
    masses = dict(zip(table.support, table.mass_or_density))
    assert masses[1] == 0.0
    # oracle: exhaustive path enumeration to length 4
    assert masses[2] == pytest.approx(0.32, rel=1e-12)
    assert masses[3] == pytest.approx(0.16, rel=1e-12)
    assert masses[4] == pytest.approx(0.1376, rel=1e-12)


def test_pmf_pure_birth_point_mass(d3_pure_birth):
    table = pmf_table(build_law(d3_pure_birth))
    assert table.support.tolist() == [1, 2, 3]
    assert table.mass_or_density.tolist() == [0.0, 0.0, 1.0]
    assert table.tail_bound == 0.0


def test_pmf_eps_validation(d1_geometric):
    with pytest.raises(ValueError):
        pmf_table(build_law(d1_geometric), eps=0.0)


def test_pmf_tail_error_past_max_terms(d1_geometric, monkeypatch):
    law = build_law(d1_geometric)
    assert len(pmf_table(law).support) == 40  # 0.5^40 <= 1e-12 < 0.5^39
    monkeypatch.setattr(law_module, "MAX_PMF_TERMS", 10)
    with pytest.raises(TailError):
        pmf_table(law)
    monkeypatch.setattr(law_module, "MAX_PMF_TERMS", 40)
    assert len(pmf_table(law).support) == 40


def _step_oracle_length(chain, eps):
    """First n whose transient mass left, by one v @ P per step, is <= eps."""
    block = transient_block(chain, chain.d - 1)
    v = np.zeros(chain.d)
    v[0] = 1.0
    n = 0
    while True:
        n += 1
        v = v @ block
        if v.sum() <= eps:
            return n, v.sum()


@pytest.mark.parametrize("length", [PMF_BLOCK - 1, PMF_BLOCK, PMF_BLOCK + 1, 3 * PMF_BLOCK])
@pytest.mark.parametrize("name", ["d1_geometric", "d2_mixed"])
def test_pmf_stops_at_block_edges(request, name, length):
    chain = request.getfixturevalue(name)
    block = transient_block(chain, chain.d - 1)
    row = np.linalg.matrix_power(block, length - 1)[0]
    # the geometric mean of the masses left at n - 1 and n
    eps = math.sqrt(row.sum()) * math.sqrt((row @ block).sum())
    table = pmf_table(build_law(chain), eps=eps)
    n, left = _step_oracle_length(chain, eps)
    assert len(table.support) == n == length
    assert table.tail_bound == pytest.approx(left, rel=1e-12)
    steps = pmf_by_matrix_power(chain, n).mass_or_density
    assert np.max(np.abs(np.subtract(table.mass_or_density, steps))) <= 1e-15


def _per_block_length(chain, eps):
    """(length, tail bound) of the table by one v @ panel and one v @ P^PMF_BLOCK per block."""
    panel, power = law_module._pmf_panel(transient_block(chain, chain.d - 1), chain.up[-1])
    left = panel[1]
    v = np.zeros(chain.d)
    v[0] = 1.0
    start = 0
    while True:
        mass_left = v @ left
        done = np.flatnonzero(mass_left <= eps)
        if done.size:
            return start + int(done[0]) + 1, float(mass_left[done[0]])
        start += left.shape[1]
        v = v @ power


def _check_small_blocks(chain):
    """With PMF_BLOCK = 4, the table meets the step oracle and the per-block loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(law_module, "PMF_BLOCK", 4)
        table = pmf_table(build_law(chain))
        length, tail = _per_block_length(chain, 1e-12)
    assert len(table.support) == length
    assert table.tail_bound == pytest.approx(tail, rel=1e-14, abs=0.0)
    steps = pmf_by_matrix_power(chain, max(length, chain.d)).mass_or_density[:length]
    assert np.max(np.abs(table.mass_or_density - steps)) <= 1e-15


def test_small_blocks_on_shipped_chains():
    chains = [parse_chain(path.read_text()) for path in sorted(CHAIN_DIR.glob("*.json"))]
    discrete = [chain for chain in chains if chain.kind == "discrete"]
    assert len(discrete) >= 4
    for chain in discrete:
        _check_small_blocks(chain)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
def test_small_blocks_on_random_chains(seed, d):
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    assume(desk_scale(chain))
    _check_small_blocks(chain)


@pytest.mark.parametrize("stop", [6, 10, 29, 38, 40])
def test_small_blocks_at_the_term_cap(d1_geometric, monkeypatch, stop):
    # blocks of 4 in batches of 1, 2, 4, 8 blocks: steps 6 and 10 fall in the two blocks of the
    # second batch, 29 opens the fourth batch, and 38 and 40 fall in its third block
    eps = 0.5 ** (stop - 0.5)  # the mass left after n steps is 0.5^n
    law = build_law(d1_geometric)
    monkeypatch.setattr(law_module, "PMF_BLOCK", 4)
    monkeypatch.setattr(law_module, "MAX_PMF_TERMS", stop)
    table = pmf_table(law, eps=eps)
    assert len(table.support) == stop and table.tail_bound == 0.5**stop
    monkeypatch.setattr(law_module, "MAX_PMF_TERMS", stop - 1)
    with pytest.raises(TailError):
        pmf_table(law, eps=eps)


def _first_step_second_moment(chain):
    """E[tau^2] from state 0: (I - P) h2 = 2h - 1, or -Q h2 = 2h."""
    h = expected_hitting_times(chain)
    block = transient_block(chain, chain.d - 1)
    if chain.kind == "discrete":
        return np.linalg.solve(np.eye(chain.d) - block, 2.0 * h - 1.0)[0]
    return np.linalg.solve(-block, 2.0 * h)[0]


@pytest.mark.parametrize("d", range(8, 17))
def test_pmf_exact_where_the_series_fails(d):
    # lazy birth-death chains on which the monomial series missed up to 4e-8
    # of a mass and 7e-7 of the total at d <= 12 (3.4e-4 at d = 16), and the
    # moments taken from the monomial denominator missed the first-step mean
    # by up to 7.7e-6; verify's PMF check took that series as its oracle
    for seed in (0, 1, 2):
        chain = random_birth_death_discrete(np.random.default_rng(seed), d)
        assert desk_scale(chain)
        law = build_law(chain)
        table = pmf_table(law)
        masses = np.asarray(table.mass_or_density)
        steps = np.asarray(pmf_by_matrix_power(chain, masses.size).mass_or_density)
        assert np.max(np.abs(masses - steps)) <= 1e-15
        assert abs(1.0 - math.fsum(masses) - table.tail_bound) <= 1e-14
        assert 0.0 <= table.tail_bound <= 1e-12
        mean, variance = moments(law)
        h = expected_hitting_times(chain)[0]
        second = _first_step_second_moment(chain)
        assert abs(mean - h) <= 1e-8 * h
        assert abs(variance - (second - h * h)) <= 1e-8 * second
        assert dict(verification_reports(chain))["pmf_vs_matrix_power"].passed


def _exact_pmf(chain, n_max):
    """P(tau = n), n = 1..n_max, by vector iteration in exact rationals."""
    block = [[Fraction(x) for x in row] for row in transient_block(chain, chain.d - 1).tolist()]
    exit_prob = Fraction(chain.up[-1])
    v = [Fraction(1)] + [Fraction(0)] * (chain.d - 1)
    masses = []
    for _ in range(n_max):
        masses.append(v[-1] * exit_prob)
        v = [sum(v[i] * block[i][j] for i in range(chain.d)) for j in range(chain.d)]
    return masses


@pytest.mark.parametrize("name", ["d1_geometric", "d2_mixed"])
def test_goldens_against_exact_rational_iteration(name):
    chain = parse_chain((CHAIN_DIR / f"{name}.json").read_text())
    golden = csv_rows((GOLDEN_DIR / f"{name}_pmf.csv").read_text())
    exact = _exact_pmf(chain, len(golden))
    for got, want in zip(golden[:, 1], exact):
        assert abs(Fraction(got) - want) <= Fraction(1, 10**15) * want


def test_pgf_coefficients_worked_values(d1_geometric, d2_mixed, d3_pure_birth):
    # the inversion folds a_{n+K} onto a_n, so the series is taken far past the
    # masses read, where the folded tail is below 1e-30
    inverted = pmf_by_transform_inversion(build_law(d1_geometric), 100)
    assert inverted[:3] == pytest.approx([0.5, 0.25, 0.125], rel=0, abs=1e-15)
    # oracle: exhaustive path enumeration to length 4
    inverted = pmf_by_transform_inversion(build_law(d2_mixed), 200)
    assert inverted[:4] == pytest.approx([0.0, 0.32, 0.16, 0.1376], rel=1e-12, abs=1e-15)
    inverted = pmf_by_transform_inversion(build_law(d3_pure_birth), 5)
    assert inverted == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0], rel=0, abs=1e-15)
    with pytest.raises(ValueError):
        pmf_by_transform_inversion(build_law(ContinuousChain(d=1, up=[2.0])), 3)


def test_transform_inversion_matches_matrix_power_on_shipped_chains():
    chains = [parse_chain(path.read_text()) for path in sorted(CHAIN_DIR.glob("*.json"))]
    discrete = [chain for chain in chains if chain.kind == "discrete"]
    assert len(discrete) >= 4
    for chain in discrete:
        law = build_law(chain)
        n_max = len(pmf_table(law).support)
        inverted = pmf_by_transform_inversion(law, n_max)
        stepped = pmf_by_matrix_power(chain, n_max).mass_or_density
        assert np.max(np.abs(inverted - stepped)) <= 1e-15


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_pmf_is_a_probability_mass_function(seed, d):
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    assume(desk_scale(chain))  # keeps the table at desk length
    table = pmf_table(build_law(chain), eps=1e-12)
    masses = np.asarray(table.mass_or_density)
    assert masses.min() >= -1e-12
    assert np.all(np.diff(table.cumulative) >= -1e-15)
    total = masses.sum() + table.tail_bound
    assert 1 - 1e-9 <= total <= 1 + 2e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_pgf_dual_form_agreement(seed, d):
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    law = build_law(chain)
    for s in np.arange(0.1, 0.95, 0.1):
        product = np.prod([(1 - v) * s / (1 - v * s) for v in law.spectrum.values])
        assert abs(pgf(law, s) - product) <= 1e-8


def test_pdf_cdf_single_rate(rate2_single):
    table = pdf_cdf_table(build_law(rate2_single), [0.0, 1.0])
    assert table.mass_or_density[1] == pytest.approx(2 * math.exp(-2), rel=1e-12)
    assert table.cumulative[1] == pytest.approx(1 - math.exp(-2), rel=1e-12)


def test_pdf_cdf_partial_fractions(rates12_pure_birth):
    law = build_law(rates12_pure_birth)
    table = pdf_cdf_table(law, [1.0], method="partial_fractions")
    assert table.mass_or_density[0] == pytest.approx(2 * math.exp(-1) - 2 * math.exp(-2), rel=1e-12)
    assert table.cumulative[0] == pytest.approx(1 - 2 * math.exp(-1) + math.exp(-2), rel=1e-12)


def test_pdf_cdf_erlang_routes_to_uniformization(rates11_erlang):
    law = build_law(rates11_erlang)
    table = pdf_cdf_table(law, [1.0], method="auto")
    # oracle: Erlang(2,1) density t*exp(-t)
    assert table.mass_or_density[0] == pytest.approx(math.exp(-1), abs=1e-9)
    with pytest.raises(DegenerateSpectrumError):
        pdf_cdf_table(law, [1.0], method="partial_fractions")


def test_table_fields_are_read_only_arrays(d2_mixed, rates12_pure_birth):
    grid = np.array([0.0, 0.5, 1.0])
    law = build_law(rates12_pure_birth)
    continuous = [pdf_cdf_table(law, grid, method=m) for m in ("partial_fractions", "uniformization")]
    discrete = [
        pmf_table(build_law(d2_mixed)),
        pmf_by_matrix_power(d2_mixed, 4),
        pmf_by_path_enumeration(d2_mixed, 4),
        DistributionTable([1, 2], [0.5, 0.25], [0.5, 0.75], 0.25),
    ]
    for tables, support_dtype in ((discrete, np.int64), (continuous, np.float64)):
        for table in tables:
            fields = (table.support, table.mass_or_density, table.cumulative)
            assert [f.dtype for f in fields] == [support_dtype, np.float64, np.float64]
            for field in fields:
                assert field.ndim == 1 and field.size == table.support.size
                with pytest.raises(ValueError):
                    field[0] = 0.5
    # the table copies the grid: the caller's array stays theirs, writable
    grid[0] = 0.25
    assert continuous[0].support.tolist() == [0.0, 0.5, 1.0]


def test_pdf_cdf_grid_validation(rates12_pure_birth):
    law = build_law(rates12_pure_birth)
    with pytest.raises(ValueError):
        pdf_cdf_table(law, [-1.0, 0.0])
    with pytest.raises(ValueError):
        pdf_cdf_table(law, [1.0, 0.5])
    with pytest.raises(ValueError):
        pdf_cdf_table(law, [0.0], method="quadrature")
    for method in ("partial_fractions", "uniformization"):
        for bad in ([0.0, np.nan], [0.0, np.inf]):
            with pytest.raises(RangeError):
                pdf_cdf_table(law, bad, method=method)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(RangeError, match="grid_max must be finite"):
            default_grid(law, 3, bad)


@pytest.mark.filterwarnings("error")
def test_near_repeated_rates_past_the_double_range_uniformize():
    # 300 rates 2e-6 apart: the weights' running products pass the largest double, so the
    # closed form is not admitted and auto takes the uniformized table, bit for bit
    law = build_law(ContinuousChain(d=300, up=(1.0 + 2e-6 * np.arange(300)).tolist()))
    grid = np.linspace(0.0, 600.0, 7)
    with pytest.raises(DegenerateSpectrumError, match="eps sum"):
        pdf_cdf_table(law, grid, method="partial_fractions")
    auto, uniformized = (pdf_cdf_table(law, grid, method=m) for m in ("auto", "uniformization"))
    for field in ("support", "mass_or_density", "cumulative"):
        assert np.array_equal(getattr(auto, field), getattr(uniformized, field))
    assert auto.tail_bound == uniformized.tail_bound


def test_partial_fraction_weights_are_the_product_formula_bit_for_bit():
    # the weights w_i = prod_{j != i} lambda_j / (lambda_j - lambda_i), multiplied in index
    # order, give both columns of every admitted closed form exactly
    shipped = (parse_chain(p.read_text()) for p in sorted(CHAIN_DIR.glob("*.json")))
    chains = [chain for chain in shipped if chain.kind == "continuous"]
    chains += [random_birth_death_continuous(np.random.default_rng(seed), d)
               for seed, d in ((0, 12), (1, 12), (0, 64))]
    admitted = 0
    for chain in chains:
        law = build_law(chain)
        lam = phase_representation(law)
        grid = default_grid(law, 9)
        closed = law_module._partial_fractions(lam, grid)
        if closed is None:
            continue
        admitted += 1
        density, cdf = closed
        w = np.array([math.prod(x / (x - y) for j, x in enumerate(lam) if j != i)
                      for i, y in enumerate(lam)])
        decay = np.exp(-np.outer(grid, lam))
        assert np.array_equal(density, decay @ (w * np.array(lam)))
        assert np.array_equal(cdf, (1.0 - decay) @ w)
    assert admitted >= 6, admitted


def test_default_grid_points_stop_at_the_table_row_cap(rates12_pure_birth):
    law = build_law(rates12_pure_birth)
    assert default_grid(law, MAX_PMF_TERMS, 1.0).size == MAX_PMF_TERMS
    assert default_grid(law, np.int64(3), 1.0).tolist() == [0.0, 0.5, 1.0]
    for bad in (0, MAX_PMF_TERMS + 1, 10**9, 10.5, 3.0, True):
        with pytest.raises(RangeError, match="grid points must be >= 1 and at most"):
            default_grid(law, bad, 1.0)


def test_pdf_default_grid_integrates_to_one(rates12_pure_birth):
    from scipy.integrate import simpson

    law = build_law(rates12_pure_birth)
    grid = np.linspace(0.0, 5.0 * moments(law)[0], 201)
    table = pdf_cdf_table(law, grid)
    body = simpson(table.mass_or_density, x=grid)
    assert body + table.tail_bound == pytest.approx(1.0, abs=1e-6)
    assert min(table.mass_or_density) >= -1e-9
    assert table.cumulative[-1] <= 1.0 + 1e-9


def test_moments_worked_values(d1_geometric, d2_mixed, rates12_pure_birth):
    assert moments(build_law(d1_geometric)) == pytest.approx((2.0, 2.0))
    mean, _ = moments(build_law(d2_mixed))
    assert mean == pytest.approx(4.6875, rel=1e-12)
    assert moments(build_law(rates12_pure_birth)) == pytest.approx((1.5, 1.25))


def _solve_exact(a, b):
    """x with a x = b in exact rationals, by elimination without pivoting.

    The first-step matrices below are irreducibly diagonally dominant M-matrices, whose
    leading principal minors are positive, so no pivot is zero.
    """
    n = len(b)
    rows = [row + [rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return x


def _exact_first_step_moments(chain):
    """(E[tau], E[tau^2]) from state 0 in exact rationals, each hold taken as 1 - p - sum q.

    A h = 1 and A h2 = 2h - c, with A = I - P_{d-1} (c = 1) or -Q_{d-1} (c = 0); both have
    diagonal up_i + sum_j down_{i,j}, so the stored r_i is never read.
    """
    d = chain.d
    a = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        down = [Fraction(q) for q in chain.down[i]]
        a[i][:i] = [-q for q in down]
        a[i][i] = Fraction(chain.up[i]) + sum(down, Fraction(0))
        if i + 1 < d:
            a[i][i + 1] = -Fraction(chain.up[i])
    h = _solve_exact(a, [Fraction(1)] * d)
    c = 1 if chain.kind == "discrete" else 0
    return h[0], _solve_exact(a, [2 * x - c for x in h])[0]


def test_moments_against_exact_rational_first_step_solve():
    # exact rationals, so that the oracle adds no rounding of its own
    checked = 0
    for family in (random_discrete_chain, random_continuous_chain,
                   random_birth_death_discrete, random_birth_death_continuous):
        for d in range(1, 9):
            for seed in range(5):
                chain = family(np.random.default_rng(seed), d)
                if not desk_scale(chain):
                    continue
                mean, variance = moments(build_law(chain))
                exact_mean, exact_second = _exact_first_step_moments(chain)
                assert abs(Fraction(mean) - exact_mean) <= Fraction(1e-14) * exact_mean
                exact_variance = exact_second - exact_mean**2
                assert abs(Fraction(variance) - exact_variance) <= Fraction(1e-14) * exact_second
                checked += 1
    assert checked == 138


@pytest.mark.parametrize("family", [random_discrete_chain, random_continuous_chain])
def test_moments_overflow_raises_invariant_error_without_warning(family):
    # means 7.07e158 (discrete) and 2.02e156 (continuous): the variance overflows
    law = build_law(family(np.random.default_rng(0), 128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantError, match="overflow"):
            moments(law)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_discrete_moments_against_linear_system_and_series(seed, d):
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    assume(desk_scale(chain))
    law = build_law(chain)
    mean, variance = moments(law)
    assert mean == pytest.approx(expected_hitting_times(chain)[0], rel=1e-8)
    # series oracle: mean and variance from the tabulated PMF itself
    table = pmf_table(law, eps=1e-14)
    n = np.asarray(table.support, dtype=float)
    m = np.asarray(table.mass_or_density)
    assert mean == pytest.approx(float(n @ m), rel=1e-6)
    assert variance == pytest.approx(float(n**2 @ m) - float(n @ m) ** 2, rel=1e-5, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_continuous_mean_against_linear_system(seed, d):
    chain = random_continuous_chain(np.random.default_rng(seed), d)
    law = build_law(chain)
    assert moments(law)[0] == pytest.approx(expected_hitting_times(chain)[0], rel=1e-8)


def test_phase_representation(d1_geometric, d2_mixed, rates11_coupled):
    assert phase_representation(build_law(d1_geometric)) == pytest.approx((0.5,))
    # eigenvalues +-1e-10: RealNonnegative within tol, and every phase still a probability
    tight = DiscreteChain(d=2, hold=[0.0, 0.0], up=[1.0, 1.0], down=[[], [1e-20]])
    phases = phase_representation(build_law(tight))
    assert phases == pytest.approx((1.0, 1.0)) and all(0.0 < p <= 1.0 for p in phases)
    blocked = build_law(d2_mixed)
    assert phase_representation(blocked) is None
    assert blocked.spectrum.classification is SpectrumClass.REAL_MIXED_SIGN
    rates = phase_representation(build_law(rates11_coupled))
    assert sorted(rates) == pytest.approx([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 7))
def test_phase_parameters_reproduce_pmf_by_convolution(seed, d):
    chain = random_birth_death_discrete(np.random.default_rng(seed), d)
    assume(desk_scale(chain, 50.0))  # keeps the PMF table short
    law = build_law(chain)
    params = phase_representation(law)
    assert params is not None
    table = pmf_table(law)
    convolved = geometric_sum_pmf(params, len(table.support))
    assert np.max(np.abs(np.asarray(table.mass_or_density) - convolved)) <= 1e-9


def _desk_continuous_chains():
    """10 general and 10 birth-death continuous corpus chains at desk scale, d 1-8."""
    chains = []
    for make in (random_continuous_chain, random_birth_death_continuous):
        rng, kept, d = np.random.default_rng(17), 0, 0
        while kept < 10:
            d = d % 8 + 1
            chain = make(rng, d)
            if desk_scale(chain):
                chains.append(chain)
                kept += 1
    return chains


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-480, -40, 400, 520])
def test_continuous_answers_do_not_depend_on_the_time_unit(k):
    # every rate times 2^k is the same law on a clock 2^k times faster; at k = 400 and 520
    # the d = 64 chain passes charpoly_vs_determinant only with points on its time scale
    unit = 2.0**k
    for chain in _desk_continuous_chains() + [
            random_birth_death_continuous(np.random.default_rng(0), 64)]:
        scaled = in_time_unit(chain, unit)
        failed = [name for name, report in verification_reports(scaled) if not report.passed]
        assert not failed, (chain, failed)
        law, law_scaled = build_law(chain), build_law(scaled)
        assert law_scaled.spectrum.classification is law.spectrum.classification
        # the determinant check reads the same errors at every unit, bit for bit
        errors = [_determinant_errors(x, np.random.default_rng(0)) for x in (law, law_scaled)]
        assert np.array_equal(*errors)
        if k != 520:  # there the variance is subnormal
            mean, variance = moments(law)
            assert moments(law_scaled) == (mean / unit, variance / unit**2)


def test_law_imports_no_oracle_or_caller():
    # the law is what the oracles check and the CLI prints, so it must not lean on them,
    # not even through an import inside a function
    import skipfree.law

    tree = ast.parse(pathlib.Path(skipfree.law.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            if node.module is None:  # from . import name
                imported.update(alias.name for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"oracle", "verify", "cli", "corpus"}, sorted(imported)
