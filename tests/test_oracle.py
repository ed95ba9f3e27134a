import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipfree import (
    ContinuousChain,
    DiscreteChain,
    InvariantError,
    RangeError,
    RunawayPathError,
    SamplerConfig,
    build_law,
    cdf_by_uniformization,
    expected_hitting_times,
    moments,
    parse_chain,
    pmf_by_matrix_power,
    sample_hitting_times,
    transient_profile,
)
from skipfree import law as law_module
from skipfree.chains import jump_totals, transient_block
from skipfree.corpus import (
    desk_scale,
    random_birth_death_continuous,
    random_birth_death_discrete,
    random_continuous_chain,
    random_discrete_chain,
)
from skipfree.law import MAX_PMF_TERMS
from skipfree.oracle import GUIDE_BUCKETS, _guide_table, _jump_keys
from skipfree import verify as verify_module
from skipfree.verify import (
    DET_POINTS,
    DET_THRESHOLD,
    PRODUCT_THRESHOLD,
    _prefix_slogdets,
    _product_identity,
    verification_reports,
)
from tests.conftest import (
    CHAIN_DIR,
    in_time_unit,
    ks_critical_value,
    ks_two_sample,
    pmf_by_path_enumeration,
    prefix,
    telescoping_statistic,
)


def test_matrix_power_geometric(d1_geometric, rate2_single):
    table = pmf_by_matrix_power(d1_geometric, 3)
    assert table.mass_or_density == pytest.approx((0.5, 0.25, 0.125))
    with pytest.raises(TypeError, match="needs a discrete chain"):
        pmf_by_matrix_power(rate2_single, 3)


def test_matrix_power_worked_chain(d2_mixed):
    table = pmf_by_matrix_power(d2_mixed, 4)
    assert table.mass_or_density[1:] == pytest.approx((0.32, 0.16, 0.1376))


def test_matrix_power_pure_birth(d3_pure_birth):
    table = pmf_by_matrix_power(d3_pure_birth, 5)
    assert table.mass_or_density.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
    assert table.tail_bound == 0.0
    with pytest.raises(ValueError, match="n_max must be at least d=3"):
        pmf_by_matrix_power(d3_pure_birth, 2)


def test_path_enumeration_matches_matrix_power(d2_mixed):
    walk = pmf_by_path_enumeration(d2_mixed, 8)
    power = pmf_by_matrix_power(d2_mixed, 8)
    assert walk.mass_or_density == pytest.approx(power.mass_or_density, abs=1e-14)


def test_uniformization_single_rate(rate2_single):
    assert cdf_by_uniformization(rate2_single, 1.0) == pytest.approx(
        1 - math.exp(-2), abs=1e-10
    )
    assert cdf_by_uniformization(rate2_single, 0.0) == 0.0


def test_uniformization_pure_birth(rates12_pure_birth):
    expected = 1 - 2 * math.exp(-1) + math.exp(-2)
    assert cdf_by_uniformization(rates12_pure_birth, 1.0) == pytest.approx(expected, abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    times=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=6),
)
def test_uniformization_matches_expm(seed, d, times):
    from scipy.linalg import expm

    # sorted, with the first time repeated
    grid = np.sort([0.0] + times + times[:1])
    chain = random_continuous_chain(np.random.default_rng(seed), d)
    with pytest.MonkeyPatch.context() as patch:  # a function-scoped fixture would span examples
        patch.setattr(law_module, "UNIFORMIZATION_TOL", 1e-12)
        profiles = transient_profile(chain, grid)
        assert profiles.shape == (grid.size, d)
        repeat = np.searchsorted(grid, times[0])
        assert np.array_equal(profiles[repeat], profiles[repeat + 1])
        block = transient_block(chain, d - 1)
        for t, profile in zip(grid, profiles):
            assert np.max(np.abs(profile - expm(block * t)[0])) <= 1e-9
            # the scalar form crosses one gap, the grid a chain of gaps
            assert np.max(np.abs(profile - transient_profile(chain, t))) <= 2e-12
        cdf = cdf_by_uniformization(chain, grid)
        assert np.array_equal(cdf, 1.0 - profiles.sum(axis=1))


def test_uniformization_past_weight_underflow(monkeypatch):
    from scipy.linalg import expm

    # state 1 falls back to 0 at rate 400, so Lambda * t passes 2000 while
    # most of the mass is still transient and exp(-Lambda * t) underflows
    chain = ContinuousChain(d=3, up=[1.0, 1.0, 0.5], down=[[], [400.0], [0.0, 0.0]])
    grid = np.array([0.0, 1.0, 6.0])
    assert max(jump_totals(chain, chain.d)) * grid[-1] >= 2000.0
    monkeypatch.setattr(law_module, "UNIFORMIZATION_TOL", 1e-12)
    profiles = transient_profile(chain, grid)
    block = transient_block(chain, chain.d - 1)
    dense = np.array([expm(block * t)[0] for t in grid])
    assert np.max(np.abs(profiles - dense)) <= 1e-9
    assert profiles[-1].sum() > 0.5


def test_uniformization_at_long_times(rate2_single):
    from scipy.linalg import expm

    # fast internal rates and a slow exit: at Lambda t = 1e6 most mass is still transient
    chain = ContinuousChain(d=3, up=[1e3, 1e3, 1e-3], down=[[], [1e3], [0.0, 1e3]])
    rate = max(jump_totals(chain, chain.d))
    grid = np.array([1e4, 1e6]) / rate
    profiles = transient_profile(chain, grid)
    block = transient_block(chain, chain.d - 1)
    dense = np.array([expm(block * t)[0] for t in grid])
    assert np.max(np.abs(profiles - dense)) <= 1e-9
    assert profiles[-1].sum() > 0.5
    # at t = 1e6 the step matrix underflows to zero part-way through its 22 squarings
    assert transient_profile(rate2_single, 1e6).tolist() == [0.0]
    assert cdf_by_uniformization(rate2_single, np.array([0.0, 1e6])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize(
    "family,d,seeds,oracle_check",
    [
        pytest.param(random_birth_death_continuous, 64, (0, 1, 2), "cdf_vs_uniformization",
                     id="64"),
        pytest.param(random_birth_death_continuous, 128, (0, 1, 2), "cdf_vs_uniformization",
                     id="128"),
        pytest.param(random_birth_death_continuous, 256, (0, 1), "cdf_vs_uniformization",
                     id="256"),
        pytest.param(random_birth_death_continuous, 256, (2,), "cdf_vs_uniformization",
                     id="256-seed2", marks=pytest.mark.xfail(
                         strict=True, reason="ROADMAP item 1: mean 4.1e10, and laplace_at_zero, "
                         "eigen_product_identity and cdf_vs_uniformization fail")),
        pytest.param(random_birth_death_discrete, 64, (0, 1, 2), "pmf_vs_geometric_convolution",
                     id="discrete-64"),
        pytest.param(random_birth_death_discrete, 128, (0, 1, 2),
                     "pmf_vs_geometric_convolution", id="discrete-128"),
        pytest.param(random_birth_death_discrete, 256, (0, 1, 2),
                     "pmf_vs_geometric_convolution", id="discrete-256"),
        # complex and mixed-sign spectra: no check reads the classification
        pytest.param(random_continuous_chain, 8, (0, 1, 2), "cdf_vs_uniformization",
                     id="general-8"),
        *(pytest.param(random_discrete_chain, d, (0, 1, 2), "pmf_vs_geometric_convolution",
                       id=f"general-discrete-{d}") for d in (4, 5, 6)),
    ],
)
def test_verify_passes_on_large_birth_death_continuous(family, d, seeds, oracle_check):
    for seed in seeds:
        chain = family(np.random.default_rng(seed), d)
        reports = verification_reports(chain)
        assert oracle_check in dict(reports)
        assert all(report.passed for _, report in reports), reports


def _dense_slogdets(block, s, discrete):
    """np.linalg.slogdet of I - s M_n (resp. s I - M_n) for every prefix n, each (d, points)."""
    prefixes = []
    for n in range(1, block.shape[0] + 1):
        eye, m, at = np.eye(n), block[:n, :n], s[:, None, None]
        prefixes.append(np.linalg.slogdet(eye - at * m if discrete else at * eye - m))
    return np.array([p.sign for p in prefixes]), np.array([p.logabsdet for p in prefixes])


@pytest.mark.parametrize("family", [random_discrete_chain, random_continuous_chain,
                                    random_birth_death_discrete, random_birth_death_continuous])
def test_prefix_slogdets_match_dense_lu(family):
    rng = np.random.default_rng(5)
    for d in range(1, 11):
        for _ in range(3):
            chain = family(rng, d)
            discrete = chain.kind == "discrete"
            lo, hi = (-1.0, 1.0) if discrete else (0.0, 5.0)
            s = rng.uniform(lo, hi, DET_POINTS)
            block = transient_block(chain, d - 1)
            sign, log = _prefix_slogdets(block, s, discrete)
            dense_sign, dense_log = _dense_slogdets(block, s, discrete)
            assert sign.shape == log.shape == (d, DET_POINTS)
            assert np.array_equal(sign, dense_sign)
            # the check's relative error, with the signs equal
            assert np.abs(np.expm1(log - dense_log)).max() <= 1e-12


@pytest.mark.filterwarnings("error")
def test_prefix_slogdets_past_the_double_range():
    # as drawn, rows of y pass 1e100 and move to the log scale; with every rate times 16
    # the prefix determinants pass the largest double as well
    chain = random_birth_death_continuous(np.random.default_rng(0), 256)
    s = np.random.default_rng(0).uniform(0.0, 5.0, DET_POINTS)
    for factor in (1.0, 16.0):
        block = transient_block(in_time_unit(chain, factor), chain.d - 1)
        sign, log = _prefix_slogdets(block, s, False)
        assert np.all(np.isfinite(log)) and np.all(sign == 1.0)
        dense = np.linalg.slogdet(s[:, None, None] * np.eye(chain.d) - block)
        assert np.max(np.abs(log[-1] - dense.logabsdet)) <= DET_THRESHOLD
    assert log.max() > 709.0


_SHIPPED = {p.name: parse_chain(p.read_text()) for p in sorted(CHAIN_DIR.glob("*.json"))}
_CONTINUOUS = [c for c in _SHIPPED.values() if c.kind == "continuous"]


@pytest.mark.parametrize("chains", [pytest.param([c], id=name) for name, c in _SHIPPED.items()] + [
    pytest.param([in_time_unit(c, 2.0**k) for c in _CONTINUOUS], id=f"continuous-unit-2^{k}")
    for k in (-480, -40, 520)
])
@pytest.mark.filterwarnings("error")
def test_determinant_check_fails_on_one_perturbed_stage(chains, monkeypatch):
    for chain in chains:
        assert all(report.passed for _, report in verification_reports(chain))

    def perturbed(law, s):
        value, denominators = law_module._transform(law, s)
        denominators[0] *= 1.0 + 1e-8
        return value, denominators

    monkeypatch.setattr(verify_module, "_transform", perturbed)
    for chain in chains:
        failed = [check for check, report in verification_reports(chain) if not report.passed]
        assert failed == ["charpoly_vs_determinant"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [-1.0, 0.0, math.inf, math.nan])
def test_determinant_check_fails_on_a_broken_stage_without_warning(factor, monkeypatch):
    def broken(law, s):
        value, denominators = law_module._transform(law, s)
        denominators[-1] *= factor
        return value, denominators

    monkeypatch.setattr(verify_module, "_transform", broken)
    for name in ("d2_mixed.json", "d2_coupled_rates.json"):
        failed = [check for check, report in verification_reports(_SHIPPED[name])
                  if not report.passed]
        assert failed == ["charpoly_vs_determinant"], name


def test_mean_vs_spectrum_is_reported_on_continuous_chains_only():
    for name, chain in _SHIPPED.items():
        checks = [check for check, _ in verification_reports(chain)]
        if chain.kind == "continuous":
            assert checks[checks.index("eigen_product_identity") + 1] == "mean_vs_spectrum", name
        else:
            assert "mean_vs_spectrum" not in checks, name
    # a complex spectrum whose Re sum 1/lambda_i misses the stage mean by 0.30
    reports = dict(verification_reports(random_continuous_chain(np.random.default_rng(1), 24)))
    report = reports["mean_vs_spectrum"]
    assert not report.passed and report.max_abs_err == pytest.approx(0.30, abs=0.01)


def test_verify_seed_must_be_a_nonnegative_integer(d2_mixed):
    for seed in (1.5, True, -1):
        with pytest.raises(RangeError, match="seed must be >= 0 and an integer"):
            verification_reports(d2_mixed, seed=seed)
    assert verification_reports(d2_mixed, seed=np.int64(3)) == verification_reports(d2_mixed, seed=3)


@pytest.mark.filterwarnings("error")
def test_product_identity_past_the_double_range_fails_without_warning():
    chain = ContinuousChain(d=2, up=[1.0, 1.0], down=[[], [0.0]])
    for factors in ([1e300, 1e300], [1e300 + 0j, 1e300 - 0j]):
        report = _product_identity(np.array(factors), chain)
        assert not report.passed and report.max_abs_err == math.inf
    close = _product_identity(np.array([2.0, 0.5 * (1.0 + PRODUCT_THRESHOLD / 2)]), chain)
    assert close.passed and close.max_abs_err == pytest.approx(PRODUCT_THRESHOLD / 2)


def test_uniformization_mass_past_one_raises():
    # mean 5.8e16: the squarings' rounding grows these rows' mass far past 1, to CDFs of
    # -7.7e10, -5.9e21 and -3.5e43 when unchecked
    chain = random_birth_death_continuous(np.random.default_rng(1), 512)
    mean, _ = moments(build_law(chain))
    with pytest.raises(InvariantError, match="occupancy has mass 1 "):
        cdf_by_uniformization(chain, np.array([0.5, 1.0, 2.0]) * mean)


def test_uniformized_rows_past_the_double_range_raise_without_warning(monkeypatch):
    # step matrices of 1e300 make the second row 3e600, which overflows in the product
    chain = ContinuousChain(d=3, up=[1.0, 1.0, 1.0], down=[[], [0.5], [0.0, 0.5]])
    monkeypatch.setattr(law_module, "_step_matrix", lambda *args: np.full((3, 3), 1e300))
    with pytest.raises(InvariantError, match=r"occupancy has mass 1 \+ inf"):
        transient_profile(chain, [1.0, 2.0, 3.0])


def test_uniformization_rejects_bad_times(rate2_single):
    for bad in (-1.0, [0.0, np.nan], [0.0, np.inf], [[1.0]], [], [1.0, 0.5]):
        with pytest.raises(RangeError):
            transient_profile(rate2_single, bad)


def test_sampler_is_deterministic(d2_mixed):
    cfg = SamplerConfig(seed=99, paths=500)
    first = sample_hitting_times(d2_mixed, cfg)
    second = sample_hitting_times(d2_mixed, cfg)
    assert np.array_equal(first, second)
    assert sample_hitting_times(d2_mixed, SamplerConfig(seed=100, paths=500)).tolist() != first.tolist()


def test_sampler_pure_birth_is_deterministic_time(d3_pure_birth):
    samples = sample_hitting_times(d3_pure_birth, SamplerConfig(seed=1, paths=200))
    assert np.all(samples == 3)


def test_sampler_geometric_mean(d1_geometric):
    samples = sample_hitting_times(d1_geometric, SamplerConfig(seed=7, paths=100_000))
    se = math.sqrt(2.0 / 100_000)  # geometric(1/2) variance is 2
    assert abs(samples.mean() - 2.0) <= 4 * se


def test_sampler_continuous_mean(rates12_pure_birth):
    samples = sample_hitting_times(rates12_pure_birth, SamplerConfig(seed=11, paths=50_000))
    se = math.sqrt(1.25 / 50_000)
    assert abs(samples.mean() - 1.5) <= 4 * se
    assert samples.dtype == np.float64


def test_continuous_stream_matches_wave_reference():
    # stream version 3: per wave one exponential hold, scaled by 1 / gamma_i,
    # then one uniform, for every live path in path order
    chain = random_continuous_chain(np.random.default_rng(5), 4)
    cfg = SamplerConfig(seed=8, paths=2000)
    d = chain.d
    gamma = np.array([chain.up[i] + math.fsum(chain.down[i]) for i in range(d)])
    rows = np.zeros((d, d + 1))
    for i in range(d):
        rows[i, :i] = chain.down[i]
        rows[i, i + 1] = chain.up[i]
        rows[i] /= gamma[i]
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = 1.0
    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    live = np.arange(cfg.paths)
    state = np.zeros(cfg.paths, dtype=np.intp)
    clock = np.zeros(cfg.paths)
    expected = np.zeros(cfg.paths)
    while live.size:
        clock[live] += rng.exponential(1.0 / gamma[state])
        nxt = (cum[state] < rng.random(live.size)[:, None]).sum(axis=1)
        hit = nxt == d
        expected[live[hit]] = clock[live[hit]]
        live, state = live[~hit], nxt[~hit]
    assert np.array_equal(sample_hitting_times(chain, cfg), expected)


def test_stream_version_3_literal_samples(d2_mixed):
    # pinned values, so that a change in numpy's generators cannot move both
    # the sampler and the wave references above without a test noticing
    cfg = SamplerConfig(seed=2023, paths=8)
    assert sample_hitting_times(d2_mixed, cfg).tolist() == [3, 2, 9, 5, 3, 5, 4, 8]
    rates = parse_chain((CHAIN_DIR / "d2_coupled_rates.json").read_text())
    assert sample_hitting_times(rates, cfg).tolist() == [
        2.714598852329325, 6.751637849411075, 8.681139749815584, 3.136749591630063,
        2.2890856255598404, 5.240306773642677, 1.867640357908038, 8.712644009348859,
    ]


def test_sampler_config_ranges():
    for seed in (0, 1, 2**64, 2**128 - 1):
        SamplerConfig(seed=seed, paths=1)
    SamplerConfig(seed=0, paths=MAX_PMF_TERMS)
    for paths in (0, -1, MAX_PMF_TERMS + 1, 10**12):
        with pytest.raises(RangeError, match="paths must be >= 1 and at most"):
            SamplerConfig(seed=0, paths=paths)
    for seed in (-1, 2**128):
        with pytest.raises(RangeError, match="seed must be in"):
            SamplerConfig(seed=seed, paths=1)
    # integers only, Python or numpy, and no bool
    SamplerConfig(seed=np.uint64(2**64 - 1), paths=np.int32(1))
    for seed in (1.5, 1.0, True, "1"):
        with pytest.raises(RangeError, match="seed must be in"):
            SamplerConfig(seed=seed, paths=1)
    for paths in (10.5, 3.0, True, "3"):
        with pytest.raises(RangeError, match="paths must be >= 1 and at most"):
            SamplerConfig(seed=0, paths=paths)


def _searchsorted_waves(chain, cfg, target):
    # stream version 3 with every jump target found by a binary search
    totals, keys = _jump_keys(chain, target)
    discrete = isinstance(chain, DiscreteChain)
    with np.errstate(divide="ignore"):
        scale = 1.0 / -np.log1p(-np.minimum(totals, 1.0)) if discrete else 1.0 / totals
    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    live = np.arange(cfg.paths)
    state = np.full(cfg.paths, cfg.start_state)
    clock = np.zeros(cfg.paths)
    expected = np.zeros(cfg.paths, dtype=np.int64 if discrete else np.float64)
    while live.size:
        holds = rng.standard_exponential(live.size) * scale[state]
        clock[live] += np.floor(holds) + 1.0 if discrete else holds
        nxt = keys.searchsorted(rng.random(live.size) + 2 * state) - (target + 1) * state
        hit = nxt == target
        expected[live[hit]] = clock[live[hit]]
        live, state = live[~hit], nxt[~hit]
    return expected


GUIDE_CASES = {
    "general discrete d=5": (lambda: random_discrete_chain(np.random.default_rng(21), 5), 0, None),
    "lazy birth-death discrete d=12": (
        lambda: random_birth_death_discrete(np.random.default_rng(22), 12), 0, None),
    "general continuous d=5": (
        lambda: random_continuous_chain(np.random.default_rng(23), 5), 0, None),
    "birth-death continuous d=8": (
        lambda: random_birth_death_continuous(np.random.default_rng(24), 8), 0, None),
    "row sum above 1": (
        lambda: DiscreteChain(d=2, hold=[0.5, 0.0], up=[0.5, 0.4], down=[[], [0.6000000000001]]),
        0, None),
    "stop below d from state 2": (
        lambda: random_discrete_chain(np.random.default_rng(25), 6), 2, 4),
    "d=1": (lambda: DiscreteChain(d=1, hold=[0.7], up=[0.3]), 0, None),
}


@pytest.mark.parametrize("case", list(GUIDE_CASES))
def test_guide_table_samples_equal_searchsorted_waves(case):
    make, start, stop = GUIDE_CASES[case]
    chain = make()
    cfg = SamplerConfig(seed=31, paths=3000, start_state=start)
    level = chain.d if stop is None else stop
    # the passage to a level is the absorption of the prefix chain, against waves on the whole chain
    got = sample_hitting_times(prefix(chain, level), cfg)
    expected = _searchsorted_waves(chain, cfg, level)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("case", list(GUIDE_CASES))
def test_guide_table_entries_are_searchsorted_at_bucket_ends(case):
    make, _, stop = GUIDE_CASES[case]
    chain = make()
    levels = chain.d if stop is None else stop
    _, keys = _jump_keys(chain, levels)
    table = _guide_table(keys, levels).reshape(levels, GUIDE_BUCKETS)
    state, bucket = np.nonzero(table >= 0)
    assert state.size > 0.9 * table.size
    lowest = bucket / GUIDE_BUCKETS
    highest = np.nextafter((bucket + 1) / GUIDE_BUCKETS, 0.0)
    for u in (lowest, highest):
        found = keys.searchsorted(u + 2 * state) - (levels + 1) * state
        assert np.array_equal(table[state, bucket], found)


# statistical test: the seeds are pinned, never searched, to respect the 1% level
def test_sampler_matches_exact_law_lazy_birth_death():
    chain = random_birth_death_discrete(np.random.default_rng(404), 5)
    paths = 100_000
    samples = np.sort(sample_hitting_times(chain, SamplerConfig(seed=405, paths=paths)))
    exact = pmf_by_matrix_power(chain, int(samples[-1]))
    empirical = np.searchsorted(samples, exact.support, side="right") / paths
    # one-sample KS at 1%; conservative for a discrete law
    critical = math.sqrt(-math.log(0.01 / 2.0) / 2.0) / math.sqrt(paths)
    assert np.max(np.abs(empirical - np.asarray(exact.cumulative))) < critical


def test_sampler_row_sum_over_one_without_hold():
    # row 1 has no hold and sums to 1 + 1e-13, inside the row-sum tolerance:
    # its jump total exceeds 1, and every visit must still take one step
    chain = DiscreteChain(d=2, hold=[0.5, 0.0], up=[0.5, 0.4], down=[[], [0.6000000000001]])
    samples = sample_hitting_times(chain, SamplerConfig(seed=12, paths=50_000))
    assert samples.dtype == np.int64
    assert samples.min() >= 2
    mean = expected_hitting_times(chain)[0]
    assert abs(samples.mean() - mean) <= 4 * math.sqrt(samples.var() / samples.size)


def test_step_cap_admits_a_mean_of_1e10_steps():
    # one jump per path, but hold runs of about 1e10 steps: a cap of 10**9 steps stopped
    # this valid chain, whose clock stays exact up to 2**53
    chain = DiscreteChain(d=1, hold=[1 - 1e-10], up=[1e-10])
    samples = sample_hitting_times(chain, SamplerConfig(seed=0, paths=10_000))
    assert samples.dtype == np.int64
    assert abs(samples.mean() - 1e10) <= 5 * samples.std() / math.sqrt(samples.size)


def test_step_cap_counts_steps_not_waves(monkeypatch, d3_pure_birth):
    import skipfree.oracle as oracle

    # every path of this chain is one hold run, so it absorbs in one wave
    # however many steps it takes; 0.9**20 of the paths need over 20 steps
    chain = DiscreteChain(d=1, hold=[0.9], up=[0.1])
    monkeypatch.setattr(oracle, "PATH_STEP_CAP", 20)
    with pytest.raises(RunawayPathError):
        sample_hitting_times(chain, SamplerConfig(seed=0, paths=1000))
    monkeypatch.setattr(oracle, "PATH_STEP_CAP", 3)
    assert np.all(sample_hitting_times(d3_pure_birth, SamplerConfig(seed=0, paths=10)) == 3)
    monkeypatch.setattr(oracle, "PATH_STEP_CAP", 2)
    with pytest.raises(RunawayPathError):
        sample_hitting_times(d3_pure_birth, SamplerConfig(seed=0, paths=10))
    # the jump cap counts the jumps of all paths: here ten paths of three jumps each
    monkeypatch.setattr(oracle, "PATH_STEP_CAP", 3)
    monkeypatch.setattr(oracle, "SAMPLE_JUMP_CAP", 30)
    assert np.all(sample_hitting_times(d3_pure_birth, SamplerConfig(seed=0, paths=10)) == 3)
    monkeypatch.setattr(oracle, "SAMPLE_JUMP_CAP", 29)
    with pytest.raises(RunawayPathError, match="the paths exceeded 29 jumps in all"):
        sample_hitting_times(d3_pure_birth, SamplerConfig(seed=0, paths=10))


def test_sampler_start_state(d2_mixed):
    # from state 1 the expected absorption time is 3.4375
    samples = sample_hitting_times(d2_mixed, SamplerConfig(seed=3, paths=50_000, start_state=1))
    assert abs(samples.mean() - 3.4375) <= 4 * math.sqrt(samples.var() / samples.size)


def test_sampler_rejects_bad_levels(d2_mixed):
    with pytest.raises(RangeError):
        sample_hitting_times(d2_mixed, SamplerConfig(seed=0, paths=1, start_state=2))
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, paths=0)
    for start in (0.5, 1.0, True):
        with pytest.raises(RangeError, match="start_state must be in 0..1"):
            sample_hitting_times(d2_mixed, SamplerConfig(seed=1, paths=3, start_state=start))
    cfg = SamplerConfig(seed=1, paths=3, start_state=1)
    numpy_ints = SamplerConfig(seed=np.uint64(1), paths=np.int32(3), start_state=np.int64(1))
    assert np.array_equal(sample_hitting_times(d2_mixed, numpy_ints),
                          sample_hitting_times(d2_mixed, cfg))


def test_expected_hitting_times_worked(d1_geometric, d2_mixed, rates12_pure_birth):
    assert expected_hitting_times(d1_geometric) == pytest.approx([2.0])
    assert expected_hitting_times(d2_mixed) == pytest.approx([4.6875, 3.4375])
    assert expected_hitting_times(rates12_pure_birth) == pytest.approx([1.5, 0.5])


def test_expected_hitting_time_of_a_slowly_absorbing_chain():
    chain = random_discrete_chain(np.random.default_rng(1), 24)
    # the stage mean, and the exact rational solve with each hold taken as 1 - p - sum q; a
    # dense solve with the stored holds, whose rows miss 1 by rounding, gave 1.445e16
    mean = 6.004464652981843e22
    assert abs(expected_hitting_times(chain)[0] - mean) <= 1e-8 * mean


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family,d", [(random_birth_death_continuous, 256),
                                      (random_birth_death_continuous, 512),
                                      (random_continuous_chain, 16), (random_continuous_chain, 32)])
def test_expected_hitting_times_match_the_stage_means_past_desk_scale(family, d):
    # a dense solve with the stored diagonals missed these means by 2.4e-11 to 1.0 relative
    for seed in range(3):
        chain = family(np.random.default_rng(seed), d)
        mean = moments(build_law(chain))[0]
        assert abs(expected_hitting_times(chain)[0] - mean) <= 1e-14 * mean, seed


@pytest.mark.filterwarnings("error")
def test_expected_hitting_times_match_a_dense_solve_at_desk_scale():
    rng, checked = np.random.default_rng(5), 0
    for family in (random_discrete_chain, random_continuous_chain,
                   random_birth_death_discrete, random_birth_death_continuous):
        for _ in range(100):
            chain = family(rng, int(rng.integers(1, 13)))
            block = transient_block(chain, chain.d - 1)
            system = np.eye(chain.d) - block if chain.kind == "discrete" else -block
            dense = np.linalg.solve(system, np.ones(chain.d))
            if dense[0] <= 1e4:  # where the dense solve still measures the chain
                assert np.max(np.abs(expected_hitting_times(chain) / dense - 1.0)) <= 1e-11
                checked += 1
    assert checked == 331  # of the 400 chains; the worst error is 1.2e-12


@pytest.mark.filterwarnings("error")
def test_expected_hitting_times_past_the_double_range_raise():
    with pytest.raises(InvariantError, match="passes the largest double"):
        expected_hitting_times(random_discrete_chain(np.random.default_rng(0), 512))


@pytest.mark.filterwarnings("error")
def test_desk_scale_is_false_past_the_double_range():
    # the mean of this chain passes the largest double, so it is past every cap
    chain = random_discrete_chain(np.random.default_rng(0), 256)
    with pytest.raises(InvariantError, match="passes the largest double"):
        expected_hitting_times(chain)
    assert desk_scale(chain) is False
    assert desk_scale(chain, math.inf) is False


def test_expected_hitting_time_within_the_row_tolerance():
    # the row sums to 1 + 1e-13, so 1 - r_0 = 0 and a dense solve with the stored hold is singular
    assert expected_hitting_times(DiscreteChain(d=1, hold=[1.0], up=[1e-13])).tolist() == [1e13]


def test_ks_statistic_behaviour():
    rng = np.random.default_rng(0)
    a = rng.normal(size=2000)
    b = rng.normal(size=2000)
    crit = ks_critical_value(2000, 2000)
    assert ks_two_sample(a, b) < crit
    assert ks_two_sample(a, b + 0.5) > crit
    assert ks_two_sample(a, a) == 0.0


# statistical test: seeds are pinned, never searched, to respect the 1% level
@pytest.mark.parametrize("seed,d", [(101, 3), (202, 4), (303, 5)])
def test_stage_sampling_telescopes(seed, d):
    # summing independent stage passages i -> i+1 must reproduce tau_{0,d}
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    paths = 2000
    assert telescoping_statistic(chain, seed, paths) < ks_critical_value(paths, paths)
