import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipfree import (
    ContinuousChain,
    DiscreteChain,
    RangeError,
    RunawayPathError,
    SamplerConfig,
    cdf_by_uniformization,
    expected_hitting_times,
    ks_critical_value,
    ks_two_sample,
    pmf_by_matrix_power,
    pmf_by_path_enumeration,
    sample_hitting_times,
    transient_profile,
)
from skipfree.chains import transient_block
from skipfree.corpus import (
    random_birth_death_continuous,
    random_birth_death_discrete,
    random_continuous_chain,
    random_discrete_chain,
)
from skipfree.oracle import GUIDE_BUCKETS, _guide_table, _jump_keys
from skipfree.verify import PRODUCT_THRESHOLD, _product_identity, verification_reports


def test_matrix_power_geometric(d1_geometric):
    table = pmf_by_matrix_power(d1_geometric, 3)
    assert table.mass_or_density == pytest.approx((0.5, 0.25, 0.125))


def test_matrix_power_worked_chain(d2_mixed):
    table = pmf_by_matrix_power(d2_mixed, 4)
    assert table.mass_or_density[1:] == pytest.approx((0.32, 0.16, 0.1376))


def test_matrix_power_pure_birth(d3_pure_birth):
    table = pmf_by_matrix_power(d3_pure_birth, 5)
    assert table.mass_or_density == (0.0, 0.0, 1.0, 0.0, 0.0)
    assert table.tail_bound == 0.0


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

    # unsorted, with the first time repeated at the end
    grid = np.array([0.0] + times + times[:1])
    chain = random_continuous_chain(np.random.default_rng(seed), d)
    profiles = transient_profile(chain, grid, tol=1e-12)
    assert profiles.shape == (grid.size, d)
    assert np.array_equal(profiles[1], profiles[-1])
    block = transient_block(chain, d - 1)
    for t, profile in zip(grid, profiles):
        assert np.max(np.abs(profile - expm(block * t)[0])) <= 1e-9
        # the scalar form crosses one gap, the grid a chain of gaps
        assert np.max(np.abs(profile - transient_profile(chain, t, tol=1e-12))) <= 2e-12
    cdf = cdf_by_uniformization(chain, grid, tol=1e-12)
    assert np.array_equal(cdf, 1.0 - profiles.sum(axis=1))


def test_uniformization_past_weight_underflow():
    from scipy.linalg import expm

    # state 1 falls back to 0 at rate 400, so Lambda * t passes 2000 while
    # most of the mass is still transient and exp(-Lambda * t) underflows
    chain = ContinuousChain(d=3, up=[1.0, 1.0, 0.5], down=[[], [400.0], [0.0, 0.0]])
    grid = np.array([0.0, 1.0, 6.0])
    assert max(chain.gamma) * grid[-1] >= 2000.0
    profiles = transient_profile(chain, grid, tol=1e-12)
    block = transient_block(chain, chain.d - 1)
    dense = np.array([expm(block * t)[0] for t in grid])
    assert np.max(np.abs(profiles - dense)) <= 1e-9
    assert profiles[-1].sum() > 0.5


def test_uniformization_at_long_times():
    from scipy.linalg import expm

    # fast internal rates and a slow exit: at Lambda t = 1e6 most mass is still transient
    chain = ContinuousChain(d=3, up=[1e3, 1e3, 1e-3], down=[[], [1e3], [0.0, 1e3]])
    rate = max(chain.gamma)
    grid = np.array([1e4, 1e6]) / rate
    profiles = transient_profile(chain, grid)
    block = transient_block(chain, chain.d - 1)
    dense = np.array([expm(block * t)[0] for t in grid])
    assert np.max(np.abs(profiles - dense)) <= 1e-9
    assert profiles[-1].sum() > 0.5


@pytest.mark.parametrize(
    "family,d,oracle_check",
    [
        pytest.param(random_birth_death_continuous, 64, "cdf_vs_uniformization", id="64"),
        pytest.param(random_birth_death_continuous, 128, "cdf_vs_uniformization", id="128"),
        pytest.param(random_birth_death_discrete, 64, "pmf_vs_geometric_convolution",
                     id="discrete-64"),
        pytest.param(random_birth_death_discrete, 128, "pmf_vs_geometric_convolution",
                     id="discrete-128"),
    ],
)
def test_verify_passes_on_large_birth_death_continuous(family, d, oracle_check):
    for seed in (0, 1, 2):
        chain = family(np.random.default_rng(seed), d)
        reports = verification_reports(chain)
        assert oracle_check in dict(reports)
        assert all(report.passed for _, report in reports), reports


@pytest.mark.filterwarnings("error")
def test_product_identity_past_the_double_range_fails_without_warning():
    chain = ContinuousChain(d=2, up=[1.0, 1.0], down=[[], [0.0]])
    for factors in ([1e300, 1e300], [1e300 + 0j, 1e300 - 0j]):
        report = _product_identity(np.array(factors), chain)
        assert not report.passed and report.max_abs_err == math.inf
    close = _product_identity(np.array([2.0, 0.5 * (1.0 + PRODUCT_THRESHOLD / 2)]), chain)
    assert close.passed and close.max_abs_err == pytest.approx(PRODUCT_THRESHOLD / 2)


def test_uniformization_rejects_bad_times(rate2_single):
    for bad in (-1.0, [0.0, np.nan], [0.0, np.inf], [[1.0]], []):
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
    # stream version 2 keeps the continuous draws of version 1: per wave one
    # exponential hold, then one uniform, for every live path in path order
    chain = random_continuous_chain(np.random.default_rng(5), 4)
    cfg = SamplerConfig(seed=8, paths=2000)
    d = chain.d
    gamma = np.asarray(chain.gamma)
    rows = np.zeros((d, d + 1))
    for i in range(d):
        rows[i, :i] = chain.down[i]
        rows[i, i + 1] = chain.up[i]
        rows[i] /= gamma[i]
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
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


def _searchsorted_waves(chain, cfg, target):
    # stream version 2 with every jump target found by a binary search
    totals, keys = _jump_keys(chain, target)
    discrete = isinstance(chain, DiscreteChain)
    with np.errstate(divide="ignore"):
        hold_rate = -np.log1p(-np.minimum(totals, 1.0))
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    live = np.arange(cfg.paths)
    state = np.full(cfg.paths, cfg.start_state)
    clock = np.zeros(cfg.paths)
    expected = np.zeros(cfg.paths, dtype=np.int64 if discrete else np.float64)
    while live.size:
        holds = rng.standard_exponential(live.size)
        if discrete:
            clock[live] += np.floor(holds / hold_rate[state]) + 1.0
        else:
            clock[live] += holds * (1.0 / totals)[state]
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
    got = sample_hitting_times(chain, cfg, stop_level=stop)
    expected = _searchsorted_waves(chain, cfg, chain.d if stop is None else stop)
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


def test_sampler_start_state(d2_mixed):
    # from state 1 the expected absorption time is 3.4375
    samples = sample_hitting_times(d2_mixed, SamplerConfig(seed=3, paths=50_000, start_state=1))
    assert abs(samples.mean() - 3.4375) <= 4 * math.sqrt(samples.var() / samples.size)


def test_sampler_rejects_bad_levels(d2_mixed):
    with pytest.raises(RangeError):
        sample_hitting_times(d2_mixed, SamplerConfig(seed=0, paths=1, start_state=2))
    with pytest.raises(RangeError):
        sample_hitting_times(d2_mixed, SamplerConfig(seed=0, paths=1), stop_level=3)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, paths=0)


def test_expected_hitting_times_worked(d1_geometric, d2_mixed, rates12_pure_birth):
    assert expected_hitting_times(d1_geometric) == pytest.approx([2.0])
    assert expected_hitting_times(d2_mixed) == pytest.approx([4.6875, 3.4375])
    assert expected_hitting_times(rates12_pure_birth) == pytest.approx([1.5, 0.5])


def test_ks_statistic_behaviour():
    rng = np.random.default_rng(0)
    a = rng.normal(size=2000)
    b = rng.normal(size=2000)
    crit = ks_critical_value(2000, 2000, alpha=0.01)
    assert ks_two_sample(a, b) < crit
    assert ks_two_sample(a, b + 0.5) > crit
    assert ks_two_sample(a, a) == 0.0


# statistical test: seeds are pinned, never searched, to respect the 1% level
@pytest.mark.parametrize("seed,d", [(101, 3), (202, 4), (303, 5)])
def test_stage_sampling_telescopes(seed, d):
    # summing independent stage passages i -> i+1 must reproduce tau_{0,d}
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    paths = 2000
    direct = sample_hitting_times(chain, SamplerConfig(seed=seed, paths=paths))
    staged = np.zeros(paths)
    for i in range(d):
        cfg = SamplerConfig(seed=seed + 1 + i, paths=paths, start_state=i)
        staged += sample_hitting_times(chain, cfg, stop_level=i + 1)
    assert ks_two_sample(direct, staged) < ks_critical_value(paths, paths, alpha=0.01)
