import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skipfree import (
    ContinuousChain,
    ConvergenceError,
    DiscreteChain,
    RangeError,
    SpectrumClass,
    build_law,
    classify,
    continuous_charpoly_seq,
    discrete_charpoly_seq,
    eigenvalues_continuous,
    eigenvalues_discrete,
    expected_hitting_times,
    moments,
    parse_chain,
)
from skipfree.corpus import (
    desk_scale,
    random_birth_death_continuous,
    random_birth_death_discrete,
    random_continuous_chain,
    random_discrete_chain,
)
from skipfree.spectral import _block_eigenvalues
from skipfree.verify import MEAN_THRESHOLD
from tests.conftest import CHAIN_DIR, in_time_unit


def test_classify_cases():
    assert classify([0.5], 1e-9) is SpectrumClass.REAL_NONNEGATIVE
    assert classify([0.742467, -0.242467], 1e-9) is SpectrumClass.REAL_MIXED_SIGN
    assert classify([0.3 + 0.2j, 0.3 - 0.2j], 1e-9) is SpectrumClass.COMPLEX
    # imaginary noise below the relative tolerance is still real
    assert classify([1e6 + 0.5j], 1e-6) is SpectrumClass.REAL_NONNEGATIVE
    with pytest.raises(ValueError):
        classify([0.5], 0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_realness_tolerance_outside_its_range_is_rejected(tol):
    with pytest.raises(RangeError, match="tol must be positive and finite"):
        classify([0.5], tol)
    # a nan tolerance used to snap this Complex spectrum onto the real axis
    with pytest.raises(RangeError):
        build_law(random_continuous_chain(np.random.default_rng(1), 6), tol=tol)


def test_single_state_spectrum(d1_geometric, rate2_single):
    spec = eigenvalues_discrete(d1_geometric)
    assert spec.values == ((0.5 + 0j),)
    assert spec.classification is SpectrumClass.REAL_NONNEGATIVE
    cont = eigenvalues_continuous(rate2_single)
    assert cont.values == ((2.0 + 0j),)


def test_worked_mixed_sign_spectrum(d2_mixed):
    # oracle: quadratic formula on lambda^2 - 0.5 lambda - 0.18
    plus = (0.5 + math.sqrt(0.97)) / 2
    minus = (0.5 - math.sqrt(0.97)) / 2
    spec = eigenvalues_discrete(d2_mixed)
    assert spec.classification is SpectrumClass.REAL_MIXED_SIGN
    assert spec.values[0].real == pytest.approx(plus, rel=1e-12)
    assert spec.values[1].real == pytest.approx(minus, rel=1e-12)
    assert spec.values[0].imag == 0.0  # snapped onto the real axis


def test_nilpotent_block_gives_zero_eigenvalues(d3_pure_birth):
    spec = eigenvalues_discrete(d3_pure_birth)
    assert spec.classification is SpectrumClass.REAL_NONNEGATIVE
    assert all(abs(v) <= 1e-9 for v in spec.values)


def test_continuous_worked_spectra(rates12_pure_birth, rates11_coupled):
    spec = eigenvalues_continuous(rates12_pure_birth)
    assert sorted(v.real for v in spec.values) == pytest.approx([1.0, 2.0], rel=1e-12)
    golden = eigenvalues_continuous(rates11_coupled)
    expected = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    assert sorted(v.real for v in golden.values) == pytest.approx(expected, rel=1e-12)
    assert golden.classification is SpectrumClass.REAL_NONNEGATIVE


@pytest.mark.parametrize(
    "generator, sizes",
    [(random_birth_death_discrete, (16, 64, 256, 512)), (random_birth_death_continuous, (16, 64))],
    ids=["discrete", "continuous"],
)
def test_birth_death_spectra_past_desk_scale(generator, sizes):
    rng = np.random.default_rng(2024)
    checked = 0
    for d in sizes:
        for _ in range(5):
            chain = generator(rng, d)
            if not desk_scale(chain, mean_cap=1e4):
                continue
            discrete = chain.kind == "discrete"
            spec = (eigenvalues_discrete if discrete else eigenvalues_continuous)(chain)
            assert spec.classification is SpectrumClass.REAL_NONNEGATIVE
            lam = np.array([v.real for v in spec.values])
            if discrete:
                assert lam.max() < 1.0
                mean = np.sum(1.0 / (1.0 - lam))
            else:
                mean = np.sum(1.0 / lam)
            expected = expected_hitting_times(chain)[0]
            assert abs(mean - expected) <= MEAN_THRESHOLD * expected
            stage_mean = moments(build_law(chain))[0]
            assert abs(stage_mean - expected) <= MEAN_THRESHOLD * expected
            checked += 1
    assert checked >= len(sizes)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 10))
def test_discrete_product_identity_and_radius(seed, d):
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    # identity is unverifiable in doubles once det(I - sP) cancels at s=1
    assume(desk_scale(chain))
    spec = eigenvalues_discrete(chain)
    up_product = math.prod(chain.up)
    assert abs(np.prod([1.0 - v for v in spec.values]) - up_product) <= 1e-8 * up_product
    assert all(abs(v) < 1.0 + 1e-9 for v in spec.values)
    # non-real values occur in conjugate pairs
    vals = sorted(spec.values, key=lambda z: (round(z.real, 9), z.imag))
    for v in vals:
        if abs(v.imag) > 1e-9 * (1 + abs(v)):
            assert any(abs(w - v.conjugate()) <= 1e-8 * (1 + abs(v)) for w in vals)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 10))
def test_continuous_product_identity_and_halfplane(seed, d):
    chain = random_continuous_chain(np.random.default_rng(seed), d)
    spec = eigenvalues_continuous(chain)
    rate_product = math.prod(chain.up)
    assert abs(np.prod(spec.values) - rate_product) <= 1e-8 * rate_product
    assert all(v.real > -1e-9 for v in spec.values)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_roots_reconstruct_coefficients(seed, d):
    rng = np.random.default_rng(seed)
    chain = random_discrete_chain(rng, d)
    g = discrete_charpoly_seq(chain)[-1]
    rebuilt = [1.0]
    for v in eigenvalues_discrete(chain).values:
        rebuilt = np.convolve(rebuilt, [1.0, -v])
    padded = np.zeros(d + 1, dtype=complex)
    padded[: len(g.coeffs)] = g.coeffs
    assert np.max(np.abs(rebuilt - padded)) <= 1e-8

    cont = random_continuous_chain(rng, d)
    gt = continuous_charpoly_seq(cont)[-1]
    rebuilt = [1.0]
    for v in eigenvalues_continuous(cont).values:
        rebuilt = np.convolve(rebuilt, [v, 1.0])
    assert np.max(np.abs(np.asarray(rebuilt) - np.asarray(gt.coeffs))) <= 1e-8 * max(
        abs(c) for c in gt.coeffs
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_birth_death_spectra_are_real_nonnegative(seed, d):
    rng = np.random.default_rng(seed)
    lazy = random_birth_death_discrete(rng, d)
    assert eigenvalues_discrete(lazy, tol=1e-7).classification is SpectrumClass.REAL_NONNEGATIVE
    cont = random_birth_death_continuous(rng, d)
    assert eigenvalues_continuous(cont, tol=1e-7).classification is SpectrumClass.REAL_NONNEGATIVE


def test_values_sorted_by_descending_real_part():
    chain = random_discrete_chain(np.random.default_rng(5), 6)
    vals = eigenvalues_discrete(chain).values
    assert all(a.real >= b.real for a, b in zip(vals, vals[1:]))


def _keyed_sort(values, cls):
    """The reference order: each value made complex, snapped unless Complex, in one keyed sort."""
    if cls is not SpectrumClass.COMPLEX:
        values = [complex(v.real, 0.0) for v in values]
    return sorted((complex(v) for v in values), key=lambda v: (-v.real, v.imag))


def test_spectrum_values_are_the_keyed_sort_of_the_solver_values():
    families = (random_discrete_chain, random_birth_death_discrete,
                random_continuous_chain, random_birth_death_continuous)
    chains = [parse_chain(p.read_text()) for p in sorted(CHAIN_DIR.glob("*.json"))]
    chains += [family(np.random.default_rng(seed), d)
               for family in families for d in range(1, 13) for seed in range(3)]
    for chain in chains:
        raw = _block_eigenvalues(chain)
        if chain.kind == "discrete":
            spectrum = eigenvalues_discrete(chain)
        else:
            spectrum = eigenvalues_continuous(chain)
            raw = [-v for v in raw]
        # equal bit for bit, the sign of a zero included
        bits = [(v.real.hex(), v.imag.hex()) for v in spectrum.values]
        assert bits == [(v.real.hex(), v.imag.hex()) for v in _keyed_sort(raw, spectrum.classification)]
        assert all(type(v) is complex for v in spectrum.values)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [1e200, 1e-200])
def test_birth_death_spectrum_where_a_rate_product_leaves_the_normal_range(rate):
    # up * down is 1e400 (overflow) or 1e-400 (underflow); -Q/rate has eigenvalues (3 +- sqrt 5)/2
    spectrum = eigenvalues_continuous(ContinuousChain(d=2, up=[rate, rate], down=[[], [rate]]))
    assert spectrum.classification is SpectrumClass.REAL_NONNEGATIVE
    expected = [rate * (3 + math.sqrt(5)) / 2, rate * (3 - math.sqrt(5)) / 2]
    assert [v.real for v in spectrum.values] == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_non_finite_eigenvalue_raises(monkeypatch, rates11_coupled):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([np.nan, -1.0]))
    with pytest.raises(ConvergenceError):
        eigenvalues_continuous(rates11_coupled)

    # a solver that fails on either route raises ConvergenceError too
    def fail(m):
        raise np.linalg.LinAlgError("no convergence")

    general = ContinuousChain(d=3, up=[1.0, 2.0, 0.5], down=[[], [0.7], [0.1, 1.5]])
    for solver, chain in (("eigvalsh", rates11_coupled), ("eigvals", general)):
        monkeypatch.setattr(np.linalg, solver, fail)
        with pytest.raises(ConvergenceError, match="did not converge: no convergence"):
            eigenvalues_continuous(chain)


def test_continuous_realness_is_relative_to_each_eigenvalue():
    chain = random_continuous_chain(np.random.default_rng(1), 4)  # a pair 3.2026 +- 1.3541i
    unit = 2.0**-40
    slow = in_time_unit(chain, unit)
    fast, scaled = eigenvalues_continuous(chain), eigenvalues_continuous(slow)
    assert fast.classification is scaled.classification is SpectrumClass.COMPLEX
    assert np.allclose(np.array(scaled.values) / unit, fast.values, rtol=1e-12, atol=0.0)


def _solver_spy(monkeypatch):
    """Record which LAPACK route each spectrum takes: a list of "eigvals"/"eigvalsh"."""
    calls = []
    for name in ("eigvals", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, _name=name, _solver=solver: calls.append(_name) or _solver(m))
    return calls


def test_route_is_read_from_the_chain_rows(monkeypatch):
    # explicit zeros of both signs below the subdiagonal are no down jump past the state below
    hold, up = [0.5, 0.5, 0.4, 0.6], [0.5, 0.3, 0.3, 0.2]
    sub = [[], [0.2], [0.0, 0.3], [-0.0, 0.0, 0.2]]
    # the symmetric tridiagonal that route diagonalizes, built entry by entry
    sym = np.diag(hold)
    for i in range(3):
        sym[i + 1, i] = math.sqrt(up[i] * sub[i + 1][i])
    expected = sorted(np.linalg.eigvalsh(sym).tolist(), reverse=True)
    calls = _solver_spy(monkeypatch)
    spectrum = eigenvalues_discrete(DiscreteChain(d=4, hold=hold, up=up, down=sub))
    rates = eigenvalues_continuous(ContinuousChain(d=3, up=[1.0, 2.0, 0.5], down=[[], [0.7], [-0.0, 1.5]]))
    assert calls == ["eigvalsh", "eigvalsh"]
    assert [v.real for v in spectrum.values] == expected
    assert spectrum.classification is rates.classification is SpectrumClass.REAL_NONNEGATIVE
    # one nonzero jump two levels down takes the general solver
    calls.clear()
    down = [[], [0.2], [0.0, 0.3], [1e-300, 0.0, 0.2]]
    eigenvalues_discrete(DiscreteChain(d=4, hold=hold, up=up, down=down))
    eigenvalues_continuous(ContinuousChain(d=3, up=[1.0, 2.0, 0.5], down=[[], [0.7], [0.1, 1.5]]))
    assert calls == ["eigvals", "eigvals"]
