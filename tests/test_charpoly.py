import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipfree import (
    Polynomial,
    continuous_charpoly_seq,
    discrete_charpoly_seq,
    transient_block,
)
from skipfree.corpus import random_continuous_chain, random_discrete_chain


def test_polynomial_trims_exact_trailing_zeros_only():
    assert Polynomial((1.0, 2.0, 0.0, 0.0)).coeffs == (1.0, 2.0)
    assert Polynomial((0.0,)).coeffs == (0.0,)
    assert Polynomial((1.0, 1e-300)).coeffs == (1.0, 1e-300)  # tiny is kept
    assert Polynomial((3.0,)).degree == 0
    with pytest.raises(ValueError, match="at least one coefficient"):
        Polynomial(())


def test_discrete_seq_base_and_worked_chain(d1_geometric, d2_mixed):
    assert discrete_charpoly_seq(d1_geometric)[1].coeffs == (1.0, -0.5)
    seq = discrete_charpoly_seq(d2_mixed)
    # oracle: (1-0.2s)(1-0.3s) - 0.24 s^2 expanded by hand
    assert seq[2].coeffs == pytest.approx((1.0, -0.5, -0.18))


def test_discrete_seq_pure_birth_is_constant_one(d3_pure_birth):
    for g in discrete_charpoly_seq(d3_pure_birth):
        assert g.coeffs == (1.0,)


def test_continuous_seq_worked_chains(rate2_single, rates12_pure_birth, rates11_coupled):
    assert continuous_charpoly_seq(rate2_single)[1].coeffs == (2.0, 1.0)
    assert continuous_charpoly_seq(rates12_pure_birth)[2].coeffs == (2.0, 3.0, 1.0)
    # oracle: (s+1)(s+2) - 1*1 expanded directly
    assert continuous_charpoly_seq(rates11_coupled)[2].coeffs == (1.0, 3.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 10))
def test_discrete_recurrence_agrees_with_determinants(seed, d):
    rng = np.random.default_rng(seed)
    chain = random_discrete_chain(rng, d)
    seq = discrete_charpoly_seq(chain)
    for n in range(d):
        block = transient_block(chain, n)
        for s in rng.uniform(-1.0, 1.0, size=20):
            direct = np.linalg.det(np.eye(n + 1) - s * block)
            value = np.polyval(seq[n + 1].coeffs[::-1], s)
            assert abs(value - direct) <= 1e-10 * (1 + abs(direct))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 10))
def test_continuous_recurrence_agrees_with_determinants(seed, d):
    rng = np.random.default_rng(seed)
    chain = random_continuous_chain(rng, d)
    seq = continuous_charpoly_seq(chain)
    for n in range(d):
        block = transient_block(chain, n)
        for s in rng.uniform(0.0, 5.0, size=20):
            direct = np.linalg.det(s * np.eye(n + 1) - block)
            value = np.polyval(seq[n + 1].coeffs[::-1], s)
            assert abs(value - direct) <= 1e-10 * (1 + abs(direct))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 10))
def test_structural_exactness(seed, d):
    rng = np.random.default_rng(seed)
    discrete = discrete_charpoly_seq(random_discrete_chain(rng, d))
    for n, g in enumerate(discrete):
        assert g.coeffs[0] == 1.0  # exactly, by construction
        assert g.degree <= n
    continuous = continuous_charpoly_seq(random_continuous_chain(rng, d))
    for n, g in enumerate(continuous):
        assert g.degree == n
        assert g.coeffs[-1] == 1.0
