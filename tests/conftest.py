import io
import json
import math
import pathlib

import numpy as np
import pytest

from skipfree import (
    ContinuousChain,
    DiscreteChain,
    DistributionTable,
    SamplerConfig,
    sample_hitting_times,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
CHAIN_DIR = REPO / "chains"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def csv_rows(text):
    """The rows of a CSV table document below its header, as a 2-D float array."""
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def in_time_unit(chain, factor):
    """The continuous chain with every rate times ``factor``: its clock runs ``factor`` times faster."""
    return ContinuousChain(d=chain.d, up=[x * factor for x in chain.up],
                           down=[[x * factor for x in row] for row in chain.down])


def prefix(chain, n):
    """The chain of the first ``n`` rows of ``chain``: its absorption time is the passage 0 -> n."""
    if isinstance(chain, DiscreteChain):
        return DiscreteChain(d=n, hold=chain.hold[:n], up=chain.up[:n], down=chain.down[:n])
    return ContinuousChain(d=n, up=chain.up[:n], down=chain.down[:n])


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(n, m):
    """Large-sample two-sided KS rejection threshold at the 1% level."""
    c = math.sqrt(-math.log(0.01 / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def telescoping_statistic(chain, seed, paths):
    """KS distance between the passage 0 -> d sampled directly and as its summed stages.

    ``paths`` direct samples are drawn at ``seed``; stage i -> i+1 is the absorption from
    state i of ``prefix(chain, i + 1)``, drawn at ``seed + 1 + i``.  The stages are
    independent, so the two sample sets share one law.
    """
    direct = sample_hitting_times(chain, SamplerConfig(seed=seed, paths=paths))
    staged = np.zeros(paths)
    for i in range(chain.d):
        cfg = SamplerConfig(seed=seed + 1 + i, paths=paths, start_state=i)
        staged = staged + sample_hitting_times(prefix(chain, i + 1), cfg)
    return ks_two_sample(direct, staged)


def serialize_chain(chain):
    """Render a chain back into its JSON document form (round-trip exact)."""
    rows = []
    for i in range(chain.d):
        if isinstance(chain, DiscreteChain):
            row = {"r": chain.hold[i], "p": chain.up[i]}
            if any(x != 0.0 for x in chain.down[i]):
                row["q"] = list(chain.down[i])
        else:
            row = {"alpha": chain.up[i]}
            if any(x != 0.0 for x in chain.down[i]):
                row["beta"] = list(chain.down[i])
        rows.append(row)
    return json.dumps({"type": chain.kind, "d": chain.d, "rows": rows}, indent=2)


def pmf_by_path_enumeration(chain, n_max):
    """Absorption-time PMF of a discrete chain by exhaustive trajectory enumeration.

    Walks every positive-probability path of length <= n_max from state 0,
    multiplying step probabilities.  Exponential cost; strictly a desk-scale
    oracle, independent of any matrix machinery.  The table's tail bound is
    the mass it misses.
    """
    masses = [0.0] * n_max

    def steps_from(i):
        out = [(i, chain.hold[i]), (i + 1, chain.up[i])]
        out.extend((j, q) for j, q in enumerate(chain.down[i]))
        return [(j, p) for j, p in out if p > 0.0]

    def walk(state, step, prob):
        if state == chain.d:
            masses[step - 1] += prob
            return
        if step == n_max:
            return
        for nxt, p in steps_from(state):
            walk(nxt, step + 1, prob * p)

    walk(0, 0, 1.0)
    cum = np.cumsum(masses)
    return DistributionTable(np.arange(1, n_max + 1, dtype=np.int64), masses, cum,
                             max(0.0, 1.0 - float(cum[-1])))


@pytest.fixture
def d1_geometric():
    # absorption time is geometric(1/2): tau ~ n with mass 0.5^n
    return DiscreteChain(d=1, hold=[0.5], up=[0.5])


@pytest.fixture
def d2_mixed():
    # the worked d=2 chain used throughout: one down jump, mixed-sign spectrum
    return DiscreteChain(d=2, hold=[0.2, 0.3], up=[0.8, 0.4], down=[[], [0.3]])


@pytest.fixture
def d3_pure_birth():
    return DiscreteChain(d=3, hold=[0.0, 0.0, 0.0], up=[1.0, 1.0, 1.0])


@pytest.fixture
def rate2_single():
    # single transient state, exit rate 2: tau ~ Exponential(2)
    return ContinuousChain(d=1, up=[2.0])


@pytest.fixture
def rates12_pure_birth():
    # hypoexponential with rates 1 and 2
    return ContinuousChain(d=2, up=[1.0, 2.0])


@pytest.fixture
def rates11_coupled():
    # alpha=(1,1), beta_{1,0}=1: spectrum {(3-sqrt5)/2, (3+sqrt5)/2}
    return ContinuousChain(d=2, up=[1.0, 1.0], down=[[], [1.0]])


@pytest.fixture
def rates11_erlang():
    # Erlang(2,1): repeated rate, exercises the uniformization route
    return ContinuousChain(d=2, up=[1.0, 1.0])
