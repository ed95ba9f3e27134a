import io
import pathlib

import numpy as np
import pytest

from skipfree import ContinuousChain, DiscreteChain

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
