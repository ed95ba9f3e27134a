"""Random chain corpora for verification runs.

All generators take a ``numpy.random.Generator`` so that callers own
determinism.  Discrete rows are drawn as raw weights and normalized, with
the up probability floored at P_MIN; birth-death variants restrict the
down jumps to i-1, and the lazy discrete variant keeps the hold probability
at 1/2 or more, which pins every transient-block eigenvalue in [0, 1) by
Gershgorin and so guarantees a geometric phase representation.
"""

from .chains import ContinuousChain, DiscreteChain
from .errors import InvariantError
from .oracle import expected_hitting_times

# the families' draw parameters
P_MIN = 0.05  # smallest up-probability of a general discrete row
RATE_LOW, RATE_HIGH = 0.2, 3.0  # range of continuous up and down rates
COUPLING = 1.5  # largest down rate of a general continuous row
HOLD_MIN, HOLD_MAX = 0.5, 0.9  # range of a lazy birth-death holding probability


def random_discrete_chain(rng, d):
    """General skip-free discrete chain with row-normalized random entries."""
    hold, up, down = [], [], []
    for i in range(d):
        weights = rng.uniform(0.05, 1.0, size=i + 2)
        weights /= weights.sum()
        q, r, p = weights[:i], weights[i], weights[i + 1]
        if p < P_MIN:
            rest = 1.0 - P_MIN
            scale = rest / (r + q.sum())
            p, r, q = P_MIN, r * scale, q * scale
        hold.append(r)
        up.append(p)
        down.append(q.tolist())
    return DiscreteChain(d=d, hold=hold, up=up, down=down)


def random_continuous_chain(rng, d):
    """General skip-free continuous chain with uniform random rates."""
    up = rng.uniform(RATE_LOW, RATE_HIGH, size=d).tolist()
    down = []
    for i in range(d):
        row = rng.uniform(0.0, COUPLING, size=i)
        row[rng.random(i) < 0.4] = 0.0  # keep the down structure sparse
        down.append(row.tolist())
    return ContinuousChain(d=d, up=up, down=down)


def random_birth_death_discrete(rng, d):
    """Lazy discrete birth-death chain (down jumps only to i-1, r_i >= 1/2).

    The up/down split never favors down, keeping absorption times polynomial
    in d; downward-drifting birth-death chains absorb in exp(d) steps.
    """
    hold, up, down = [], [], []
    for i in range(d):
        r = rng.uniform(HOLD_MIN, HOLD_MAX)
        split = rng.uniform(0.5, 0.9) if i > 0 else 1.0
        p = (1.0 - r) * split
        q_row = [0.0] * i
        if i > 0:
            q_row[i - 1] = (1.0 - r) * (1.0 - split)
        hold.append(r)
        up.append(p)
        down.append(q_row)
    return DiscreteChain(d=d, hold=hold, up=up, down=down)


def desk_scale(chain, mean_cap=1000.0):
    """True when the chain absorbs fast enough for the oracle cross-checks.

    Strongly downward-biased chains absorb so slowly that their PMF tables
    run to ~1e8 terms, past law.MAX_PMF_TERMS, so no verification at 1e-8
    tolerances is practical.  The cap is decided by the first-step mean of
    :func:`~skipfree.oracle.expected_hitting_times`, independent of the
    stage recursion.  A mean past the largest double is past every cap.
    """
    try:
        return float(expected_hitting_times(chain)[0]) <= mean_cap
    except InvariantError:
        return False


def random_birth_death_continuous(rng, d):
    """Continuous birth-death chain; its -Q spectrum is always real positive."""
    up = rng.uniform(RATE_LOW, RATE_HIGH, size=d).tolist()
    down = []
    for i in range(d):
        row = [0.0] * i
        if i > 0:
            row[i - 1] = rng.uniform(RATE_LOW, RATE_HIGH)
        down.append(row)
    return ContinuousChain(d=d, up=up, down=down)
