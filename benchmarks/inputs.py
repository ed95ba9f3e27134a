"""Seeded chain inputs for the benchmark, independent of ``skipfree.corpus``.

The four generators copy the draws of the four ``skipfree.corpus`` families
so that the inputs match what the corpus scripts see, but they live here: a
later edit to ``corpus.py`` cannot change a workload.  Chains are produced as
chain-spec JSON documents (the schema in the README), which is what the
benchmark hands to the program and what its own reference computations read.
"""

import numpy as np

import reference

DESK_MEAN_CAP = 1000.0
# the corpus families' draw parameters
P_MIN = 0.05  # smallest up-probability of a general discrete row
RATE_LOW, RATE_HIGH = 0.2, 3.0  # range of continuous up and down rates
COUPLING = 1.5  # largest down rate of a general continuous row
HOLD_MIN, HOLD_MAX = 0.5, 0.9  # range of a lazy birth-death holding probability


def general_discrete(rng, d):
    rows = []
    for i in range(d):
        weights = rng.uniform(0.05, 1.0, size=i + 2)
        weights /= weights.sum()
        q, r, p = weights[:i], weights[i], weights[i + 1]
        if p < P_MIN:
            scale = (1.0 - P_MIN) / (r + q.sum())
            p, r, q = P_MIN, r * scale, q * scale
        rows.append(_discrete_row(r, p, q))
    return {"type": "discrete", "d": d, "rows": rows}


def general_continuous(rng, d):
    up = rng.uniform(RATE_LOW, RATE_HIGH, size=d)
    rows = []
    for i in range(d):
        beta = rng.uniform(0.0, COUPLING, size=i)
        beta[rng.random(i) < 0.4] = 0.0
        rows.append(_continuous_row(up[i], beta))
    return {"type": "continuous", "d": d, "rows": rows}


def birth_death_discrete(rng, d):
    rows = []
    for i in range(d):
        r = rng.uniform(HOLD_MIN, HOLD_MAX)
        split = rng.uniform(0.5, 0.9) if i > 0 else 1.0
        q = np.zeros(i)
        if i > 0:
            q[i - 1] = (1.0 - r) * (1.0 - split)
        rows.append(_discrete_row(r, (1.0 - r) * split, q))
    return {"type": "discrete", "d": d, "rows": rows}


def birth_death_continuous(rng, d):
    up = rng.uniform(RATE_LOW, RATE_HIGH, size=d)
    rows = []
    for i in range(d):
        beta = np.zeros(i)
        if i > 0:
            beta[i - 1] = rng.uniform(RATE_LOW, RATE_HIGH)
        rows.append(_continuous_row(up[i], beta))
    return {"type": "continuous", "d": d, "rows": rows}


def _discrete_row(r, p, q):
    row = {"r": float(r), "p": float(p)}
    if len(q):
        row["q"] = [float(x) for x in q]
    return row


def _continuous_row(alpha, beta):
    row = {"alpha": float(alpha)}
    if len(beta):
        row["beta"] = [float(x) for x in beta]
    return row


FAMILIES = {
    "general_discrete": general_discrete,
    "general_continuous": general_continuous,
    "birth_death_discrete": birth_death_discrete,
    "birth_death_continuous": birth_death_continuous,
}


def desk_scale_chain(rng, family, d, mean_cap=DESK_MEAN_CAP):
    """First chain of the family whose mean absorption time is at most ``mean_cap``.

    The mean comes from the benchmark's own first-step linear solve.
    """
    while True:
        doc = FAMILIES[family](rng, d)
        if reference.mean_time(doc) <= mean_cap:
            return doc
