"""Monte Carlo consistency experiment.

For a batch of random chains, compares empirical absorption-time means
against the analytic transform moments (in standard-error units) and runs
the telescoping Kolmogorov-Smirnov check: a trajectory 0 -> d sampled
directly must be distributed like the sum of independently sampled stage
passages i -> i+1, each the absorption from state i of the chain's first
i+1 rows.  The KS helpers live in ``tests/conftest.py``, so run it as a
module from the repository root:

    PYTHONPATH=src python -m scripts.mc_consistency --chains 10 --paths 50000

Exits 1 if any row is flagged ``<-- CHECK``.
"""

import argparse
import math
import sys

import numpy as np

from skipfree import SamplerConfig, build_law, moments, sample_hitting_times
from skipfree.corpus import desk_scale, random_continuous_chain, random_discrete_chain
from tests.conftest import ks_critical_value, telescoping_statistic


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=10, help="chains per kind")
    parser.add_argument("--paths", type=int, default=50_000)
    parser.add_argument("--ks-paths", type=int, default=10_000)
    parser.add_argument("--d-max", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    critical = ks_critical_value(args.ks_paths, args.ks_paths)
    print(f"KS 1% critical value at {args.ks_paths} paths: {critical:.5f}\n")
    print(f"{'kind':10s} {'d':>2s} {'mean':>10s} {'empirical':>10s} {'sigmas':>7s} {'KS':>8s}")
    flagged = 0
    for kind, generator in (("discrete", random_discrete_chain),
                            ("continuous", random_continuous_chain)):
        done = 0
        while done < args.chains:
            d = int(rng.integers(1, args.d_max + 1))
            chain = generator(rng, d)
            if not desk_scale(chain, 25.0):
                continue
            done += 1
            mean = moments(build_law(chain))[0]
            samples = sample_hitting_times(
                chain, SamplerConfig(seed=args.seed + done, paths=args.paths)
            )
            stderr = samples.std() / math.sqrt(samples.size)
            sigmas = abs(samples.mean() - mean) / stderr
            ks = telescoping_statistic(chain, seed=args.seed * 1000 + done, paths=args.ks_paths)
            flag = "" if sigmas <= 4 and ks < critical else "  <-- CHECK"
            flagged += bool(flag)
            print(f"{kind:10s} {d:2d} {mean:10.4f} {samples.mean():10.4f} {sigmas:7.2f} {ks:8.5f}{flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
