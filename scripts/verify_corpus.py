"""Sweep random chain corpora through every oracle cross-check.

Sweeps the four corpus families: general and birth-death, discrete and
continuous.  Prints one row per chain with the worst check, and a summary
per check name.  Useful for hunting numerically hostile regions beyond what
the test suite pins down.

    python3 scripts/verify_corpus.py --chains 50 --d-max 10 --seed 7
"""

import argparse
import sys
from collections import defaultdict

import numpy as np

from skipfree.corpus import (
    desk_scale,
    random_birth_death_continuous,
    random_birth_death_discrete,
    random_continuous_chain,
    random_discrete_chain,
)
from skipfree.verify import verification_reports

FAMILIES = (
    random_discrete_chain,
    random_continuous_chain,
    random_birth_death_discrete,
    random_birth_death_continuous,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=50, help="chains per family")
    parser.add_argument("--d-max", type=int, default=8, help="largest absorbing index")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mean-cap", type=float, default=1000.0,
                        help="skip chains whose mean absorption time exceeds this")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = defaultdict(float)
    failures = 0
    for generator in FAMILIES:
        family = generator.__name__.removeprefix("random_")
        done = 0
        while done < args.chains:
            d = int(rng.integers(1, args.d_max + 1))
            chain = generator(rng, d)
            if not desk_scale(chain, args.mean_cap):
                continue
            done += 1
            reports = verification_reports(chain, seed=args.seed)
            bad = [name for name, r in reports if not r.passed]
            failures += len(bad)
            peak_name, peak = max(
                ((name, r.margin) for name, r in reports),
                key=lambda item: item[1],
            )
            for name, r in reports:
                worst[name] = max(worst[name], r.max_abs_err)
            status = "FAIL " + ",".join(bad) if bad else "ok"
            print(f"{family} d={d}: worst {peak_name} at {peak:.2e} of threshold [{status}]")

    print("\nworst error per check:")
    for name, err in sorted(worst.items()):
        print(f"  {name:32s} {err:.3e}")
    if failures:
        print(f"\n{failures} check(s) failed")
        sys.exit(1)
    print("\nall checks passed")


if __name__ == "__main__":
    main()
