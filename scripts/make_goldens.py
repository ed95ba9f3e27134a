"""Regenerate the golden CSV tables in tests/golden/.

Each table is cross-checked against two oracles before it is written: the
step-by-step matrix-power iteration and the PGF inverted on the unit
circle.  A gap above GOLDEN_GAP to either refuses the write, so a
regression in the PMF engine cannot silently refresh the goldens with bad
values.

Run from the repository root: ``PYTHONPATH=src python scripts/make_goldens.py``.
"""

import pathlib
import sys

import numpy as np

from skipfree import (
    build_law,
    parse_chain,
    pmf_by_matrix_power,
    pmf_by_transform_inversion,
    pmf_table,
)
from skipfree.cli import emit_table

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_GAP = 1e-12

GOLDENS = {
    "d1_geometric_pmf.csv": "d1_geometric.json",
    "d2_mixed_pmf.csv": "d2_mixed.json",
}


def checked_table(chain_name):
    """The chain's PMF table, or exit if either oracle disagrees with it."""
    chain = parse_chain((REPO / "chains" / chain_name).read_text())
    law = build_law(chain)
    table = pmf_table(law)
    masses = np.asarray(table.mass_or_density)
    oracles = {
        "matrix power": pmf_by_matrix_power(chain, masses.size).mass_or_density,
        "PGF inversion": pmf_by_transform_inversion(law, masses.size),
    }
    gaps = {name: float(np.max(np.abs(masses - np.asarray(o)))) for name, o in oracles.items()}
    for name, gap in gaps.items():
        if not gap <= GOLDEN_GAP:
            sys.exit(f"{chain_name}: table/{name} gap {gap:.3e}; refusing to write goldens")
    return table, ", ".join(f"{name} gap {gap:.2e}" for name, gap in gaps.items())


def main():
    checked = {golden: checked_table(chain) for golden, chain in GOLDENS.items()}
    out_dir = REPO / "tests" / "golden"
    out_dir.mkdir(parents=True, exist_ok=True)
    for golden_name, (table, gaps) in checked.items():
        path = out_dir / golden_name
        path.write_text(emit_table(table, "csv") + "\n")
        print(f"wrote {path} ({len(table.support)} rows, {gaps})")


if __name__ == "__main__":
    main()
