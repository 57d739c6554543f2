"""Write one sweep CSV per ladder over a wide theta grid, to compare two trees.

Usage, from the repository root:

    PYTHONPATH=../parent/src python3 tools/grid_scan.py --out scan-parent
    PYTHONPATH=src python3 tools/grid_scan.py --out scan-change
    for f in scan-parent/*.csv; do
        python3 tools/csv_diff.py --tol 1e-10 "$f" "scan-change/${f##*/}"
    done

It imports ringladder from PYTHONPATH and runs run_sweep in this process
for the periodic ladders with L = 3 to --max-L rungs and the open ladders
with L = 1 to --max-L, each at twoSz 0 and 2, over theta/pi = -1 to 0.95 in
steps of 0.05, with the block D:min(3, L) and every pair the ladder has
(the rung pair alone at L = 1).  Each ladder's CSV is written to
--out/<bc>_L<L>_twoSz<twoSz>.csv, and one line per file gives its name.
"""

from __future__ import annotations

import argparse
import os
import sys

from ringladder import BlockSpec, SweepConfig, run_sweep, theta_grid

THETAS = theta_grid(-1.0, 0.95, 0.05)


def ladders(max_L: int) -> list[tuple[str, int, int]]:
    """(bc, L, twoSz) of every ladder the scan covers, in file order."""
    return [(bc, L, twoSz)
            for bc, first in (("periodic", 3), ("open", 1))
            for L in range(first, max_L + 1)
            for twoSz in (0, 2)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for the CSV files")
    ap.add_argument("--max-L", type=int, default=8,
                    help="largest rung count of either boundary (default 8)")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for bc, L, twoSz in ladders(args.max_L):
        name = f"{bc}_L{L}_twoSz{twoSz}.csv"
        run_sweep(SweepConfig(
            L=L, bc=bc, twoSz=twoSz, thetas_over_pi=THETAS,
            blocks=(BlockSpec("D", min(3, L)),),
            out=os.path.join(args.out, name),
        ))
        print(name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
