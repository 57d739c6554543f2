"""Print the peak memory of each O(dim) pass, per basis state.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/pass_memory.py --rungs 11
    PYTHONPATH=../parent/src python3 tools/pass_memory.py --rungs 11

It imports ringladder from PYTHONPATH, so two checkouts' outputs can be
compared.  On the twoSz = 0 sector of the periodic ladder with --rungs L
rungs (N = 2 L sites) it prints one JSON line: dim, then the peak that
tracemalloc records over each pass, in bytes per basis state of the Sz
sector:

- build_sector: building the Sz sector;
- plain_tables: the LadderTables of the whole Sz sector;
- rdm_pair: a one-off reduced_density_matrix of sites (0, 1);
- rdm_block: a one-off reduced_density_matrix of sites 0 .. l - 1, with
  l = min(N / 2, 14);
- expectation_T: <T> of the state;
- symmetry_sectors: the group's orbits and its symmetry sectors;
- expand: the largest symmetry sector's expand of one vector;
- sector_tables: building the LadderTables of every symmetry sector, as a
  sweep chunk does, the group's representative rows included;
- tables_kept: the bytes of the arrays those tables hold, no peak.

Each pass's inputs exist before tracemalloc starts, so a peak counts what
the pass allocates, its output included.  The state and the sector vector
are seeded random unit vectors; no pass's memory depends on their values.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc

import numpy as np

from ringladder import (LadderSpec, LadderTables, StateVector, build_sector, expectation_T,
                        reduced_density_matrix, symmetry_sectors)


def peak(call) -> int:
    """The tracemalloc peak, in bytes, over one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rungs", type=int, required=True, help="ladder rungs L, 3..16")
    args = ap.parse_args(argv)
    if not 3 <= args.rungs <= 16:
        ap.error(f"--rungs must lie in 3..16, got {args.rungs}")
    N = 2 * args.rungs
    rng = np.random.default_rng(0)

    peaks = {"build_sector": peak(lambda: build_sector(N, 0))}
    basis = build_sector(N, 0)
    spec = LadderSpec(L=args.rungs)
    peaks["plain_tables"] = peak(lambda: LadderTables(spec, basis))
    amps = rng.standard_normal(basis.dim)
    psi = StateVector(basis, amps / np.linalg.norm(amps))
    peaks["rdm_pair"] = peak(lambda: reduced_density_matrix(psi, (0, 1)))
    block = tuple(range(min(N // 2, 14)))
    peaks["rdm_block"] = peak(lambda: reduced_density_matrix(psi, block))
    peaks["expectation_T"] = peak(lambda: expectation_T(psi))
    sectors = []
    peaks["symmetry_sectors"] = peak(lambda: sectors.extend(symmetry_sectors(basis)))
    sector = max(sectors, key=lambda s: s.dim)
    v = rng.standard_normal(sector.dim)
    v /= np.linalg.norm(v)
    peaks["expand"] = peak(lambda: sector.expand(v))
    tables = []
    peaks["sector_tables"] = peak(lambda: tables.extend(LadderTables(spec, s) for s in sectors))
    peaks["tables_kept"] = sum(a.nbytes for t in tables for a in vars(t).values()
                               if isinstance(a, np.ndarray))

    print(json.dumps({"dim": basis.dim,
                      **{k: round(p / basis.dim, 2) for k, p in peaks.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
