"""Print a sha256 digest of every LadderTables array, one line per table.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/table_digest.py
    PYTHONPATH=../parent/src python3 tools/table_digest.py --max-L 8

It imports ringladder from PYTHONPATH, so two checkouts' outputs can be
compared line by line.  It covers the periodic ladders with L = 3 to --max-L
rungs at twoSz 0 and 2, each with its plain sector and every symmetry sector,
and the open ladders with L = 4 and 7 at the same twoSz.  Each line gives
bc, L, twoSz, the sector label, dim, nnz and the sha256 over the name,
dtype and bytes of indptr, indices, code, factor (or None), anti_r, anti_l
and fixed; the last line gives a digest over all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from ringladder import LadderSpec, LadderTables, build_sector, symmetry_sectors

ARRAYS = ("indptr", "indices", "code", "factor", "anti_r", "anti_l", "fixed")


def digest(tables: LadderTables) -> str:
    """sha256 over the name, dtype and bytes of each table array."""
    h = hashlib.sha256()
    for name in ARRAYS:
        a = getattr(tables, name)
        h.update(name.encode())
        if a is None:
            h.update(b"None")
        else:
            h.update(str(a.dtype).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def lines(max_L: int):
    """One line per table, in a fixed order."""
    geometries = [("periodic", L) for L in range(3, max_L + 1)]
    geometries += [("open", 4), ("open", 7)]
    for bc, L in geometries:
        spec = LadderSpec(L=L, bc=bc)
        for twoSz in (0, 2):
            basis = build_sector(spec.N, twoSz)
            sectors = [("plain", basis)]
            if bc == "periodic":
                sectors += [(s.irrep.label, s) for s in symmetry_sectors(basis)]
            for label, sector in sectors:
                t = LadderTables(spec, sector)
                yield (f"{bc} L={L} twoSz={twoSz} [{label}] dim={sector.dim} "
                       f"nnz={len(t.indices)} {digest(t)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-L", type=int, default=10,
                    help="largest periodic rung count (default 10)")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    n = 0
    for line in lines(args.max_L):
        print(line, flush=True)
        total.update(line.encode() + b"\n")
        n += 1
    print(f"total {n} tables {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
