"""Print sha256 digests of every LadderTables and its action, one line per table.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/table_digest.py
    PYTHONPATH=../parent/src python3 tools/table_digest.py --max-L 8

It imports ringladder from PYTHONPATH, so two checkouts' outputs can be
compared line by line.  It covers the periodic ladders with L = 3 to --max-L
rungs and the open ladders with L = 4 and 7, at twoSz 0 and 2, each with its
plain sector and every symmetry sector.  Each line gives
bc, L, twoSz, the sector label, dim, nnz and two sha256 digests: the first
over the name, dtype and bytes of indptr, indices, key, pair_code,
pair_factor, anti_r, anti_l and fixed (tables that hold a code and a factor
per entry instead digest key, pair_code and pair_factor as None), the
second over the data, indices and indptr of HamiltonianAction's H at
theta = 0.1 pi, (Jl, Jr, K) = (0, 1, 0) and (0, 0, 1), each taken after
eliminate_zeros() on a copy.  A stored 0.0 adds nothing to a product, so
the second compares what a matvec computes even across revisions whose
table layouts or stored zeros differ.  Before its symmetry sectors, each
(bc, L, twoSz) has one line for the orbits of its group: the orbit count and
a sha256 over the name, dtype and bytes of reps, orbit_of, element_of,
fix_orbit and fix_element.  The last line counts the tables and gives a
digest over all lines.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

from ringladder import (Couplings, HamiltonianAction, LadderSpec, LadderTables,
                        build_sector, couplings_from_theta, symmetry_sectors)
from ringladder.basis import LadderOrbits

ORBIT_ARRAYS = ("reps", "orbit_of", "element_of", "fix_orbit", "fix_element")
ARRAYS = ("indptr", "indices", "key", "pair_code", "pair_factor", "anti_r", "anti_l", "fixed")
# tables that hold a code and a factor per entry lack these; every other
# array must exist
KEYED = ("key", "pair_code", "pair_factor")
COUPLINGS = (couplings_from_theta(0.1 * math.pi), Couplings(Jl=0.0, Jr=1.0, K=0.0),
             Couplings(Jl=0.0, Jr=0.0, K=1.0))


def digest(tables: LadderTables) -> str:
    """sha256 over the name, dtype and bytes of each table array."""
    return _arrays_digest(tables, ARRAYS)


def orbit_digest(group: LadderOrbits) -> str:
    """sha256 over the name, dtype and bytes of each orbit array."""
    return _arrays_digest(group, ORBIT_ARRAYS)


def _arrays_digest(obj, names) -> str:
    h = hashlib.sha256()
    for name in names:
        a = getattr(obj, name, None) if name in KEYED else getattr(obj, name)
        h.update(name.encode())
        if a is None:
            h.update(b"None")
        else:
            h.update(str(a.dtype).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def action_digest(tables: LadderTables) -> str:
    """sha256 over the bytes of H's data, indices and indptr at COUPLINGS,
    with H's stored zeros eliminated."""
    h = hashlib.sha256()
    for c in COUPLINGS:
        H = HamiltonianAction(tables, c).H.copy()
        H.eliminate_zeros()
        for a in (H.data, H.indices, H.indptr):
            h.update(a.tobytes())
    return h.hexdigest()


def table_line(head: str, spec: LadderSpec, label: str, sector) -> str:
    """The line of one sector's tables."""
    t = LadderTables(spec, sector)
    return (f"{head} [{label}] dim={sector.dim} nnz={len(t.indices)} "
            f"{digest(t)} {action_digest(t)}")


def lines(max_L: int):
    """One line per group's orbits and per table, in a fixed order."""
    geometries = [("periodic", L) for L in range(3, max_L + 1)]
    geometries += [("open", 4), ("open", 7)]
    for bc, L in geometries:
        spec = LadderSpec(L=L, bc=bc)
        for twoSz in (0, 2):
            head = f"{bc} L={L} twoSz={twoSz}"
            basis = build_sector(spec.N, twoSz)
            symmetric = symmetry_sectors(basis, bc)
            group = symmetric[0].group
            yield table_line(head, spec, "plain", basis)
            yield f"{head} orbits={len(group.reps)} {orbit_digest(group)}"
            for s in symmetric:
                yield table_line(head, spec, s.irrep.label, s)


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
        n += " orbits=" not in line
    print(f"total {n} tables {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
