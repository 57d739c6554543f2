"""Replay the sweep's loose Ritz passes against dense levels, to compare two trees.

Usage, from the repository root:

    PYTHONPATH=../parent/src python3 tools/screen_replay.py --rungs 7 --seeds 0 1
    PYTHONPATH=src python3 tools/screen_replay.py --rungs 7 --seeds 0 1

It imports ringladder from PYTHONPATH.  On the periodic ladder of --rungs
rungs at twoSz 0, over theta/pi = -1 to 1 - step in steps of --theta-step,
it runs eigensolver.ritz_bound, with each seed, on every symmetry sector of
more than eigensolver.DENSE_MAX_DIM states, the sectors sweep._solve bounds,
and compares the bound with the sector's lowest level from a dense eigvalsh
of the same operator.  U is the first level at least ground_band(E0) above
E0 among the dense levels of all sectors.  One line per seed gives:

- the sector-points replayed;
- the overshoots, bounds more than 1e-12 above their sector's lowest level;
- the worst overshoot, with its theta/pi and sector;
- the wrong screens, bounds above U whose sector's lowest level is at or
  below U;
- the margin, the smallest lowest level - U of the sectors whose bound
  lies above U;
- the matvecs of the passes;
- pass_s, the seconds spent inside ritz_bound, and matvec_s, the seconds
  spent inside the applyH calls it makes, so pass_s - matvec_s is the
  pass's own cost above its matvecs (each timed call adds a clock read
  or two to pass_s).

The dense levels take a few minutes at L = 8; L = 9 is out of reach.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np
import scipy.linalg

from ringladder import (HamiltonianAction, LadderSpec, LadderTables, build_sector,
                        couplings_from_theta, eigensolver, symmetry_sectors, theta_grid)

OVERSHOOT_TOL = 1e-12


def replay(L: int, seeds, step: float) -> list[dict]:
    """Per seed, in the order given: its counts over the theta circle."""
    spec = LadderSpec(L)
    sectors = symmetry_sectors(build_sector(spec.N, 0))
    tables = [LadderTables(spec, s) for s in sectors]
    bounded = [i for i, t in enumerate(tables) if t.basis.dim > eigensolver.DENSE_MAX_DIM]
    stats = [{"seed": seed, "points": 0, "overshoots": 0, "worst": 0.0, "worst_at": None,
              "wrong": 0, "margin": math.inf, "matvecs": 0, "pass_s": 0.0, "matvec_s": 0.0}
             for seed in seeds]
    for t in theta_grid(-1.0, 1.0 - step, step):
        actions = [HamiltonianAction(x, couplings_from_theta(t * math.pi)) for x in tables]
        levels = [scipy.linalg.eigvalsh(a.H.toarray()) for a in actions]
        every = np.concatenate(levels)
        E0 = every.min()
        U = every[every - E0 >= eigensolver.ground_band(E0)].min(initial=np.inf)
        for i in bounded:
            lowest = float(levels[i][0])
            for rec in stats:

                def timed(v, matvec=actions[i].matvec, rec=rec):
                    start = time.perf_counter()
                    w = matvec(v)
                    rec["matvec_s"] += time.perf_counter() - start
                    return w

                start = time.perf_counter()
                bound, matvecs = eigensolver.ritz_bound(timed, actions[i].dim, rec["seed"])
                rec["pass_s"] += time.perf_counter() - start
                rec["points"] += 1
                rec["matvecs"] += matvecs
                if bound - lowest > OVERSHOOT_TOL:
                    rec["overshoots"] += 1
                    if bound - lowest > rec["worst"]:
                        rec["worst"] = bound - lowest
                        rec["worst_at"] = (round(t, 12), sectors[i].irrep.label)
                if bound > U:
                    rec["wrong"] += lowest <= U
                    rec["margin"] = min(rec["margin"], lowest - U)
    return stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rungs", type=int, required=True, help="rungs L of the periodic ladder")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0], help="start-vector seeds")
    ap.add_argument("--theta-step", type=float, default=0.02,
                    help="grid step in units of pi (default 0.02)")
    args = ap.parse_args(argv)
    print("seed  points  overshoots  worst     worst_at                 wrong  margin     matvecs  pass_s   matvec_s")
    for rec in replay(args.rungs, args.seeds, args.theta_step):
        where = "-" if rec["worst_at"] is None else f"{rec['worst_at'][0]:+.2f} {rec['worst_at'][1]}"
        print(f"{rec['seed']:4d} {rec['points']:7d} {rec['overshoots']:11d}  {rec['worst']:.3e}"
              f"  {where:23s} {rec['wrong']:6d}  {rec['margin']:.3e}  {rec['matvecs']:8d}"
              f"  {rec['pass_s']:7.3f}  {rec['matvec_s']:7.3f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
