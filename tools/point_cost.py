"""Time one ringladder command under two source trees, alternating fresh processes.

Usage, from the repository root:

    python3 tools/point_cost.py --before ../parent/src --after src --pairs 2 \\
        -- gs --rungs 12 --theta 0.10 --blocks A:4,D:4

Each run is `python -m ringladder <command>` in a new process with
PYTHONPATH set to one tree.  Pair i runs the before tree first when i is
even and the after tree first when i is odd.  One line per run gives the
side, the pair, the wall time, the peak resident memory of that process
(its ru_maxrss, the RUSAGE_CHILDREN record of this one child, read with
os.wait4) and the first 16 hex digits of the sha256 of its standard output,
so outputs that differ between the trees show.  Then come each side's
medians and the after/before ratio of the medians.  The last line is one
JSON object holding the command, the trees and every run, which
tools/bench_file.py --points reads.  A run that exits non-zero stops the
tool with its standard error and exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time


def run(tree: str, command: list[str]) -> dict:
    """Wall time, peak RSS in MB and output digest of one fresh run."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(tree)}
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ringladder", *command],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise RuntimeError(f"{tree}: exit status {proc.returncode}\n"
                               f"{err.read().decode(errors='replace')}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "output_sha256": hashlib.sha256(out).hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True, help="src/ tree of the parent")
    ap.add_argument("--after", required=True, help="src/ tree of the change")
    ap.add_argument("--pairs", type=int, default=2, help="alternating pairs to run")
    ap.add_argument("command", nargs="+", help="ringladder arguments, after --")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"before": args.before, "after": args.after}

    runs = []
    print("side    pair  wall_s  peak_rss_mb  output")
    for pair in range(args.pairs):
        for side in ("before", "after") if pair % 2 == 0 else ("after", "before"):
            try:
                rec = {"side": side, "pair": pair, **run(trees[side], args.command)}
            except RuntimeError as exc:
                print(f"point_cost: {exc}", file=sys.stderr)
                return 1
            runs.append(rec)
            print(f"{side:7s} {pair:4d} {rec['wall_s']:7.2f} {rec['peak_rss_mb']:12.1f}"
                  f"  {rec['output_sha256'][:16]}", flush=True)

    medians = {
        side: {m: statistics.median(r[m] for r in runs if r["side"] == side)
               for m in ("wall_s", "peak_rss_mb")}
        for side in trees
    }
    for side, med in medians.items():
        print(f"{side:7s} median wall_s {med['wall_s']:.2f} peak_rss_mb {med['peak_rss_mb']:.1f}")
    print("after/before", " ".join(
        f"{m} {medians['after'][m] / medians['before'][m]:.3f}" for m in ("wall_s", "peak_rss_mb")
    ))
    print(json.dumps({"command": args.command, "trees": trees, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
