"""Write a BENCH_<n>.json comparison from perfbench result files.

Usage, from the repository root:

    python3 tools/bench_file.py \
        --before parent/result-observe-fm-L11-seed0-trace0.json ... \
        --after perfbench/out/result-observe-fm-L11-seed0-trace0.json ... \
        --out BENCH_6.json

Each input is one `perfbench/out/result-<workload>-seed<n>-trace<0|1>.json`.
For every workload and metric the output holds, on each side, the median,
the quartiles and the number of runs that reported the metric.  It also
holds the machine record, which must be the same in every input apart from
the seed, and the counters that do not depend on the machine.  Each
--points file is the saved output of tools/point_cost.py; its last line,
the command and its runs, is copied into the output's "points" list.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

# machine-independent: traced runs report the first three, every untraced
# run the last
COUNTERS = (
    "basis.dim",
    "hamiltonian.matvec_calls",
    "eigensolver.matvecs_per_solve",
    "peak_rss_mb",
)


def summary(values: list[float]) -> dict:
    """Median, quartiles and run count of one metric on one side."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def collect(paths: list[str]) -> tuple[dict, list[dict], list[int]]:
    """values[workload][metric] -> (unit, list of values), with the machine
    records and seeds of the files."""
    values: dict = {}
    machines, seeds = [], []
    for path in paths:
        with open(path) as fh:
            res = json.load(fh)
        machine = dict(res["machine"])
        seeds.append(machine.pop("seed"))
        machines.append(machine)
        per = values.setdefault(res["workload"], {})
        for metric, m in res["metrics"].items():
            per.setdefault(metric, (m["unit"], []))[1].append(m["value"])
    return values, machines, seeds


def bench_file(before: list[str], after: list[str]) -> dict:
    sides = {"before": collect(before), "after": collect(after)}
    machines = [m for _, ms, _ in sides.values() for m in ms]
    if any(m != machines[0] for m in machines):
        raise ValueError("the result files come from different machines or settings")

    workloads: dict = {}
    counters: dict = {}
    for side, (values, _, _) in sides.items():
        for workload, metrics in values.items():
            for metric, (unit, vals) in metrics.items():
                entry = workloads.setdefault(workload, {}).setdefault(metric, {"unit": unit})
                entry[side] = summary(vals)
                if metric in COUNTERS:
                    counters.setdefault(workload, {}).setdefault(metric, {})[side] = (
                        statistics.median(vals)
                    )
    return {
        "machine": machines[0],
        "seeds": {side: sorted(set(seeds)) for side, (_, _, seeds) in sides.items()},
        "workloads": workloads,
        "counters": counters,
    }


def points(paths: list[str]) -> list[dict]:
    """The JSON last line of each tools/point_cost.py output."""
    out = []
    for path in paths:
        with open(path) as fh:
            out.append(json.loads(fh.read().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", nargs="+", required=True, help="result files of the parent")
    ap.add_argument("--after", nargs="+", required=True, help="result files of the change")
    ap.add_argument("--points", nargs="+", default=[],
                    help="saved outputs of tools/point_cost.py")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    try:
        bench = bench_file(args.before, args.after)
        bench["points"] = points(args.points)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ap.error(str(exc))
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
