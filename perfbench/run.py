"""ringladder benchmark: theta sweeps, a Dicke-state observe pass and the
fm-oracle CLI, timed end to end, with a separate traced per-layer run.

Usage (from anywhere; paths resolve against the checkout holding this file):

    python3 perfbench/run.py --workload sweep-L10 --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md for why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy loads: every workload is measured
# single-threaded and sequential
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import csv
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

NOMINAL_L8_GRID = tuple(-0.30 + 0.03 * i for i in range(41))
ORACLE_RUNGS = 500
CHECK_TOL = 1e-10       # sweep-row identities
OBSERVE_TOL = 1e-9      # Dicke closed forms and oracle spectra
E0_RTOL = 1e-10         # default-seed reference energies
DEFAULT_SEED = 0
SLICE_S = 0.25          # least time a phase fills per sampling round
MIN_ROUNDS = 2          # sampling rounds before and after the sweep
CAL_N = 1 << 17         # calibration kernel: array length,
CAL_LOOP = 200_000      # interpreter loop length,
CAL_REF_S = 0.0215      # and its median time on the reference machine


@dataclass(frozen=True)
class Workload:
    name: str
    sweep_L: int
    sweep_thetas: tuple[float, ...]      # nominal, in units of pi
    sweep_blocks: str
    observe_L: int                       # Dicke state on 2*observe_L sites
    observe_blocks: str
    setup: str                           # "tables" or "fm"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-L10", 10, (0.15, 0.50), "A:4,D:4", 10, "A:4,D:4", "tables"),
        Workload("sweep-L8-grid", 8, NOMINAL_L8_GRID, "A:8,B:8,C:8,D:8",
                 8, "A:8,B:8,C:8,D:8", "tables"),
        # every workload reports every end-to-end metric, so this one carries a
        # small L=6 sweep; the N=22 observe pass and the oracle dominate
        Workload("observe-fm-L11", 6, NOMINAL_L8_GRID, "A:4,D:3",
                 11, "A:4,A:8,A:10,B:4,B:6,C:6,C:10,D:6,D:10,D:11", "fm"),
    )
}


def load_ringladder():
    """Import ringladder from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ringladder" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ringladder sources under {src}")
    sys.path.insert(0, str(src))
    import ringladder

    if Path(ringladder.__file__).resolve().parent != (src / "ringladder").resolve():
        raise SystemExit(f"perfbench: imported ringladder from {ringladder.__file__}")
    return ringladder


class Gate:
    """Correctness checks; every one counts as attempted, misses as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def close(self, got: float, want: float, tol: float, what: str) -> None:
        self.check(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol})")


class Pipeline:
    """One workload's inputs and the calls a user of the library would make.

    Each phase returns the wall time of its library calls only; the checks on
    their outputs run after the clock stops.
    """

    def __init__(self, rl, workload: Workload, seed: int, tmp: Path, gate: Gate):
        import ringladder.cli
        import ringladder.sweep

        self.rl = rl
        self.sweep_mod = ringladder.sweep    # call through these bindings so
        self.cli_mod = ringladder.cli        # the tracer's patches apply
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.gate = gate
        rng = random.Random(seed)
        offset = rng.uniform(-0.01, 0.01)
        self.thetas = tuple(t + offset for t in workload.sweep_thetas)
        self.shift = rng.randrange(workload.observe_L)
        self.basis = None
        self.reference = None
        if seed == DEFAULT_SEED:
            with open(HERE / "reference_e0.json") as fh:
                self.reference = json.load(fh)[workload.name]
        self.oracle_text = None

    def setup(self) -> float:
        """build_sector + LadderTables, or build_sector + fm_state."""
        rl, s = self.rl, self.sweep_mod
        t0 = time.perf_counter()
        if self.w.setup == "tables":
            spec = rl.LadderSpec(L=self.w.sweep_L)
            basis = s.build_sector(spec.N, 0)
            s.LadderTables(spec, basis)
        else:
            N = 2 * self.w.observe_L
            basis = s.build_sector(N, 0)
            rl.fm_state(N, basis)
        dt = time.perf_counter() - t0
        self.basis = basis
        return dt

    def sweep(self) -> float:
        """run_sweep over the shifted grid, CSV written."""
        rl = self.rl
        out = self.tmp / "sweep.csv"
        cfg = rl.SweepConfig(
            L=self.w.sweep_L, thetas_over_pi=self.thetas,
            blocks=self.cli_mod.parse_blocks(self.w.sweep_blocks),
            seed=self.seed, out=str(out), workers=1,
        )
        t0 = time.perf_counter()
        records = self.sweep_mod.run_sweep(cfg)
        dt = time.perf_counter() - t0

        g, L = self.gate, self.w.sweep_L
        g.check(len(records) == len(self.thetas), "one record per grid point")
        for rec in records:
            z = rec.T_expect / (1.5 * L)
            at = f"theta/pi={rec.thetaOverPi:.6f}"
            g.close(rec.E_rung2site, rl.rung_entropy_from_z(z), CHECK_TOL,
                    f"E_rung2site vs rung_entropy_from_z at {at}")
            g.close(rec.C_rung, max(0.0, -0.5 - 3.0 * z), CHECK_TOL,
                    f"C_rung vs max(0, -1/2 - 3z) at {at}")
        with open(out, newline="") as fh:
            lines = sum(1 for _ in csv.reader(fh))
        g.check(lines == len(records) + 1, f"CSV holds {lines} lines")
        if self.reference is not None:
            for rec, want in zip(records, self.reference):
                g.close(rec.E0, want, E0_RTOL * abs(want),
                        f"E0 vs default-seed reference at theta/pi={rec.thetaOverPi:.6f}")
        return dt

    def observe(self) -> float:
        """Pair concurrences, block entropies and <T> of the Dicke state on
        the setup's sector, at sites translated by a seeded number of rungs."""
        rl, s = self.rl, self.sweep_mod
        N = self.basis.N
        spec = rl.LadderSpec(L=N // 2)
        blocks = self.cli_mod.parse_blocks(self.w.observe_blocks)

        def moved(sites):
            return [(x + 2 * self.shift) % N for x in sites]

        pairs = {"rung": (0, 1), "leg": (0, 2), "diag": (0, 3)}
        block_sites = [moved(s.block_sites(b.family, b.l, spec)) for b in blocks]
        t0 = time.perf_counter()
        psi = rl.fm_state(N, self.basis)
        conc = {k: s.concurrence(s.reduced_density_matrix(psi, moved(p)))
                for k, p in pairs.items()}
        ent = [s.von_neumann_entropy(s.reduced_density_matrix(psi, sites))
               for sites in block_sites]
        T = s.expectation_T(psi)
        dt = time.perf_counter() - t0

        g = self.gate
        for kind, c in conc.items():
            g.close(c, 1.0 / (N - 1), OBSERVE_TOL, f"{kind} concurrence of the Dicke state")
        for b, e in zip(blocks, ent):
            g.close(e, rl.fm_entropy(N, b.l), OBSERVE_TOL, f"entropy of block {b.label}")
        g.close(T, (N // 2) / 4.0, OBSERVE_TOL, "<T> of the Dicke state")
        return dt

    def oracle(self) -> float:
        """The fm-oracle CLI subcommand at ORACLE_RUNGS rungs."""
        out = self.tmp / "oracle.txt"
        argv = ["fm-oracle", "--rungs", str(ORACLE_RUNGS), "--out", str(out)]
        t0 = time.perf_counter()
        code = self.cli_mod.main(argv)
        dt = time.perf_counter() - t0

        g = self.gate
        g.check(code == 0, f"fm-oracle exit code {code}")
        text = out.read_text()
        if self.oracle_text is None:
            self._check_oracle(text)
            self.oracle_text = text
        else:
            g.check(text == self.oracle_text, "fm-oracle output repeats")
        return dt

    def _check_oracle(self, text: str) -> None:
        g, rl = self.gate, self.rl
        N = 2 * ORACLE_RUNGS
        lines = text.splitlines()
        g.check(lines[0] == f"N = {N}", f"oracle header {lines[0]!r}")
        g.close(float(lines[1].split("=")[1]), 1.0 / (N - 1), OBSERVE_TOL,
                "oracle pair concurrence")
        rows = lines[3:]
        g.check(len(rows) == N // 2, f"oracle lists {len(rows)} block sizes")
        for row in rows:
            l, ent, _ = row.split(",")
            lam = rl.fm_block_spectrum(N, int(l)).lambdas
            g.close(float(lam.sum()), 1.0, OBSERVE_TOL, f"oracle spectrum l={l} sums to 1")
            lam = lam[lam > 0.0]
            g.close(float(ent), float(-(lam * np.log2(lam)).sum()), OBSERVE_TOL,
                    f"oracle entropy l={l} vs its spectrum")


class Calibration:
    """A fixed kernel that never touches ringladder, timed between phases.

    The reference machine shares its cores, and its speed drifts by up to a
    third over minutes; every phase of a run moves with it.  Each run also
    times this kernel (an interpreter loop, a scatter-add and a sort, the
    kinds of work the phases do) and reports its times multiplied by
    CAL_REF_S over the kernel's median in the run: seconds of the machine at
    its reference speed.  The kernel is part of the benchmark, so no change
    to ringladder can move it.  The unscaled medians are printed and kept in
    the result file.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.src = rng.permutation(CAL_N)
        self.dst = rng.permutation(CAL_N)
        self.vals = rng.standard_normal(CAL_N)
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        out = np.zeros(CAL_N)
        np.add.at(out, self.dst, self.vals[self.src])
        np.sort(self.vals)
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.times)


def sample_phases(short: dict, sweep, seconds: float, cal: Calibration) -> dict:
    """Timed samples of every phase, interleaved around the sweep.

    The machine's speed drifts by tens of percent over periods of seconds,
    so no phase is sampled back to back.  Rounds of the short phases fill
    half of seconds (at least MIN_ROUNDS of them), the sweep runs once, and
    as many rounds again follow.  Within a round a phase repeats until it has
    filled SLICE_S, so millisecond phases collect dozens of samples, and then
    the calibration kernel runs.  A sweep that took at most a quarter of
    seconds (the small L = 6 one) joins the rounds after its first sample.
    """
    samples = {k: [] for k in short}
    samples["sweep_s"] = []

    def rounds(phases):
        start = time.perf_counter()
        n = 0
        while n < MIN_ROUNDS or time.perf_counter() - start < seconds / 2:
            for k, phase in phases.items():
                spent = 0.0
                while spent < SLICE_S:
                    samples[k].append(phase())
                    spent += samples[k][-1]
                cal.sample()
            n += 1

    rounds(short)
    samples["sweep_s"].append(sweep())
    if samples["sweep_s"][0] <= seconds / 4:
        short = {**short, "sweep_s": sweep}
    rounds(short)
    return samples


def machine(seed: int) -> dict:
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    rl = load_ringladder()
    from tracing import Tracer

    gate = Gate()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        p = Pipeline(rl, WORKLOADS[name], seed, tmp, gate)
        if not trace:
            cal = Calibration()
            samples = sample_phases(
                {"setup_s": p.setup, "measure_s": p.observe, "fm_oracle_s": p.oracle},
                p.sweep, seconds, cal,
            )
            unscaled = {k: statistics.median(v) for k, v in samples.items()}
            metrics = {k: (v * cal.scale(), "s") for k, v in unscaled.items()}
            record = {
                "samples": {k: len(v) for k, v in samples.items()},
                "unscaled_s": unscaled,
                "calibration": {"median_s": statistics.median(cal.times),
                                "samples": len(cal.times), "scale": cal.scale()},
            }
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (rss_mb, "MB")
            metrics["pass_frac"] = (1.0 - gate.failed / gate.attempted, "fraction")
        else:
            # each phase once untraced, then once traced: the per-layer
            # numbers come from the traced calls, and the ratio of the two
            # totals is the tracing cost.  Pairing per phase keeps the two
            # sides of each comparison close in time.
            tracer = Tracer()
            plain = traced = 0.0
            for run_id, phase in enumerate((p.setup, p.sweep, p.observe, p.oracle)):
                plain += phase()
                tracer.run_id = run_id
                with tracer.installed():
                    traced += phase()
            metrics = tracer.summary()
            metrics["trace.overhead_frac"] = (traced / plain - 1.0, "fraction")
            tracer.write_jsonl(OUT / f"spans-{name}-seed{seed}.jsonl")
            record = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = machine(seed)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"workload": name, "machine": info, **record, **result}, fh, indent=1)
    print("machine " + json.dumps(info))
    for key, value in record.items():
        print(f"{key} " + json.dumps(value))
    return result


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        *lines, last = proc.stdout.strip().splitlines()
        for line in lines:
            print(f"[{name}] {line}")
        res = json.loads(last)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=14)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for metric, m in result["metrics"].items():
            print(f"{metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
