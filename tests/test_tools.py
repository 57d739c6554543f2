"""The scripts in tools/, run on synthetic results or on the package itself."""

import copy
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringladder import (BlockSpec, LadderSpec, LadderTables, SweepConfig, build_sector,
                        run_sweep, symmetry_sectors, write_csv)
from ringladder.basis import LadderOrbits

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"

MACHINE = {"cores": 2, "numpy": "2.4.6", "scipy": "1.17.1"}


def result(path, workload, seed, metrics, machine=MACHINE):
    path.write_text(json.dumps({
        "workload": workload,
        "machine": {**machine, "seed": seed},
        "correct": True,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return str(path)


def run(tmp_path, before, after):
    out = tmp_path / "BENCH_1.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--before", *before, "--after", *after,
         "--out", str(out)],
        capture_output=True, text=True,
    )
    return proc, out


def test_bench_file_medians_quartiles_and_counters(tmp_path):
    before = [
        result(tmp_path / f"b{i}.json", "observe", i,
               {"measure_s": (t, "s"), "peak_rss_mb": (157.0, "MB")})
        for i, t in enumerate([4.0, 5.0, 4.5, 4.8, 4.6])
    ]
    before.append(result(tmp_path / "bt.json", "observe", 1,
                         {"basis.dim": (705432, "count"),
                          "entanglement.rdm_block_s": (3.1, "s")}))
    after = [result(tmp_path / "a0.json", "observe", 0,
                    {"measure_s": (1.6, "s"), "peak_rss_mb": (131.0, "MB")})]

    proc, out = run(tmp_path, before, after)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert bench["machine"] == MACHINE
    assert bench["seeds"] == {"before": [0, 1, 2, 3, 4], "after": [0]}
    m = bench["workloads"]["observe"]["measure_s"]
    assert m["unit"] == "s"
    assert m["before"] == {"median": 4.6, "q1": 4.5, "q3": 4.8, "runs": 5}
    assert m["after"] == {"median": 1.6, "q1": 1.6, "q3": 1.6, "runs": 1}
    assert "after" not in bench["workloads"]["observe"]["entanglement.rdm_block_s"]
    assert bench["counters"] == {
        "observe": {"peak_rss_mb": {"before": 157.0, "after": 131.0},
                    "basis.dim": {"before": 705432}},
    }


def test_bench_file_refuses_mixed_machines(tmp_path):
    before = [result(tmp_path / "b.json", "observe", 0, {"measure_s": (4.0, "s")})]
    after = [result(tmp_path / "a.json", "observe", 0, {"measure_s": (1.6, "s")},
                    machine={**MACHINE, "cores": 8})]
    proc, out = run(tmp_path, before, after)
    assert proc.returncode == 2
    assert "different machines" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("missing", ["before", "after"])
def test_bench_file_needs_both_sides(tmp_path, missing):
    f = result(tmp_path / "r.json", "observe", 0, {"measure_s": (4.0, "s")})
    argv = [sys.executable, str(SCRIPT), "--out", str(tmp_path / "o.json")]
    argv += ["--after" if missing == "before" else "--before", f]
    assert subprocess.run(argv, capture_output=True).returncode == 2


CSV_DIFF = SCRIPT.parent / "csv_diff.py"


def csv_diff(tmp_path, a: str, b: str | None):
    (tmp_path / "a.csv").write_text(a)
    if b is not None:
        (tmp_path / "b.csv").write_text(b)
    return subprocess.run(
        [sys.executable, str(CSV_DIFF), str(tmp_path / "a.csv"), str(tmp_path / "b.csv")],
        capture_output=True, text=True,
    )


GRID = "theta,E0,C_leg\n0.1,-1.5,\n0.2,-1.25,0.5\n0.3,-1.0,0.25\n"


def test_csv_diff_identical(tmp_path):
    proc = csv_diff(tmp_path, GRID, GRID)
    assert proc.returncode == 0, proc.stderr
    assert "byte-identical" in proc.stdout


def test_csv_diff_counts_cells_and_largest_delta(tmp_path):
    moved = "theta,E0,C_leg\n0.1,-1.5000000000001,\n0.2,-1.25,0.5\n0.3,-1.00000000001,x\n"
    proc = csv_diff(tmp_path, GRID, moved)
    assert proc.returncode == 1, proc.stderr
    cols = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[1:-1]}
    assert cols["theta"] == ["0", "-"]
    assert cols["E0"][0] == "2"
    assert float(cols["E0"][1]) == pytest.approx(1e-11, rel=1e-3)
    assert cols["C_leg"] == ["1", "-"]  # 0.25 against text: counted, no delta
    assert proc.stdout.splitlines()[-1] == "3 of 9 cells differ"


def test_csv_diff_same_cells_other_bytes(tmp_path):
    proc = csv_diff(tmp_path, GRID, GRID.replace("\n", "\r\n"))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == "0 of 9 cells differ"


def test_csv_diff_reads_gs_output_as_one_row(tmp_path):
    gs = "thetaOverPi = 0.1\nE0 = -1.5\nC_leg = n/a\ngap = 0.25\n"
    proc = csv_diff(tmp_path, gs, gs.replace("-1.5", "-1.5000000001"))
    assert proc.returncode == 1, proc.stderr
    cols = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[1:-1]}
    assert cols["thetaOverPi"] == ["0", "-"]
    assert cols["E0"][0] == "1"
    assert float(cols["E0"][1]) == pytest.approx(1e-10, rel=1e-3)
    assert proc.stdout.splitlines()[-1] == "1 of 4 cells differ"


ORACLE = (
    "N = 6\nfm_pair_concurrence = 0.2\n"
    "l,fm_entropy,fm_entropy_asymptotic\n1,1,0.97\n2,1.37,1.33\n3,1.52,1.44\n"
)


def test_csv_diff_reads_fm_oracle_output_as_two_tables(tmp_path):
    # the name = value lines form a one-row table, the CSV after them another
    proc = csv_diff(tmp_path, ORACLE, ORACLE.replace("1.37", "1.3700000001"))
    assert proc.returncode == 1, proc.stderr
    cols = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[1:-1]}
    assert list(cols) == ["N", "fm_pair_concurrence", "l", "fm_entropy",
                          "fm_entropy_asymptotic"]
    assert cols["N"] == ["0", "-"]
    assert cols["fm_entropy"][0] == "1"
    assert float(cols["fm_entropy"][1]) == pytest.approx(1e-10, rel=1e-3)
    assert proc.stdout.splitlines()[-1] == "1 of 11 cells differ"


@pytest.mark.parametrize("other", [
    pytest.param("theta,E0,C_diag\n0.1,-1.5,\n0.2,-1.25,0.5\n0.3,-1.0,0.25\n", id="header"),
    pytest.param("theta,E0,C_leg\n0.1,-1.5,\n0.2,-1.25,0.5\n", id="rows"),
    pytest.param("theta,E0,C_leg\n0.1,-1.5\n0.2,-1.25,0.5\n0.3,-1.0,0.25\n", id="ragged"),
    pytest.param(ORACLE, id="layout"),  # a name = value table before the CSV
    pytest.param(None, id="missing"),
])
def test_csv_diff_unreadable_or_unlike(tmp_path, other):
    proc = csv_diff(tmp_path, GRID, other)
    assert proc.returncode == 2
    assert proc.stderr.startswith("csv_diff: ")


def test_csv_diff_tol_accepts_numeric_moves_within_it(tmp_path):
    moved = GRID.replace("-1.25", "-1.2500000000004")
    (tmp_path / "a.csv").write_text(GRID)
    (tmp_path / "b.csv").write_text(moved)
    (tmp_path / "c.csv").write_text(moved.replace("0.25", "x"))

    def run(other, *tol):
        return subprocess.run(
            [sys.executable, str(CSV_DIFF), *tol, str(tmp_path / "a.csv"),
             str(tmp_path / other)],
            capture_output=True, text=True,
        )

    within = run("b.csv", "--tol", "1e-10")
    assert within.returncode == 0, within.stderr
    lines = within.stdout.splitlines()
    cols = {line.split()[0]: line.split()[1:] for line in lines[1:4]}
    assert cols["E0"][0] == "1"
    assert float(cols["E0"][1]) == pytest.approx(4e-13, rel=1e-2)
    assert lines[4] == "1 of 9 cells differ"
    assert run("b.csv").returncode == 1  # without --tol any difference fails
    assert run("b.csv", "--tol", "1e-14").returncode == 1
    # a cell that is not a number on both sides is outside every tolerance
    assert run("c.csv", "--tol", "1").returncode == 1


TABLE_DIGEST = SCRIPT.parent / "table_digest.py"


def test_table_digest_is_stable_and_sees_one_code():
    env = {**os.environ, "PYTHONPATH": str(SCRIPT.parents[1] / "src")}
    runs = [
        subprocess.run([sys.executable, str(TABLE_DIGEST), "--max-L", "4"],
                       capture_output=True, text=True, env=env)
        for _ in range(2)
    ]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    # periodic L = 3 and 4 and open L = 4 and 7, each with its symmetry sectors
    geometries = [("periodic", 3), ("periodic", 4), ("open", 4), ("open", 7)]
    n = sum(1 + len(symmetry_sectors(build_sector(2 * L, twoSz), bc))
            for bc, L in geometries for twoSz in (0, 2))
    # and one orbits line per group
    assert len(lines) == n + 2 * len(geometries) + 1
    assert lines[-1].startswith(f"total {n} tables ")

    spec = importlib.util.spec_from_file_location("table_digest", TABLE_DIGEST)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tables = LadderTables(LadderSpec(L=3), build_sector(6, 0))
    line = f"periodic L=3 twoSz=0 [plain] dim=20 nnz={len(tables.indices)} "
    at = lines.index(f"{line}{tool.digest(tables)} {tool.action_digest(tables)}")
    # the group's orbits follow its plain table; orbit_of is digested as int32
    group = LadderOrbits(build_sector(6, 0))
    assert lines[at + 1] == f"periodic L=3 twoSz=0 orbits=3 {tool.orbit_digest(group)}"
    group.orbit_of = group.orbit_of.astype(np.int64)
    assert tool.orbit_digest(group) not in runs[0].stdout
    # a stored zero, one more off-diagonal entry in row 0 whose pair has
    # factor 0, is seen by the table digest but not by the action digest
    padded = copy.copy(tables)
    padded.pair_code = np.append(tables.pair_code, tables.pair_code[tables.key[0]])
    padded.pair_factor = np.append(tables.pair_factor, 0.0)
    padded.indices = np.insert(tables.indices, 0, tables.indices[0])
    padded.key = np.insert(tables.key, 0, len(tables.pair_code))
    padded.indptr = tables.indptr + 1
    padded.indptr[0] = 0
    assert len(padded.indices) == len(tables.indices) + 1
    assert tool.digest(padded) != tool.digest(tables)
    assert tool.action_digest(padded) == tool.action_digest(tables)
    # one entry's key, so one off-diagonal value: both digests see it
    assert tables.key[0] != 0
    tables.key[0] += 1
    table, action = tool.digest(tables), tool.action_digest(tables)
    assert not any(table in ln or action in ln for ln in lines)


POINT_COST = SCRIPT.parent / "point_cost.py"


def test_point_cost_alternates_trees_and_feeds_bench_file(tmp_path):
    src = str(SCRIPT.parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, str(POINT_COST), "--before", src, "--after", src, "--pairs", "2",
         "--", "gs", "--rungs", "4", "--theta", "0.1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    runs = [line.split() for line in lines[1:5]]
    assert [(r[0], r[1]) for r in runs] == [
        ("before", "0"), ("after", "0"), ("after", "1"), ("before", "1"),
    ]
    assert len({r[4] for r in runs}) == 1  # one tree, so one output
    assert lines[5].startswith("before  median wall_s ")
    assert lines[7].startswith("after/before wall_s ")
    record = json.loads(lines[-1])
    assert record["command"] == ["gs", "--rungs", "4", "--theta", "0.1"]
    assert all(r["wall_s"] > 0 and r["peak_rss_mb"] > 0 for r in record["runs"])

    saved = tmp_path / "points.txt"
    saved.write_text(proc.stdout)
    before = [result(tmp_path / "b.json", "observe", 0, {"measure_s": (4.0, "s")})]
    after = [result(tmp_path / "a.json", "observe", 0, {"measure_s": (1.6, "s")})]
    out = tmp_path / "BENCH_1.json"
    bench = subprocess.run(
        [sys.executable, str(SCRIPT), "--before", *before, "--after", *after,
         "--points", str(saved), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert bench.returncode == 0, bench.stderr
    assert json.loads(out.read_text())["points"] == [record]


def test_point_cost_reports_a_failed_run():
    src = str(SCRIPT.parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, str(POINT_COST), "--before", src, "--after", src,
         "--", "gs", "--rungs", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("point_cost: ") and "exit status 2" in proc.stderr


PASS_MEMORY = SCRIPT.parent / "pass_memory.py"


def test_pass_memory_reports_every_pass():
    env = {**os.environ, "PYTHONPATH": str(SCRIPT.parents[1] / "src")}
    proc = subprocess.run([sys.executable, str(PASS_MEMORY), "--rungs", "6"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    record = json.loads(line)
    assert list(record) == ["dim", "build_sector", "plain_tables", "rdm_pair", "rdm_block",
                            "expectation_T", "symmetry_sectors", "expand", "sector_tables",
                            "tables_kept"]
    assert record["dim"] == 924
    assert all(record[k] > 0 for k in record)
    # the build's peak holds what it keeps
    assert record["sector_tables"] >= record["tables_kept"]


GRID_SCAN = SCRIPT.parent / "grid_scan.py"


def test_grid_scan_writes_one_sweep_csv_per_ladder(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("grid_scan", GRID_SCAN)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--max-L", "4", "--out", str(tmp_path)]) == 0
    ladders = [(bc, L, twoSz) for bc, Ls in (("periodic", (3, 4)), ("open", (1, 2, 3, 4)))
               for L in Ls for twoSz in (0, 2)]
    names = [f"{bc}_L{L}_twoSz{twoSz}.csv" for bc, L, twoSz in ladders]
    assert capsys.readouterr().out.split() == names
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    thetas = [f"{t:.12g}" for t in tool.THETAS]
    assert len(thetas) == 40 and thetas[0] == "-1" and thetas[-1] == "0.95"
    for name, (_, L, _) in zip(names, ladders):
        with open(tmp_path / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == thetas
        assert header[8] == f"Ev_D{min(3, L)}"
    # a file is the sweep's own CSV of that ladder
    want = io.StringIO()
    cfg = SweepConfig(L=3, bc="open", twoSz=2, thetas_over_pi=tool.THETAS,
                      blocks=(BlockSpec("D", 3),))
    write_csv(run_sweep(cfg), cfg.blocks, want)
    assert (tmp_path / "open_L3_twoSz2.csv").read_text() == want.getvalue()
    # the one-rung ladder has the rung pair alone
    with open(tmp_path / "open_L1_twoSz0.csv", newline="") as fh:
        assert all(row[4:6] == ["", ""] for row in list(csv.reader(fh))[1:])


SCREEN_REPLAY = SCRIPT.parent / "screen_replay.py"


def test_screen_replay_counts_overshoots_and_wrong_screens(monkeypatch, capsys):
    # no sector of a ladder this small holds more than DENSE_MAX_DIM states,
    # so the threshold is lowered: at periodic L = 5 the 14-state sectors
    # (and up) are bounded, and their passes see the whole Krylov space
    spec = importlib.util.spec_from_file_location("screen_replay", SCREEN_REPLAY)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    eigensolver = tool.eigensolver
    monkeypatch.setattr(eigensolver, "DENSE_MAX_DIM", 12)
    big = sum(s.dim > 12 for s in symmetry_sectors(build_sector(10, 0)))
    assert big > 0
    assert tool.main(["--rungs", "5", "--seeds", "0", "3", "--theta-step", "0.25"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["seed", "points", "overshoots"]
    assert header.split()[-2:] == ["pass_s", "matvec_s"]
    assert [line.split()[:5] for line in lines] == [
        [seed, str(8 * big), "0", "0.000e+00", "-"] for seed in ("0", "3")
    ]
    for line in lines:
        pass_s, matvec_s = map(float, line.split()[-2:])
        assert pass_s >= matvec_s > 0

    def lowest(applyH, dim):
        return float(np.linalg.eigvalsh(np.column_stack([applyH(e) for e in np.eye(dim)]))[0])

    # bounds 1e-11 above each lowest level all overshoot, by that much, and
    # 1e-13 above none; bounds far above every level screen the sector of E0
    # wrongly at every theta
    for shift, over in ((1e-11, 8 * big), (1e-13, 0)):
        monkeypatch.setattr(eigensolver, "ritz_bound",
                            lambda applyH, dim, seed: (lowest(applyH, dim) + shift, 1))
        (rec,) = tool.replay(5, [0], 0.25)
        assert (rec["points"], rec["overshoots"], rec["matvecs"]) == (8 * big, over, 8 * big)
        assert rec["worst"] == (pytest.approx(1e-11, rel=1e-3) if over else 0.0)
        # the fake pass's time is its dense solve, whose matvecs are timed
        assert rec["pass_s"] >= rec["matvec_s"] > 0
    monkeypatch.setattr(eigensolver, "DENSE_MAX_DIM", 0)
    monkeypatch.setattr(eigensolver, "ritz_bound", lambda applyH, dim, seed: (np.inf, 1))
    (rec,) = tool.replay(5, [0], 0.25)
    assert rec["wrong"] >= 8 and rec["margin"] <= 0
    assert rec["pass_s"] > 0 and rec["matvec_s"] == 0.0
