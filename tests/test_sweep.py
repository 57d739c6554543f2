import collections
import csv
import dataclasses
import gc
import importlib
import io
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from conftest import geometry, ground_state, solve
from ringladder import (
    BlockSpec,
    Couplings,
    HamiltonianAction,
    LadderSpec,
    SweepConfig,
    block_sites,
    build_sector,
    concurrence,
    couplings_from_theta,
    enumerate_terms,
    expectation_T,
    find_extrema,
    find_zero_crossing,
    lowest_eigenpairs,
    reduced_density_matrix,
    run_sweep,
    sweep,
    theta_grid,
    write_csv,
)
from ringladder.cli import main


def crossing_bonds(spec, sites):
    rung, leg, _ = enumerate_terms(spec)
    inside = set(sites)
    nr = sum((a in inside) != (b in inside) for a, b in rung)
    nl = sum((a in inside) != (b in inside) for a, b in leg)
    return nr, nl


def test_block_family_a():
    spec = LadderSpec(L=6)
    sites = block_sites("A", 4, spec)
    assert sites == [0, 1, 2, 3]
    nr, nl = crossing_bonds(spec, sites)
    assert (nr, nl) == (0, 4)
    # boundary stays at 4 leg bonds for any size
    for l in (2, 4, 6):
        _, nl = crossing_bonds(spec, block_sites("A", l, spec))
        assert nl == 4


def test_block_family_b():
    spec = LadderSpec(L=6)
    sites = block_sites("B", 4, spec)
    assert sites == [spec.site(1, 1), spec.site(2, 1), spec.site(1, 3), spec.site(2, 3)]
    nr, nl = crossing_bonds(spec, sites)
    assert nr == 0 and nl == 2 * 4  # every stripe rung exposes both leg sides


def test_block_family_c():
    spec = LadderSpec(L=6)
    assert block_sites("C", 2, spec) == [spec.site(1, 1), spec.site(2, 2)]
    assert block_sites("C", 5, spec) == [
        spec.site(1, 1), spec.site(2, 2), spec.site(1, 3),
        spec.site(2, 4), spec.site(1, 5),
    ]


def test_block_family_d():
    spec = LadderSpec(L=6)
    sites = block_sites("D", 3, spec)
    assert sites == [spec.site(1, r) for r in (1, 2, 3)]
    nr, nl = crossing_bonds(spec, sites)
    assert (nr, nl) == (3, 2)


def test_block_validation():
    spec = LadderSpec(L=6)
    with pytest.raises(ValueError):
        block_sites("A", 3, spec)  # odd
    with pytest.raises(ValueError):
        block_sites("A", 8, spec)  # above N/2
    with pytest.raises(ValueError):
        block_sites("B", 8, spec)  # l/2 above ceil(L/2)
    with pytest.raises(ValueError):
        block_sites("C", 7, spec)
    with pytest.raises(ValueError):
        block_sites("D", 0, spec)
    with pytest.raises(ValueError):
        block_sites("E", 2, spec)
    with pytest.raises(ValueError):
        BlockSpec(family="Q", l=2)


def test_theta_grid():
    grid = theta_grid(0.10, 0.20, 0.02)
    assert np.allclose(grid, [0.10, 0.12, 0.14, 0.16, 0.18, 0.20])
    assert len(theta_grid(0.0, 0.0, 0.01)) == 1
    with pytest.raises(ValueError):
        theta_grid(0.0, 0.05, 0.02)
    with pytest.raises(ValueError, match="step"):
        theta_grid(0.0, 0.05, 0.0)


def run_small_sweep(**kw):
    # even L: odd periodic rings can have a degenerate ground state (g = 3 at
    # L = 3, theta = 0.1 pi), which would trip the degeneracy assertions below
    cfg = SweepConfig(
        L=4,
        thetas_over_pi=theta_grid(0.10, 0.18, 0.02),
        blocks=(BlockSpec("A", 2), BlockSpec("D", 2)),
        seed=0,
        **kw,
    )
    return cfg, run_sweep(cfg)


def test_sweep_records_and_derivative():
    cfg, recs = run_small_sweep()
    assert len(recs) == 5
    assert recs[0].dEr_dtheta is None and recs[-1].dEr_dtheta is None
    for i in (1, 2, 3):
        num = (recs[i + 1].E_rung2site - recs[i - 1].E_rung2site) / (0.04 * math.pi)
        assert recs[i].dEr_dtheta == pytest.approx(num, rel=1e-12)
    for r in recs:
        assert r.degenerate is False
        assert set(r.Ev) == {"A2", "D2"}
        assert r.C_rung is not None and 0.0 <= r.C_rung <= 1.0
        assert math.isfinite(r.T_expect)


def test_derivative_is_empty_where_the_neighbours_share_theta(tmp_path):
    # the neighbours of index 2 both sit at 0.2 pi, so there is no central
    # difference there: the cell is left empty, as at the end points
    out = tmp_path / "sweep.csv"
    recs = run_sweep(SweepConfig(L=3, thetas_over_pi=(0.1, 0.2, 0.3, 0.2), out=str(out)))
    assert [r.dEr_dtheta is None for r in recs] == [True, False, True, True]
    rows = list(csv.reader(out.open()))
    assert [row[7] for row in rows[1:]] == ["", format(recs[1].dEr_dtheta, ".12g"), "", ""]


def test_open_ladder_pairs_are_bulk():
    # open ladders anchor the pairs at the middle rung ceil(L/2), not at the
    # edge, where C_leg is 0.029 at this point against 0.081 in the bulk
    spec = LadderSpec(L=6, bc="open")
    (rec,) = run_sweep(SweepConfig(L=6, thetas_over_pi=(0.1,), bc="open"))
    psi = ground_state(6, 0.1, bc="open")
    s = spec.site
    bulk_leg = concurrence(reduced_density_matrix(psi, (s(1, 3), s(1, 4))))
    assert rec.C_leg == pytest.approx(bulk_leg, abs=1e-9)
    assert rec.C_leg > 0.05


def test_sweep_pair_selection():
    cfg = SweepConfig(
        L=3, thetas_over_pi=(0.1,), pairs=("rung",), seed=0
    )
    rec = run_sweep(cfg)[0]
    assert rec.C_rung is not None
    assert rec.C_leg is None and rec.C_diag is None


def test_sweep_window_gate():
    # no theta is refused: the edges of the removed uniqueness window
    # (-0.40 pi, 0.95 pi) and the ferromagnetic point run, and each ground
    # state there is unique
    recs = run_sweep(SweepConfig(L=4, thetas_over_pi=(-0.40, 0.96, 1.0)))
    assert [r.degenerate for r in recs] == [False, False, False]


@pytest.mark.parametrize("L, twoSz, theta, g", [(3, 0, 0.1, 3), (5, 2, 0.0, 2)])
def test_degenerate_rows_do_not_depend_on_seed(L, twoSz, theta, g):
    # a degenerate point is measured on its manifold average, which no basis
    # choice inside the manifold can change; the reference is Lanczos on the
    # whole L = 5, twoSz = 2 sector (dim 210), the sweep solves its symmetry
    # sectors
    ref = solve(L, theta, twoSz=twoSz, k=g + 1)
    assert ref.multiplicity == g
    blocks = (BlockSpec("A", 2), BlockSpec("D", 3))
    rows = []
    for seed in range(5):
        (rec,) = run_sweep(SweepConfig(L=L, thetas_over_pi=(theta,), twoSz=twoSz,
                                       blocks=blocks, seed=seed))
        assert rec.degenerate is True
        # the gap is to the first level above the manifold, not inside it
        assert rec.gap == pytest.approx(ref.energies[g] - ref.energies[0], abs=1e-10)
        assert rec.gap > 0.1
        rows.append([rec.E0, rec.gap, rec.C_rung, rec.C_leg, rec.C_diag,
                     rec.E_rung2site, rec.Ev["A2"], rec.Ev["D3"], rec.T_expect])
    assert np.max(np.abs(np.array(rows) - rows[0])) <= 1e-10


def test_theta_pi_concurrences_all_equal():
    cfg = SweepConfig(L=4, thetas_over_pi=(1.0,), seed=0)
    rec = run_sweep(cfg)[0]
    expect = 1.0 / 7.0
    assert rec.C_rung == pytest.approx(expect, abs=1e-8)
    assert rec.C_leg == pytest.approx(expect, abs=1e-8)
    assert rec.C_diag == pytest.approx(expect, abs=1e-8)


def test_rung_concurrence_dominates_at_theta_zero():
    cfg = SweepConfig(L=6, thetas_over_pi=(0.0,), seed=0)
    rec = run_sweep(cfg)[0]
    assert rec.C_rung > rec.C_leg
    assert rec.C_rung > rec.C_diag


def test_csv_round_trip_and_format():
    cfg, recs = run_small_sweep()
    buf = io.StringIO()
    write_csv(recs, cfg.blocks, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == [
        "thetaOverPi", "E0", "gap", "C_rung", "C_leg", "C_diag",
        "E_rung2site", "dEr_dtheta", "Ev_A2", "Ev_D2", "T_expect", "degenerate",
    ]
    assert len(rows) == 1 + len(recs)
    assert rows[1][7] == ""  # no derivative at the first grid point
    assert float(rows[2][7]) == pytest.approx(recs[1].dEr_dtheta, rel=1e-11)
    # 12 significant digits on float fields
    assert rows[1][1] == format(recs[0].E0, ".12g")
    assert rows[1][11] == "0"


@pytest.mark.parametrize("bc, sectors", [("periodic", 17), ("open", 8)])
def test_diagnostics_count_every_solve_and_leave_the_csv_alone(monkeypatch, bc, sectors):
    solves = []
    solve = sweep.lowest_eigenpairs

    def recording(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(sweep, "lowest_eigenpairs", recording)
    blocks = (BlockSpec("A", 2),)
    recs = []
    for t in (0.1, 0.2):
        done = len(solves)
        (rec,) = run_sweep(SweepConfig(L=4, thetas_over_pi=(t,), bc=bc, blocks=blocks))
        mine = solves[done:]
        d = rec.diagnostics
        assert set(d) == {
            "sectors", "bounded", "screened", "matvecs", "residual_max", "g", "layouts",
            "solve_s", "measure_s", "peak_rss_mb",
        }
        assert d["sectors"] == sectors and len(mine) >= sectors
        assert d["bounded"] == d["screened"] == 0  # every sector is dense
        assert d["matvecs"] == sum(res.matvecs for res in mine)
        assert d["residual_max"] == max(float(res.residuals.max()) for res in mine)
        assert d["g"] == 1 and not rec.degenerate
        assert d["solve_s"] > 0 and d["measure_s"] > 0
        assert d["peak_rss_mb"] > 0
        recs.append(rec)

    # the CSV holds no trace of the diagnostics
    plain = [dataclasses.replace(r, diagnostics={}) for r in recs]
    assert plain == recs  # diagnostics take no part in comparisons either
    a, b = io.StringIO(), io.StringIO()
    write_csv(recs, blocks, a)
    write_csv(plain, blocks, b)
    assert a.getvalue() == b.getvalue()
    assert "diag" not in a.getvalue().splitlines()[0].replace("C_diag", "")


def test_screened_sectors_count_every_matvec(monkeypatch):
    # at periodic L = 8 most sectors are settled by their Ritz bound; the
    # matvecs of those loose passes count, as a wrapper on the action sees
    # them, but their 1e-3 residuals stay out of residual_max
    calls = 0
    matvec = HamiltonianAction.matvec

    def counting(self, v):
        nonlocal calls
        calls += 1
        return matvec(self, v)

    monkeypatch.setattr(HamiltonianAction, "matvec", counting)
    for t in (0.1, 0.5):
        done = calls
        (rec,) = run_sweep(SweepConfig(L=8, thetas_over_pi=(t,), blocks=(BlockSpec("A", 2),)))
        d = rec.diagnostics
        assert 0 < d["screened"] < d["sectors"]
        assert d["matvecs"] == calls - done
        assert d["residual_max"] < 1e-10


def test_sector_without_a_bound_is_solved(monkeypatch):
    # a loose pass that does not converge bounds its sector at -inf, so the
    # sector is solved to machine precision; with no bound at all every
    # sector is solved, and the record is the screened run's to the bit.  At
    # L = 7, twoSz = 2 every sector holds more than DENSE_MAX_DIM states; at
    # twoSz = 0 some hold fewer, and those are solved in both runs
    configs = [
        SweepConfig(L=7, thetas_over_pi=(0.3,), twoSz=twoSz, blocks=(BlockSpec("D", 4),))
        for twoSz in (2, 0)
    ]
    screened = [run_sweep(cfg)[0] for cfg in configs]
    monkeypatch.setattr(sweep, "ritz_bound", lambda applyH, dim, seed: (-np.inf, 0))
    for cfg, bounded in zip(configs, screened):
        (solved,) = run_sweep(cfg)
        assert bounded.diagnostics["screened"] > 0 == solved.diagnostics["screened"]
        assert solved == bounded


@pytest.mark.parametrize("L, twoSz, thetas, workers", [
    (8, 0, theta_grid(0.14, 0.16, 0.001), 1),  # criterion 1's grid
    (6, 0, theta_grid(-0.3, 0.9, 0.03), 1),  # dense sectors only
    (7, 0, theta_grid(-0.3, 0.9, 0.02), 1),  # dense and bounded sectors
    (7, 2, theta_grid(-0.3, 0.9, 0.02), 1),  # bounded sectors only
    (7, 0, theta_grid(0.9, -0.3, -0.1), 1),  # descending
    (7, 2, (0.1, 0.1, 0.15, 0.2, 0.2, 0.3), 1),  # repeated theta
    (7, 0, theta_grid(-1.0, 0.9, 0.1), 1),  # spans more than pi
    (7, 2, theta_grid(-0.3, 0.9, 0.1), 2),  # one visiting order per chunk
], ids=["L8-criterion-1", "L6-dense", "L7-mixed", "L7-bounded", "descending", "repeated",
        "over-pi", "workers-2"])
def test_chords_change_no_output(monkeypatch, L, twoSz, thetas, workers):
    # a chord only settles sectors that hold no ground state and not E_g,
    # so the records equal those of every point solved with no floor, to
    # the bit, while most loose passes are left out.  At L = 6 every sector
    # is dense and takes no loose pass, so only a chord screens it
    blocks = (BlockSpec("D", 3),)
    cfg = SweepConfig(L=L, thetas_over_pi=thetas, twoSz=twoSz, blocks=blocks, workers=workers)
    chords = run_sweep(cfg)
    # in grid order no point of these grids lies between two solved ones
    monkeypatch.setattr(sweep, "_bisection", lambda n: list(range(n)))
    alone = run_sweep(dataclasses.replace(cfg, workers=1))
    assert chords == alone
    assert [sweep.record_row(r, blocks) for r in chords] == [
        sweep.record_row(r, blocks) for r in alone
    ]
    bounded = [sum(r.diagnostics["bounded"] for r in recs) for recs in (chords, alone)]
    screened = [sum(r.diagnostics["screened"] for r in recs) for recs in (chords, alone)]
    if L == 6:
        assert bounded == [0, 0] and screened[0] > 0 == screened[1]
    else:
        assert bounded[0] < bounded[1]
    if L == 8:  # at most a quarter of the 28 loose passes per point
        assert bounded[0] <= len(thetas) * 28 / 4


@pytest.mark.parametrize("L, bc, twoSz, thetas, workers", [
    (6, "periodic", 0, theta_grid(-0.3, 0.9, 0.3), 1),
    (6, "periodic", 2, theta_grid(-0.3, 0.9, 0.3), 1),
    (7, "periodic", 0, theta_grid(-0.3, 0.9, 0.3), 1),
    (7, "periodic", 2, theta_grid(-0.3, 0.9, 0.3), 1),
    (8, "periodic", 0, theta_grid(-0.3, 0.9, 0.3), 1),
    (8, "periodic", 2, theta_grid(-0.3, 0.9, 0.3), 1),
    (5, "open", 0, theta_grid(-0.3, 0.9, 0.3), 1),
    (3, "periodic", 0, (0.1, 0.1), 1),  # g = 3
    (7, "periodic", 2, (0.75, 0.75), 1),  # g = 2, a k, -k pair
    (7, "periodic", 2, (0.75,), 1),  # a lone point keeps no layout
    (7, "periodic", 0, theta_grid(-0.3, 0.9, 0.1), 2),
], ids=["L6-0", "L6-2", "L7-0", "L7-2", "L8-0", "L8-2", "open-L5", "g3", "g2", "lone",
        "workers-2"])
def test_chunk_layouts_change_no_output(monkeypatch, L, bc, twoSz, thetas, workers):
    # every state of every point reads its RDMs through the layouts its
    # chunk built at its first point, to the bit of a layout built per call
    blocks = (BlockSpec("A", 2), BlockSpec("B", 4), BlockSpec("C", 3), BlockSpec("D", 3))
    cfg = SweepConfig(L=L, thetas_over_pi=thetas, bc=bc, twoSz=twoSz, blocks=blocks,
                      workers=workers)
    kept = run_sweep(cfg)
    rdm = sweep.reduced_density_matrix
    monkeypatch.setattr(sweep, "reduced_density_matrix", lambda psi, layout: rdm(psi, layout.sites))
    fresh = run_sweep(dataclasses.replace(cfg, workers=1))
    assert kept == fresh
    assert [sweep.record_row(r, blocks) for r in kept] == [
        sweep.record_row(r, blocks) for r in fresh
    ]
    # the rung, leg, diag, B4, C3 and D3 sites, and A2 unless it is the
    # rung; a lone point builds one layout per RDM
    distinct = 6 if bc == "periodic" and len(thetas) > 1 else 7
    built = sorted((r.diagnostics["layouts"] for r in kept), reverse=True)
    assert built == [distinct] * workers + [0] * (len(thetas) - workers)
    assert kept[-1].degenerate == (thetas in {(0.1, 0.1), (0.75, 0.75), (0.75,)})


@pytest.mark.parametrize("thetas, live", [
    ((0.1,), [1] * 7),
    ((0.1, 0.2), [1, 2, 3, 3, 4, 5, 6] + [6] * 7),  # A2 is the rung pair
])
def test_a_lone_point_holds_one_layout_at_a_time(monkeypatch, thetas, live):
    # a chunk of more than one point keeps every layout it built; a lone
    # point, as `gs` runs, drops each with its RDM
    layouts = weakref.WeakSet()

    class Counted(sweep.BlockLayout):
        def __init__(self, basis, sites):
            super().__init__(basis, sites)
            layouts.add(self)

    seen = []
    manifold_rdm = sweep._manifold_rdm

    def counting(states, layout):
        seen.append(len(layouts))
        return manifold_rdm(states, layout)

    monkeypatch.setattr(sweep, "BlockLayout", Counted)
    monkeypatch.setattr(sweep, "_manifold_rdm", counting)
    blocks = (BlockSpec("A", 2), BlockSpec("B", 4), BlockSpec("C", 3), BlockSpec("D", 3))
    run_sweep(SweepConfig(L=5, thetas_over_pi=thetas, blocks=blocks))
    assert seen == live


def test_chord_floor_reaches_only_between_its_ends():
    # the first and the last point have a solved point on one side at most;
    # every later point is the midpoint of the nearest points visited before
    # it on each side, the ends of its interval
    assert sweep._bisection(9) == [0, 8, 4, 2, 6, 1, 3, 5, 7]
    for n in range(12):
        order = sweep._bisection(n)
        assert sorted(order) == list(range(n)) and order[:2] == [0, n - 1][:n]
        for k, i in enumerate(order[2:], 2):
            left = max(j for j in order[:k] if j < i)
            right = min(j for j in order[:k] if j > i)
            assert i == (left + right) // 2


def test_solver_chords_from_the_nearest_solved_points(monkeypatch):
    # in any order of theta, a point starts from the chord of the nearest
    # solved point on each side; the floors leave loose passes out and
    # change no level
    spec = LadderSpec(L=7)
    basis = build_sector(spec.N, 2)
    cfg = SweepConfig(L=7, thetas_over_pi=(0.1,), twoSz=2)
    chords = []
    chord = sweep._chord

    def recording(theta, left, right):
        chords.append(tuple(round(t / math.pi, 12) for t in (theta, left[0], right[0])))
        return chord(theta, left, right)

    monkeypatch.setattr(sweep, "_chord", recording)
    solve = sweep._solver(spec, basis)
    bounded = []
    for t in (0.1, 0.9, 0.5, 0.3, 0.7):
        ground = solve(t * math.pi, cfg)
        fresh = sweep._solver(spec, basis)(t * math.pi, cfg)  # solves nothing before
        assert (ground.E0, ground.gap) == (fresh.E0, fresh.gap)
        bounded.append((ground.bounded, fresh.bounded))
    assert chords == [(0.5, 0.1, 0.9), (0.3, 0.1, 0.5), (0.7, 0.5, 0.9)]
    assert bounded == [(10, 10)] * 3 + [(3, 10), (4, 10)]


@pytest.mark.parametrize("L", (6, 8))
def test_solver_memory_serves_a_root_finder(L):
    # a bounded minimize_scalar places theta freely and finds the extremum
    # of E_rung2site at theta_c = arctan(1/2), a maximum at L = 6 and a
    # minimum at L = 8; the solver's memory floors each iterate from those
    # before it, which takes fewer matvecs and moves no iterate
    spec = LadderSpec(L=L)
    basis = build_sector(spec.N, 0)
    cfg = SweepConfig(L=L, thetas_over_pi=(0.15,), pairs=("rung",))
    sign = -1 if L == 6 else 1
    found, matvecs, runs = [], [], []
    for memory in (True, False):
        solve, layouts, records = sweep._solver(spec, basis), {}, []

        def entropy(t):
            rec = sweep._measure(spec, solve if memory else sweep._solver(spec, basis), cfg, t,
                                 layouts if memory else {})
            records.append(rec)
            return sign * rec.E_rung2site

        res = scipy.optimize.minimize_scalar(
            entropy, method="bounded", bounds=(0.14, 0.16), options={"xatol": 1e-10}
        )
        found.append(res.x)
        matvecs.append(sum(r.diagnostics["matvecs"] for r in records))
        runs.append(records)
    assert abs(found[0] - math.atan(0.5) / math.pi) <= 1e-8
    assert found[0] == found[1]
    assert matvecs[0] < matvecs[1]
    # the rung's layout, built at the first iterate, serves every later one
    assert runs[0] == runs[1]
    assert [sweep.record_row(r, ()) for r in runs[0]] == [sweep.record_row(r, ()) for r in runs[1]]
    assert [r.diagnostics["layouts"] for r in runs[0]] == [1] + [0] * (len(runs[0]) - 1)
    assert [r.diagnostics["layouts"] for r in runs[1]] == [1] * len(runs[1])


@pytest.mark.parametrize("L, bc, matvecs", [
    (6, "periodic", [26, 26, 17, 26]),
    (4, "open", [10, 10, 7, 10]),
])
def test_nothing_to_screen_costs_no_matvec(L, bc, matvecs):
    # the sectors of periodic L = 6 (at most 48 states) and of open L = 4
    # (at most 17) are all dense, so neither takes a loose pass: the matvecs
    # are those of the solves alone.  Only the point at 0.5 pi has a chord,
    # from 0.1 pi and 0.9 pi (that of 0.1 pi spans more than pi); it leaves
    # 9 dense sectors unsolved at L = 6 and 3 at open L = 4
    recs = run_sweep(SweepConfig(L=L, bc=bc, thetas_over_pi=(-0.3, 0.1, 0.5, 0.9)))
    screened = [0, 0, 9, 0] if bc == "periodic" else [0, 0, 3, 0]
    assert [r.diagnostics["screened"] for r in recs] == screened
    assert [r.diagnostics["matvecs"] for r in recs] == matvecs


def test_lone_sector_starts_at_k_2():
    # the whole Sz sector, the tests' reference, is _solve's only sector, so
    # it holds E0 and is solved once at k = 2, with no k = 1 solve before
    # it; dim 70 is above DENSE_MAX_DIM, so both solves below run Lanczos
    _, basis, tables = geometry(4, "open")
    couplings = couplings_from_theta(0.1 * math.pi)
    cfg = SweepConfig(L=4, thetas_over_pi=(0.1,), bc="open")
    ground = sweep._solve(basis, [tables], couplings, cfg)
    action = HamiltonianAction(tables, couplings)
    direct = lowest_eigenpairs(action.matvec, basis.dim, k=2, matrix=action.H)
    assert basis.dim == 70 and direct.multiplicity == 1
    assert ground.sectors == 1
    assert ground.matvecs == direct.matvecs
    assert ground.E0 == direct.energies[0]


@pytest.mark.parametrize("L, t", [(8, -0.3), (8, 0.1), (8, 0.5), (8, 0.9), (6, 0.1), (7, 0.1)])
def test_solve_holds_few_actions(monkeypatch, L, t):
    # each loose pass and each exact solve builds its sector's action and
    # drops it when it returns, so one action at a time is alive.  Every
    # sector is built once for its loose pass or its first solve; the one
    # holding E0 is built again for its widening and, when bounded, for its
    # first solve.  At L = 6 every sector is dense, at L = 7 some are and
    # the rest are bounded, and at L = 8 all are bounded.  Each sector
    # holding a ground level is built once more, as T, for <T>
    live = most = exact = 0
    builds, rungs = collections.Counter(), collections.Counter()
    build = sweep.HamiltonianAction
    solve = sweep.lowest_eigenpairs

    def dead():
        nonlocal live
        live -= 1

    def counting(tables, couplings):
        nonlocal live, most
        action = build(tables, couplings)
        weakref.finalize(action, dead)
        live += 1
        most = max(most, live)
        (rungs if couplings == Couplings(Jl=0, Jr=1, K=0) else builds)[id(tables)] += 1
        return action

    def solving(*args, **kwargs):
        nonlocal exact
        exact += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(sweep, "HamiltonianAction", counting)
    monkeypatch.setattr(sweep, "lowest_eigenpairs", solving)
    (rec,) = run_sweep(SweepConfig(L=L, thetas_over_pi=(t,)))
    d = rec.diagnostics
    assert most == 1
    assert live == 0 and len(builds) == d["sectors"]
    assert sum(builds.values()) == d["bounded"] + exact
    assert set(builds.values()) == ({1, 2} if L == 6 else {1, 2, 3})
    assert set(rungs.values()) == {1} and set(rungs) <= set(builds)
    assert 1 <= len(rungs) <= d["g"]


@pytest.mark.parametrize("L, bc, twoSz, t, g", [
    (6, "periodic", 0, 0.1, 1),
    (5, "open", 0, 0.3, 1),
    (6, "periodic", 2, -0.3, 1),
    (4, "open", 2, 0.6, 1),
    (3, "periodic", 0, 0.3, 3),  # levels of three sectors
    (2, "open", 0, 0.5, 2),  # two levels whose <T> differ by 0.5
    (7, "periodic", 2, 0.75, 2),  # the two rows of a two-dimensional irrep
    (4, "periodic", 8, 0.3, 1),  # the one fully polarised state
    (4, "open", 8, 0.3, 1),
])
def test_T_expect_is_read_in_the_solved_sectors(monkeypatch, L, bc, twoSz, t, g):
    # <T> comes from each sector's H at (Jl, Jr, K) = (0, 1, 0), weighted by
    # its irrep's rows; the oracle, for the symmetry sectors and the
    # whole-sector reference alike, is expectation_T on every expanded state
    spec = LadderSpec(L, bc)
    basis = build_sector(spec.N, twoSz)
    cfg = SweepConfig(L=L, bc=bc, thetas_over_pi=(t,), twoSz=twoSz, pairs=("rung",))
    whole = [sweep.LadderTables(spec, basis)]
    ground = sweep._solver(spec, basis)(t * math.pi, cfg)
    reference = sweep._solve(basis, whole, couplings_from_theta(t * math.pi), cfg)
    for solved in (reference, ground):
        oracle = [expectation_T(psi) for psi in solved.states]
        assert solved.T_expect == pytest.approx(np.mean(oracle), abs=1e-12)
    assert len(oracle) == g
    if (L, twoSz) == (7, 2):  # T commutes with the group: each row has the mean
        assert oracle == pytest.approx([ground.T_expect] * g, abs=1e-12)
    if twoSz == spec.N:
        assert ground.T_expect == pytest.approx(L / 4, abs=1e-12)

    def forbidden(psi):
        raise AssertionError("the sweep measured <T> on an expanded state")

    monkeypatch.setattr(sweep, "expectation_T", forbidden)
    (rec,) = run_sweep(cfg)
    assert rec.T_expect == ground.T_expect


def test_solve_memory_stays_near_its_states():
    # one L = 9 point holds the values of one sector at a time, not those
    # of all 30 sectors (8.6 MB)
    spec = LadderSpec(L=9)
    basis = build_sector(spec.N, 0)
    solve = sweep._solver(spec, basis)
    tracemalloc.start()
    try:
        ground = solve(0.1 * math.pi, SweepConfig(L=9, thetas_over_pi=(0.1,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ground.screened
    assert peak < 4 * 2**20


def test_sweep_keeps_no_orbits(monkeypatch):
    # the representative rows that every sector's tables read live with
    # their group, so nothing holds the group after the sweep
    groups = []
    sectors = sweep.symmetry_sectors

    def recording(basis, bc):
        found = sectors(basis, bc)
        groups.append(weakref.ref(found[0].group))
        return found

    monkeypatch.setattr(sweep, "symmetry_sectors", recording)
    run_sweep(SweepConfig(L=4, thetas_over_pi=(0.1,)))
    gc.collect()
    assert len(groups) == 1 and groups[0]() is None


def test_sweep_deterministic():
    _, a = run_small_sweep()
    _, b = run_small_sweep()
    for ra, rb in zip(a, b):
        assert ra == rb


def test_sweep_parallel_matches_sequential(tmp_path):
    cfg = SweepConfig(L=3, thetas_over_pi=(0.10, 0.12, 0.14), seed=0)
    seq = run_sweep(cfg)
    par = run_sweep(
        SweepConfig(L=3, thetas_over_pi=(0.10, 0.12, 0.14), seed=0, workers=2)
    )
    for ra, rb in zip(seq, par):
        assert ra.E0 == rb.E0
        assert ra.E_rung2site == rb.E_rung2site


@pytest.mark.parametrize("workers", (1, 2))
def test_sweep_failure_names_theta(workers):
    # no eigensolver meets a 1e-30 residual, so the first grid point fails
    cfg = SweepConfig(L=3, thetas_over_pi=(0.10, 0.12), tol=1e-30, workers=workers)
    with pytest.raises(RuntimeError, match=r"sweep failed at theta = 0\.1\*pi"):
        run_sweep(cfg)


def test_sweep_config_validation(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        SweepConfig(L=3, thetas_over_pi=(0.1,), workers=0)
    with pytest.raises(ValueError, match="pair kind"):
        SweepConfig(L=3, thetas_over_pi=(0.1,), pairs=("rung", "cross"))
    # a block that does not fit the ladder is refused before any solve
    with pytest.raises(ValueError, match="family D needs l in 1..4, got 9"):
        SweepConfig(L=4, thetas_over_pi=(0.0,), blocks=(BlockSpec("D", 9),))
    # and so is one that fits the ladder but exceeds the block RDM's cap
    with pytest.raises(ValueError, match="block size capped at 14 sites, got 15"):
        SweepConfig(L=15, bc="open", thetas_over_pi=(0.0,), blocks=(BlockSpec("D", 15),))
    with pytest.raises(ValueError, match="theta"):
        SweepConfig(L=3, thetas_over_pi=(0.1, 1e308))
    # a ladder that LadderSpec refuses is refused here, before any pool starts
    for ladder, message in (({"L": 2}, "periodic boundary requires L >= 3"),
                            ({"L": 0, "bc": "open"}, "at least one rung"),
                            ({"L": 4, "bc": "closed"}, "bc must be 'periodic' or 'open'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepConfig(thetas_over_pi=(0.1,), workers=2, **ladder)
    # an output path that cannot be written is refused before any solve
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        with pytest.raises(ValueError, match=re.escape(str(out))):
            SweepConfig(L=3, thetas_over_pi=(0.1,), out=str(out))
    SweepConfig(L=3, thetas_over_pi=(0.1,), out=str(tmp_path / "x.csv"))


def test_negative_seed_refused_on_the_dense_route_too():
    # L = 2 has dim 6, solved densely without a start vector, so a negative
    # seed would otherwise pass unused there and fail only at larger L
    with pytest.raises(ValueError, match="seed"):
        SweepConfig(L=2, thetas_over_pi=(0.0,), seed=-1)


@pytest.mark.parametrize("field, value", [("L", 4.0), ("twoSz", 0.0), ("seed", 1.5),
                                          ("workers", 1.5)])
def test_sweep_config_integer_fields_refuse_other_numbers(field, value):
    # a float was accepted and failed late: in build_sector or run_sweep,
    # or for seed in the first Lanczos start vector, at L = 7
    with pytest.raises(ValueError, match=re.escape(f"{field} {value!r} is not an integer")):
        SweepConfig(**{"L": 4, "thetas_over_pi": (0.0,), field: value})
    cfg = SweepConfig(**{"L": 4, "thetas_over_pi": (0.0,), field: np.int64(value)})
    assert type(getattr(cfg, field)) is int


def test_block_size_must_be_an_integer():
    with pytest.raises(ValueError, match=re.escape("block size l 2.0 is not an integer")):
        BlockSpec("D", 2.0)
    assert BlockSpec("D", np.int64(2)) == BlockSpec("D", 2)


def test_empty_out_is_refused_before_any_solve(monkeypatch, capsys):
    def no_solver(spec, basis):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(sweep, "_solver", no_solver)
    with pytest.raises(ValueError, match="out must be a file in an existing directory, got ''"):
        run_sweep(SweepConfig(L=3, thetas_over_pi=(0.1,), out=""))
    with pytest.raises(SystemExit) as exc:
        main(["gs", "--rungs", "3", "--out", ""])
    assert exc.value.code == 2 and "got ''" in capsys.readouterr().err


def test_zero_crossing_basic():
    assert find_zero_crossing([(0.0, -1.0), (1.0, 1.0)]) == [0.5]
    assert find_zero_crossing([(0.0, 1.0), (1.0, 2.0)]) == []
    assert find_zero_crossing([(0.0, -1.0), (0.5, 0.0), (1.0, 1.0)]) == [0.5]
    got = find_zero_crossing([(0.0, -1.0), (1.0, 1.0), (2.0, -1.0)])
    assert got == [0.5, 1.5]


def test_extrema_basic():
    series = [(0.0, 0.0), (1.0, 2.0), (2.0, 0.0), (3.0, -2.0), (4.0, 0.0)]
    got = find_extrema(series)
    assert got == [(1.0, 2.0, "max"), (3.0, -2.0, "min")]


def test_extrema_plateau_midpoint():
    series = [(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 0.0)]
    assert find_extrema(series) == [(2.0, 1.0, "max")]


def test_extrema_endpoints_excluded():
    assert find_extrema([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]) == []


GOLDEN = Path(__file__).resolve().parent / "data"
# theta step of each golden file other than 0.05; at L = 8 most symmetry
# sectors hold more than DENSE_MAX_DIM states, so their screening is covered
GOLDEN_STEP = {"sweep_L8_periodic.csv": 0.15}


@pytest.mark.parametrize("name, L, bc, blocks", [
    ("sweep_L6_periodic.csv", 6, "periodic", (("A", 4), ("C", 5), ("D", 6))),
    ("sweep_L5_open.csv", 5, "open", (("A", 4), ("C", 5), ("D", 5))),
    ("sweep_L8_periodic.csv", 8, "periodic", (("A", 8), ("C", 8), ("D", 8))),
])
def test_sweep_csv_matches_golden_output(name, L, bc, blocks, tmp_path, monkeypatch):
    # the CSV contract: tests/data holds the output of `ringladder sweep
    # --rungs L --bc BC --theta-min -0.30 --theta-max 0.90 --theta-step STEP
    # --blocks ...`; every cell must agree within 1e-10, as
    # tools/csv_diff.py --tol 1e-10 checks it, which allows last-digit
    # differences between platforms
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    csv_diff = importlib.import_module("csv_diff")
    out = tmp_path / name
    run_sweep(SweepConfig(
        L=L, thetas_over_pi=theta_grid(-0.30, 0.90, GOLDEN_STEP.get(name, 0.05)), bc=bc,
        blocks=tuple(BlockSpec(f, l) for f, l in blocks), out=str(out),
    ))
    (_, [want]), (_, [got]) = csv_diff.read(str(GOLDEN / name)), csv_diff.read(str(out))
    diffs = csv_diff.column_diffs(want, got, tol=1e-10)
    assert not [d for d in diffs if d[3]], diffs
