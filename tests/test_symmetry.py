"""Symmetry sectors of periodic and open ladders against the whole Sz
sector."""

import gc
import math
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest
import scipy.linalg

from conftest import geometry, traced_point
from ringladder import (
    BlockSpec,
    HamiltonianAction,
    LadderSpec,
    LadderTables,
    SweepConfig,
    build_sector,
    couplings_from_theta,
    dense_oracle,
    hamiltonian,
    lowest_eigenpairs,
    run_sweep,
    sweep,
    symmetry_sectors,
)
from ringladder.basis import RANK_BLOCK, LadderOrbits
from ringladder.eigensolver import DENSE_MAX_DIM, ground_band

THETA_C_OVER_PI = math.atan(0.5) / math.pi
GRID = (-0.5, 0.0, 0.1, THETA_C_OVER_PI, 0.5, 0.75, 1.0)  # 1.0: the FM point
BLOCKS = (BlockSpec("A", 2), BlockSpec("C", 3), BlockSpec("D", 3))
# Lanczos on the whole Sz sector, solved by _solve as its lone sector (the
# symmetry sectors patched to the basis alone), starts from one vector, so
# its Krylov space holds a single combination of exactly degenerate states.
# At these points it returns one state of a two-dimensional irrep's ground
# pair (g = 1), which the dense spectrum of the whole sector shows twice.
# No production path solves the whole sector, so these misses concern the
# reference alone.
LANCZOS_MISSES = {("periodic", 5, 2, 0.75), ("periodic", 7, 2, 0.75)}


def whole_sector(basis, bc):
    # the whole-sector reference: the whole Sz sector as _solve's lone
    # sector, with no orbits, sector states or factors; a lone sector is
    # never bounded and always solved
    return [basis]


def both_paths(monkeypatch, cfg):
    """Records of the symmetric path and of the whole-Sz-sector path."""
    sym = run_sweep(cfg)
    with monkeypatch.context() as m:
        m.setattr(sweep, "symmetry_sectors", whole_sector)
        full = run_sweep(cfg)
    return sym, full


def assert_rows_match(a, b, blocks, skip=()):
    header = sweep.csv_header(blocks)
    for name, x, y in zip(header, sweep.record_row(a, blocks), sweep.record_row(b, blocks)):
        if name in skip or x == y:
            continue
        assert x and y, f"{name}: {x!r} against {y!r}"
        assert abs(float(x) - float(y)) <= 1e-10, f"{name}: {x} against {y}"


def sector_isometry(sector, row=0):
    """Columns: the sector states expanded over the plain basis."""
    eye = np.eye(sector.dim)
    return np.column_stack([sector.expand(eye[i], row) for i in range(sector.dim)])


def whole_sector_expand(sector, amps, row):
    """SymmetrySector.expand with each irrep column's term formed over the
    whole Sz sector at once."""
    g = sector.group
    amps = np.asarray(amps) * sector.norm[sector.orbit]
    out = np.zeros(len(g.orbit_of))
    for t in range(sector.irrep.dim):
        weight = np.bincount(sector.orbit, amps * sector.vecs[t], minlength=len(g.reps))
        out += weight[g.orbit_of] * sector.D[t, row][g.element_of]
    return out


@pytest.fixture(scope="module")
def sectors_L10():
    # the Sz sector's 184,756 states span six RANK_BLOCK slices
    return symmetry_sectors(build_sector(20, 0))


@pytest.mark.parametrize("L", (6, 8))
@pytest.mark.parametrize("twoSz", (0, 2))
def test_expansion_matches_whole_sector_reference(L, twoSz):
    # the streamed expansion adds the same terms in the same order
    rng = np.random.default_rng(L + twoSz)
    for sector in symmetry_sectors(build_sector(2 * L, twoSz)):
        amps = rng.standard_normal(sector.dim)
        for row in range(sector.rows):
            got = sector.expand(amps, row)
            assert np.array_equal(got, whole_sector_expand(sector, amps, row)), sector.irrep


def test_expansion_over_many_slices_matches_and_holds_one_slice(sectors_L10):
    # the output, 8 bytes per basis state, and the three terms of one slice
    sector = max(sectors_L10, key=lambda s: (s.rows, s.dim))
    assert sector.rows == 2 and len(sector.group.orbit_of) > 4 * RANK_BLOCK
    amps = np.random.default_rng(10).standard_normal(sector.dim)
    for row in range(2):
        tracemalloc.start()
        try:
            got = sector.expand(amps, row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(got) + 4 * 8 * RANK_BLOCK
        assert np.array_equal(got, whole_sector_expand(sector, amps, row))


def with_open(periodic, open_):
    """(bc, L) cases: the periodic ones keep their plain L as their id."""
    return [pytest.param("periodic", L, id=str(L)) for L in periodic] + [
        pytest.param("open", L, id=f"open-{L}") for L in open_
    ]


@pytest.mark.parametrize("bc, L", with_open(range(3, 11), range(1, 11)))
@pytest.mark.parametrize("twoSz", (0, 2))
def test_sector_dimensions_add_up_to_the_sz_sector(bc, L, twoSz):
    basis = build_sector(2 * L, twoSz)
    sectors = symmetry_sectors(basis, bc)
    assert sum(s.irrep.dim * s.dim for s in sectors) == comb(2 * L, L + twoSz // 2)
    # orbit and first index states as int32, like the group's orbit_of;
    # count stays int64, so a sum over it stays wide
    assert {(s.orbit.dtype.name, s.first.dtype.name, s.count.dtype.name)
            for s in sectors} == {("int32", "int32", "int64")}
    # one per real irrep: D_10 has four one- and four two-dimensional ones,
    # each with both leg and both inversion parities; the open group's eight
    # are one-dimensional
    if (L, twoSz) == (10, 0):
        assert len(sectors) == (32 if bc == "periodic" else 8)
    if bc == "open":
        assert all(s.irrep.dim == 1 for s in sectors)


# L = 6 is the first ring with the k = pi/3 and 2 pi/3 irreps, whose D
# entries are +-1/2 and +-sqrt(3)/2.  On the one-rung open ladder the
# reflection is the identity, so its parity -1 irreps are empty
@pytest.mark.parametrize("bc, L", with_open((3, 4, 5, 6), range(1, 7)))
@pytest.mark.parametrize("twoSz", (0, 2))
def test_sector_states_are_orthonormal_and_block_diagonalize_h(bc, L, twoSz):
    spec = LadderSpec(L=L, bc=bc)
    basis = build_sector(spec.N, twoSz)
    couplings = couplings_from_theta(0.37 * math.pi)
    H = HamiltonianAction(LadderTables(spec, basis), couplings).H.toarray()
    for sector in symmetry_sectors(basis, bc):
        block = HamiltonianAction(LadderTables(spec, sector), couplings).H.toarray()
        B = sector_isometry(sector)
        assert np.abs(B.T @ B - np.eye(sector.dim)).max() <= 1e-12
        assert np.abs(B.T @ H @ B - block).max() <= 1e-12
        if sector.irrep.dim == 2:
            # the second row: orthogonal to the first, the same block of H
            B2 = sector_isometry(sector, row=1)
            assert np.abs(B2.T @ B2 - np.eye(sector.dim)).max() <= 1e-12
            assert np.abs(B2.T @ B).max() <= 1e-12
            assert np.abs(B2.T @ H @ B2 - block).max() <= 1e-12


def fanned_entries(spec, sector):
    """Entries of the sector's tables when every entry of a representative's
    row reached every state of its target orbit: the diagonal and, per
    sector state, count[b] for each other entry, b its target orbit."""
    size, end, _, orbit, _ = hamiltonian._sector_order(spec, sector.group, sector.rows)
    # each block o * rows + t repeats orbit o's row, diagonal included
    reach = np.add.reduceat(sector.count[orbit], end - size)[::sector.rows]
    return int(np.sum(reach[sector.orbit] - sector.count[sector.orbit] + 1))


# tables that stored every fanned entry held 30,350 zero factors among
# 208,639 entries at periodic L = 8, twoSz = 0, all in two-dimensional irreps
@pytest.mark.parametrize("bc, L", with_open(range(3, 9), range(1, 8)))
@pytest.mark.parametrize("twoSz", (0, 2))
def test_sector_tables_store_no_zero_factor(bc, L, twoSz):
    spec = LadderSpec(L=L, bc=bc)
    total = fanned = 0
    for sector in symmetry_sectors(build_sector(spec.N, twoSz), bc):
        tables = LadderTables(spec, sector)
        nnz, full = len(tables.indices), fanned_entries(spec, sector)
        assert (tables.pair_factor != 0).all()
        assert (tables.pair_factor[tables.key] != 0).all()
        # a one-dimensional irrep has no zero factor, so its tables keep
        # every entry; open ladders have no other
        assert nnz == full if sector.rows == 1 else nnz <= full
        total, fanned = total + nnz, fanned + full
    if (bc, L, twoSz) == ("periodic", 8, 0):
        assert (total, fanned) == (178_289, 208_639)


def test_partner_is_the_translated_state_less_its_projection():
    # T psi = cos(k) psi + sin(k) psi' for a state psi of the first row
    L = 6
    spec = LadderSpec(L=L)
    basis = build_sector(spec.N, 0)
    states = basis.states
    N = spec.N
    shifted = ((states << 2) | (states >> (N - 2))) & ((1 << N) - 1)
    to = basis.rank_many(shifted)
    rng = np.random.default_rng(3)
    for sector in symmetry_sectors(basis):
        if sector.irrep.dim == 1:
            continue
        c = rng.standard_normal(sector.dim)
        c /= np.linalg.norm(c)
        psi, partner = sector.expand(c), sector.expand(c, row=1)
        moved = np.empty_like(psi)
        moved[to] = psi
        k = 2 * math.pi * sector.irrep.m / L
        assert np.abs(moved - math.cos(k) * psi - math.sin(k) * partner).max() <= 1e-12


@pytest.mark.parametrize("L, twoSz, theta, g", [(3, 0, 0.1, 3), (5, 2, 0.0, 2), (6, 0, 0.1, 1)])
def test_expanded_manifold_is_orthonormal_and_ground(monkeypatch, L, twoSz, theta, g):
    # the states a point measures are an orthonormal basis of its ground
    # manifold over the Sz sector
    spec = LadderSpec(L=L)
    solver = sweep.LadderSolver(SweepConfig(L=L, twoSz=twoSz))
    rec, states, _ = traced_point(monkeypatch, solver, theta)
    V = np.column_stack([psi.amps for psi in states])
    assert V.shape[1] == g
    assert np.abs(V.T @ V - np.eye(g)).max() <= 1e-12
    couplings = couplings_from_theta(theta * math.pi)
    H = HamiltonianAction(LadderTables(spec, solver.basis), couplings)
    for psi in states:
        assert np.linalg.norm(H.matvec(psi.amps) - rec.E0 * psi.amps) <= 1e-10


def group_images(spec: LadderSpec, twoSz: int, masks: np.ndarray) -> np.ndarray:
    """images[e] = e(masks) for every element e = ((z * 2 + q) * 2 + p) * n + r
    of the ladder's group, each built from its definition as Z^z Q^q T^r R^p:
    R moves rung j to rung -j mod L (periodic) or L + 1 - j (open), T moves
    rung j to rung j + 1 mod L, Q swaps the legs and Z flips every spin.
    Each site permutation is applied bit by bit."""
    L, N = spec.L, spec.N
    n = L if spec.bc == "periodic" else 1

    def reflect(j):
        return (1 - j) % L + 1 if spec.bc == "periodic" else L + 1 - j

    images = []
    for z in (0, 1) if twoSz == 0 else (0,):
        for q in (0, 1):
            for p in (0, 1):
                for r in range(n):
                    image = np.zeros_like(masks)
                    for leg in (1, 2):
                        for rung in range(1, L + 1):
                            j = reflect(rung) if p else rung
                            j = (j - 1 + r) % L + 1
                            to = spec.site(3 - leg if q else leg, j)
                            image |= ((masks >> spec.site(leg, rung)) & 1) << to
                    images.append(image ^ ((1 << N) - 1) if z else image)
    return np.array(images)


def test_orbits_match_the_group_built_from_its_definition():
    # the representatives are the orbit minima, each state records its orbit
    # and the smallest element taking it there, and the stabilizer pairs
    # come in (element, orbit) order
    for bc, Ls in (("periodic", range(3, 8)), ("open", range(1, 8))):
        for L in Ls:
            for twoSz in (0, 2):
                spec = LadderSpec(L=L, bc=bc)
                basis = build_sector(spec.N, twoSz)
                orbits = LadderOrbits(basis, bc)
                images = group_images(spec, twoSz, basis.states)
                assert orbits.order == len(images)
                least = images.min(axis=0)
                assert np.array_equal(orbits.reps, np.unique(least))
                assert orbits.orbit_of.dtype == np.int32
                assert np.array_equal(orbits.reps[orbits.orbit_of], least)
                assert np.array_equal(orbits.element_of, np.argmax(images == least, axis=0))
                at = np.searchsorted(basis.states, orbits.reps)
                element, orbit = np.nonzero(images[1:, at] == orbits.reps)
                assert np.array_equal(orbits.fix_element, element + 1)
                assert np.array_equal(orbits.fix_orbit, orbit)


@pytest.mark.parametrize("bc, L", with_open(range(3, 9), range(1, 9)))
@pytest.mark.parametrize("twoSz", (0, 2))
def test_symmetric_path_matches_full_sector_path(monkeypatch, bc, L, twoSz):
    # a short open ladder measures the blocks it has
    blocks = tuple(b for b in BLOCKS if b.l <= L)
    cfg = SweepConfig(L=L, thetas_over_pi=GRID, bc=bc, twoSz=twoSz, blocks=blocks)
    sym, full = both_paths(monkeypatch, cfg)
    missed = {i for i, t in enumerate(GRID) if (bc, L, twoSz, t) in LANCZOS_MISSES}
    for i, (a, b) in enumerate(zip(sym, full)):
        assert a.E0 == pytest.approx(b.E0, abs=1e-10)
        # nan: a one-rung ladder at Jr = 0 has no level above its manifold
        assert a.gap == pytest.approx(b.gap, abs=1e-10, nan_ok=True)
        if i in missed:
            _, basis, tables = geometry(L, bc, twoSz)
            action = HamiltonianAction(tables, couplings_from_theta(GRID[i] * math.pi))
            spectrum = dense_oracle(action.matvec, basis.dim)
            assert np.count_nonzero(spectrum - spectrum[0] < ground_band(spectrum[0])) == 2
            assert (a.diagnostics["g"], b.diagnostics["g"]) == (2, 1)
            continue
        assert a.diagnostics["g"] == b.diagnostics["g"]
        near_miss = {i - 1, i + 1} & missed
        assert_rows_match(a, b, blocks, skip=("dEr_dtheta",) if near_miss else ())


@pytest.mark.parametrize("L", (7, 8))
@pytest.mark.parametrize("twoSz", (0, 2))
def test_screened_sectors_hold_no_level_below_the_gap(monkeypatch, L, twoSz):
    # a sector settled by its bound takes no part in E0, the gap or the
    # ground manifold, so its dense spectrum must start at or above
    # E0 + gap.  At L = 7, twoSz = 2, theta = 0.75 pi the ground level is a
    # two-dimensional irrep.  In ascending order no theta lies between two
    # solved ones, so each point starts with no floor
    solver = sweep.LadderSolver(SweepConfig(L=L, twoSz=twoSz))
    for t in (-0.3, 0.0, THETA_C_OVER_PI, 0.5, 0.75, 0.9):
        couplings = couplings_from_theta(t * math.pi)
        rec, _, screened = traced_point(monkeypatch, solver, t)
        assert screened
        for i in screened:
            action = HamiltonianAction(solver.tables[i], couplings)
            assert dense_oracle(action.matvec, action.dim)[0] >= rec.E0 + rec.gap


@pytest.mark.parametrize("L", (4, 5))
def test_chord_is_a_weyl_lower_bound(L):
    # H(theta) is linear in (cos theta, sin theta), so on every sector
    # H(theta) = a H(t1) + b H(t2); when a, b > 0 Weyl's inequality puts the
    # lowest level at theta at or above the chord a E(t1) + b E(t2), and
    # otherwise the sweep's chord is -inf.  The spans of these seeded triples
    # wrap past +-pi, and some exceed pi
    spec = LadderSpec(L=L)
    tables = [LadderTables(spec, s) for s in symmetry_sectors(build_sector(spec.N, 0))]
    rng = np.random.default_rng(L)
    chords = []
    for _ in range(16):
        t1 = rng.uniform(-math.pi, math.pi)
        t2 = t1 + rng.uniform(-1.5, 1.5) * math.pi
        theta = t1 + rng.uniform(-0.2, 1.2) * (t2 - t1)
        a = math.sin(t2 - theta) / math.sin(t2 - t1)
        b = math.sin(theta - t1) / math.sin(t2 - t1)
        lowest = []
        for t in tables:
            h, h1, h2 = (
                HamiltonianAction(t, couplings_from_theta(x)).H.toarray() for x in (theta, t1, t2)
            )
            assert np.abs(h - (a * h1 + b * h2)).max() <= 1e-13
            lowest.append([scipy.linalg.eigvalsh(m, subset_by_index=[0, 0])[0] for m in (h, h1, h2)])
        E, E1, E2 = np.array(lowest).T
        floor = sweep._chord(theta, (t1, E1), (t2, E2))
        chords.append(a > 0 and b > 0)
        if chords[-1]:
            assert np.array_equal(floor, a * E1 + b * E2)
            assert np.all(E >= floor - 1e-12)
        else:
            assert np.all(floor == -np.inf)
    assert any(chords) and not all(chords)


@pytest.mark.parametrize("L, twoSz", [(7, 0), (6, 2)])
def test_dense_sector_is_never_screened(monkeypatch, L, twoSz):
    # a sector of at most DENSE_MAX_DIM states has no bound and is always
    # solved; on these ladders it shares the point with bounded sectors,
    # some of which are screened
    solver = sweep.LadderSolver(SweepConfig(L=L, twoSz=twoSz))
    dims = [tables.basis.dim for tables in solver.tables]
    assert min(dims) <= DENSE_MAX_DIM < max(dims)
    for t in (-0.3, 0.0, 0.1, 0.5, 0.75, 0.9):
        _, _, screened = traced_point(monkeypatch, solver, t)
        assert screened
        assert all(dims[i] > DENSE_MAX_DIM for i in screened)


def test_representative_rows_live_with_their_group(monkeypatch):
    # every sector's tables read the group's rows, built by one row pass,
    # with a uint16 kind and an int32 orbit per entry; once the tables and
    # the sectors are gone, nothing holds the group
    passes = 0
    rows = hamiltonian._rows

    def counting(*args):
        nonlocal passes
        passes += 1
        return rows(*args)

    monkeypatch.setattr(hamiltonian, "_rows", counting)
    spec = LadderSpec(L=4)
    sectors = symmetry_sectors(build_sector(spec.N, 0))
    group = weakref.ref(sectors[0].group)
    tables = [LadderTables(spec, sector) for sector in sectors]
    _, _, kind, orbit, _ = hamiltonian._sector_order(spec, sectors[0].group, 1)
    assert (kind.dtype, orbit.dtype) == (np.uint16, np.int32)
    assert passes == 1 and len(tables) > 1
    del kind, orbit
    del tables, sectors
    gc.collect()
    assert group() is None


@pytest.mark.parametrize("L, seeds", [(5, range(5)), (9, range(3))])
def test_two_dimensional_ground_level(monkeypatch, L, seeds):
    # at twoSz = 2, theta = 0 the ground level lies in the k = 2 pi m / L
    # sector with m = (L - 1) / 2, a two-dimensional irrep; at L = 9 that
    # sector has 2,438 states and is solved by Lanczos from the seed
    spec = LadderSpec(L=L)
    basis = build_sector(spec.N, 2)
    couplings = couplings_from_theta(0.0)
    lowest = []
    for sector in symmetry_sectors(basis):
        action = HamiltonianAction(LadderTables(spec, sector), couplings)
        res = lowest_eigenpairs(action.matvec, sector.dim, k=1, matrix=action.H)
        lowest.append((res.energies[0], sector.irrep))
    ground = min(lowest, key=lambda x: x[0])[1]
    assert ground.dim == 2 and 0 < 2 * ground.m < L

    blocks = (BlockSpec("A", 2), BlockSpec("D", 3))
    rows = []
    for seed in seeds:
        cfg = SweepConfig(L=L, thetas_over_pi=(0.0,), twoSz=2, blocks=blocks, seed=seed)
        (rec,) = run_sweep(cfg)
        assert rec.degenerate is True and rec.diagnostics["g"] == 2
        rows.append(rec)
    for rec in rows[1:]:
        assert_rows_match(rec, rows[0], blocks)
    with monkeypatch.context() as m:
        m.setattr(sweep, "symmetry_sectors", whole_sector)
        (full,) = run_sweep(SweepConfig(L=L, thetas_over_pi=(0.0,), twoSz=2, blocks=blocks))
    assert full.degenerate is True
    assert_rows_match(rows[0], full, blocks)
