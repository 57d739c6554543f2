"""Parameter sweeps over theta: observables per grid point, CSV emission,
zero crossings and extrema of observable series.

A sweep solves for the lowest Sz-sector states at every grid point (in
the symmetry sectors of the ladder's group, expanded back to the Sz
basis), then extracts pair concurrences, the two-site rung entropy and its
central-difference theta derivative, block entropies for requested block
geometries, and the total rung correlator <T>, read in the solved sectors
through their own H at (Jl, Jr, K) = (0, 1, 0).  The rung, leg and diag
pairs are anchored at rung r: (leg 1, rung r) with (leg 2, rung r), (leg 1,
rung r + 1) and (leg 2, rung r + 1), where r = 1 on periodic ladders and the
middle rung ceil(L/2) on open ones, so both boundaries measure bulk pairs.  A
one-rung open ladder has only the rung pair, which is then the whole system.

A ground state of multiplicity g > 1 is measured as the equal mixture of
its manifold, rho = (1/g) sum_i |psi_i><psi_i|, which does not depend on
the basis the eigensolver picks inside it; its gap is E_g - E0, to the first
level above the manifold.
"""

from __future__ import annotations

import bisect
import csv
import heapq
import math
import os
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .basis import build_sector, symmetry_sectors
from .eigensolver import (
    DENSE_MAX_DIM,
    ground_band,
    lowest_eigenpairs,
    ritz_bound,
)
from .entanglement import (
    RDM_MAX_SITES,
    BlockLayout,
    DensityMatrix,
    concurrence,
    expectation_T,  # not called here: perfbench calls and traces it as sweep.expectation_T
    reduced_density_matrix,
    von_neumann_entropy,
)
from .hamiltonian import HamiltonianAction, LadderTables, StateVector
from .lattice import Couplings, LadderSpec, check_integer, couplings_from_theta

__all__ = [
    "BlockSpec",
    "SweepConfig",
    "SweepRecord",
    "block_sites",
    "theta_grid",
    "run_sweep",
    "write_csv",
    "find_zero_crossing",
    "find_extrema",
]

FAMILIES = ("A", "B", "C", "D")
PAIR_KINDS = ("rung", "leg", "diag")


@dataclass(frozen=True)
class BlockSpec:
    """One requested block geometry: family A single, B stripe, C zigzag,
    D one-leg, with l sites."""

    family: str
    l: int

    def __post_init__(self):
        object.__setattr__(self, "l", check_integer("block size l", self.l))
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.l < 1:
            raise ValueError(f"block size must be positive, got {self.l}")

    @property
    def label(self) -> str:
        return f"{self.family}{self.l}"


def block_sites(family: str, l: int, spec: LadderSpec) -> list[int]:
    """Site list of one block geometry on the given ladder.

    A: both legs of rungs 1..l/2 (contiguous square block).
    B: both legs of rungs 1, 3, 5, ..., l-1 (stripe of every other rung).
    C: staircase, leg 1 on odd rungs and leg 2 on even rungs, rungs 1..l.
    D: leg 1 of rungs 1..l.
    """
    L, N = spec.L, spec.N
    if family == "A":
        if l % 2 or not 2 <= l <= N // 2:
            raise ValueError(f"family A needs even l in 2..{N // 2}, got {l}")
        sites = []
        for r in range(1, l // 2 + 1):
            sites += [spec.site(1, r), spec.site(2, r)]
        return sites
    if family == "B":
        if l % 2 or l // 2 > math.ceil(L / 2):
            raise ValueError(
                f"family B needs even l with l/2 <= {math.ceil(L / 2)}, got {l}"
            )
        sites = []
        for r in range(1, l, 2):
            sites += [spec.site(1, r), spec.site(2, r)]
        return sites
    if family == "C":
        if not 1 <= l <= L:
            raise ValueError(f"family C needs l in 1..{L}, got {l}")
        return [spec.site(1 if r % 2 else 2, r) for r in range(1, l + 1)]
    if family == "D":
        if not 1 <= l <= L:
            raise ValueError(f"family D needs l in 1..{L}, got {l}")
        return [spec.site(1, r) for r in range(1, l + 1)]
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Grid and measurement plan for run_sweep."""

    L: int
    thetas_over_pi: tuple[float, ...]
    bc: str = "periodic"
    blocks: tuple[BlockSpec, ...] = ()
    pairs: tuple[str, ...] = PAIR_KINDS
    twoSz: int = 0
    seed: int = 0
    tol: float = 1e-12
    out: str | None = None
    workers: int = 1

    def __post_init__(self):
        for name in ("L", "twoSz", "seed", "workers"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        object.__setattr__(self, "thetas_over_pi", tuple(float(t) for t in self.thetas_over_pi))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "pairs", self.check_pairs(self.pairs))
        # theta/pi = 1e308 is finite, but not in radians
        if not all(math.isfinite(t * math.pi) for t in self.thetas_over_pi):
            raise ValueError(f"theta must be finite in radians, got {self.thetas_over_pi}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a positive finite number, got {self.tol}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.L == 1 and {"leg", "diag"} & set(self.pairs):
            raise ValueError("a one-rung ladder has no leg or diag pair; use --pairs rung")
        spec = LadderSpec(self.L, self.bc)  # refuses the ladder before any pool starts
        for b in self.blocks:
            block_sites(b.family, b.l, spec)
            if b.l > RDM_MAX_SITES:
                raise ValueError(f"block size capped at {RDM_MAX_SITES} sites, got {b.l}")
        # refused now, not after the solves it would hold; "" is the cwd
        folder = os.path.dirname(self.out or "") or "."
        if self.out is not None and (os.path.isdir(self.out or ".") or not os.path.isdir(folder)):
            raise ValueError(f"out must be a file in an existing directory, got {self.out!r}")

    @staticmethod
    def check_pairs(pairs) -> tuple[str, ...]:
        """pairs as a tuple, each one of PAIR_KINDS."""
        pairs = tuple(pairs)
        for p in pairs:
            if p not in PAIR_KINDS:
                raise ValueError(f"unknown pair kind {p!r}, expected one of {PAIR_KINDS}")
        return pairs


@dataclass
class SweepRecord:
    """Observables at one grid point.  dEr_dtheta (with theta in radians) is
    filled by central difference on interior points whose two neighbours
    differ in theta, and is None (an empty CSV cell) elsewhere.

    diagnostics describes how the point was computed and is not written to
    the CSV: the number of sectors, how many of them took a loose Lanczos
    pass (bounded), how many were left unsolved by the bound of that pass or
    by the chord of their bounds at the nearest solved points on each side
    (screened; a sector of at most DENSE_MAX_DIM states is never bounded,
    and screened only by a chord), the total matvecs, loose passes
    included, the largest residual of the exact solves, the ground
    multiplicity g, the seconds spent solving and measuring, the number of
    block layouts built for the point (layouts; 0 after a sweep chunk's
    first point unless the point measures new sites), and the process's
    peak resident memory so far, in MB (peak_rss_mb).
    """

    thetaOverPi: float
    E0: float
    gap: float
    C_rung: float | None
    C_leg: float | None
    C_diag: float | None
    E_rung2site: float
    dEr_dtheta: float | None
    Ev: dict[str, float]
    T_expect: float
    degenerate: bool
    diagnostics: dict = field(default_factory=dict, compare=False, repr=False)


def theta_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive uniform grid in units of pi, robust to float stepping."""
    if step == 0:
        raise ValueError("grid step must not be zero")
    n = int(round((stop - start) / step))
    if n < 0 or abs(start + n * step - stop) > 1e-9:
        raise ValueError(f"grid ({start}, {stop}, {step}) misses its endpoint")
    return tuple(start + i * step for i in range(n + 1))


def _manifold_rdm(states, layout: BlockLayout) -> DensityMatrix:
    """RDM of the equal mixture of the given states, each read through one
    layout, averaged block by block in place in the first state's RDM."""
    first, *rest = [reduced_density_matrix(psi, layout) for psi in states]
    for u, block in first.blocks.items():
        for rho in rest:
            block += rho.blocks[u]
        block /= len(states)
    return first


@dataclass
class _Ground:
    """E0, the gap to the first level above the ground band, an orthonormal
    basis of the ground manifold over the Sz sector, <T> of its equal
    mixture, the number of sectors, the positions of those left unsolved,
    the number of loose passes, the matvecs of every loose pass and exact
    solve, the largest residual of the exact solves, and a lower bound on
    each sector's lowest level."""

    E0: float
    gap: float
    states: list[StateVector]
    T_expect: float
    sectors: int
    screened: list[int]
    bounded: int
    matvecs: int
    residual_max: float
    lower: list[float]


def _solve(basis, sector_tables, couplings, cfg: SweepConfig, floor=None) -> _Ground:
    """E0, the gap and the ground manifold of the Sz sector basis, from the
    sectors that split it: the symmetry sectors of the ladder's group, or,
    as the tests' whole-sector reference, basis alone.

    Every sector's bound starts at its floor, a known lower bound on its
    lowest level (floor None: -inf for every sector).  A sector is bounded
    when the point has more than one sector and the sector holds more than
    DENSE_MAX_DIM states; a sector of at most DENSE_MAX_DIM states is never
    bounded, and screened only by a chord, of bounds from exact solves
    alone.  U is the lowest level solved so far that lies at least
    ground_band(E0) above E0, the lowest one.  Until the lowest bound of the
    sectors not yet solved lies strictly above U, the first sector holding
    it is given its loose pass if it is bounded and has had none, its bound
    becoming the larger of its floor and the ritz_bound of one loose Lanczos
    pass, and is solved for its lowest level otherwise.  With every floor
    at -inf this runs every loose pass and solves in ascending bound order.
    U is at or above E_g, the first level above the band, so the sectors
    left out hold neither a ground state nor E_g.  Like the solve, a loose
    pass comes from the Krylov space of one seeded start vector: its bound
    lies within its residual of *an* eigenvalue, taken to be the lowest, and
    with two close low levels it can lie above the lowest.  A lone sector
    must hold E0 and so starts at k = 2.

    A solved sector whose lowest level lies in the ground band is widened
    by doubling k until a level above the band is returned.  The band and
    the first level above it are then complete over all sectors.  A level of
    a two-dimensional irrep counts twice: its partner is the same
    combination in the irrep's second row.  The lower bound returned for a
    solved sector is E - r - ground_band(E) for the lowest pair (E, r) of
    its last solve, the band's margin covering rounding in a later chord.

    <T> of the manifold's mixture is (1/g) sum_c rows v_c^T (H_T v_c) over the
    ground vectors v_c of the sectors, H_T a sector's H at (Jl, Jr, K) = (0,
    1, 0); T commutes with the group, so both rows of a 2-d irrep share it.

    Each loose pass, exact solve and H_T builds its sector's
    HamiltonianAction, nnz floats, and drops it when it returns (H_T before
    any state is expanded), so a point holds one action at a time.
    """
    dims = [tables.basis.dim for tables in sector_tables]
    first_k = 1 if len(dims) > 1 else 2
    to_bound = {i for i, dim in enumerate(dims) if first_k == 1 and dim > DENSE_MAX_DIM}
    lower = [-np.inf] * len(dims) if floor is None else [float(f) for f in floor]
    matvecs, residual_max = 0, 0.0

    def loose(i):
        nonlocal matvecs
        action = HamiltonianAction(sector_tables[i], couplings)
        bound, n = ritz_bound(action.matvec, action.dim, cfg.seed)
        matvecs += n
        return bound

    def exact(i, k):
        nonlocal matvecs, residual_max
        action = HamiltonianAction(sector_tables[i], couplings)
        res = lowest_eigenpairs(action.matvec, action.dim, k=min(k, action.dim),
                                seed=cfg.seed, tol=cfg.tol, matrix=action.H)
        matvecs += res.matvecs
        residual_max = max(residual_max, float(np.max(res.residuals)))
        return res

    pending = [(bound, i) for i, bound in enumerate(lower)]  # lowest bound first
    heapq.heapify(pending)
    found, upper = {}, np.inf
    bounded = 0
    while pending and pending[0][0] <= upper:
        _, i = heapq.heappop(pending)
        if i in to_bound:
            to_bound.remove(i)
            lower[i] = max(lower[i], loose(i))
            heapq.heappush(pending, (lower[i], i))
            bounded += 1
            continue
        found[i] = exact(i, first_k)
        levels = np.concatenate([res.energies for res in found.values()])
        upper = levels[levels - levels.min() >= ground_band(levels.min())].min(initial=np.inf)
    found = dict(sorted(found.items()))  # sector order, as when every sector is solved

    E0 = min(res.energies[0] for res in found.values())
    band = ground_band(E0)
    for i, res in found.items():
        while res.energies[-1] - E0 < band and len(res.energies) < dims[i]:
            res = found[i] = exact(i, 2 * len(res.energies))
    E0 = float(min(res.energies[0] for res in found.values()))
    held, above, T = [], [], 0.0
    for i, res in found.items():
        sector = sector_tables[i].basis
        n = int(np.count_nonzero(res.energies - E0 < band))
        above += res.energies[n:n + 1].tolist()
        if n:
            v = res.vectors[:, :n]
            Tv = HamiltonianAction(sector_tables[i], Couplings(Jl=0, Jr=1, K=0)).H @ v
            T += sector.rows * float(np.sum(v * Tv))
        held += [(sector, res.vectors[:, c], row) for c in range(n) for row in range(sector.rows)]
        E = float(res.energies[0])
        lower[i] = E - float(res.residuals[0]) - ground_band(E)
    states = [StateVector(basis, sector.expand(v, row)) for sector, v, row in held]
    gap = min(above) - E0 if above else float("nan")
    return _Ground(E0, gap, states, T / len(states), len(dims),
                   sorted(i for _, i in pending), bounded, matvecs, residual_max, lower)


def _chord(theta, left, right) -> np.ndarray:
    """Lower bounds on each sector's lowest level at theta (radians) from
    those at two visited points, left and right, each (theta, bounds).

    H(theta) = cos(theta) (H_rung + H_leg) + sin(theta) H_ring on every
    sector, and with a = sin(t2 - theta) / sin(t2 - t1) and b = sin(theta -
    t1) / sin(t2 - t1), (cos theta, sin theta) = a (cos t1, sin t1) + b (cos
    t2, sin t2), so H(theta) = a H(t1) + b H(t2).  When a > 0 and b > 0,
    Weyl's inequality puts the lowest level at theta at or above a
    lower(t1) + b lower(t2).  Otherwise, as for spans of pi or more,
    repeated theta and theta outside (t1, t2), the floor is -inf.
    """
    (t1, lower1), (t2, lower2) = left, right
    span = math.sin(t2 - t1)
    if span:
        a, b = math.sin(t2 - theta) / span, math.sin(theta - t1) / span
        if a > 0 and b > 0:
            return a * np.asarray(lower1) + b * np.asarray(lower2)
    return np.full(len(lower1), -np.inf)


def _bisection(n: int) -> list[int]:
    """Grid positions 0..n-1 in bisection order: the first, the last, then
    the midpoints of the visited intervals, breadth first."""
    order, intervals = [0, n - 1][:n], [(0, n - 1)]
    for lo, hi in intervals:
        if hi - lo > 1:
            order.append((lo + hi) // 2)
            intervals += [(lo, order[-1]), (order[-1], hi)]
    return order


def _solver(spec, basis):
    """solve(theta, cfg), theta in radians: _solve over the symmetry sectors
    of the ladder's group, tables built once for a sweep chunk.  It keeps
    the (theta, lower bounds) of every theta solved, sorted by theta, and
    starts a new theta from the chord of the nearest solved theta on each
    side (-inf with a side empty, or at a theta solved before), so it serves
    any order of theta."""
    tables = [LadderTables(spec, s) for s in symmetry_sectors(basis, spec.bc)]
    solved = []

    def solve(theta, cfg):
        i = bisect.bisect_left(solved, theta, key=lambda point: point[0])
        floor = _chord(theta, solved[i - 1], solved[i]) if 0 < i < len(solved) else None
        ground = _solve(basis, tables, couplings_from_theta(theta), cfg, floor)
        solved.insert(i, (theta, ground.lower))
        return ground

    return solve


def _measure(spec, solve, cfg: SweepConfig, t_over_pi: float, layouts) -> SweepRecord:
    """The record of one grid point, solved by solve.  layouts maps the
    sites of each block measured before to its BlockLayout; a block not in
    it gets one built and added, so a chunk builds each layout once.  With
    layouts None a layout lives for its one block's RDM only, so a lone
    point holds one layout at a time."""
    start = time.perf_counter()
    ground = solve(t_over_pi * math.pi, cfg)
    solved = time.perf_counter()
    states = ground.states
    built = 0

    def rdm(sites) -> DensityMatrix:
        nonlocal built
        kept = {} if layouts is None else layouts
        sites = tuple(sites)
        if sites not in kept:
            kept[sites], built = BlockLayout(states[0].basis, sites), built + 1
        return _manifold_rdm(states, kept[sites])

    r = 1 if spec.bc == "periodic" else math.ceil(spec.L / 2)
    # (leg, rung) of the second site of the other pairs; the first is (1, r)
    partner = {"leg": (1, r + 1), "diag": (2, r + 1)}
    rho_rung = rdm((spec.site(1, r), spec.site(2, r)))
    conc: dict[str, float | None] = dict.fromkeys(PAIR_KINDS)
    for name in cfg.pairs:
        rho = rho_rung if name == "rung" else rdm((spec.site(1, r), spec.site(*partner[name])))
        conc[name] = concurrence(rho)

    ev = {
        b.label: von_neumann_entropy(rdm(block_sites(b.family, b.l, spec)))
        for b in cfg.blocks
    }
    rec = SweepRecord(
        thetaOverPi=t_over_pi,
        E0=ground.E0,
        gap=ground.gap,
        C_rung=conc["rung"],
        C_leg=conc["leg"],
        C_diag=conc["diag"],
        E_rung2site=von_neumann_entropy(rho_rung),
        dEr_dtheta=None,
        Ev=ev,
        T_expect=ground.T_expect,
        degenerate=len(states) > 1,
    )
    rec.diagnostics = {
        "sectors": ground.sectors,
        "bounded": ground.bounded,
        "screened": len(ground.screened),
        "matvecs": ground.matvecs,
        "residual_max": ground.residual_max,
        "g": len(states),
        "layouts": built,
        "solve_s": solved - start,
        "measure_s": time.perf_counter() - solved,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return rec


def _sweep_chunk(config: SweepConfig, thetas) -> list[SweepRecord]:
    """Records of the given grid points from one _solver and (for more than
    one point) one dict of block layouts, dropped with the chunk.  In
    bisection order the nearest solved points around a midpoint are the ends
    of its interval, whose chord floors it, so a dense grid skips most loose
    passes."""
    spec = LadderSpec(L=config.L, bc=config.bc)
    basis = build_sector(spec.N, config.twoSz)
    solve, layouts = _solver(spec, basis), ({} if len(thetas) > 1 else None)
    records = {}
    for i in _bisection(len(thetas)):
        try:
            records[i] = _measure(spec, solve, config, thetas[i], layouts)
        except Exception as exc:
            raise RuntimeError(f"sweep failed at theta = {thetas[i]}*pi: {exc}") from exc
    return [records[i] for i in range(len(thetas))]


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Solve every grid point, fill derivatives, optionally write CSV.

    An eigensolver failure anywhere aborts the whole sweep with the offending
    theta in the error message.  With workers > 1 the grid is cut into
    contiguous chunks, one per worker process.
    """
    thetas = config.thetas_over_pi
    n = min(config.workers, len(thetas))
    if n <= 1:
        records = _sweep_chunk(config, thetas)
    else:
        chunks = [thetas[i * len(thetas) // n:(i + 1) * len(thetas) // n] for i in range(n)]
        with ProcessPoolExecutor(max_workers=n) as pool:
            records = [r for part in pool.map(_sweep_chunk, [config] * n, chunks) for r in part]

    for i in range(1, len(records) - 1):
        dtheta = (records[i + 1].thetaOverPi - records[i - 1].thetaOverPi) * math.pi
        if dtheta:
            records[i].dEr_dtheta = (
                records[i + 1].E_rung2site - records[i - 1].E_rung2site
            ) / dtheta

    if config.out is not None:
        write_csv(records, config.blocks, config.out)
    return records


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    return format(x, ".12g")


def csv_header(blocks) -> list[str]:
    head = [
        "thetaOverPi", "E0", "gap", "C_rung", "C_leg", "C_diag",
        "E_rung2site", "dEr_dtheta",
    ]
    head += [f"Ev_{b.label}" for b in blocks]
    head += ["T_expect", "degenerate"]
    return head


def record_row(rec: SweepRecord, blocks) -> list[str]:
    row = [
        _fmt(rec.thetaOverPi), _fmt(rec.E0), _fmt(rec.gap),
        _fmt(rec.C_rung), _fmt(rec.C_leg), _fmt(rec.C_diag),
        _fmt(rec.E_rung2site), _fmt(rec.dEr_dtheta),
    ]
    row += [_fmt(rec.Ev[b.label]) for b in blocks]
    row += [_fmt(rec.T_expect), _fmt(rec.degenerate)]
    return row


def write_csv(records, blocks, path_or_file) -> None:
    """One row per grid point, floats at 12 significant digits."""
    if hasattr(path_or_file, "write"):
        w = csv.writer(path_or_file, lineterminator="\n")
        w.writerow(csv_header(blocks))
        for rec in records:
            w.writerow(record_row(rec, blocks))
        return
    with open(path_or_file, "w", newline="") as fh:
        write_csv(records, blocks, fh)


def find_zero_crossing(series) -> list[float]:
    """Zero crossings of a sampled series by linear interpolation.

    series is an iterable of (theta, value); exact zeros report the sample
    point itself.  Empty list when the sign never changes.
    """
    pts = [(float(t), float(y)) for t, y in series]
    out: list[float] = []
    for (t0, y0), (t1, y1) in zip(pts, pts[1:]):
        if y0 == 0.0:
            out.append(t0)
        elif y0 * y1 < 0.0:
            out.append(t0 - y0 * (t1 - t0) / (y1 - y0))
    if pts and pts[-1][1] == 0.0:
        out.append(pts[-1][0])
    return out


def find_extrema(series) -> list[tuple[float, float, str]]:
    """Interior local extrema of a sampled series.

    Equal-value runs are treated as one plateau and reported at their
    midpoint.  Returns (theta, value, kind) with kind 'max' or 'min';
    endpoints never qualify.
    """
    pts = [(float(t), float(y)) for t, y in series]
    runs: list[list[float]] = []  # [t_first, t_last, y]
    for t, y in pts:
        if runs and runs[-1][2] == y:
            runs[-1][1] = t
        else:
            runs.append([t, t, y])
    out = []
    for prev, cur, nxt in zip(runs, runs[1:], runs[2:]):
        if cur[2] > prev[2] and cur[2] > nxt[2]:
            kind = "max"
        elif cur[2] < prev[2] and cur[2] < nxt[2]:
            kind = "min"
        else:
            continue
        out.append(((cur[0] + cur[1]) / 2.0, cur[2], kind))
    return out
