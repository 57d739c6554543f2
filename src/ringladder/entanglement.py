"""Reduced density matrices, entropies, concurrence and rung observables.

Block basis convention: the first listed site is the most significant qubit,
spin up is 1, so a two-site block is ordered {|dd>, |du>, |ud>, |uu>} and the
rung coherence z sits at entry (2, 1) = <ud| rho |du>.  All entropies are in
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, hypot, sqrt

import numpy as np
import scipy.linalg

from .basis import RANK_BLOCK, SectorBasis
from .hamiltonian import StateVector
from .lattice import check_integer

__all__ = [
    "BlockLayout",
    "DensityMatrix",
    "RungRdmParams",
    "reduced_density_matrix",
    "von_neumann_entropy",
    "concurrence",
    "rung_rdm_params",
    "rung_entropy_from_z",
    "rung_correlator",
    "expectation_T",
]

RDM_MAX_SITES = 14

# entropy eigenvalues within this of 0 or of 1 contribute exactly nothing
EIG_FLOOR = 1e-14

Z_MIN, Z_MAX = -0.5, 1.0 / 6.0


@dataclass
class DensityMatrix:
    """Reduced density matrix of an ordered site block.

    rho is real 2^l x 2^l and block-diagonal in the block up-count u, because
    the global state has fixed Sz.  blocks[u] is the dense block over the
    patterns of up-count u, in ascending pattern order; a u missing from
    blocks has a zero block.
    """

    sites: tuple[int, ...]
    blocks: dict[int, np.ndarray]

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def sz_sectors(self) -> list[np.ndarray]:
        """Index groups of equal block up-count, in ascending count order."""
        idx = np.arange(2 ** self.n_sites, dtype=np.uint64)
        pop = np.bitwise_count(idx)
        return [np.nonzero(pop == u)[0] for u in range(self.n_sites + 1)]

    @property
    def rho(self) -> np.ndarray:
        """The dense 2^l x 2^l matrix, assembled from the blocks on each call."""
        rho = np.zeros((2**self.n_sites, 2**self.n_sites))
        for u, rows in enumerate(self.sz_sectors()):
            if u in self.blocks:
                rho[np.ix_(rows, rows)] = self.blocks[u]
        return rho

    def eigenvalues(self) -> np.ndarray:
        """Full spectrum, computed block by block, descending.  A 1 x 1
        block's eigenvalue is its entry, as dsyevr's N = 1 quick return gives."""
        l = self.n_sites
        lam = [
            np.zeros(comb(l, u)) if u not in self.blocks
            else self.blocks[u][0] if len(self.blocks[u]) == 1
            else scipy.linalg.eigvalsh(self.blocks[u])
            for u in range(l + 1)
        ]
        return np.sort(np.concatenate(lam))[::-1]


@dataclass(frozen=True)
class RungRdmParams:
    """Populations and coherence of the U(1)-structured two-site rung RDM."""

    uPlus: float
    uMinus: float
    w1: float
    w2: float
    z: float


class BlockLayout:
    """The part of a block's RDM that no state enters: the validated sites,
    their basis and the order that lays the basis out by block pattern
    (see reduced_density_matrix).  The order is int32, half of argsort's
    int64, so the gathers hold 4 bytes per state of it beside the blocks,
    which for a block of half the sites are as long as the state.
    len(layout) is the block size, so a layout stands in for its sites."""

    def __init__(self, basis: SectorBasis, sites):
        sites = tuple(check_integer("block site", s) for s in sites)
        N, l = basis.N, len(sites)
        if len(set(sites)) != l:
            raise ValueError("block sites must be distinct")
        if any(s < 0 or s >= N for s in sites):
            raise ValueError(f"block sites must lie in 0..{N - 1}")
        if l == 0:
            raise ValueError("block needs at least one site")
        if l > RDM_MAX_SITES:
            raise ValueError(f"block size capped at {RDM_MAX_SITES} sites, got {l}")
        self.sites, self.basis = sites, basis
        # l <= RDM_MAX_SITES = 14, so patterns and their positions fit in
        # uint16, for which numpy's stable sort is an O(dim) radix sort
        b = N // 2
        hi_pattern = np.zeros(1 << (N - b), dtype=np.uint16)
        lo_pattern = np.zeros(1 << b, dtype=np.uint16)
        for t, s in enumerate(sites):
            table, bit = (hi_pattern, s - b) if s >= b else (lo_pattern, s)
            table |= ((np.arange(len(table)) >> bit) & 1).astype(np.uint16) << (l - 1 - t)
        position = np.empty(2**l, dtype=np.uint16)
        position[np.concatenate(DensityMatrix(sites, {}).sz_sectors())] = np.arange(2**l)
        key = np.empty(basis.dim, dtype=np.uint16)
        for at in range(0, basis.dim, RANK_BLOCK):
            part = basis.states[at:at + RANK_BLOCK]
            pattern = hi_pattern[part >> b] | lo_pattern[part & ((1 << b) - 1)]
            key[at:at + RANK_BLOCK] = position[pattern]
        order = np.argsort(key, kind="stable")
        del key, pattern, table, hi_pattern, lo_pattern, position  # before the int32 copy
        self.order = order.astype(np.int32)
        # (u, C(l, u), C(N - l, n_up - u)) of each run of M_u, in layout order
        self.runs = [
            (u, comb(l, u), comb(N - l, basis.n_up - u))
            for u in range(l + 1) if 0 <= basis.n_up - u <= N - l
        ]

    def __len__(self) -> int:
        return len(self.sites)


def reduced_density_matrix(state: StateVector, sites) -> DensityMatrix:
    """Trace out everything but the given sites of a pure sector state.

    sites is the block's site list, or a BlockLayout of them built on
    state.basis (one built on another basis is refused).  Each mask's
    block pattern (its block bits, sites[0] highest) is read from two
    small tables, one over the high and one over the low half of the mask
    (split at b = N // 2, as in Lin's tables), with one gather each.  The
    masks of one pattern differ only in their environment bits, so their
    ascending basis order is the ascending order of their environments.  A
    stable sort on each pattern's position in (up-count, pattern) order
    therefore lays the state out with each pattern owning one contiguous
    run of its C(N - l, n_up - u) environments, u the pattern's up-count,
    in the same order for every pattern, and the C(l, u) runs of one u
    next to each other.  That order is the layout.  M_u, those runs
    stacked as rows, is then the amplitudes at one slice of the order,
    reshaped, and the block of rho at up-count u is the dense product
    M_u M_u^T: O(dim) integer work, once per layout, and per state one
    gather and one BLAS product per u instead of a 4^l full trace.  Each
    M_u is gathered only when its product is taken, so beside the order
    and the blocks a call holds one M_u, not the whole reordered state.
    A block of all N sites has one environment per pattern, so rho is
    |psi><psi| over the patterns.
    """
    layout = sites if isinstance(sites, BlockLayout) else BlockLayout(state.basis, sites)
    if layout.basis is not state.basis:
        raise ValueError("block layout was built on another basis than the state's")
    rho = DensityMatrix(sites=layout.sites, blocks={})
    at = 0
    for u, rows, cols in layout.runs:
        M = state.amps[layout.order[at:at + rows * cols]].reshape(rows, cols)
        at += rows * cols
        rho.blocks[u] = M @ M.T
        del M  # before the next run's gather
    return rho


def von_neumann_entropy(rho) -> float:
    """-sum lam log2 lam over the spectrum, with 0 log 0 = 1 log 1 = 0.

    Accepts a DensityMatrix or a plain Hermitian matrix.  A pure state gives
    exactly 0.0, never -0.0.
    """
    lam = (rho.eigenvalues() if isinstance(rho, DensityMatrix)
           else scipy.linalg.eigvalsh(np.asarray(rho, dtype=np.float64)))
    lam = lam[(lam > EIG_FLOOR) & (lam < 1.0 - EIG_FLOOR)]
    return float(np.sum(lam * -np.log2(lam)))


def concurrence(rho) -> float:
    """Wootters concurrence of a fixed-Sz two-site density matrix.

    Such a matrix is an X state: populations p_dd, p_du, p_ud, p_uu and the
    one coherence z = <ud|rho|du>.  Its concurrence has the closed form
    C = 2 max(0, |z| - sqrt(p_dd p_uu)) (Wootters, PRL 80, 2245 (1998);
    Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)).  A matrix outside that
    pattern is refused by rung_rdm_params, and one with an eigenvalue below
    -1e-12 here.
    """
    p = rung_rdm_params(rho)
    mid = (p.w1 + p.w2) / 2.0
    lowest = min(p.uPlus, p.uMinus, mid - hypot((p.w1 - p.w2) / 2.0, p.z))
    if lowest < -1e-12:
        raise ValueError(f"density matrix has eigenvalue {lowest:.3e} < -1e-12")
    return 2.0 * max(0.0, abs(p.z) - sqrt(max(0.0, p.uPlus * p.uMinus)))


def rung_rdm_params(rho) -> RungRdmParams:
    """Extract (u+, u-, w1, w2, z) from a U(1)-structured two-site RDM.

    The matrix must be symmetric to 1e-10, and the only entries allowed are
    the four populations and the single <ud|rho|du> coherence; anything else
    signals a state that does not conserve Sz and is rejected.  A two-site
    DensityMatrix is read from its blocks, which hold no other entry; one
    of any other size is refused before anything is assembled.
    """
    if isinstance(rho, DensityMatrix):
        if rho.n_sites != 2:
            raise ValueError(f"two-site RDM expected, got one of {rho.n_sites} sites")
        dd, mid, uu = (rho.blocks.get(u, np.zeros((n, n))) for u, n in ((0, 1), (1, 2), (2, 1)))
        if abs(mid[0, 1] - mid[1, 0]) > 1e-10:
            raise ValueError("two-site density matrix is not symmetric")
        return RungRdmParams(uPlus=float(dd[0, 0]), w1=float(mid[0, 0]), w2=float(mid[1, 1]),
                             uMinus=float(uu[0, 0]), z=float(mid[1, 0]))
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (4, 4):
        raise ValueError(f"two-site RDM must be 4x4, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.T)) > 1e-10:
        raise ValueError("two-site density matrix is not symmetric")
    allowed = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}
    stray = max(
        abs(rho[r, c]) for r in range(4) for c in range(4) if (r, c) not in allowed
    )
    if stray > 1e-10:
        raise ValueError(
            f"off-pattern entry of magnitude {stray:.3e}: not a fixed-Sz rung RDM"
        )
    return RungRdmParams(
        uPlus=float(rho[0, 0]),
        w1=float(rho[1, 1]),
        w2=float(rho[2, 2]),
        uMinus=float(rho[3, 3]),
        z=float(rho[2, 1]),
    )


def rung_entropy_from_z(z: float) -> float:
    """Rung entropy of the SU(2)-symmetric RDM parameterized by z alone.

    With u = (1 + 2z)/4 the spectrum is {u, u, u, (1 - 6z)/4}; valid for
    -1/2 <= z <= 1/6 where all four eigenvalues are nonnegative.
    """
    if not Z_MIN - 1e-12 <= z <= Z_MAX + 1e-12:
        raise ValueError(f"z = {z} outside the physical range [-1/2, 1/6]")
    u = (1.0 + 2.0 * z) / 4.0
    rest = (1.0 - 6.0 * z) / 4.0
    ent = 0.0
    if u > EIG_FLOOR:
        ent -= 3.0 * u * np.log2(u)
    if rest > EIG_FLOOR:
        ent -= rest * np.log2(rest)
    return float(ent)


def rung_correlator(state: StateVector, rung: int) -> float:
    """<S1i . S2i> on rung i (1-based), by the same pass as expectation_T."""
    L, rung = state.basis.N // 2, check_integer("rung", rung)
    if not 1 <= rung <= L:
        raise ValueError(f"rung must be in 1..{L}, got {rung}")
    a = state.amps
    return float(_rung_term(state, rung - 1, float((a * a).sum())))


def _rung_term(state: StateVector, r: int, norm2: float):
    """<S . S> on the rung bond (2r, 2r + 1), norm2 the state's squared norm.

    With amplitudes a over masks m, SzSz gives 1/4 norm2 - 1/2 sum_anti a^2
    and the flip-flop gives 1/2 sum_anti a_k a[rank(m_k ^ (3 << 2r))], the
    sums running over the masks antiparallel on the bond.  No operator
    matrix is built.  The 2 C(N - 2, n_up - 1) antiparallel amplitudes x =
    a_k and their partners y = a[rank(m_k ^ (3 << 2r))] are gathered
    RANK_BLOCK masks at a time, so the pass holds x, y and one slice's
    scratch, and the sums read the same arrays in the same order as over
    the whole basis at once.  Both gathers' indices are in range, so they
    clip: mode "raise" copies through a buffer.
    """
    basis = state.basis
    a = state.amps
    n_anti = 2 * comb(basis.N - 2, basis.n_up - 1) if basis.n_up else 0
    x, y = np.empty(n_anti), np.empty(n_anti)
    filled = 0
    for at in range(0, basis.dim, RANK_BLOCK):
        part = basis.states[at:at + RANK_BLOCK]
        pair = (part >> (2 * r)).astype(np.uint8)
        pair ^= pair >> 1
        pair &= 1
        anti = np.flatnonzero(pair)
        end = filled + len(anti)
        np.take(a[at:at + RANK_BLOCK], anti, out=x[filled:end], mode="clip")
        flipped = part[anti]
        del pair, anti  # before rank_many's own scratch
        flipped ^= 3 << (2 * r)
        np.take(a, basis.rank_many(flipped), out=y[filled:end], mode="clip")
        filled = end
    dot = x @ y
    x *= x
    return 0.25 * norm2 - 0.5 * x.sum() + 0.5 * dot


def expectation_T(state: StateVector) -> float:
    """<sum_i S1i . S2i>, the total rung correlator: the rungs' terms, each
    read by one streamed pass that holds only its own rung's arrays."""
    a = state.amps
    norm2 = float((a * a).sum())
    total = 0.0
    for r in range(state.basis.N // 2):
        total += _rung_term(state, r, norm2)
    return float(total)
