"""Sparse term matrices of the ladder Hamiltonian on fixed-Sz sectors.

The Hamiltonian is

    H = Jr * sum_i S1i.S2i + Jl * sum_bonds S.S + K * sum_i (P_i + Pinv_i)

where P_i cyclically rotates the four spins of plaquette i clockwise.  Each
term is one coupling-independent scipy.sparse matrix over the sector basis:
bond_matrix gives a sum of S.S bonds in CSR form with its diagonal, and
ring_matrix stacks the forward rotations of every plaquette into one CSC
matrix P, so the ring term acts as P @ v + P.T @ v.  The same bond_matrix
serves the solve, apply_T and the rung correlators.  The spin-operator
decomposition of P + Pinv is kept alongside as an independent cross-check
route and is not used in solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .basis import SectorBasis
from .lattice import Couplings, LadderSpec, Plaquette, enumerate_terms

__all__ = [
    "StateVector",
    "LadderTables",
    "HamiltonianAction",
    "bond_matrix",
    "ring_matrix",
    "apply_ring_permutation",
    "apply_ring_decomposed",
    "apply_T",
]


@dataclass
class StateVector:
    """Real amplitudes over one sector basis."""

    basis: SectorBasis
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.float64)
        if self.amps.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude count {self.amps.shape} does not match "
                f"sector dimension {self.basis.dim}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def apply_ring_permutation(plaquette: Plaquette, config, inverse: bool = False):
    """Rotate the four spins of one plaquette in a configuration mask.

    Forward rotation moves the value on a to b, b to c, c to d and d to a,
    so position a receives the old d value.  Works elementwise on integer
    arrays as well as on single masks.
    """
    a, b, c, d = plaquette.a, plaquette.b, plaquette.c, plaquette.d
    va = (config >> a) & 1
    vb = (config >> b) & 1
    vc = (config >> c) & 1
    vd = (config >> d) & 1
    cleared = config & ~((1 << a) | (1 << b) | (1 << c) | (1 << d))
    if inverse:
        return cleared | (vb << a) | (vc << b) | (vd << c) | (va << d)
    return cleared | (vd << a) | (va << b) | (vb << c) | (vc << d)


def bond_matrix(basis: SectorBasis, bonds) -> scipy.sparse.csr_array:
    """sum over bonds (i, j) of S_i . S_j as a CSR matrix on the sector.

    Row k holds the flip-flop entries 1/2 of its antiparallel bonds in bond
    order, then its diagonal, the sum of the +-1/4 SzSz weights, last.  The
    rows are filled in place from one (dim, nbonds + 1) column table.
    """
    bonds = list(bonds)
    states = basis.states
    nb = len(bonds)
    cols = np.empty((basis.dim, nb + 1), dtype=np.int32)
    keep = np.empty((basis.dim, nb + 1), dtype=bool)
    for b, (i, j) in enumerate(bonds):
        anti = (((states >> i) ^ (states >> j)) & 1).astype(bool)
        flip = (np.int64(1) << i) | (np.int64(1) << j)
        cols[anti, b] = basis.rank_many(states[anti] ^ flip)
        keep[:, b] = anti
    cols[:, nb] = np.arange(basis.dim)
    keep[:, nb] = True

    n_anti = keep[:, :nb].sum(axis=1)
    nnz = basis.dim + int(n_anti.sum())
    idx = scipy.sparse.get_index_dtype(maxval=nnz)
    indptr = np.zeros(basis.dim + 1, dtype=idx)
    np.cumsum(n_anti + 1, out=indptr[1:])
    indices = cols[keep].astype(idx, copy=False)
    del cols, keep  # free the build tables before data is allocated
    data = np.full(nnz, 0.5)
    data[indptr[1:] - 1] = 0.25 * nb - 0.5 * n_anti
    return scipy.sparse.csr_array((data, indices, indptr), shape=(basis.dim, basis.dim))


def ring_matrix(basis: SectorBasis, plaquettes) -> scipy.sparse.csc_array:
    """sum over plaquettes of the forward rotation P as a CSC matrix.

    Column k holds a 1 at the rank of each plaquette's rotation of
    states[k], so P @ v applies every forward rotation and P.T @ v every
    inverse one.
    """
    plaquettes = list(plaquettes)
    n = len(plaquettes)
    idx = scipy.sparse.get_index_dtype(maxval=max(n * basis.dim, basis.dim))
    rows = np.empty((basis.dim, n), dtype=idx)
    for p_idx, plaq in enumerate(plaquettes):
        rows[:, p_idx] = basis.rank_many(apply_ring_permutation(plaq, basis.states))
    indptr = np.arange(basis.dim + 1, dtype=idx) * n
    return scipy.sparse.csc_array(
        (np.ones(rows.size), rows.reshape(-1), indptr), shape=(basis.dim, basis.dim)
    )


class LadderTables:
    """Coupling-independent term matrices for one (geometry, sector) pair.

    rung and leg are the CSR bond sums, ring the CSC forward-rotation sum.
    Building costs O(N * dim); share one instance across all theta
    values of a sweep.  Read-only after construction, safe to use from
    concurrent solves.
    """

    def __init__(self, spec: LadderSpec, basis: SectorBasis):
        if basis.N != spec.N:
            raise ValueError(f"basis is for {basis.N} sites, ladder has {spec.N}")
        self.spec = spec
        self.basis = basis
        rung_bonds, leg_bonds, plaquettes = enumerate_terms(spec)
        self.rung = bond_matrix(basis, rung_bonds)
        self.leg = bond_matrix(basis, leg_bonds)
        self.ring = ring_matrix(basis, plaquettes)


class HamiltonianAction:
    """H bound to concrete couplings, exposing matvec on raw amplitude arrays."""

    def __init__(self, tables: LadderTables, couplings: Couplings):
        self.tables = tables
        self.couplings = couplings
        # .T builds a new sparse object on each access; one view serves
        # every matvec at this coupling point
        self._ring_T = tables.ring.T

    @property
    def dim(self) -> int:
        return self.tables.basis.dim

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        t = self.tables
        Jr, Jl, K = self.couplings.Jr, self.couplings.Jl, self.couplings.K
        out = Jr * (t.rung @ v) + Jl * (t.leg @ v)
        if K != 0.0:
            out += K * (t.ring @ v + self._ring_T @ v)
        return out


def apply_ring_decomposed(plaquettes, basis: SectorBasis, v: StateVector) -> StateVector:
    """sum over plaquettes of (P + Pinv) via the spin-operator decomposition.

    Per plaquette (a, b, c, d):

        P + Pinv = 1/4 + sum of S.S over the four edges and both diagonals
                   + 4 [ (Sa.Sb)(Sc.Sd) + (Sa.Sd)(Sb.Sc) - (Sa.Sc)(Sb.Sd) ]

    Slow reference route for cross-checking ring_matrix only.
    """
    if v.basis is not basis:
        raise ValueError("state vector lives on a different basis object")
    w = v.amps
    out = np.zeros_like(w)
    for p in plaquettes:
        a, b, c, d = p.sites
        S = {
            pair: bond_matrix(basis, [pair])
            for pair in ((a, b), (b, c), (c, d), (d, a), (a, c), (b, d))
        }
        out += 0.25 * w
        for pair_op in S.values():
            out += pair_op @ w
        out += 4.0 * (S[a, b] @ (S[c, d] @ w))
        out += 4.0 * (S[d, a] @ (S[b, c] @ w))
        out -= 4.0 * (S[a, c] @ (S[b, d] @ w))
    return StateVector(basis, out)


def apply_T(basis: SectorBasis, v: StateVector) -> StateVector:
    """(sum_i S1i . S2i) applied to v; the rung sum read off from basis.N."""
    if v.basis is not basis:
        raise ValueError("state vector lives on a different basis object")
    rungs = [(2 * r, 2 * r + 1) for r in range(basis.N // 2)]
    return StateVector(basis, bond_matrix(basis, rungs) @ v.amps)
