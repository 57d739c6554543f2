"""The ladder Hamiltonian on fixed-Sz or symmetry sectors as one sparse matrix per coupling point.

The Hamiltonian is

    H = Jr * sum_i S1i.S2i + Jl * sum_bonds S.S + K * sum_i (P_i + Pinv_i)

where P_i cyclically rotates the four spins of plaquette i clockwise.
LadderTables holds one coupling-independent CSR pattern for all of H with a
small unsigned key per entry into a short list of (code, factor) pairs, and
HamiltonianAction turns the pairs into values at its couplings, so each
matvec is a single sparse product.  One row builder fills H's rows at any
array of masks: the states of a plain Sz sector, or the orbit
representatives from which a symmetry sector's rows are read.  bond_matrix,
ring_matrix and the spin-operator decomposition of P + Pinv are the merged
pattern's oracles, unused in solves and measurements.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .basis import RANK_BLOCK, LadderOrbits, SectorBasis, SymmetrySector
from .lattice import Couplings, LadderSpec, Plaquette, enumerate_terms

__all__ = [
    "StateVector",
    "LadderTables",
    "HamiltonianAction",
    "bond_matrix",
    "ring_matrix",
    "apply_ring_permutation",
    "apply_ring_decomposed",
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


# codes of the merged pattern: 0 marks the diagonal, RUNG + m and LEG + m a
# bond flip-flop that m ring exchanges also reach, DIAG_SWAP an exchange
# across a plaquette diagonal and FOUR_FLIP the flip of an alternating
# plaquette
RUNG, LEG, DIAG_SWAP, FOUR_FLIP = 1, 4, 7, 8


def _coupling_lut(c: Couplings) -> np.ndarray:
    """Matrix element of every off-diagonal code at these couplings."""
    Jr, Jl, K = c.Jr, c.Jl, c.K
    return np.array(
        [0.0]
        + [0.5 * Jr + m * K for m in range(3)]
        + [0.5 * Jl + m * K for m in range(3)]
        + [K, 2.0 * K]
    )


def _bond_slots(up, rung_bonds, leg_bonds, plaquettes):
    """The flip-flop slots of H's rows, rung bonds then leg bonds.

    up[s] is the bool spin-up array of site s over the sector states.  Yields
    (on, flip, code): the rows that hold the slot, the bits its column flips
    and the uint8 code its entry would have in every row, an array as long
    as up[s] that the caller reads at those rows (one gather there costs far
    less than a boolean mask here).
    """
    # P and Pinv each exchange one edge of a plaquette with exactly one
    # antiparallel diagonal pair: the two antiparallel edges of its minority spin
    one_odd = [up[p.a] ^ up[p.c] ^ up[p.b] ^ up[p.d] for p in plaquettes]
    touching: dict[frozenset, list[int]] = {}
    for k, p in enumerate(plaquettes):
        for edge in ((p.a, p.b), (p.b, p.c), (p.c, p.d), (p.d, p.a)):
            touching.setdefault(frozenset(edge), []).append(k)
    for bonds, base in ((rung_bonds, RUNG), (leg_bonds, LEG)):
        for i, j in bonds:
            hits = np.zeros(len(up[i]), dtype=np.uint8)
            for k in touching.get(frozenset((i, j)), ()):
                hits += one_odd[k]
            yield up[i] ^ up[j], (1 << i) | (1 << j), base + hits


def _plaquette_slots(up, plaquettes):
    """The ring slots of H's rows that no bond flip reaches, by plaquette:
    both diagonal exchanges, then the four-spin flip."""
    for p in plaquettes:
        dac, dbd = up[p.a] ^ up[p.c], up[p.b] ^ up[p.d]
        both = dac & dbd
        yield both, (1 << p.a) | (1 << p.c), DIAG_SWAP
        yield both, (1 << p.b) | (1 << p.d), DIAG_SWAP
        alternating = ~(dac | dbd) & (up[p.a] ^ up[p.b])
        yield alternating, (1 << p.a) | (1 << p.b) | (1 << p.c) | (1 << p.d), FOUR_FLIP


class LadderTables:
    """Coupling-independent sparsity pattern of H for one (geometry, sector) pair.

    indptr and indices are one CSR pattern holding every term, and key
    picks each entry's (pair_code, pair_factor), so a coupling point only
    has to look up its values.  P and Pinv of a plaquette (a, b, c, d) land

      * on the diagonal when all four spins are equal (weight 2);
      * on an antiparallel edge of the plaquette, which is a rung or leg
        bond flip already in the pattern, when exactly one of a != c,
        b != d holds (weight 1 on each of the minority spin's two edges);
      * on both diagonal exchanges (a c) and (b d) when both hold (weight 1);
      * on the four-spin flip when the plaquette alternates (weight 2).

    Row k holds its antiparallel bonds in rung then leg order, its diagonal
    exchanges and four-spin flips by plaquette, and its diagonal last.  The
    diagonal is Jr (nr/4 - anti_r/2) + Jl (nl/4 - anti_l/2) + K fixed,
    with the per-row int8 counts anti_r and anti_l of antiparallel rung
    and leg bonds and fixed, twice the number of uniform plaquettes.
    Building costs O(N * dim); share one instance across all theta values
    of a sweep.  Read-only after construction, safe to use from concurrent
    solves.

    A plain sector's key is its code, with factor 1.  On a SymmetrySector of
    the ladder's boundary the rows are the sector's states, read through the
    builder's rows at their representative masks, with factors from the
    sector's vectors, irrep matrices and norms.  An entry reaches each state
    of its target orbit, but a target state is stored only where its factor
    is nonzero, so no pair_factor is 0; a row may repeat a column, which the
    product sums.
    """

    def __init__(self, spec: LadderSpec, basis: SectorBasis | SymmetrySector):
        if basis.N != spec.N:
            raise ValueError(f"basis is for {basis.N} sites, ladder has {spec.N}")
        self.basis = basis
        rung_bonds, leg_bonds, _ = enumerate_terms(spec)
        self.n_rung, self.n_leg = len(rung_bonds), len(leg_bonds)
        if isinstance(basis, SectorBasis):
            (self.indptr, self.indices, self.key,
             self.anti_r, self.anti_l, self.fixed) = _rows(spec, basis, basis.states)
            self.pair_code, self.pair_factor = np.arange(FOUR_FLIP + 1), np.ones(FOUR_FLIP + 1)
        else:
            if basis.group.bc != spec.bc:
                raise ValueError(f"sector is of a {basis.group.bc} ladder, not {spec.bc}")
            self._fill_sector(*_sector_order(spec, basis.group, basis.rows))

    def _fill_sector(self, size, end, kind, target, counts):
        # H w(a, u) = sum over the entries h_ba of a's row of h_ba * sum over
        # the states w(b', u') of b's orbit of u'^T D(g_b) u * n_b' / n_a,
        # where g_b maps b to its representative b'.  Sector state i takes its
        # representative's row, diagonal last, each entry fanned out to the
        # states of b's orbit, in order, whose factor is nonzero.  Each entry
        # array is built in place and dropped on its last use
        s, a = self.basis, self.basis.orbit
        self.anti_r, self.anti_l, self.fixed = (c[a] for c in counts)
        # a factor depends only on g and the bits of its row's and column's
        # (vecs column, norm), their labels, never on the code: one per
        # (code, g, labels) combination met, each (code, factor) kept once.
        # A label is one run of equal columns among those bits, sorted
        bits = np.vstack([s.vecs, s.norm[a]]).view(np.int64)
        order = np.lexsort(bits)
        bits = bits[:, order]
        new = np.ones(s.dim, dtype=bool)
        new[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
        label = np.empty(s.dim, dtype=np.int64)
        label[order] = np.cumsum(new) - 1
        nl, r = int(np.count_nonzero(new)) + 1, s.rows
        # vecs rows, then the norm; label nl - 1 stands for no state, a zero
        # vector of norm 1, all of whose factors are 0
        v = np.zeros((r + 1, nl))
        v[:, :-1] = bits[:, new].view(np.float64)
        v[-1, -1] = 1.0
        del bits, order, new
        # the group's entries in sector order: the block o * rows + t is sector
        # state i's if i is orbit o's state t; lab[o, t] is that state's label
        t = np.arange(s.dim) - s.first[a]
        block = a * r + t
        lab = np.full((len(s.count), r), nl - 1)
        lab.reshape(-1)[block] = label
        # position k reaches state u of its target orbit, slot k * rows + u,
        # through combo = (kind, row label, column label) if its factor is
        # nonzero, so that is decided once per combination, before any fan-out
        row = np.multiply(kind, nl, dtype=np.int64)
        row += np.repeat(lab.reshape(-1), size)
        row *= nl
        combo = np.take(lab, target, axis=0).reshape(-1)
        combo += np.repeat(row, r)
        del row
        mark = np.zeros((FOUR_FLIP + 1, s.group.order, nl, nl), dtype=bool)
        mark.reshape(-1)[combo] = True
        mark[0] = False  # the diagonal, code 0, is placed apart
        mark.reshape(-1)[0] = True  # the diagonal's, so its code 0 is key 0
        seen = np.flatnonzero(mark)
        c, g, lr, lc = np.unravel_index(seen, mark.shape)
        f = sum(v[i][lc] * s.D[i, j][g] * v[j][lr] for i in range(s.rows) for j in range(s.rows))
        f *= v[-1][lc] / v[-1][lr]
        f[0] = 1.0  # the diagonal's pair is (0, 1), not |v|^2 of label 0's vector
        nonzero = f != 0
        mark.reshape(-1)[seen] = nonzero
        c, f = c[nonzero], f[nonzero]
        fs, fl = np.unique(f.view(np.int64), return_inverse=True)
        pairs, pair = np.unique(c * len(fs) + fl, return_inverse=True)  # code 0 first
        self.pair_code, self.pair_factor = pairs // len(fs), fs.view(np.float64)[pairs % len(fs)]
        lookup = np.zeros(mark.shape, dtype=np.min_scalar_type(len(pairs)))
        lookup[mark] = pair
        key = np.take(lookup, combo)  # 0 where the position does not reach the state
        del combo
        # the kept slots, in order, are the tables' entries: the block of
        # sector state i ends in its diagonal, u = t with key 0
        keep = key != 0
        keep[(end[block] - 1) * r + t] = True
        at = np.flatnonzero(keep)
        idx = scipy.sparse.get_index_dtype(maxval=max(len(at), s.dim))
        self.key = np.take(key, at)
        del key
        col = np.take((s.first[:, None] + np.arange(r)).astype(idx), target, axis=0)
        self.indices = np.take(col, at)
        del col, at
        per_block = np.add.reduceat(keep.view(np.uint8), (end - size) * r, dtype=idx)
        self.indptr = np.zeros(s.dim + 1, dtype=idx)
        np.cumsum(per_block[block], out=self.indptr[1:])


def _rows(spec: LadderSpec, basis: SectorBasis, masks: np.ndarray):
    """H's rows at an array of in-sector masks, in LadderTables' order.

    Returns the CSR pointers, the basis rank of each entry's target mask
    (each row's diagonal last, at the rank of the row's own mask), the uint8
    code of each entry and the per-row int8 counts anti_r, anti_l and fixed.
    """
    rung_bonds, leg_bonds, plaquettes = enumerate_terms(spec)
    n = len(masks)
    anti_r, anti_l, fixed = (np.zeros(n, dtype=np.int8) for _ in range(3))
    row_len = np.ones(n, dtype=np.int8)  # at most 6 L + 1 <= 97 entries, N <= 32
    # two passes over the masks RANK_BLOCK at a time, so only one block's spin
    # arrays and one slot's rows live at a time: count the entries of each row
    # (one per antiparallel bond, the ring slots and the diagonal), then fill
    # the block's own stretch of the entries slot by slot
    blocks = [slice(at, min(at + RANK_BLOCK, n)) for at in range(0, n, RANK_BLOCK)]
    for part in blocks:
        block = masks[part]
        up = [((block >> s) & 1).astype(bool) for s in range(spec.N)]
        for count, bonds in ((anti_r, rung_bonds), (anti_l, leg_bonds)):
            for i, j in bonds:
                count[part] += up[i] ^ up[j]
        for p in plaquettes:
            mixed = (up[p.a] ^ up[p.b]) | (up[p.b] ^ up[p.c]) | (up[p.c] ^ up[p.d])
            fixed[part] += np.int8(2) * ~mixed
        row_len[part] += anti_r[part] + anti_l[part]
        for on, _, _ in _plaquette_slots(up, plaquettes):
            row_len[part] += on
    nnz = int(row_len.sum(dtype=np.int64))
    idx = scipy.sparse.get_index_dtype(maxval=max(nnz, basis.dim))
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(row_len, dtype=idx, out=indptr[1:])
    del row_len
    indices = np.empty(nnz, dtype=idx)
    code = np.zeros(nnz, dtype=np.uint8)
    for part in blocks:
        block = masks[part]
        up = [((block >> s) & 1).astype(bool) for s in range(spec.N)]
        start, stop = indptr[part.start], indptr[part.stop]
        ind, cod = indices[start:stop], code[start:stop]
        pos = np.subtract(indptr[part], start, dtype=np.intp)  # intp: index without a cast
        for on, flip, c in itertools.chain(
            _bond_slots(up, rung_bonds, leg_bonds, plaquettes),
            _plaquette_slots(up, plaquettes),
        ):
            rows = np.flatnonzero(on)
            at = pos[rows]
            ind[at] = basis.rank_many(block[rows] ^ flip)
            cod[at] = c[rows] if np.ndim(c) else c
            pos += on
        ind[pos] = basis.rank_many(block)
    return indptr, indices, code, anti_r, anti_l, fixed


# every sector of a group reads the same representative rows, so a group's
# first sector builds them once, lays them out for each irrep dimension of
# the group and drops them; the layouts live as long as the group does
_group_orders = weakref.WeakKeyDictionary()


def _sector_order(spec: LadderSpec, group: LadderOrbits, rows: int):
    """The group's representative rows in the order of a sector of a
    rows-dimensional irrep: orbit o's row once for each state t < rows it
    may hold, the block o * rows + t.  Returns each block's size and end,
    each position's uint16 kind, code * order + g with g the element taking
    its target to its representative (below 9 * 8L), and its target's int32
    orbit, and the per-row counts."""
    if group not in _group_orders:
        ptr, at, code, *counts = _rows(spec, group.basis, group.reps)
        kind = code.astype(np.uint16)
        kind *= group.order
        kind += group.element_of[at]
        orbit = group.orbit_of[at]
        del at, code
        orders = _group_orders[group] = {}
        for d in {irrep.dim for irrep in group.irreps()}:
            size = np.repeat(np.diff(ptr), d)
            end = np.cumsum(size)
            e = np.arange(end[-1]) + np.repeat(np.repeat(ptr[:-1], d) - end + size, size)
            orders[d] = (size, end, kind[e], orbit[e], counts)
    return _group_orders[group][rows]


class HamiltonianAction:
    """H bound to concrete couplings, exposing matvec on raw amplitude arrays.

    H is one CSR matrix whose data is the tables' pair values at these
    couplings, read at each entry's key; it shares indices and indptr with
    the tables, so each coupling point adds one float array of nnz entries.
    """

    def __init__(self, tables: LadderTables, couplings: Couplings):
        self.tables = tables
        self.couplings = couplings
        t, Jr, Jl, K = tables, couplings.Jr, couplings.Jl, couplings.K
        # take gathers at the uint8 or uint16 key 1.8 times faster than []
        data = (_coupling_lut(couplings)[t.pair_code] * t.pair_factor).take(t.key)
        data[t.indptr[1:] - 1] = (
            Jr * (0.25 * t.n_rung - 0.5 * t.anti_r)
            + Jl * (0.25 * t.n_leg - 0.5 * t.anti_l)
            + K * t.fixed
        )
        self.H = scipy.sparse.csr_array(
            (data, t.indices, t.indptr), shape=(self.dim, self.dim)
        )

    @property
    def dim(self) -> int:
        return self.tables.basis.dim

    def matvec(self, v: np.ndarray) -> np.ndarray:
        # H @ v without scipy's operator dispatch, which costs about as much
        # as the product in a sector of a few hundred states: the same
        # csr_matvec into the same zeroed output, so the same bits
        H, v = self.H, np.asarray(v, dtype=np.float64)
        if v.shape != H.shape[1:]:
            raise ValueError(f"matvec needs {H.shape[1]} amplitudes, got shape {v.shape}")
        out = np.zeros(H.shape[0])
        csr_matvec(*H.shape, H.indptr, H.indices, H.data, v, out)
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
