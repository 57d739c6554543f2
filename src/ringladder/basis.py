"""Enumeration and ranking of fixed-magnetization bitmask bases, and the
symmetry sectors of a ladder's fixed-magnetization sector.

A configuration is a bitmask where bit s set means spin up at site s.  The
sector with 2*Sz = twoSz holds every mask of popcount n_up = N/2 + Sz, in
ascending numeric order.  Both enumeration and lookup use H. Q. Lin's two
tables (PRB 42, 6561 (1990); Sandvik, arXiv:1101.3281, section 4).  A mask m
splits at b = N // 2 into hi = m >> b and lo = m & (2^b - 1):

- lo_rank[lo] is the position of lo among the b-bit masks of its popcount;
- off[hi] counts the sector states whose high half is below hi.

The states ascend, so the ordinal of m is off[hi] + lo_rank[lo], and the
states of one high half are hi << b joined to each low half of popcount
n_up - popcount(hi) in turn.  The sector is complete, so a mask belongs to it
exactly when it is nonnegative, has no bit at or above N and has popcount
n_up.  The symmetry sectors are described after build_sector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from .lattice import check_integer

__all__ = [
    "SectorBasis",
    "build_sector",
    "Irrep",
    "LadderOrbits",
    "SymmetrySector",
    "symmetry_sectors",
]

N_MAX = 32
# rank_many works through its masks in blocks of this many, so that the
# temporaries of one block stay in cache
RANK_BLOCK = 1 << 15


@functools.lru_cache(maxsize=None)
def _lin_tables(N: int, n_up: int) -> tuple[np.ndarray, ...]:
    """Read-only (lo_rank, off, lows, first) of the (N, n_up) sector.

    lows lists the b-bit masks by popcount, ascending within a popcount, and
    popcount p starts at lows[first[p]], so lo_rank[lows[first[p] + j]] = j.
    """
    b = N // 2
    pop = np.bitwise_count(np.arange(1 << b)).astype(np.int64)
    lows = np.argsort(pop, kind="stable")
    first = np.searchsorted(pop[lows], np.arange(b + 2))
    lo_rank = np.empty(1 << b, dtype=np.int64)
    lo_rank[lows] = np.arange(1 << b) - first[pop[lows]]
    need = n_up - np.bitwise_count(np.arange(1 << (N - b))).astype(np.int64)
    fits = (need >= 0) & (need <= b)
    need = np.where(fits, need, 0)
    width = np.where(fits, first[need + 1] - first[need], 0)
    off = np.cumsum(width) - width
    tables = (lo_rank, off, lows, first)
    for t in tables:
        t.flags.writeable = False  # one shared instance
    return tables


@dataclass(frozen=True)
class SectorBasis:
    """Complete ascending basis of one fixed-Sz sector.

    states[k] is the k-th configuration mask; rank_many inverts the
    enumeration with Lin's tables.  Immutable after construction.
    """

    N: int
    twoSz: int
    states: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def n_up(self) -> int:
        return (self.N + self.twoSz) // 2

    # as a sector of itself, the whole-sector reference of the tests: one
    # irrep row, whose states are the Sz basis
    rows = 1

    def expand(self, amps: np.ndarray, row: int = 0) -> np.ndarray:
        return amps

    def rank_many(self, configs) -> np.ndarray:
        """Ordinals of an array of in-sector masks.

        A mask outside the sector means a computation escaped it and is
        reported as an error.
        """
        configs = np.asarray(configs, dtype=np.int64)
        flat = configs.reshape(-1)
        rank = np.empty(flat.size, dtype=np.int64)
        lo_rank, off = _lin_tables(self.N, self.n_up)[:2]
        b = self.N // 2
        # one slice's high and then low halves, and the low halves' ranks
        scratch = np.empty(min(flat.size, RANK_BLOCK), dtype=np.int64)
        for at in range(0, flat.size, RANK_BLOCK):
            part = flat[at:at + RANK_BLOCK]
            # checked before the lookup, which would read a negative high
            # half from the end of off
            if part.min() < 0 or part.max() >> self.N or np.any(
                np.bitwise_count(part) != self.n_up
            ):
                miss = (part >> self.N != 0) | (np.bitwise_count(part) != self.n_up)
                raise ValueError(
                    f"mask {int(part[miss][0]):#x} is not in the "
                    f"N = {self.N}, twoSz = {self.twoSz} sector"
                )
            out = rank[at:at + RANK_BLOCK]
            half = scratch[:len(part)]
            # checked above, so mode="clip" clips nothing and needs no buffer
            np.take(off, np.right_shift(part, b, out=half), out=out, mode="clip")
            np.bitwise_and(part, (1 << b) - 1, out=half)
            out += np.take(lo_rank, half, out=half, mode="clip")
        return rank.reshape(configs.shape)

    def index(self, config: int) -> int:
        """Ordinal of a single configuration mask."""
        return int(self.rank_many([int(config)])[0])


def build_sector(N: int, twoSz: int) -> SectorBasis:
    """Enumerate the full sector of N sites with total 2*Sz = twoSz."""
    N, twoSz = check_integer("N", N), check_integer("twoSz", twoSz)
    if N <= 0 or N % 2:
        raise ValueError(f"N must be a positive even site count, got {N}")
    if N > N_MAX:
        raise ValueError(f"N = {N} exceeds the {N_MAX}-site capacity")
    if abs(twoSz) > N or (N + twoSz) % 2:
        raise ValueError(f"no sector with twoSz = {twoSz} on {N} sites")
    n_up = (N + twoSz) // 2
    _, off, lows, first = _lin_tables(N, n_up)
    b = N // 2
    width = np.diff(off, append=comb(N, n_up))
    his = np.flatnonzero(width)
    width = width[his]
    # state k, in the run of hi, has low half lows[first[p] + k - off[hi]]
    # with p = n_up - popcount(hi)
    k = np.repeat(first[n_up - np.bitwise_count(his).astype(np.int64)] - off[his], width)
    k += np.arange(len(k))
    states = np.repeat(his << b, width)
    states |= lows[k]
    return SectorBasis(N=N, twoSz=twoSz, states=states)


# ---------------------------------------------------------------------------
# Symmetry sectors of ladders
#
# The L-rung ladder (sites s = 2 * rung + leg, rungs from 0) is invariant
# under the reflection R (rung j -> -j mod L periodic, L - 1 - j open), the
# leg exchange Q, at twoSz = 0 the spin inversion Z and, if periodic, the
# translation T (rung j -> j + 1).  With n = L translations (1 when open)
# they generate G = D_n x Z2 x Z2 (or D_n x Z2), whose element
# e = ((z * 2 + q) * 2 + p) * n + r acts on a mask as Z^z Q^q T^r R^p.  A
# real irrep Gamma of dimension d has orthogonal matrices D(g), and the
# operators P_1j = (d / |G|) sum_g D_1j(g) g map a representative |a> to the
# states of Gamma's first row (Sandvik, arXiv:1101.3281, section 4).  Their
# Gram matrix is <a|P_ij|a> = (d / |G|) sum over the stabilizer of a of
# D_ij(s) = n_a^2 Pi_a, with Pi_a the projector onto the vectors of the irrep
# that the stabilizer fixes and n_a^2 = d |Stab a| / |G|.  Each unit vector
# u of an orthonormal basis of the image of Pi_a gives one sector state
#
#     w(a, u) = (1 / n_a) sum_j u_j P_1j |a>,
#
# whose amplitude on the mask x = h(a) is n_a (D(h)^T u)_1; LadderTables
# gives H's entries between them.  Real irreps keep H real: the momenta
# k = 2 pi m / n with 0 < m < n / 2 pair with -k into two-dimensional
# irreps, one of whose two rows is solved; the other row has the same
# spectrum.  An open ladder, n = 1, has only one-dimensional irreps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Irrep:
    """A real irrep of a ladder's symmetry group.

    Momentum k = 2 pi m / n, over the n translations of the group (1 if
    open).  m = 0 and m = n / 2 give one-dimensional irreps with reflection
    parity ±1; every other 0 < m < n / 2 gives a two-dimensional one (parity
    0).  leg and flip are the leg-exchange and spin-inversion parities; flip
    is +1 when the group has no inversion.
    """

    m: int
    parity: int
    leg: int
    flip: int

    @property
    def dim(self) -> int:
        return 1 if self.parity else 2

    @property
    def label(self) -> str:
        p = {1: "+", -1: "-", 0: ""}[self.parity]
        return f"k{self.m}{p} Q{self.leg:+d} Z{self.flip:+d}"


def _reflect(masks: np.ndarray, L: int, bc: str) -> np.ndarray:
    """R: the two spins of rung j move to rung (L - j) mod L on a periodic
    ladder and to rung L - 1 - j on an open one."""
    out = np.zeros_like(masks)
    for j in range(L):
        out |= ((masks >> (2 * j)) & 3) << (2 * ((L - j - (bc == "open")) % L))
    return out


class LadderOrbits:
    """Orbits of one fixed-Sz sector of the L-rung ladder under its group G.

    Each orbit's representative is its smallest mask: a mask that no element
    maps below itself.  The representatives are found by filtering every
    state against one element at a time, translations first, so the
    candidates shrink at every step.  The orbits then fan out from them: for
    every sector state x = g(reps[o]), orbit_of[x] is o (int32) and
    element_of[x] the smallest group element e with e(x) = reps[o], which
    is g^-1 for one of the g that reach x.  fix_orbit and fix_element list
    the non-identity stabilizers of the representatives.  Element e is
    Z^z[e] Q^q[e] T^r[e] R^p[e]; cosets lists the (p, q, z) of the n
    translations each, n = L on a periodic ladder (bc) and 1 on an open one.
    """

    def __init__(self, basis: SectorBasis, bc: str = "periodic"):
        if bc not in ("periodic", "open"):
            raise ValueError(f"bc must be 'periodic' or 'open', got {bc!r}")
        if bc == "periodic" and basis.N < 6:
            raise ValueError(f"a periodic ladder needs at least 3 rungs, got N = {basis.N}")
        self.basis, self.bc = basis, bc
        self.n = n = basis.N // 2 if bc == "periodic" else 1
        flips = (0, 1) if basis.twoSz == 0 else (0,)
        self.cosets = [(p, q, z) for z in flips for q in (0, 1) for p in (0, 1)]
        self.order = len(self.cosets) * n
        e = np.arange(self.order)
        self.r = e % n
        self.p, self.q, self.z = (np.array([c[i] for c in self.cosets])[e // n] for i in range(3))
        # an element with p = 1 is an involution; T^r's inverse is T^-r
        inverse = np.where(self.p == 1, e, e - self.r + (-self.r) % n)

        # N <= 32, so the images are formed in uint32, half the memory
        # traffic.  Element c * n + r is the translation r after the coset
        # element c * n; after the translations about one candidate in n is
        # left.  The cosets without the reflection come first, whose images
        # are cheaper: on an open ladder, n = 1, they take the first cut
        reps = basis.states.astype(np.uint32)
        for c in sorted(range(len(self.cosets)), key=lambda c: self.cosets[c][0]):
            y = self._act(reps, c * n)
            for r in range(c == 0, n):
                keep = self._act(y, r) >= reps
                reps, y = reps[keep], y[keep]
        self.reps = reps.astype(np.int64)
        self.orbit_of = np.empty(basis.dim, dtype=np.int32)
        self.element_of = np.empty(basis.dim, dtype=np.uint8)
        orbits = np.arange(len(reps), dtype=np.int32)
        fixed = [None] * self.order
        # descending e = g^-1, g in e's coset: the smallest e with
        # e(x) = rep is written last
        for c in reversed(range(len(self.cosets))):
            y = self._act(reps, c * n)
            for e in reversed(range(c * n, (c + 1) * n)):
                image = self._act(y, inverse[e] % n)
                at = basis.rank_many(image)
                self.orbit_of[at] = orbits
                self.element_of[at] = e
                fixed[e] = np.flatnonzero(image == reps)  # g fixes a mask when e does
        self.fix_orbit = np.concatenate(fixed[1:])
        self.fix_element = np.repeat(np.arange(1, self.order), [len(f) for f in fixed[1:]])

    def _act(self, masks: np.ndarray, e: int) -> np.ndarray:
        """e(masks), in the masks' dtype."""
        N = self.basis.N
        full = (1 << N) - 1
        y = _reflect(masks, N // 2, self.bc) if self.p[e] else masks
        if self.q[e]:
            legs = int("01" * (N // 2), 2)
            y = ((y & legs) << 1) | ((y >> 1) & legs)
        if self.z[e]:
            y = y ^ full
        r = int(self.r[e])
        return ((y << (2 * r)) | (y >> (N - 2 * r))) & full if r else y

    def irreps(self) -> list[Irrep]:
        """Every real irrep of G, by momentum, parity, leg and flip."""
        n = self.n
        flips = (1, -1) if self.basis.twoSz == 0 else (1,)
        out = []
        for m in range(n // 2 + 1):
            parities = (1, -1) if m == 0 or 2 * m == n else (0,)
            out += [Irrep(m, p, q, z) for p in parities for q in (1, -1) for z in flips]
        return out

    def matrices(self, irrep: Irrep) -> np.ndarray:
        """D[i, j] is the array of D_ij(e) over the group elements e."""
        sign = irrep.leg ** self.q * irrep.flip ** self.z
        if irrep.dim == 1:
            turn = (-1) ** self.r if irrep.m else 1
            return (sign * turn * irrep.parity ** self.p).astype(float).reshape(1, 1, -1)
        angle = 2.0 * np.pi * ((irrep.m * self.r) % self.n) / self.n
        c, s = sign * np.cos(angle), sign * np.sin(angle)
        refl = (-1.0) ** self.p  # Rot(k r) @ diag(1, (-1)^p)
        return np.array([[c, -s * refl], [s, c * refl]])

    def sector(self, irrep: Irrep) -> "SymmetrySector":
        """The sector of Gamma's first row."""
        d = irrep.dim
        D = self.matrices(irrep)
        n_orbits = len(self.reps)
        stab = 1 + np.bincount(self.fix_orbit, minlength=n_orbits)
        proj = np.broadcast_to(np.eye(d), (n_orbits, d, d)).copy()
        np.add.at(proj, self.fix_orbit, D[:, :, self.fix_element].transpose(2, 0, 1))
        proj /= stab[:, None, None]
        rank = np.rint(np.trace(proj, axis1=1, axis2=2)).astype(np.int64)
        # int32 indices, like orbit_of: a sector has fewer than 2^31 states
        orbit = np.repeat(np.arange(n_orbits, dtype=np.int32), rank)
        first = (np.cumsum(rank) - rank).astype(np.int32)
        vecs = np.zeros((d, len(orbit)))
        full = first[rank == d]
        for t in range(d):
            vecs[t, full + t] = 1.0
        # a rank-1 projector is u u^T: its longer column, normalized, is +-u
        part = np.flatnonzero((rank == 1) & (d == 2))
        if len(part):
            cols = proj[part]
            j = np.argmax(np.linalg.norm(cols, axis=1), axis=1)
            u = cols[np.arange(len(part)), :, j]
            vecs[:, first[part]] = (u / np.linalg.norm(u, axis=1, keepdims=True)).T
        norm = np.sqrt(d * stab / self.order)
        return SymmetrySector(self, irrep, D, orbit, vecs, first, rank, norm)


@dataclass(frozen=True, eq=False)
class SymmetrySector:
    """The states of one irrep row, built from the orbits' representatives.

    Sector state i is w(orbit[i], vecs[:, i]); the states of one orbit are
    adjacent, first[o] is the first of the count[o] states of orbit o, and
    norm[o] its n_o.  D[i, j] holds D_ij over the group elements.  It only
    describes and expands states; LadderTables computes H's entries.
    """

    group: LadderOrbits
    irrep: Irrep
    D: np.ndarray
    orbit: np.ndarray
    vecs: np.ndarray
    first: np.ndarray
    count: np.ndarray
    norm: np.ndarray

    @property
    def N(self) -> int:
        return self.group.basis.N

    @property
    def dim(self) -> int:
        return len(self.orbit)

    @property
    def rows(self) -> int:
        """Rows of the irrep, each with a copy of every level."""
        return self.irrep.dim

    def expand(self, amps: np.ndarray, row: int = 0) -> np.ndarray:
        """Amplitudes over the plain sector of the state sum_i amps[i] w_i.

        row = 1 gives its partner in the irrep's second row, the same
        combination of the P_2j |a>: orthogonal to it, with the same energy.
        The output is filled RANK_BLOCK masks at a time, adding the terms
        t = 0, ..., d - 1 in that order as over the whole Sz sector at once,
        so the scratch is one slice's.
        """
        g = self.group
        amps = np.asarray(amps) * self.norm[self.orbit]
        terms = [
            (np.bincount(self.orbit, amps * self.vecs[t], minlength=len(g.reps)), self.D[t, row])
            for t in range(self.irrep.dim)
        ]
        out = np.zeros(len(g.orbit_of))
        for at in range(0, len(out), RANK_BLOCK):
            part = slice(at, at + RANK_BLOCK)
            for weight, phase in terms:
                out[part] += weight[g.orbit_of[part]] * phase[g.element_of[part]]
        return out


def symmetry_sectors(basis: SectorBasis, bc: str = "periodic") -> list[SymmetrySector]:
    """The non-empty irrep sectors of the fixed-Sz sector of a ladder with
    boundary bc, "periodic" or "open".

    Summed with the irreps' dimensions as weights, their dimensions give
    basis.dim.
    """
    group = LadderOrbits(basis, bc)
    return [s for s in map(group.sector, group.irreps()) if s.dim]
