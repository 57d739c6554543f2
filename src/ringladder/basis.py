"""Enumeration and ranking of fixed-magnetization bitmask bases.

A configuration is a bitmask where bit s set means spin up at site s.  The
sector with 2*Sz = twoSz holds every mask of popcount N/2 + Sz, enumerated in
ascending numeric order by unranking in the combinatorial number system.
Lookup runs the system forwards (Sandvik, arXiv:1101.3281, section 4): a
mask with set bits p1 < ... < pn has ordinal sum_j C(pj, j), summed one byte
at a time from precomputed tables.  The sector is complete, so a mask belongs
to it exactly when it is nonnegative, has no bit at or above N and has
popcount n_up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = ["SectorBasis", "build_sector"]

N_MAX = 32
N_BYTES = (N_MAX + 7) // 8
# rank_many works through its masks in blocks of this many, so that the
# temporaries of one block stay in cache
RANK_BLOCK = 1 << 15


def _binomial_table(n: int, k: int) -> np.ndarray:
    """Table C[p, j] = binomial(p, j) for 0 <= p <= n, 0 <= j <= k."""
    tab = np.zeros((n + 1, k + 1), dtype=np.int64)
    for p in range(n + 1):
        for j in range(min(p, k) + 1):
            tab[p, j] = comb(p, j)
    return tab


def _enumerate_masks(n: int, k: int, tab: np.ndarray) -> np.ndarray:
    """All n-bit masks of popcount k, ascending, by combinatorial unranking."""
    dim = comb(n, k)
    masks = np.zeros(dim, dtype=np.int64)
    rem = np.arange(dim, dtype=np.int64)
    left = np.full(dim, k, dtype=np.int64)  # bits still to place per mask
    for pos in range(n - 1, -1, -1):
        c = tab[pos, np.minimum(left, k)]
        take = (left > 0) & (rem >= c)
        masks[take] |= np.int64(1) << pos
        rem[take] -= c[take]
        left[take] -= 1
    return masks


@functools.lru_cache(maxsize=None)
def _byte_ordinals() -> np.ndarray:
    """Lookup table of SectorBasis.rank_many.

    Row k, at 256 c + b, is the ordinal share of byte value b at byte k of a
    mask with c set bits below that byte: the sum over set bits i of b of
    C(8k + i, c + 1 + (set bits of b below i)).
    """
    C = _binomial_table(8 * N_BYTES - 1, 8 * N_BYTES)
    b = np.arange(256, dtype=np.int64)
    c = np.arange(8 * (N_BYTES - 1) + 1, dtype=np.int64)[:, None]
    tab = np.zeros((N_BYTES, len(c), 256), dtype=np.int64)
    for k in range(N_BYTES):
        for i in range(8):
            j = c + 1 + np.bitwise_count(b & ((1 << i) - 1))
            tab[k] += ((b >> i) & 1) * C[8 * k + i, j]
    tab.flags.writeable = False  # one shared instance
    return tab.reshape(N_BYTES, -1)


@dataclass(frozen=True)
class SectorBasis:
    """Complete ascending basis of one fixed-Sz sector.

    states[k] is the k-th configuration mask; rank_many inverts the
    enumeration by the combinatorial ordinal.  Immutable after construction.
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

    def rank_many(self, configs) -> np.ndarray:
        """Ordinals of an array of in-sector masks.

        A mask outside the sector means a computation escaped it and is
        reported as an error.
        """
        configs = np.ascontiguousarray(configs, dtype="<i8")
        flat = configs.reshape(-1)
        rank = np.zeros(flat.size, dtype=np.int64)
        tab = _byte_ordinals()
        for lo in range(0, flat.size, RANK_BLOCK):
            part = flat[lo:lo + RANK_BLOCK]
            octets = part.view(np.uint8).reshape(-1, 8)
            out = rank[lo:lo + RANK_BLOCK]
            below = np.zeros(part.size, dtype=np.int64)  # set bits below byte k
            for k in range((self.N + 7) // 8):
                out += tab[k][(below << 8) | octets[:, k]]
                below += np.bitwise_count(octets[:, k])
            # a negative mask has its sign bit set, which lies above bit N - 1
            miss = (part >> self.N != 0) | (below != self.n_up)
            if np.any(miss):
                bad = int(part[miss][0])
                raise ValueError(
                    f"mask {bad:#x} is not in the N = {self.N}, twoSz = {self.twoSz} sector"
                )
        return rank.reshape(configs.shape)

    def index(self, config: int) -> int:
        """Ordinal of a single configuration mask."""
        return int(self.rank_many([int(config)])[0])


def build_sector(N: int, twoSz: int) -> SectorBasis:
    """Enumerate the full sector of N sites with total 2*Sz = twoSz."""
    if N <= 0 or N % 2:
        raise ValueError(f"N must be a positive even site count, got {N}")
    if N > N_MAX:
        raise ValueError(f"N = {N} exceeds the {N_MAX}-site capacity")
    if abs(twoSz) > N or (N + twoSz) % 2:
        raise ValueError(f"no sector with twoSz = {twoSz} on {N} sites")
    n_up = (N + twoSz) // 2
    states = _enumerate_masks(N, n_up, _binomial_table(N, max(n_up, 1)))
    return SectorBasis(N=N, twoSz=twoSz, states=states)
