"""Enumeration and ranking of fixed-magnetization bitmask bases.

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
n_up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = ["SectorBasis", "build_sector"]

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
            np.take(off, part >> b, out=out)
            out += lo_rank[part & ((1 << b) - 1)]
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
