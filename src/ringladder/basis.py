"""Enumeration and ranking of fixed-magnetization bitmask bases.

A configuration is a bitmask where bit s set means spin up at site s.  The
sector with 2*Sz = twoSz holds every mask of popcount N/2 + Sz, enumerated in
ascending numeric order by unranking in the combinatorial number system.
Lookup is bisection in that sorted state list (Sandvik, arXiv:1101.3281,
section 4), followed by an exact-match check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = ["SectorBasis", "build_sector"]

N_MAX = 32


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


@dataclass(frozen=True)
class SectorBasis:
    """Complete ascending basis of one fixed-Sz sector.

    states[k] is the k-th configuration mask; rank_many inverts the
    enumeration by binary search.  Immutable after construction.
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
        rank = np.searchsorted(self.states, configs)
        # a mask above every state lands at dim; clipping it keeps the lookup
        # in range and the match check below still rejects it
        np.minimum(rank, self.dim - 1, out=rank)
        miss = self.states[rank] != configs
        if np.any(miss):
            bad = int(configs[miss][0])
            raise ValueError(
                f"mask {bad:#x} is not in the N = {self.N}, twoSz = {self.twoSz} sector"
            )
        return rank

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
