import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ringladder import build_sector, symmetry_sectors
from ringladder.basis import RANK_BLOCK


def test_small_sector_dimensions():
    assert build_sector(4, 0).dim == 6
    assert build_sector(4, 4).dim == 1
    assert build_sector(4, -4).dim == 1
    assert build_sector(6, 2).dim == comb(6, 4)


def test_large_sector_dimension():
    basis = build_sector(24, 0)
    assert basis.dim == 2_704_156


def test_dimensions_match_binomial():
    for N in (2, 4, 6, 8, 10, 12):
        for twoSz in range(-N, N + 1, 2):
            assert build_sector(N, twoSz).dim == comb(N, (N + twoSz) // 2)
    # capacity edge, small sectors only
    assert build_sector(28, 24).dim == comb(28, 26)
    assert build_sector(28, -24).dim == comb(28, 2)


def test_enumeration_ascending_same_popcount():
    basis = build_sector(10, 2)
    states = basis.states
    assert np.all(states[1:] > states[:-1])
    assert np.all(np.bitwise_count(states.astype(np.uint64)) == basis.n_up)


def test_all_up_sector():
    basis = build_sector(4, 4)
    assert basis.states[0] == 0b1111


def test_extreme_ordinals():
    basis = build_sector(8, 0)
    assert basis.index(int(basis.states[0])) == 0
    assert basis.index(int(basis.states[-1])) == basis.dim - 1


def test_roundtrip_random_n20():
    basis = build_sector(20, 0)
    rng = np.random.default_rng(42)
    ks = rng.integers(0, basis.dim, size=1000)
    got = basis.rank_many(basis.states[ks])
    assert np.array_equal(got, ks)
    # scalar path too
    for k in ks[:20]:
        assert basis.index(int(basis.states[k])) == k


def test_wrong_popcount_rejected():
    basis = build_sector(6, 0)
    with pytest.raises(ValueError):
        basis.index(0b1)
    with pytest.raises(ValueError):
        basis.rank_many(np.array([0b111100, 0b1111]))  # second has popcount 4


def random_masks(N, n_up, count, rng):
    """count masks of N bits with n_up set bits, drawn without the basis."""
    pos = np.argsort(rng.random((count, N)), axis=1)[:, :n_up]
    return np.sum(np.int64(1) << pos.astype(np.int64), axis=1)


@pytest.mark.parametrize("N,twoSz", [(16, 0), (16, -4), (24, 6), (24, -6)])
def test_rank_matches_bisection(N, twoSz):
    basis = build_sector(N, twoSz)
    masks = random_masks(N, basis.n_up, 5000, np.random.default_rng(N + twoSz))
    assert np.array_equal(basis.rank_many(masks), np.searchsorted(basis.states, masks))


@pytest.mark.parametrize("twoSz", [28, -28])
def test_rank_every_state_top_half(twoSz):
    # N = 32 splits into two 16-bit halves; both sectors have 496 states
    basis = build_sector(32, twoSz)
    assert basis.dim == comb(32, 2)
    assert np.array_equal(basis.rank_many(basis.states), np.arange(basis.dim))


def test_rank_over_many_slices_holds_one_slice_of_scratch():
    # the ranks, 8 bytes per mask, and one slice's int64 halves beside its
    # 2 bytes of membership check; the last slice is a partial one
    basis = build_sector(20, 0)
    masks = np.random.default_rng(3).permutation(basis.states)[:3 * RANK_BLOCK + 5]
    tracemalloc.start()
    try:
        rank = basis.rank_many(masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rank, np.searchsorted(basis.states, masks))
    assert peak <= 8 * len(masks) + 12 * RANK_BLOCK


def test_out_of_range_bits_rejected():
    basis = build_sector(4, 0)
    with pytest.raises(ValueError):
        basis.index(0b110000)  # popcount 2 but bits above site 3
    with pytest.raises(ValueError, match="-0x"):
        basis.index(-1)
    # negative, with popcount 4 in the low 8 bits that N = 8 keeps
    with pytest.raises(ValueError, match="not in the N = 8"):
        build_sector(8, 0).index((-1 << 8) | 0b1111)


def test_invalid_sector_requests():
    with pytest.raises(ValueError):
        build_sector(34, 0)
    with pytest.raises(ValueError):
        build_sector(4, 6)
    with pytest.raises(ValueError):
        build_sector(4, 1)  # parity mismatch
    with pytest.raises(ValueError):
        build_sector(5, 1)
    with pytest.raises(ValueError):
        build_sector(0, 0)
    # read like LadderSpec's integers, not failing inside the table build
    with pytest.raises(ValueError, match="N 8.0 is not an integer"):
        build_sector(8.0, 0)
    with pytest.raises(ValueError, match="twoSz 0.0 is not an integer"):
        build_sector(8, 0.0)
    # an unknown boundary is refused, not read as open; only a periodic ring
    # needs three rungs
    with pytest.raises(ValueError, match="bc must be 'periodic' or 'open', got 'closed'"):
        symmetry_sectors(build_sector(8, 0), "closed")
    with pytest.raises(ValueError, match="at least 3 rungs"):
        symmetry_sectors(build_sector(4, 0), "periodic")


def popcount_oracle(N, n_up):
    """Every N-bit mask of popcount n_up, ascending: by brute force up to
    N = 16, above that by placing the fewer of the set or the clear bits in
    every way (the sectors tested there have at most two)."""
    if N <= 16:
        return np.flatnonzero(np.bitwise_count(np.arange(2**N)) == n_up)
    few = min(n_up, N - n_up)
    masks = np.array([sum(1 << p for p in c) for c in combinations(range(N), few)])
    return np.sort(masks if few == n_up else ((1 << N) - 1) ^ masks)


@pytest.mark.parametrize("N", [*range(2, 17, 2), 32])
def test_sector_matches_popcount_oracle(N):
    sectors = range(-N, N + 1, 2) if N <= 16 else (32, 30, 28, -28, -30, -32)
    for twoSz in sectors:
        basis = build_sector(N, twoSz)
        assert np.array_equal(basis.states, popcount_oracle(N, basis.n_up)), twoSz
        assert np.array_equal(basis.rank_many(basis.states), np.arange(basis.dim)), twoSz


def test_rank_empty_keeps_shape():
    basis = build_sector(8, 0)
    assert basis.rank_many(np.zeros(0, dtype=np.int64)).shape == (0,)
    assert basis.rank_many(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
    assert np.array_equal(basis.rank_many(basis.states[:6].reshape(2, 3)),
                          np.arange(6).reshape(2, 3))
