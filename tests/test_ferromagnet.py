import math
from math import comb, factorial

import numpy as np
import pytest

from conftest import geometry
from ringladder import (
    HamiltonianAction,
    build_sector,
    couplings_from_theta,
    fm_block_spectrum,
    fm_entropy,
    fm_entropy_asymptotic,
    fm_pair_concurrence,
    fm_state,
    reduced_density_matrix,
)


def test_uniform_amplitudes_and_norm():
    basis = build_sector(4, 0)
    v = fm_state(4, basis)
    assert v.amps.shape == (6,)
    assert np.allclose(v.amps, 1.0 / math.sqrt(6.0), atol=1e-15)
    assert v.norm() == pytest.approx(1.0, abs=1e-15)


def test_fm_state_sector_validation():
    with pytest.raises(ValueError):
        fm_state(4, build_sector(4, 2))
    with pytest.raises(ValueError):
        fm_state(6, build_sector(4, 0))


def test_uniform_state_is_ground_state_at_theta_pi():
    _, basis, tables = geometry(4)
    v = fm_state(8, basis)
    act = HamiltonianAction(tables, couplings_from_theta(math.pi))
    hv = act.matvec(v.amps)
    assert np.linalg.norm(hv - (-3.0) * v.amps) <= 1e-12


def test_block_spectrum_small_cases():
    assert np.allclose(
        fm_block_spectrum(4, 2).lambdas, [1 / 6, 2 / 3, 1 / 6], atol=1e-15
    )
    assert np.allclose(
        fm_block_spectrum(8, 4).lambdas,
        [1 / 70, 8 / 35, 18 / 35, 8 / 35, 1 / 70],
        atol=1e-15,
    )
    assert np.allclose(fm_block_spectrum(12, 1).lambdas, [0.5, 0.5], atol=1e-15)


def test_block_spectrum_invariants():
    for l in range(1, 12):
        spec = fm_block_spectrum(12, l)
        lam = spec.lambdas
        assert len(lam) == l + 1
        assert abs(lam.sum() - 1.0) <= 1e-12
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
        assert np.allclose(lam, lam[::-1], atol=1e-15)  # pz <-> -pz
        assert np.allclose(spec.pz, np.arange(l + 1) - l / 2.0)


def test_block_spectrum_matches_traced_rdm():
    basis = build_sector(8, 0)
    v = fm_state(8, basis)
    for sites in ((0, 1, 2), (0, 3, 6), (1, 4, 7)):
        lam_rdm = reduced_density_matrix(v, sites).eigenvalues()
        lam = np.sort(fm_block_spectrum(8, 3).lambdas)[::-1]
        assert np.allclose(lam_rdm[: len(lam)], lam, atol=1e-12)
        assert np.all(lam_rdm[len(lam):] <= 1e-12)


def test_factorial_variant_fails_normalization():
    # A tempting closed form divides by the halved environment factorial;
    # it sums to 1/2 instead of 1 already at four sites, which is why the
    # implementation uses the hypergeometric weights instead.
    def variant(N, l, pz):
        half = (N - l) // 2
        return (
            factorial(l) * factorial(half) * factorial(N // 2) ** 2
            / (
                factorial(l // 2 - pz) * factorial(l // 2 + pz)
                * factorial(half - pz) * factorial(half + pz)
                * factorial(N)
            )
        )

    total = sum(variant(4, 2, pz) for pz in (-1, 0, 1))
    assert total == pytest.approx(0.5, abs=1e-12)
    assert abs(fm_block_spectrum(4, 2).lambdas.sum() - 1.0) <= 1e-12


def test_entropy_values():
    assert fm_entropy(4, 2) == pytest.approx(1.2516291673878228, abs=1e-13)
    for N in (4, 8, 12, 20):
        assert fm_entropy(N, 1) == pytest.approx(1.0, abs=1e-12)


def test_entropy_complement_symmetry():
    for l in range(1, 12):
        assert fm_entropy(12, l) == pytest.approx(fm_entropy(12, 12 - l), abs=1e-12)


def exact_weights(N, l):
    n = N // 2
    return [comb(l, k) * (comb(N - l, n - k) if k <= n else 0) / comb(N, n)
            for k in range(l + 1)]


def test_large_n_weights_exact():
    # every weight is the correctly rounded integer quotient, at any N; the
    # half above l // 2 is the mirror of the half below, so this also covers
    # blocks past N / 2 (lo = l - N/2 > 0) and both parities of l - lo
    cases = [(N, l) for N in range(2, 31, 2) for l in range(1, N)]
    cases += [(200, 37), (1000, 3), (1000, 500), (1000, 499), (1000, 501),
              (1000, 700), (1000, 999)]
    for N, l in cases:
        lam = fm_block_spectrum(N, l).lambdas.tolist()
        assert lam == exact_weights(N, l), (N, l)
        assert lam == lam[::-1], (N, l)


def test_asymptote_value_and_gap():
    asym = fm_entropy_asymptotic(200, 100)
    assert asym == pytest.approx(3.8690, abs=1e-4)
    assert abs(fm_entropy(200, 100) - asym) <= 0.01


def test_asymptote_half_bit_doubling_deep_regime():
    # exactly half a bit per doubling in the l much smaller than N limit
    N = 10**6
    for l in (8, 16, 32, 64):
        grow = fm_entropy_asymptotic(N, 2 * l) - fm_entropy_asymptotic(N, l)
        assert abs(grow - 0.5) <= 1e-4


def test_pair_concurrence():
    assert fm_pair_concurrence(4) == pytest.approx(1 / 3, abs=1e-15)
    assert fm_pair_concurrence(24) == pytest.approx(1 / 23, abs=1e-15)
    vals = [fm_pair_concurrence(N) for N in range(4, 101, 2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert fm_pair_concurrence(10**6) < 1e-5


def test_block_size_validation():
    with pytest.raises(ValueError):
        fm_block_spectrum(8, 0)
    with pytest.raises(ValueError):
        fm_block_spectrum(8, 8)
    with pytest.raises(ValueError):
        fm_entropy_asymptotic(8, 9)
    with pytest.raises(ValueError):
        fm_block_spectrum(7, 2)
