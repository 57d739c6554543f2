import math

import numpy as np
import pytest
import scipy.linalg

from conftest import geometry, solve, traced_point
from ringladder import (
    BlockSpec,
    Couplings,
    HamiltonianAction,
    LadderSpec,
    LadderTables,
    SweepConfig,
    apply_ring_permutation,
    build_sector,
    couplings_from_theta,
    dense_oracle,
    enumerate_terms,
    lowest_eigenpairs,
    run_sweep,
    sweep,
    symmetry_sectors,
)
from ringladder import eigensolver
from ringladder.eigensolver import EigensolverError, ritz_bound


def action_at(L, theta_over_pi, bc="periodic", twoSz=0):
    _, _, tables = geometry(L, bc, twoSz)
    return HamiltonianAction(tables, couplings_from_theta(theta_over_pi * math.pi))


def test_single_rung_singlet_energy():
    spec = LadderSpec(L=1, bc="open")
    basis = build_sector(2, 0)
    tables = LadderTables(spec, basis)
    act = HamiltonianAction(tables, Couplings(Jl=0.0, Jr=1.0, K=0.0))
    res = lowest_eigenpairs(act.matvec, basis.dim, k=1)
    assert res.energies[0] == pytest.approx(-0.75, abs=1e-13)


def test_matches_dense_oracle_at_theta_zero():
    act = action_at(3, 0.0)
    res = solve(3, 0.0)
    spectrum = dense_oracle(act.matvec, act.dim)
    assert abs(res.energies[0] - spectrum[0]) <= 1e-10
    assert abs(res.energies[1] - spectrum[1]) <= 1e-10


def test_polarized_multiplet_member_at_theta_pi():
    # the Sz = 0 member of the fully polarized multiplet keeps the all-up energy
    act = action_at(4, 1.0)
    res = lowest_eigenpairs(act.matvec, act.dim, k=2, seed=0)
    assert res.energies[0] == pytest.approx(-3.0, abs=1e-10)
    assert res.multiplicity == 1
    spectrum = dense_oracle(act.matvec, act.dim)
    assert abs(res.energies[0] - spectrum[0]) <= 1e-10


def test_dense_oracle_trivial_diagonal():
    mv = lambda v: np.array([0.0, 1.0]) * v
    assert np.allclose(dense_oracle(mv, 2), [0.0, 1.0])


def test_dense_oracle_trace_identity():
    spec, basis, tables = geometry(3)
    couplings = couplings_from_theta(0.3 * math.pi)
    act = HamiltonianAction(tables, couplings)
    spectrum = dense_oracle(act.matvec, basis.dim)
    # independent trace from the basis masks alone: +-1/4 per bond by the
    # parity of its two bits, plus 2K per ring fixed point (P and Pinv)
    rung_bonds, leg_bonds, plaqs = enumerate_terms(spec)
    states = basis.states

    def bond_diag(bonds):
        return sum(
            float(np.sum(np.where(((states >> i) ^ (states >> j)) & 1, -0.25, 0.25)))
            for i, j in bonds
        )

    trace = couplings.Jr * bond_diag(rung_bonds) + couplings.Jl * bond_diag(leg_bonds)
    for p in plaqs:
        fixed = int(np.sum(apply_ring_permutation(p, states) == states))
        trace += 2.0 * couplings.K * fixed
    assert abs(np.sum(spectrum) - trace) <= 1e-10 * max(1.0, abs(trace))


def test_krylov_vs_dense_random_theta():
    rng = np.random.default_rng(99)
    for L in (3, 4):
        for theta_over_pi in rng.uniform(-0.4, 0.95, size=5):
            act = action_at(L, float(theta_over_pi))
            res = lowest_eigenpairs(act.matvec, act.dim, k=2, seed=1)
            spectrum = dense_oracle(act.matvec, act.dim)
            assert abs(res.energies[0] - spectrum[0]) <= 1e-10


def test_residuals_and_orthonormality():
    act = action_at(5, 0.2)
    res = lowest_eigenpairs(act.matvec, act.dim, k=3, seed=4)
    for c in range(3):
        v = res.vectors[:, c]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
        assert res.residuals[c] <= 1e-12 * max(1.0, abs(res.energies[c]))
    gram = res.vectors.T @ res.vectors
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-8
    assert np.all(np.diff(res.energies) >= 0)


def test_deterministic_for_fixed_seed():
    act = action_at(4, 0.37)
    a = lowest_eigenpairs(act.matvec, act.dim, k=2, seed=7)
    b = lowest_eigenpairs(act.matvec, act.dim, k=2, seed=7)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.energies, b.energies)
    c = lowest_eigenpairs(act.matvec, act.dim, k=2, seed=8)
    assert abs(a.energies[0] - c.energies[0]) <= 1e-10


def test_nondegenerate_across_window():
    for L, points in ((4, (-0.5, -0.39, -0.2, 0.0, 0.147584, 0.5, 0.7, 0.94, 0.97, 1.0)),
                      (6, (0.0, 0.147584, 0.5))):
        for t in points:
            assert solve(L, t).multiplicity == 1, (L, t)


def test_variational_consistency():
    act = action_at(4, 0.55)
    res = lowest_eigenpairs(act.matvec, act.dim, k=2, seed=0)
    v = res.vectors[:, 0]
    rayleigh = v @ act.matvec(v)
    assert abs(rayleigh - res.energies[0]) <= 1e-12 * max(1.0, abs(rayleigh))


def test_argument_validation():
    mv = lambda v: v
    with pytest.raises(ValueError):
        lowest_eigenpairs(mv, 4, k=5)
    with pytest.raises(ValueError):
        lowest_eigenpairs(mv, 4, k=0)
    with pytest.raises(ValueError):
        dense_oracle(mv, 5000)


@pytest.mark.parametrize("L", [3, 5], ids=["dense", "lanczos"])
def test_residual_contract_is_one_constant(monkeypatch, L):
    # both routes hold every pair to RESIDUAL_RTOL, 1e-12 (dim 20 is solved
    # densely, dim 252 by Lanczos); no solve meets a contract of 1e-30, so
    # the check then raises rather than returns
    act = action_at(L, 0.2)
    assert eigensolver.RESIDUAL_RTOL == 1e-12
    lowest_eigenpairs(act.matvec, act.dim, k=2)
    monkeypatch.setattr(eigensolver, "RESIDUAL_RTOL", 1e-30)
    with pytest.raises(EigensolverError, match="residual contract violated"):
        lowest_eigenpairs(act.matvec, act.dim, k=2)


def test_dense_oracle_rejects_asymmetric():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        dense_oracle(lambda v: M @ v, 2)


@pytest.mark.parametrize("L, k", [(2, 2), (4, 2), (4, 1), (5, 3)])
def test_matvec_count_matches_counting_wrapper(L, k):
    # L = 2 (dim 6) takes the dense route, the others Lanczos; both count the
    # residual checks too
    act = action_at(L, 0.2, bc="open" if L == 2 else "periodic")
    calls = 0

    def counting(v):
        nonlocal calls
        calls += 1
        return act.matvec(v)

    res = lowest_eigenpairs(counting, act.dim, k=k, seed=3)
    assert res.matvecs == calls
    if L == 2:
        assert calls == act.dim + k  # one per column, one per residual


@pytest.mark.parametrize("L, dense, k", [
    pytest.param(3, True, 2, id="3-True"),
    pytest.param(4, False, 2, id="4-False"),
    pytest.param(4, True, 17, id="4-True-k17"),
])
def test_matrix_route_up_to_dense_max_dim(L, dense, k):
    # with its matrix given, a solve of at most DENSE_MAX_DIM = 64 states is
    # a dense eigh whose only matvecs are the residual checks; L = 4 (dim
    # 70) stays on Lanczos at k = 2, and at k = 17 (dim <= 4 k + 4) takes
    # the dense route, which then reads the matrix too
    act = action_at(L, 0.3)
    res = lowest_eigenpairs(act.matvec, act.dim, k=k, seed=2, matrix=act.H)
    spectrum = dense_oracle(act.matvec, act.dim)
    assert np.abs(res.energies - spectrum[:k]).max() <= 1e-10
    assert (res.matvecs == k) is dense
    if dense:  # a dense matrix serves as well as a sparse one
        again = lowest_eigenpairs(act.matvec, act.dim, k=k, matrix=act.H.toarray())
        assert np.array_equal(res.energies, again.energies)


def test_dense_route_without_a_matrix_up_to_dense_max_dim():
    # one threshold for every caller: without a matrix the 20-state
    # periodic L = 3 sector is materialized from its action, one matvec per
    # column and one per residual, not solved by Lanczos
    act = action_at(3, 0.3)
    res = lowest_eigenpairs(act.matvec, act.dim, k=2, seed=2)
    assert act.dim == 20 and res.matvecs == act.dim + 2
    assert np.array_equal(res.energies, lowest_eigenpairs(act.matvec, act.dim, k=2,
                                                          matrix=act.H).energies)


@pytest.mark.parametrize("L, theta_over_pi", [(4, 0.1), (5, -0.3), (5, 0.75)])
def test_ritz_bound_lies_at_or_below_the_lowest_level(L, theta_over_pi):
    # one loose pass, the residual check counted; the bound lies within the
    # loose tolerance of the lowest level, and below it
    act = action_at(L, theta_over_pi)
    calls = 0

    def counting(v):
        nonlocal calls
        calls += 1
        return act.matvec(v)

    bound, matvecs = ritz_bound(counting, act.dim, seed=3)
    lowest = dense_oracle(act.matvec, act.dim)[0]
    assert matvecs == calls
    assert lowest - 1e-2 * abs(lowest) < bound <= lowest
    assert matvecs < lowest_eigenpairs(act.matvec, act.dim, k=1, seed=3).matvecs


def test_ritz_bound_lies_below_the_second_of_two_close_levels():
    # the bound lies within the pass's residual of *an* eigenvalue: in this
    # 392-state sector the two lowest levels lie 3.8e-4 apart, and the loose
    # pass from seed 1 gives a bound 1.3e-5 above the lowest, below the second
    spec = LadderSpec(L=8)
    (sector,) = [
        s for s in symmetry_sectors(build_sector(spec.N, 0)) if s.irrep.label == "k1 Q-1 Z+1"
    ]
    act = HamiltonianAction(LadderTables(spec, sector), couplings_from_theta(0.12 * math.pi))
    first, second = scipy.linalg.eigvalsh(act.H.toarray(), subset_by_index=[0, 1])
    bound, _ = ritz_bound(act.matvec, act.dim, seed=1)
    assert act.dim == 392
    assert first < bound <= second


def test_ritz_bound_overshoots_the_lowest_level_by_0_6(monkeypatch):
    # the worst overshoot found: the seed-0 start of this 127-state sector
    # barely overlaps its lowest eigenvector, so the loose pass converges to
    # the second level, 0.598 above the lowest; seed 1 finds the lowest.  The
    # sweep still screens the sector rightly, but only because E0 = -14.158
    # lies far below both levels.  A loose pass that cannot miss the lowest
    # level fails the seed-0 bound here
    spec = LadderSpec(L=7)
    basis = build_sector(spec.N, 0)
    sectors = symmetry_sectors(basis)
    (i,) = [i for i, s in enumerate(sectors) if s.irrep.label == "k1 Q-1 Z-1"]
    couplings = couplings_from_theta(-0.51 * math.pi)
    tables = [LadderTables(spec, s) for s in sectors]
    act = HamiltonianAction(tables[i], couplings)
    first, second = scipy.linalg.eigvalsh(act.H.toarray(), subset_by_index=[0, 1])
    bound, matvecs = ritz_bound(act.matvec, act.dim, seed=0)
    assert act.dim == 127 and matvecs == 25
    assert (first, second, bound) == pytest.approx((-9.36409, -8.75940, -8.76572), abs=1e-5)
    assert bound - first == pytest.approx(0.598, abs=5e-4)
    assert second - bound == pytest.approx(6.3e-3, abs=5e-4)
    bound, _ = ritz_bound(act.matvec, act.dim, seed=1)
    assert bound == pytest.approx(-9.36678, abs=1e-5) and bound < first

    cfg = SweepConfig(L=7, thetas_over_pi=(-0.51,), blocks=(BlockSpec("D", 3),))
    rec, _, unsolved = traced_point(monkeypatch, sweep.LadderSolver(cfg), -0.51)
    assert i in unsolved and rec.E0 == pytest.approx(-14.158, abs=5e-4)
    (screened,) = run_sweep(cfg)
    monkeypatch.setattr(sweep, "ritz_bound", lambda applyH, dim, seed: (-np.inf, 0))
    (solved,) = run_sweep(cfg)
    assert screened == solved


@pytest.mark.parametrize("theta_over_pi, steps", [(-0.3, 24), (0.1, 36)])
def test_ritz_bound_tests_convergence_where_arpack_does(theta_over_pi, steps):
    # the first test comes after NCV = 24 steps, then one every 12; the
    # residual check adds one matvec.  In the 252-state periodic L = 5
    # sector the pass at -0.3 pi converges at its first test, the one at
    # 0.1 pi at its second
    act = action_at(5, theta_over_pi)
    calls = 0

    def counting(v):
        nonlocal calls
        calls += 1
        return act.matvec(v)

    assert ritz_bound(counting, act.dim)[1] == calls == steps + 1


def test_ritz_bound_without_convergence_bounds_nothing(monkeypatch):
    # a pass that reaches its step cap unconverged gives -inf, so its sector
    # is always solved: the 0.2 pi pass here converges after 48 steps
    act = action_at(5, 0.2)
    monkeypatch.setattr(eigensolver, "RITZ_MAX_STEPS", 36)
    assert ritz_bound(act.matvec, act.dim) == (-np.inf, 36)


def test_ritz_bound_stops_at_a_breakdown():
    # H = 2 I leaves the Krylov space of any start after one step: beta is 0,
    # and the Ritz pair (2, v0) is exact
    assert ritz_bound(lambda v: 2 * v, 100, seed=4) == (2.0, 2)


def _ritz_bound_oracle(applyH, dim, seed):
    # the loose pass as plain numpy: the same recurrence, checkpoints and
    # criterion as ritz_bound, with numpy temporaries for every vector, all
    # Lanczos vectors kept and eigh_tridiagonal at each test
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
    vs, alpha, beta = [v0 / np.linalg.norm(v0)], [], []
    rows, check = eigensolver.NCV // 2, min(eigensolver.NCV, dim)
    for step in range(eigensolver.RITZ_MAX_STEPS):
        v = vs[-1]
        Hv = applyH(v)
        alpha.append(float(v @ Hv) / float(v @ v))
        w = Hv - alpha[-1] * v
        if step:
            w -= beta[-1] * vs[-2]
        beta.append(float(np.linalg.norm(w)))
        if beta[-1] == 0 or step + 1 == check:
            (theta,), s = scipy.linalg.eigh_tridiagonal(
                alpha, beta[:-1], select="i", select_range=(0, 0))
            if beta[-1] * abs(s[-1, 0]) <= eigensolver.SCREEN_TOL * max(
                    np.finfo(float).eps ** (2 / 3), abs(theta)):
                x = np.array(vs).T @ s[:, 0]
                x /= np.linalg.norm(x)
                return float(theta - np.linalg.norm(applyH(x) - theta * x)), step + 2
            check += rows
        vs.append(w / beta[-1])
    return -np.inf, eigensolver.RITZ_MAX_STEPS


def test_ritz_bound_matches_a_plain_numpy_recurrence():
    # every bounded sector of periodic L = 6-8 and open L = 7-8: the same
    # matvecs, and bounds that differ only by the rounding of BLAS's axpy
    # and norm against numpy's temporaries
    passes = 0
    for L, bc in ((6, "periodic"), (7, "periodic"), (8, "periodic"), (7, "open"), (8, "open")):
        spec = LadderSpec(L=L, bc=bc)
        tables = [LadderTables(spec, s)
                  for s in symmetry_sectors(build_sector(spec.N, 0), bc)
                  if s.dim > eigensolver.DENSE_MAX_DIM]
        for theta_over_pi in (-0.5, 0.15, 0.5):
            couplings = couplings_from_theta(theta_over_pi * math.pi)
            for t in tables:
                act = HamiltonianAction(t, couplings)
                for seed in (0, 1):
                    bound, matvecs = ritz_bound(act.matvec, act.dim, seed)
                    want, want_matvecs = _ritz_bound_oracle(act.matvec, act.dim, seed)
                    assert matvecs == want_matvecs
                    assert abs(bound - want) <= 1e-12 * max(1.0, abs(want))
                    passes += 1
    assert passes == 360
