import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import geometry, ground_state
from ringladder import (
    Couplings,
    HamiltonianAction,
    LadderSpec,
    LadderTables,
    StateVector,
    apply_ring_decomposed,
    apply_ring_permutation,
    bond_matrix,
    build_sector,
    couplings_from_theta,
    enumerate_terms,
    ring_matrix,
    rung_correlator,
    symmetry_sectors,
)
from ringladder import hamiltonian
from ringladder.basis import LadderOrbits

THETA_C = math.atan(0.5)
# T = sum_i S1i.S2i is H at these couplings
RUNG_ONLY = Couplings(Jl=0.0, Jr=1.0, K=0.0)


def single_plaquette():
    spec = LadderSpec(L=2, bc="open")
    _, _, plaq = enumerate_terms(spec)
    assert len(plaq) == 1
    return spec, plaq[0]


def test_ring_permutation_displayed_pattern():
    _, p = single_plaquette()
    # spins (a, b, c, d) = (up, down, up, down) rotate to (down, up, down, up)
    config = (1 << p.a) | (1 << p.c)
    rotated = apply_ring_permutation(p, config)
    assert rotated == (1 << p.b) | (1 << p.d)


def test_ring_permutation_all_up_fixed():
    _, p = single_plaquette()
    allup = 0b1111
    assert apply_ring_permutation(p, allup) == allup
    assert apply_ring_permutation(p, allup, inverse=True) == allup


def test_ring_permutation_inverse_roundtrip():
    spec = LadderSpec(L=4)
    _, _, plaqs = enumerate_terms(spec)
    rng = np.random.default_rng(11)
    configs = rng.integers(0, 1 << spec.N, size=1000)
    for p in plaqs:
        fwd = apply_ring_permutation(p, configs)
        back = apply_ring_permutation(p, fwd, inverse=True)
        assert np.array_equal(back, configs)
        # four applications of the cycle come back around
        four = configs
        for _ in range(4):
            four = apply_ring_permutation(p, four)
        assert np.array_equal(four, configs)


def test_all_up_is_eigenstate_at_theta_pi():
    spec = LadderSpec(L=4)
    basis = build_sector(8, 8)
    act = HamiltonianAction(LadderTables(spec, basis), couplings_from_theta(math.pi))
    assert act.matvec(np.ones(1))[0] == pytest.approx(-3.0, abs=1e-13)


def test_single_rung_ground_energy():
    spec = LadderSpec(L=1, bc="open")
    basis = build_sector(2, 0)
    tables = LadderTables(spec, basis)
    act = HamiltonianAction(tables, Couplings(Jl=0.0, Jr=1.0, K=0.0))
    H = np.column_stack([act.matvec(e) for e in np.eye(basis.dim)])
    assert np.linalg.eigvalsh(H)[0] == pytest.approx(-0.75, abs=1e-14)


def test_hermiticity_random_vectors():
    _, basis, tables = geometry(4)
    rng = np.random.default_rng(5)
    for theta_over_pi in (-0.3, 0.0, 0.147584, 0.6, 0.9):
        act = HamiltonianAction(tables, couplings_from_theta(theta_over_pi * math.pi))
        u = rng.normal(size=basis.dim)
        v = rng.normal(size=basis.dim)
        lhs = u @ act.matvec(v)
        rhs = act.matvec(u) @ v
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
        # the direct kernel call gives scipy's own H @ v, bit for bit, and
        # refuses a vector of the wrong length before reading it
        assert np.array_equal(act.matvec(v), act.H @ v)
    for bad in (np.ones(basis.dim - 1), np.ones((basis.dim, 1))):
        with pytest.raises(ValueError, match="amplitudes"):
            act.matvec(bad)


def test_basis_spec_mismatch_rejected():
    spec = LadderSpec(L=4)
    wrong = build_sector(6, 0)
    with pytest.raises(ValueError):
        LadderTables(spec, wrong)
    # a symmetry sector holds only for the boundary whose group built it
    basis = build_sector(8, 0)
    for bc, other in (("periodic", "open"), ("open", "periodic")):
        sector = symmetry_sectors(basis, bc)[0]
        with pytest.raises(ValueError, match=f"sector is of a {bc} ladder, not {other}"):
            LadderTables(LadderSpec(L=4, bc=other), sector)


def test_ring_routes_agree():
    rng = np.random.default_rng(23)
    for L in (3, 4):
        spec, basis, tables = geometry(L)
        _, _, plaqs = enumerate_terms(spec)
        ring_only = HamiltonianAction(tables, Couplings(0.0, 0.0, 1.0))
        for _ in range(10):
            v = StateVector(basis, rng.normal(size=basis.dim))
            via_perm = ring_only.matvec(v.amps)
            via_ops = apply_ring_decomposed(plaqs, basis, v).amps
            scale = np.linalg.norm(via_perm)
            assert np.linalg.norm(via_perm - via_ops) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(
    L=st.integers(3, 5),
    bc=st.sampled_from(("periodic", "open")),
    twoSz=st.sampled_from((0, 2)),
    couplings=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_terms_symmetric_and_ring_matches_decomposed(L, bc, twoSz, couplings, seed):
    spec, basis, tables = geometry(L, bc, twoSz)
    act = HamiltonianAction(tables, Couplings(*couplings))
    H = np.column_stack([act.matvec(e) for e in np.eye(basis.dim)])
    assert np.max(np.abs(H - H.T)) <= 1e-12 * max(1.0, np.max(np.abs(H)))

    _, _, plaqs = enumerate_terms(spec)
    v = StateVector(basis, np.random.default_rng(seed).normal(size=basis.dim))
    P = ring_matrix(basis, plaqs)
    via_csr = P @ v.amps + P.T @ v.amps
    via_ops = apply_ring_decomposed(plaqs, basis, v).amps
    assert np.linalg.norm(via_csr - via_ops) <= 1e-12 * np.linalg.norm(via_csr)


@pytest.mark.parametrize("bc", ["periodic", "open"])
@pytest.mark.parametrize("twoSz", [0, 2, -4])
def test_merged_pattern_matches_term_sum(bc, twoSz):
    """One coded pattern against Jr rung + Jl leg + K (P + P.T) of the
    separately built term matrices, entry by entry."""
    rng = np.random.default_rng(41 + twoSz)
    for L in range(3, 7):
        spec, basis, tables = geometry(L, bc, twoSz)
        rung_bonds, leg_bonds, plaqs = enumerate_terms(spec)
        rung, leg = bond_matrix(basis, rung_bonds), bond_matrix(basis, leg_bonds)
        P = ring_matrix(basis, plaqs)
        ptr, ind = tables.indptr, tables.indices
        for row in range(basis.dim):
            cols = ind[ptr[row]:ptr[row + 1]]
            assert len(np.unique(cols)) == len(cols), f"row {row} repeats a column"
        assert np.array_equal(ind[ptr[1:] - 1], np.arange(basis.dim))
        acts = []
        for _ in range(3):
            c = Couplings(*rng.uniform(-2.0, 2.0, 3))
            act = HamiltonianAction(tables, c)
            want = c.Jr * rung + c.Jl * leg + c.K * (P + P.T)
            err = abs(act.H - want).max()
            assert err <= 1e-14 * abs(want).max(), (L, c, err)
            acts.append(act)
        for act in acts[:2]:
            assert np.shares_memory(act.H.indices, tables.indices)
            assert np.shares_memory(act.H.indptr, tables.indptr)


def test_tables_hold_no_float_entries():
    # the pattern is coupling-independent: only an action holds values, and
    # each entry holds an unsigned key into its table's short (code, factor)
    # list, on a plain sector and on every symmetry sector alike
    ladders = [("periodic", L) for L in range(3, 10)] + [("open", L) for L in range(1, 9)]
    for (bc, L), twoSz in itertools.product(ladders, (0, 2)):
        spec = LadderSpec(L=L, bc=bc)
        basis = build_sector(spec.N, twoSz)
        plain = LadderTables(spec, basis)
        sectors = [LadderTables(spec, s) for s in symmetry_sectors(basis, bc)]
        pairs = entries = 0
        for tables in [plain, *sectors]:
            nnz = len(tables.indices)
            # the (code, factor) list is as long as nnz on some tiny tables
            per_entry = {k: a for k, a in vars(tables).items()
                         if isinstance(a, np.ndarray) and a.shape == (nnz,)
                         and k not in ("pair_code", "pair_factor")}
            assert "key" in per_entry
            assert [k for k, a in per_entry.items() if a.dtype.kind == "f"] == []
            assert tables.key.dtype.kind == "u"
            assert tables.key.max() < len(tables.pair_code) == len(tables.pair_factor)
            # key 0 is the diagonal's, (0, 1.0) on every table, whatever its
            # sector's state vectors; HamiltonianAction overwrites it
            assert (tables.pair_code[0], tables.pair_factor[0]) == (0, 1.0)
            assert (tables.key[tables.indptr[1:] - 1] == 0).all()
            # each (code, factor bits) is kept once
            kept = set(zip(tables.pair_code, tables.pair_factor.view(np.int64)))
            assert len(kept) == len(tables.pair_code)
            if tables is not plain:
                label = tables.basis.irrep.label
                assert L < 5 or len(tables.pair_code) < nnz, (bc, L, twoSz, label)
                pairs, entries = pairs + len(tables.pair_code), entries + nnz
        # the pairs grow more slowly than the entries
        assert L < 7 or 4 * pairs < entries, (bc, L, twoSz)


@pytest.mark.parametrize("bc, L", [("periodic", 5), ("periodic", 6), ("open", 5)])
@pytest.mark.parametrize("twoSz", [0, 2])
def test_rows_do_not_depend_on_the_block_size(monkeypatch, bc, L, twoSz):
    # the row builder works through the masks RANK_BLOCK at a time; blocks of
    # 1, 7 and 64 masks give the one-block build of the plain rows and of the
    # group's representative rows, array for array, dtype included
    spec = LadderSpec(L=L, bc=bc)
    basis = build_sector(spec.N, twoSz)
    group = LadderOrbits(basis, bc)
    calls = [(basis, basis.states), (group.basis, group.reps)]
    assert basis.dim <= hamiltonian.RANK_BLOCK
    whole = [hamiltonian._rows(spec, b, masks) for b, masks in calls]
    for size in (1, 7, 64):
        monkeypatch.setattr(hamiltonian, "RANK_BLOCK", size)
        for want, (b, masks) in zip(whole, calls):
            got = hamiltonian._rows(spec, b, masks)
            assert len(got) == len(want) == 6
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (size, len(masks))


def test_decomposed_all_up_plaquette_gives_two():
    spec = LadderSpec(L=3)
    basis = build_sector(6, 6)
    _, _, plaqs = enumerate_terms(spec)
    v = StateVector(basis, np.ones(1))
    out = apply_ring_decomposed([plaqs[0]], basis, v)
    assert out.amps[0] == pytest.approx(2.0, abs=1e-13)


def _site_op(op2: np.ndarray, site: int, n: int) -> np.ndarray:
    # little-endian kron: site index is the bit position of the state index
    m = np.eye(1)
    for s in range(n):
        m = np.kron(op2 if s == site else np.eye(2), m)
    return m


def _dense_pair(i: int, j: int, n: int) -> np.ndarray:
    sz = np.diag([-0.5, 0.5])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])
    sm = sp.T
    return (
        _site_op(sz, i, n) @ _site_op(sz, j, n)
        + 0.5 * (_site_op(sp, i, n) @ _site_op(sm, j, n))
        + 0.5 * (_site_op(sm, i, n) @ _site_op(sp, j, n))
    )


def test_decomposed_matches_dense_sixteen_dim():
    """Spin-operator form of the ring term against an explicit 16x16 build."""
    spec, p = single_plaquette()
    a, b, c, d = p.sites
    n = 4
    dense = 0.25 * np.eye(16)
    for i, j in ((a, b), (b, c), (c, d), (d, a), (a, c), (b, d)):
        dense += _dense_pair(i, j, n)
    dense += 4.0 * (_dense_pair(a, b, n) @ _dense_pair(c, d, n))
    dense += 4.0 * (_dense_pair(a, d, n) @ _dense_pair(b, c, n))
    dense -= 4.0 * (_dense_pair(a, c, n) @ _dense_pair(b, d, n))

    # dense permutation route: matrix units at (rotated, original)
    perm = np.zeros((16, 16))
    for s in range(16):
        perm[apply_ring_permutation(p, s), s] = 1.0
    assert np.max(np.abs(dense - (perm + perm.T))) <= 1e-12

    # sector-resolved agreement with the production apply
    for twoSz in (-4, -2, 0, 2, 4):
        basis = build_sector(4, twoSz)
        sub = dense[np.ix_(basis.states, basis.states)]
        for col in range(basis.dim):
            e = np.zeros(basis.dim)
            e[col] = 1.0
            got = apply_ring_decomposed([p], basis, StateVector(basis, e)).amps
            assert np.max(np.abs(got - sub[:, col])) <= 1e-12


def test_singlet_pair_plaquette_eigenstate():
    """Singlets across the two diagonals of a plaquette are a ring-term
    eigenstate: the rotation maps the pairing to minus itself, so P + Pinv
    acts as -2."""
    spec, p = single_plaquette()
    basis = build_sector(4, 0)
    amps = np.zeros(basis.dim)
    for mask_ac, sign_ac in (((1 << p.a), 1.0), ((1 << p.c), -1.0)):
        for mask_bd, sign_bd in (((1 << p.b), 1.0), ((1 << p.d), -1.0)):
            amps[basis.index(mask_ac | mask_bd)] = 0.5 * sign_ac * sign_bd
    v = StateVector(basis, amps)
    out = apply_ring_decomposed([p], basis, v)
    lam = v.amps @ out.amps
    assert np.linalg.norm(out.amps - lam * v.amps) <= 1e-12
    assert lam == pytest.approx(-2.0, abs=1e-12)


def test_apply_T_singlet_product():
    L = 3
    spec, basis, tables = geometry(L)
    coef = {0: 1.0}
    for r in range(L):
        nxt = {}
        for mask, cval in coef.items():
            nxt[mask | (1 << (2 * r))] = cval / math.sqrt(2)
            nxt[mask | (1 << (2 * r + 1))] = -cval / math.sqrt(2)
        coef = nxt
    amps = np.zeros(basis.dim)
    for mask, cval in coef.items():
        amps[basis.index(mask)] = cval
    tv = HamiltonianAction(tables, RUNG_ONLY).matvec(amps)
    assert np.linalg.norm(tv - (-0.75 * L) * amps) <= 1e-12


def test_apply_T_all_up():
    basis = build_sector(8, 8)
    tables = LadderTables(LadderSpec(L=4), basis)
    tv = HamiltonianAction(tables, RUNG_ONLY).matvec(np.ones(1))
    assert tv[0] == pytest.approx(4 * 0.25, abs=1e-14)


def test_commutator_vanishes_only_at_special_point():
    _, basis, tables = geometry(4)
    rng = np.random.default_rng(17)
    v = rng.normal(size=basis.dim)
    v /= np.linalg.norm(v)
    T = HamiltonianAction(tables, RUNG_ONLY).matvec

    def comm_norm(theta):
        act = HamiltonianAction(tables, couplings_from_theta(theta))
        return np.linalg.norm(act.matvec(T(v)) - T(act.matvec(v)))

    at_pin = comm_norm(THETA_C)
    assert at_pin <= 1e-10
    for off in (THETA_C + 0.05 * math.pi, THETA_C - 0.05 * math.pi):
        assert comm_norm(off) >= 1e6 * max(at_pin, 1e-16)


def test_ground_state_translation_invariance():
    psi = ground_state(4, 0.3)
    vals = [rung_correlator(psi, r) for r in range(1, 5)]
    assert max(vals) - min(vals) <= 1e-9
