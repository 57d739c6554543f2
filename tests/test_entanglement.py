import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import geometry, ground_state
import scipy.linalg

from ringladder import (
    BlockLayout,
    DensityMatrix,
    LadderSpec,
    StateVector,
    bond_matrix,
    build_sector,
    concurrence,
    enumerate_terms,
    expectation_T,
    fm_entropy,
    fm_state,
    reduced_density_matrix,
    rung_correlator,
    rung_entropy_from_z,
    rung_rdm_params,
    von_neumann_entropy,
)
from ringladder.basis import RANK_BLOCK

LOG2_3 = math.log2(3.0)


def random_state(basis, rng) -> StateVector:
    amps = rng.standard_normal(basis.dim)
    return StateVector(basis, amps / np.linalg.norm(amps))


def dense_rdm(state: StateVector, sites) -> np.ndarray:
    """rho = A A^T from the state scattered into all 2^N amplitudes.

    The full vector reshaped to N axes has site s on axis N - 1 - s; the
    block axes go to the front in the order of sites, so sites[0] is the
    most significant block bit.
    """
    N = state.basis.N
    full = np.zeros(2**N)
    full[state.basis.states] = state.amps
    block_axes = [N - 1 - s for s in sites]
    rest = [ax for ax in range(N) if ax not in block_axes]
    A = np.transpose(full.reshape((2,) * N), block_axes + rest).reshape(2 ** len(sites), -1)
    return A @ A.T


def whole_basis_rdm_blocks(state: StateVector, sites) -> dict[int, np.ndarray]:
    """The blocks of a one-off RDM from the whole reordered state at once:
    every mask's key, one stable sort and one gather of every amplitude,
    then each M_u a reshaped slice of it."""
    basis = state.basis
    N, l, b = basis.N, len(sites), basis.N // 2
    hi_pattern = np.zeros(1 << (N - b), dtype=np.uint16)
    lo_pattern = np.zeros(1 << b, dtype=np.uint16)
    for t, s in enumerate(sites):
        table, bit = (hi_pattern, s - b) if s >= b else (lo_pattern, s)
        table |= ((np.arange(len(table)) >> bit) & 1).astype(np.uint16) << (l - 1 - t)
    position = np.empty(2**l, dtype=np.uint16)
    position[np.concatenate(DensityMatrix(sites, {}).sz_sectors())] = np.arange(2**l)
    key = position[hi_pattern[basis.states >> b] | lo_pattern[basis.states & ((1 << b) - 1)]]
    ordered = state.amps[np.argsort(key, kind="stable")]
    blocks, at = {}, 0
    for u in range(l + 1):
        if 0 <= basis.n_up - u <= N - l:
            rows, cols = math.comb(l, u), math.comb(N - l, basis.n_up - u)
            M = ordered[at:at + rows * cols].reshape(rows, cols)
            at += rows * cols
            blocks[u] = M @ M.T
    return blocks


def whole_basis_T(state: StateVector) -> float:
    """<T> with every rung's masks, partners and squares taken over the whole
    basis at once."""
    basis, a = state.basis, state.amps
    a2 = a * a
    norm2 = float(a2.sum())
    total = 0.0
    for r in range(basis.N // 2):
        pair = (basis.states >> (2 * r)).astype(np.uint8)
        pair ^= pair >> 1
        pair &= 1
        anti = np.flatnonzero(pair)
        flipped = basis.rank_many(basis.states[anti] ^ (3 << (2 * r)))
        total += 0.25 * norm2 - 0.5 * a2[anti].sum() + 0.5 * (a[anti] @ a[flipped])
    return float(total)


def two_site_singlet():
    basis = build_sector(2, 0)
    return StateVector(basis, np.array([1.0, -1.0]) / math.sqrt(2.0))


def singlet_product(L):
    spec, basis, _ = geometry(L)
    coef = {0: 1.0}
    for r in range(L):
        nxt = {}
        for mask, c in coef.items():
            nxt[mask | (1 << (2 * r))] = c / math.sqrt(2)
            nxt[mask | (1 << (2 * r + 1))] = -c / math.sqrt(2)
        coef = nxt
    amps = np.zeros(basis.dim)
    for mask, c in coef.items():
        amps[basis.index(mask)] = c
    return StateVector(basis, amps)


SINGLET_RHO = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.5, -0.5, 0.0],
    [0.0, -0.5, 0.5, 0.0],
    [0.0, 0.0, 0.0, 0.0],
])

TRIPLET0_RHO = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5, 0.0],
    [0.0, 0.0, 0.0, 0.0],
])


def test_single_site_of_singlet_is_maximally_mixed():
    rho = reduced_density_matrix(two_site_singlet(), (0,))
    assert np.allclose(rho.rho, 0.5 * np.eye(2), atol=1e-14)
    assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)


def test_product_state_block_is_pure():
    basis = build_sector(6, 6)
    v = StateVector(basis, np.ones(1))
    rho = reduced_density_matrix(v, (0, 3, 4))
    lam = rho.eigenvalues()
    assert lam[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(lam[1:] <= 1e-14)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_uniform_state_two_site_spectrum():
    basis = build_sector(4, 0)
    rho = reduced_density_matrix(fm_state(4, basis), (0, 1))
    lam = rho.eigenvalues()
    assert np.allclose(lam[:3], [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
    assert von_neumann_entropy(rho) == pytest.approx(1.251629, abs=1e-6)


def test_rdm_singlet_coherences():
    # singlet on (0, 1) times singlet on (2, 3); trace out the second pair
    basis = build_sector(4, 0)
    amps = np.zeros(basis.dim)
    for m1, s1 in ((1 << 0, 1.0), (1 << 1, -1.0)):
        for m2, s2 in ((1 << 2, 1.0), (1 << 3, -1.0)):
            amps[basis.index(m1 | m2)] = 0.5 * s1 * s2
    rho = reduced_density_matrix(StateVector(basis, amps), (0, 1))
    assert np.allclose(rho.rho, SINGLET_RHO, atol=1e-14)


def test_rdm_validation_errors():
    psi = ground_state(3, 0.1)
    with pytest.raises(ValueError):
        reduced_density_matrix(psi, (0, 0))
    with pytest.raises(ValueError):
        reduced_density_matrix(psi, (0, 6))
    with pytest.raises(ValueError):
        reduced_density_matrix(psi, ())
    big = build_sector(16, 0)
    uniform = fm_state(16, big)
    with pytest.raises(ValueError):
        reduced_density_matrix(uniform, tuple(range(15)))  # above the cap


@pytest.mark.parametrize("sites", [(0, 1), (1, 0), (3, 0, 5, 1, 4, 2)],
                         ids=["N2", "N2-reversed", "N6-shuffled"])
def test_whole_system_rdm_is_the_projector(sites):
    # tracing out nothing leaves |psi><psi| over the patterns, sites[0] the
    # high bit
    N = len(sites)
    basis = build_sector(N, 0)
    psi = random_state(basis, np.random.default_rng(N))
    v = np.zeros(2**N)
    pattern = sum(((basis.states >> s) & 1) << (N - 1 - t) for t, s in enumerate(sites))
    v[pattern] = psi.amps
    rho = reduced_density_matrix(psi, sites)
    assert np.max(np.abs(rho.rho - np.outer(v, v))) <= 1e-15


PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def ladder_and_block(draw):
    """(L, theta/pi, bc, twoSz, sites): a ground state at random theta on a
    small ladder, and one block of its sites that leaves a complement."""
    L = draw(st.integers(3, 5))
    theta = draw(st.floats(-1.0, 1.0))
    bc = draw(st.sampled_from(["periodic", "open"]))
    twoSz = draw(st.sampled_from([0, 2]))
    sites = draw(st.lists(st.integers(0, 2 * L - 1), min_size=1, max_size=2 * L - 1,
                          unique=True))
    return L, theta, bc, twoSz, tuple(sites)


@PROPERTY_SETTINGS
@given(ladder_and_block())
@example((4, 0.25, "periodic", 0, (7, 5, 2, 1, 3, 0)))
@example((4, 0.25, "periodic", 0, (1, 7, 0, 4, 3, 5)))
@example((4, 0.25, "periodic", 0, (1, 7, 6, 4, 3)))
@example((4, 0.25, "periodic", 0, (2, 1, 0, 6, 7, 4)))
@example((4, 0.25, "periodic", 0, (3, 2, 5, 6, 7, 1)))
def test_rdm_trace_and_psd(case):
    L, theta, bc, twoSz, sites = case
    rho = reduced_density_matrix(ground_state(L, theta, bc, twoSz), sites)
    lam = rho.eigenvalues()
    assert abs(lam.sum() - 1.0) <= 1e-12
    assert lam.min() >= -1e-12
    # block-diagonal in the block up-count
    dense = rho.rho
    for g in rho.sz_sectors():
        others = np.setdiff1d(np.arange(dense.shape[0]), g)
        if len(g) and len(others):
            assert np.max(np.abs(dense[np.ix_(g, others)])) <= 1e-12


@pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 12])
def test_rdm_matches_dense_oracle(N):
    rng = np.random.default_rng(N)
    for twoSz in (-2, 0, 2):
        psi = random_state(build_sector(N, twoSz), rng)
        for l in range(1, N):
            for sites in (tuple(range(l)), tuple(int(s) for s in rng.permutation(N)[:l])):
                rho = reduced_density_matrix(psi, sites).rho
                assert np.max(np.abs(rho - dense_rdm(psi, sites))) <= 1e-13, (twoSz, sites)


@pytest.mark.parametrize("N", [10, 14])
@pytest.mark.parametrize("half", ["high", "low", "both"])
def test_rdm_pattern_tables_match_dense_oracle(N, half):
    # the block pattern is read from one table over the high half of each
    # mask (sites b..N-1, b = N // 2) and one over the low half
    b = N // 2
    rng = np.random.default_rng(N)
    if half == "both":
        blocks = [(b, b - 1), (b - 1, N - 1, 0, b), (0, b + 1, 2, N - 1, b - 1, b)]
    else:
        pool = range(b, N) if half == "high" else range(b)
        blocks = [tuple(int(s) for s in rng.permutation(pool)[:l]) for l in (1, 3, len(pool))]
    for twoSz in (-2, 0, 2):
        psi = random_state(build_sector(N, twoSz), rng)
        for sites in blocks:
            rho = reduced_density_matrix(psi, sites).rho
            assert np.max(np.abs(rho - dense_rdm(psi, sites))) <= 1e-13, (twoSz, sites)


@pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 12])
def test_layout_stands_in_for_its_sites(N):
    # a layout built once, its order int32 as built, gives every state's RDM
    # to the bit; a 1 x 1 block's eigenvalue is its entry and the rung
    # parameters are read from the blocks, both as from the dense routes
    rng = np.random.default_rng(N)
    for twoSz in (-2, 0, 2):
        basis = build_sector(N, twoSz)
        states = [random_state(basis, rng) for _ in range(3)]
        for l in range(1, N + 1):
            sites = tuple(int(s) for s in rng.permutation(N)[:l])
            layout = BlockLayout(basis, sites)
            assert len(layout) == l and layout.order.dtype == np.int32
            for psi in states:
                want = reduced_density_matrix(psi, sites)
                got = reduced_density_matrix(psi, layout)
                assert got.sites == want.sites and got.blocks.keys() == want.blocks.keys()
                assert all(np.array_equal(got.blocks[u], want.blocks[u]) for u in want.blocks)
                if l > 6:  # large blocks add eigvalsh time, not cases
                    continue
                lam = np.sort(np.concatenate(
                    [scipy.linalg.eigvalsh(block) for block in want.blocks.values()]
                    + [np.zeros(math.comb(l, u)) for u in range(l + 1) if u not in want.blocks]
                ))[::-1]
                assert np.array_equal(want.eigenvalues(), lam)
                if l == 2:
                    assert rung_rdm_params(want) == rung_rdm_params(want.rho)


def test_layout_on_another_basis_is_refused():
    psi = random_state(build_sector(6, 0), np.random.default_rng(0))
    for basis in (build_sector(6, 0), build_sector(6, 2), build_sector(8, 0)):
        with pytest.raises(ValueError, match="another basis"):
            reduced_density_matrix(psi, BlockLayout(basis, (0, 1)))
    with pytest.raises(ValueError, match="block sites must be distinct"):
        BlockLayout(psi.basis, (0, 0))


@pytest.mark.parametrize("site", [1.7, "1", np.float64(1.0)])
def test_a_site_that_is_not_an_integer_is_refused(site):
    # a float or a string that int() would take is not a site
    psi = random_state(build_sector(8, 0), np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape(f"block site {site!r} is not an integer")):
        reduced_density_matrix(psi, [0, site])
    assert reduced_density_matrix(psi, [0, np.int64(1)]).sites == (0, 1)


@pytest.mark.parametrize("N", [12, 16, 20])
@pytest.mark.parametrize("twoSz", [0, 2])
def test_streamed_passes_match_whole_basis_references(N, twoSz):
    # <T> and the one-off RDM work through the basis RANK_BLOCK masks at a
    # time, which at N = 20 is several slices; they read the same arrays
    # in the same order, so they agree to the bit
    rng = np.random.default_rng(N + twoSz)
    basis = build_sector(N, twoSz)
    assert N < 20 or basis.dim > 4 * RANK_BLOCK
    # one rounding in the sum of a rung's terms can hide a moved bit in
    # its parts, so <T> is pinned on three states
    states = [random_state(basis, rng) for _ in range(3)]
    assert [expectation_T(psi) for psi in states] == [whole_basis_T(psi) for psi in states]
    psi = states[0]
    b = N // 2
    blocks = [(0, 1), (N - 1, 0), (b, b - 1), tuple(range(b)),
              tuple(int(s) for s in rng.permutation(N)[:5])]
    for sites in blocks:
        want = whole_basis_rdm_blocks(psi, sites)
        got = reduced_density_matrix(psi, sites).blocks
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[u], want[u]) for u in want), sites


def test_rung_params_refuse_an_asymmetric_two_site_density_matrix():
    rho = DensityMatrix(sites=(0, 1), blocks={1: np.array([[0.5, -0.5], [-0.1, 0.5]])})
    with pytest.raises(ValueError, match="not symmetric"):
        rung_rdm_params(rho)


def test_one_off_rdm_holds_two_state_long_arrays_at_most():
    # the key is built one slice of RANK_BLOCK masks at a time and freed
    # after the sort, before the layout keeps an int32 copy of argsort's
    # order, and each M_u is gathered for its product alone: at most the
    # int64 order and its int32 copy, 12 bytes per basis state, or the int32
    # order beside the blocks and one M_u, live at once, plus the scratch of
    # one slice's key
    basis = build_sector(16, 0)
    psi = random_state(basis, np.random.default_rng(1))
    for sites in ((0, 1), (3, 15, 0, 5, 7), tuple(range(8))):
        tracemalloc.start()
        try:
            reduced_density_matrix(psi, sites)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.5 * basis.dim + RANK_BLOCK + 8192, sites


def test_expectation_T_holds_two_gathers_and_one_slice():
    # per rung x and y, 16 bytes per antiparallel mask, 8.4 per basis state
    # here, and the masks, partners and ranks of one slice
    basis = build_sector(20, 0)
    psi = random_state(basis, np.random.default_rng(2))
    tracemalloc.start()
    try:
        expectation_T(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * basis.dim + 6 * 8 * RANK_BLOCK


def test_block_entropy_keeps_only_the_blocks():
    # a 12-site block of the N = 16 Dicke state: its blocks hold 21 MB, the
    # dense 2^12 x 2^12 rho would be 134 MB
    psi = fm_state(16, build_sector(16, 0))
    tracemalloc.start()
    try:
        ent = von_neumann_entropy(reduced_density_matrix(psi, tuple(range(12))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert ent == pytest.approx(fm_entropy(16, 12), abs=1e-10)


def test_entropy_trivial_spectra():
    assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # a pure state whose unit eigenvalue is rounded gives +0.0 exactly
    pure = von_neumann_entropy(np.diag([1.0 - 2.2e-16, 0.0]))
    assert pure == 0.0 and math.copysign(1.0, pure) == 1.0
    lam = np.diag([2 / 3, 1 / 6, 1 / 6])
    assert von_neumann_entropy(lam) == pytest.approx(1.251629, abs=1e-6)


def test_concurrence_bell_and_mixed():
    assert concurrence(SINGLET_RHO) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(np.eye(4) / 4.0) == 0.0
    assert concurrence(TRIPLET0_RHO) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_uniform_state_pair():
    basis = build_sector(4, 0)
    rho = reduced_density_matrix(fm_state(4, basis), (1, 3))
    assert concurrence(rho) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_concurrence_site_order_invariant():
    psi = ground_state(3, 0.12)
    a = concurrence(reduced_density_matrix(psi, (0, 3)))
    b = concurrence(reduced_density_matrix(psi, (3, 0)))
    assert a == pytest.approx(b, abs=1e-12)


def test_concurrence_shape_check():
    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8.0)


def test_concurrence_refuses_a_larger_density_matrix_unassembled():
    # a 10-site RDM is refused from its site count, without assembling the
    # 8.4 MB dense rho its blocks stand for
    rho = reduced_density_matrix(random_state(build_sector(12, 0), np.random.default_rng(3)),
                                 tuple(range(10)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="got one of 10 sites"):
            concurrence(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
def test_concurrence_werner_states(p):
    # p |psi-><psi-| + (1 - p) 1/4 is entangled only above p = 1/3
    rho = p * SINGLET_RHO + (1.0 - p) * np.eye(4) / 4.0
    assert concurrence(rho) == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-14)


def _with(rho, entries):
    rho = rho.copy()
    for rc, value in entries.items():
        rho[rc] = value
    return rho


@pytest.mark.parametrize("rho, says", [
    pytest.param(_with(SINGLET_RHO, {(1, 2): -0.4}), "not symmetric", id="asymmetric"),
    pytest.param(np.diag([0.6, 0.3, 0.3, -0.2]), "eigenvalue", id="negative-population"),
    pytest.param(_with(SINGLET_RHO, {(1, 1): 0.3, (2, 2): 0.3}), "eigenvalue",
                 id="negative-in-coherence-block"),
    # a coherence between different rung Sz: positive definite, but not the
    # reduced state of a fixed-Sz state
    pytest.param(_with(np.eye(4) / 4.0, {(0, 3): 0.1, (3, 0): 0.1}), "off-pattern",
                 id="dd-uu-coherence"),
])
def test_concurrence_refusals(rho, says):
    with pytest.raises(ValueError, match=says):
        concurrence(rho)


def test_rung_params_singlet_triplet_mixed():
    p = rung_rdm_params(SINGLET_RHO)
    assert (p.uPlus, p.uMinus) == (0.0, 0.0)
    assert p.w1 == pytest.approx(0.5) and p.w2 == pytest.approx(0.5)
    assert p.z == pytest.approx(-0.5)
    p = rung_rdm_params(TRIPLET0_RHO)
    assert p.z == pytest.approx(+0.5)
    p = rung_rdm_params(np.eye(4) / 4.0)
    assert p.uPlus == p.uMinus == p.w1 == p.w2 == pytest.approx(0.25)
    assert p.z == 0.0
    assert p.uPlus + p.uMinus + p.w1 + p.w2 == pytest.approx(1.0, abs=1e-10)


def test_rung_params_pattern_violation():
    bad = SINGLET_RHO.copy()
    bad[0, 3] = 0.1  # coherence between different rung Sz
    with pytest.raises(ValueError):
        rung_rdm_params(bad)


def test_rung_entropy_from_z_landmarks():
    assert rung_entropy_from_z(-0.5) == pytest.approx(0.0, abs=1e-12)
    assert rung_entropy_from_z(0.0) == pytest.approx(2.0, abs=1e-12)
    assert rung_entropy_from_z(1.0 / 6.0) == pytest.approx(LOG2_3, abs=1e-12)
    with pytest.raises(ValueError):
        rung_entropy_from_z(0.2)
    with pytest.raises(ValueError):
        rung_entropy_from_z(-0.51)


def test_rung_correlator_product_states():
    L = 3
    psi = singlet_product(L)
    for r in range(1, L + 1):
        assert rung_correlator(psi, r) == pytest.approx(-0.75, abs=1e-12)
    assert expectation_T(psi) == pytest.approx(-0.75 * L, abs=1e-12)
    allup = StateVector(build_sector(6, 6), np.ones(1))
    assert rung_correlator(allup, 2) == pytest.approx(0.25, abs=1e-14)
    for rung, says in ((0, "1..3"), (4, "1..3"), (2.0, "not an integer")):
        with pytest.raises(ValueError, match=says):
            rung_correlator(psi, rung)


@pytest.mark.parametrize("bc", ["periodic", "open"])
@pytest.mark.parametrize("twoSz", [0, 2])
def test_expectation_T_matches_matrix_routes(bc, twoSz):
    rng = np.random.default_rng(7 + twoSz)
    for L in (3, 4, 5):
        spec = LadderSpec(L=L, bc=bc)
        basis = build_sector(spec.N, twoSz)
        rung = bond_matrix(basis, enumerate_terms(spec)[0])
        for _ in range(3):
            psi = random_state(basis, rng)
            T = expectation_T(psi)
            assert abs(T - psi.amps @ (rung @ psi.amps)) <= 1e-12
            assert abs(T - sum(rung_correlator(psi, r) for r in range(1, L + 1))) <= 1e-12
            # each rung's term, which both read, against that rung's bond matrix
            for r in range(1, L + 1):
                bond = bond_matrix(basis, [(2 * r - 2, 2 * r - 1)])
                assert abs(rung_correlator(psi, r) - psi.amps @ (bond @ psi.amps)) <= 1e-12


def test_su2_relations_on_ground_state():
    psi = ground_state(6, 0.15)
    rho = reduced_density_matrix(psi, (0, 1))
    p = rung_rdm_params(rho)
    assert abs(p.uPlus - p.uMinus) <= 1e-9
    assert abs(p.w1 - p.w2) <= 1e-9
    assert abs(p.uPlus - (1.0 + 2.0 * p.z) / 4.0) <= 1e-9
    assert rung_entropy_from_z(p.z) == pytest.approx(von_neumann_entropy(rho), abs=1e-9)
    assert rung_correlator(psi, 1) == pytest.approx(1.5 * p.z, abs=1e-10)


@PROPERTY_SETTINGS
@given(ladder_and_block())
@example((6, 0.2, "periodic", 0, (3, 11, 10, 5, 8, 6, 0)))
@example((6, 0.2, "periodic", 0, (5, 9, 6, 2, 10, 4, 11, 8, 0)))
@example((6, 0.2, "periodic", 0, (4, 0, 1, 2, 9, 7, 10)))
@example((6, 0.2, "periodic", 0, (7,)))
@example((6, 0.2, "periodic", 0, (3, 1, 5, 11, 7, 9, 4)))
# a shuffled block at the RDM_MAX_SITES = 14 cap, the widest pattern a
# uint16 holds (dim 120)
@example((8, 0.3, "periodic", 12, (13, 2, 9, 0, 15, 6, 11, 4, 1, 14, 7, 3, 12, 10)))
def test_complement_symmetry(case):
    L, theta, bc, twoSz, sites = case
    psi = ground_state(L, theta, bc, twoSz)
    rest = tuple(s for s in range(2 * L) if s not in sites)
    ea = von_neumann_entropy(reduced_density_matrix(psi, sites))
    eb = von_neumann_entropy(reduced_density_matrix(psi, rest))
    assert abs(ea - eb) <= 1e-10
