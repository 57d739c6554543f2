"""Lowest eigenpairs of the matrix-free Hamiltonian.

Exact solves run ARPACK's implicitly restarted Lanczos to machine precision
on a LinearOperator whose matvec is the counted action itself, from a
deterministic seeded start vector, under one residual contract
(RESIDUAL_RTOL) checked on every returned pair; a dense brute-force oracle
serves small sectors.  A loose pass of a plain
three-term Lanczos recurrence from the same start vector, tested where
ARPACK would test it, gives a cheap bound that lies within its residual of
an eigenvalue of a sector, taken to be the lowest.  Each of its steps is
one matvec and a few in-place BLAS level-1 calls (ddot, daxpy, dnrm2), and
each test takes the lowest Ritz pair from LAPACK's dstebz and dstein.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.blas import daxpy, ddot, dnrm2
from scipy.linalg.lapack import dstebz, dstein

__all__ = ["EigenResult", "EigensolverError", "lowest_eigenpairs", "dense_oracle"]

DENSE_ORACLE_MAX_DIM = 4096

# an operator is diagonalized densely up to this dimension, from its matrix
# or from its action on the unit vectors: a 48-state sector took 0.2 ms by
# dense eigh and 2 ms by Lanczos at k = 1.  On one thread dense eigh won up
# to about 250 states, but from about 100 states LAPACK runs multithreaded
# BLAS kernels, and four sweep workers on two cores then took 11.1 s over
# the 41-point L = 8 grid with the bound at 250, against 4.4 s at 64
DENSE_MAX_DIM = 64

# Lanczos vectors of an exact solve up to k = 5, and the step of the loose
# pass's first convergence check.  With a single sparse product per matvec,
# ARPACK's reorthogonalisation against the ncv vectors weighs as much as the
# matvec, so the space is kept small: at L = 10, ncv = 40 needed 13 % fewer
# matvecs than ncv = 24 but took 5-9 % longer
NCV = 24

# the loose pass gives up, and bounds nothing, after this many steps: over
# 11,200 periodic L = 8 passes (theta/pi -1..0.98 step 0.02, seeds 0-3) and
# 640 at L = 10 (-1..0.9 step 0.1) the longest took 72
RITZ_MAX_STEPS = 5 * NCV

# relative tolerance of ritz_bound's loose pass: at L = 10 it takes about
# a third of the matvecs of a k = 1 solve to machine precision, and the
# bound it gives lies above E_g in 30 of the 32 symmetry sectors
SCREEN_TOL = 1e-3

# levels closer than this, relative to max(1, |E0|), to E0 count as ground states
DEGENERACY_RTOL = 1e-8

# every returned pair has ||H v - E v|| within this, relative to max(1, |E|)
RESIDUAL_RTOL = 1e-12


def ground_band(E0: float) -> float:
    """Width of the ground band: a level E with E - E0 below it is a ground state."""
    return DEGENERACY_RTOL * max(1.0, abs(E0))


class EigensolverError(RuntimeError):
    """Raised when the iteration fails to meet the residual contract."""


@dataclass
class EigenResult:
    """k lowest eigenpairs: ascending energies, column eigenvectors,
    verified residual norms, the ground-state multiplicity (how many of the
    k levels lie within ground_band(E0) of E0, so at most k)
    and the number of operator applications the solve made, residual checks
    included."""

    energies: np.ndarray
    vectors: np.ndarray  # shape (dim, k), unit columns
    residuals: np.ndarray
    multiplicity: int
    matvecs: int


def _canonical_sign(vectors: np.ndarray) -> np.ndarray:
    # fix each column's overall sign so runs are bitwise comparable
    for col in range(vectors.shape[1]):
        lead = np.argmax(np.abs(vectors[:, col]))
        if vectors[lead, col] < 0:
            vectors[:, col] = -vectors[:, col]
    return vectors


def _materialize(mv, dim: int) -> np.ndarray:
    H = np.empty((dim, dim))
    e = np.zeros(dim)
    for j in range(dim):
        e[j] = 1.0
        H[:, j] = mv(e)
        e[j] = 0.0
    return H


def _start_vector(dim: int, seed: int) -> np.ndarray:
    """The unit start vector of every Lanczos run on a dim-state operator."""
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
    return v0 / np.linalg.norm(v0)


def lowest_eigenpairs(applyH, dim: int, k: int = 2, seed: int = 0,
                      matrix=None) -> EigenResult:
    """k lowest eigenpairs of a symmetric operator given by its action.

    applyH is a callable v -> H v on length-dim arrays; matrix, when given,
    is the same operator as a dense or scipy sparse matrix.  The dense route
    takes dim <= max(DENSE_MAX_DIM, 4 k + 4); it reads matrix when given and
    applies applyH to every unit vector when not.  Lanczos takes the rest.
    Deterministic for a fixed seed.  Each returned pair satisfies
    ||H v - E v|| <= RESIDUAL_RTOL * max(1, |E|), checked through applyH; a
    pair outside it raises EigensolverError naming its residual, and so
    does failure to converge, with the best residual reached.
    """
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    matvecs = 0

    def counted(v):
        nonlocal matvecs
        matvecs += 1
        return applyH(v)

    if dim <= max(DENSE_MAX_DIM, 4 * k + 4):
        # small sector: dense solve is cheaper and has no iteration to tune
        if matrix is None:
            H = _materialize(counted, dim)
        else:
            H = matrix.toarray() if scipy.sparse.issparse(matrix) else np.asarray(matrix)
        energies, vectors = scipy.linalg.eigh(H, subset_by_index=[0, k - 1])
    else:
        op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=counted,
                                                dtype=np.float64)
        op.matvec = counted  # ARPACK calls op.matvec: skip its shape checks
        try:
            energies, vectors = scipy.sparse.linalg.eigsh(
                op, k=k, which="SA", v0=_start_vector(dim, seed),
                ncv=min(dim, max(NCV, 4 * k + 2)), tol=0,
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            got = len(exc.eigenvalues)
            best = np.inf
            if got:
                vecs, vals = exc.eigenvectors, exc.eigenvalues
                r = [
                    np.linalg.norm(counted(vecs[:, c]) - vals[c] * vecs[:, c])
                    for c in range(got)
                ]
                best = float(min(r))
            raise EigensolverError(
                f"Lanczos did not converge: {got}/{k} pairs, best residual {best:.3e}"
            ) from exc
        order = np.argsort(energies)
        energies, vectors = energies[order], vectors[:, order]

    vectors = _canonical_sign(np.ascontiguousarray(vectors))
    residuals = np.array(
        [
            np.linalg.norm(counted(vectors[:, c]) - energies[c] * vectors[:, c])
            for c in range(k)
        ]
    )
    bound = RESIDUAL_RTOL * np.maximum(1.0, np.abs(energies))
    if np.any(residuals > bound):
        worst = int(np.argmax(residuals - bound))
        raise EigensolverError(
            f"residual contract violated: pair {worst} has "
            f"||Hv - Ev|| = {residuals[worst]:.3e} > {bound[worst]:.3e}"
        )
    return EigenResult(
        energies=energies,
        vectors=vectors,
        residuals=residuals,
        multiplicity=int(np.count_nonzero(energies - energies[0] < ground_band(energies[0]))),
        matvecs=matvecs,
    )


def _lowest_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray]:
    """The lowest eigenpair of the tridiagonal matrix with diagonal d and
    off-diagonal e, as eigh_tridiagonal(d, e, select="i",
    select_range=(0, 0)) gives it, from the dstebz and dstein it calls,
    without its input checks."""
    if len(d) == 1:
        return float(d[0]), np.ones(1)
    # range 2: by index, il = iu = 1; tolerance 0; block order, for dstein
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        z, info = dstein(d, e, w[:m], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"dstebz/dstein failed with info = {info}")
    return float(w[0]), z[:, 0]


def ritz_bound(applyH, dim: int, seed: int = 0) -> tuple[float, int]:
    """theta - ||H x - theta x|| for the lowest Ritz pair (theta, x) of one
    loose Lanczos pass, and the matvecs it took, the residual's included.

    The pass is a three-term Lanczos recurrence, without reorthogonalisation,
    from the start vector of lowest_eigenpairs.  It keeps its Lanczos
    vectors, in blocks of NCV // 2, only to form x.  A step makes one
    matvec w = applyH(v), which it then updates in place, so applyH must
    return a new array: alpha = v.w / v.v, w -= alpha v + beta_prev v_prev
    (daxpy), beta = ||w|| (dnrm2), and the next v = w / beta is written
    straight into its row of the block.  It tests ARPACK's criterion
    beta_m |s_m| <= SCREEN_TOL max(eps^(2/3), |theta|), s the lowest
    eigenvector of the m-step tridiagonal matrix from LAPACK's dstebz and
    dstein, where a k = 1 ARPACK pass with ncv = NCV tests it: after
    min(NCV, dim) steps, then every NCV // 2.  At each test its Krylov space
    K_m(H, v0) holds the space of ARPACK's restarted pass after the same
    matvecs, and the first test sees ARPACK's first cycle.  It stops as
    converged when beta is 0, and after RITZ_MAX_STEPS steps it bounds
    nothing and gives -inf.

    x is normalized, so some eigenvalue lies within ||H x - theta x|| of
    theta whatever orthogonality the recurrence has lost: the bound lies at
    or below *an* eigenvalue.  That this is the lowest one rests, as for
    lowest_eigenpairs, on the Krylov space of one seeded start vector.  With
    two close low levels that eigenvalue can be the second: at periodic
    L = 8, twoSz = 0, theta = 0.12 pi the 392-state sector k1 Q-1 Z+1 has
    levels -7.41232773 and -7.41194654, and the bound at seed 1 lies
    between them.
    """
    eps23 = np.finfo(np.float64).eps ** (2 / 3)
    rows, steps = NCV // 2, RITZ_MAX_STEPS
    blocks = [np.empty((rows, dim))]
    blocks[0][0] = _start_vector(dim, seed)
    alpha, beta = np.empty(steps), np.empty(steps)
    check, prev = min(NCV, dim), None
    for step in range(steps):
        v = blocks[-1][step % rows]
        w = applyH(v)
        # v's Rayleigh quotient, over the v v that rounding leaves off 1, so
        # that H v = 2 v gives alpha = 2 and beta = 0 exactly
        alpha[step] = ddot(v, w) / ddot(v, v)
        w = daxpy(v, w, a=-alpha[step])
        if prev is not None:
            w = daxpy(prev, w, a=-beta[step - 1])
        beta[step] = dnrm2(w)
        m = step + 1
        if beta[step] == 0 or m == check:
            theta, s = _lowest_tridiagonal(alpha[:m], beta[:step])
            if beta[step] * abs(s[-1]) <= SCREEN_TOL * max(eps23, abs(theta)):
                break
            check += rows
        if m == steps:
            return -np.inf, steps
        if m % rows == 0:
            blocks.append(np.empty((rows, dim)))
        prev = v
        np.divide(w, beta[step], out=blocks[-1][m % rows])
    x = np.zeros(dim)
    for b, block in enumerate(blocks):
        part = s[b * rows:(b + 1) * rows]
        x += block[:len(part)].T @ part
    x /= np.linalg.norm(x)
    return float(theta - np.linalg.norm(applyH(x) - theta * x)), m + 1


def dense_oracle(applyH, dim: int) -> np.ndarray:
    """Full spectrum by materializing the operator column by column.

    applyH is a callable v -> H v on length-dim arrays.  Brute-force
    cross-check for small sectors; refuses dim > 4096.
    """
    if dim > DENSE_ORACLE_MAX_DIM:
        raise ValueError(f"dense oracle capped at dim {DENSE_ORACLE_MAX_DIM}, got {dim}")
    H = _materialize(applyH, dim)
    asym = np.max(np.abs(H - H.T))
    if asym > 1e-10 * max(1.0, np.max(np.abs(H))):
        raise ValueError(f"operator is not symmetric (max asymmetry {asym:.3e})")
    return scipy.linalg.eigvalsh(H)
