"""Lowest eigenpairs of the matrix-free Hamiltonian.

Krylov iteration (implicitly restarted Lanczos, to machine precision) on a
LinearOperator wrapper, with a deterministic seeded start vector, one
residual contract (RESIDUAL_RTOL) checked on every returned pair and a
dense brute-force oracle for small sectors; a loose pass of the same
iteration gives a cheap lower bound on a sector's lowest level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

__all__ = ["EigenResult", "EigensolverError", "lowest_eigenpairs", "dense_oracle"]

DENSE_ORACLE_MAX_DIM = 4096

# an operator is diagonalized densely up to this dimension, from its matrix
# or from its action on the unit vectors: a 48-state sector took 0.2 ms by
# dense eigh and 2 ms by Lanczos at k = 1.  On one thread dense eigh won up
# to about 250 states, but from about 100 states LAPACK runs multithreaded
# BLAS kernels, and four sweep workers on two cores then took 11.1 s over
# the 41-point L = 8 grid with the bound at 250, against 4.4 s at 64
DENSE_MAX_DIM = 64

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


def _lanczos(mv, dim: int, k: int, seed: int, tol: float):
    """ARPACK's k lowest pairs of the operator mv, from a seeded start vector."""
    v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
    op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=mv, dtype=np.float64)
    # with a single sparse product per matvec, ARPACK's reorthogonalisation
    # against the ncv Lanczos vectors weighs as much as the matvec, so the
    # space is kept small: at L = 10, ncv = 40 needed 13 % fewer matvecs
    # than ncv = 24 but took 5-9 % longer
    ncv = min(dim, max(24, 4 * k + 2))
    return scipy.sparse.linalg.eigsh(
        op, k=k, which="SA", v0=v0 / np.linalg.norm(v0), ncv=ncv, tol=tol
    )


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
        try:
            energies, vectors = _lanczos(counted, dim, k, seed, tol=0)
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


def ritz_bound(applyH, dim: int, seed: int = 0) -> tuple[float, int]:
    """theta - ||H v - theta v|| for the Ritz pair (theta, v) of one loose
    k = 1 Lanczos pass at tol SCREEN_TOL, and the matvecs it took, the
    residual's included.

    Some eigenvalue lies within ||H v - theta v|| of theta, so the bound
    lies at or below *an* eigenvalue; that this is the lowest one rests, as
    for lowest_eigenpairs, on the Krylov space of one seeded start vector.
    With two close low levels that eigenvalue can be the second: at
    periodic L = 8, twoSz = 0, theta = 0.12 pi the 392-state sector
    k1 Q-1 Z+1 has levels -7.41232773 and -7.41194654, and the bound at
    seed 1 is -7.41224656, above the lowest.  The start vector and ncv are
    those of lowest_eigenpairs at k = 1; a pass that does not converge
    bounds nothing and gives -inf.
    """
    matvecs = 0

    def counted(v):
        nonlocal matvecs
        matvecs += 1
        return applyH(v)

    try:
        (theta,), v = _lanczos(counted, dim, 1, seed, tol=SCREEN_TOL)
    except scipy.sparse.linalg.ArpackNoConvergence:
        return -np.inf, matvecs
    v = v[:, 0]
    return float(theta - np.linalg.norm(counted(v) - theta * v)), matvecs


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
