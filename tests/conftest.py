"""Shared solver helpers; results are cached so test modules can reuse the
same ground states without re-running Lanczos."""

import functools
import math

from ringladder import (
    HamiltonianAction,
    LadderSpec,
    LadderTables,
    StateVector,
    build_sector,
    couplings_from_theta,
    lowest_eigenpairs,
)


@functools.lru_cache(maxsize=None)
def geometry(L, bc="periodic", twoSz=0):
    """(spec, basis, tables) for one sector, built once per session."""
    spec = LadderSpec(L=L, bc=bc)
    basis = build_sector(spec.N, twoSz)
    return spec, basis, LadderTables(spec, basis)


@functools.lru_cache(maxsize=None)
def solve(L, theta_over_pi, bc="periodic", twoSz=0, k=2, seed=0):
    """Lowest eigenpairs at one coupling point, cached."""
    _, basis, tables = geometry(L, bc, twoSz)
    action = HamiltonianAction(tables, couplings_from_theta(theta_over_pi * math.pi))
    return lowest_eigenpairs(action.matvec, basis.dim, k=min(k, basis.dim), seed=seed)


def ground_state(L, theta_over_pi, bc="periodic", twoSz=0, seed=0) -> StateVector:
    _, basis, _ = geometry(L, bc, twoSz)
    res = solve(L, theta_over_pi, bc, twoSz, seed=seed)
    return StateVector(basis, res.vectors[:, 0])
