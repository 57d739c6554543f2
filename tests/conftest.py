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
    sweep,
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


def traced_point(monkeypatch, solver, theta_over_pi):
    """solver.point(theta_over_pi), the ground manifold it measured (the
    states read into its first RDM, the rung pair's) and the positions in
    solver.tables of the sectors it left unsolved (those no exact solve
    read)."""
    rdms, solved = [], []
    rdm, solve = sweep.reduced_density_matrix, sweep.lowest_eigenpairs

    def reading(psi, layout):
        rdms.append((psi, layout))
        return rdm(psi, layout)

    def solving(applyH, dim, k, **kwargs):
        solved.append(applyH.__self__.tables)
        return solve(applyH, dim, k, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(sweep, "reduced_density_matrix", reading)
        m.setattr(sweep, "lowest_eigenpairs", solving)
        rec = solver.point(theta_over_pi)
    states = [psi for psi, layout in rdms if layout is rdms[0][1]]
    screened = [i for i, t in enumerate(solver.tables) if all(t is not s for s in solved)]
    assert len(states) == rec.diagnostics["g"]
    assert len(screened) == rec.diagnostics["screened"]
    return rec, states, screened
