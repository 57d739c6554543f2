"""First steps: build a ladder, diagonalize one coupling point, look around.

The model lives on a two-leg ladder of L rungs.  One angle theta sets all
couplings at once: bilinear exchange J = cos(theta) on rungs and legs,
ring exchange K = sin(theta) on the plaquettes.  Everything below runs in
well under a second.
"""

import math

import numpy as np

from ringladder import (
    HamiltonianAction,
    LadderSpec,
    LadderTables,
    StateVector,
    build_sector,
    couplings_from_theta,
    dense_oracle,
    expectation_T,
    lowest_eigenpairs,
    reduced_density_matrix,
    rung_rdm_params,
    von_neumann_entropy,
)


def solve_point(L, theta_over_pi, k=2):
    spec = LadderSpec(L=L, bc="periodic")
    basis = build_sector(spec.N, 0)
    tables = LadderTables(spec, basis)
    action = HamiltonianAction(tables, couplings_from_theta(theta_over_pi * math.pi))
    return spec, basis, action, lowest_eigenpairs(action.matvec, basis.dim, k=k)


def main():
    L, t = 6, 0.10
    spec, basis, action, res = solve_point(L, t)
    print(f"ladder: {L} rungs periodic, {spec.N} sites, sector dim {basis.dim}")
    print(f"theta = {t}*pi")
    print(f"E0 = {res.energies[0]:.12f}")
    print(f"gap = {res.energies[1] - res.energies[0]:.6f}  multiplicity: {res.multiplicity}")
    print(f"residual norms: {[f'{r:.2e}' for r in res.residuals]}")

    psi = StateVector(basis, res.vectors[:, 0])
    rho = reduced_density_matrix(psi, (0, 1))  # the first rung
    p = rung_rdm_params(rho)
    print()
    print("first-rung reduced density matrix:")
    print(np.array_str(rho.rho, precision=6, suppress_small=True))
    print(f"populations u+={p.uPlus:.6f} u-={p.uMinus:.6f} w1={p.w1:.6f} w2={p.w2:.6f}")
    print(f"coherence   z = {p.z:.6f}")
    print(f"rung entropy   {von_neumann_entropy(rho):.6f} bits")
    print(f"<sum_i S1i.S2i> = {expectation_T(psi):.6f}")

    # cross-check the Krylov energy against full diagonalization at a size
    # where that is still cheap
    _, basis3, action3, res3 = solve_point(3, t)
    e_dense = dense_oracle(action3.matvec, basis3.dim)[0]
    print()
    print(f"L=3 check: Krylov {res3.energies[0]:.12f} vs dense {e_dense:.12f}")


if __name__ == "__main__":
    main()
