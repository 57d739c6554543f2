"""Exact diagonalization and entanglement analysis for the two-leg spin-1/2
ladder with four-spin ring exchange on the Jl = Jr = cos(theta), K = sin(theta)
coupling circle."""

from .basis import SectorBasis, SymmetrySector, build_sector, symmetry_sectors
from .eigensolver import (
    EigenResult,
    EigensolverError,
    dense_oracle,
    lowest_eigenpairs,
)
from .entanglement import (
    BlockLayout,
    DensityMatrix,
    RungRdmParams,
    concurrence,
    expectation_T,
    reduced_density_matrix,
    rung_correlator,
    rung_entropy_from_z,
    rung_rdm_params,
    von_neumann_entropy,
)
from .ferromagnet import (
    FmSpectrum,
    fm_block_spectrum,
    fm_entropy,
    fm_entropy_asymptotic,
    fm_pair_concurrence,
    fm_state,
)
from .hamiltonian import (
    HamiltonianAction,
    LadderTables,
    StateVector,
    apply_ring_decomposed,
    apply_ring_permutation,
    bond_matrix,
    ring_matrix,
)
from .lattice import (
    Couplings,
    LadderSpec,
    Plaquette,
    couplings_from_theta,
    enumerate_terms,
)
from .sweep import (
    BlockSpec,
    LadderSolver,
    SweepConfig,
    SweepRecord,
    block_sites,
    find_extrema,
    find_zero_crossing,
    run_sweep,
    theta_grid,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Couplings",
    "LadderSpec",
    "Plaquette",
    "couplings_from_theta",
    "enumerate_terms",
    "SectorBasis",
    "build_sector",
    "SymmetrySector",
    "symmetry_sectors",
    "StateVector",
    "LadderTables",
    "HamiltonianAction",
    "bond_matrix",
    "ring_matrix",
    "apply_ring_permutation",
    "apply_ring_decomposed",
    "EigenResult",
    "EigensolverError",
    "lowest_eigenpairs",
    "dense_oracle",
    "BlockLayout",
    "DensityMatrix",
    "RungRdmParams",
    "reduced_density_matrix",
    "von_neumann_entropy",
    "concurrence",
    "rung_rdm_params",
    "rung_entropy_from_z",
    "rung_correlator",
    "expectation_T",
    "FmSpectrum",
    "fm_state",
    "fm_block_spectrum",
    "fm_entropy",
    "fm_entropy_asymptotic",
    "fm_pair_concurrence",
    "BlockSpec",
    "LadderSolver",
    "SweepConfig",
    "SweepRecord",
    "block_sites",
    "theta_grid",
    "run_sweep",
    "write_csv",
    "find_zero_crossing",
    "find_extrema",
    "__version__",
]
