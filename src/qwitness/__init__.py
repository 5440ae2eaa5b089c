"""Commutator-based quantumness of state pairs and quantum-correlation detection.

Q(rho_a, rho_b) = 2 ||[rho_a, rho_b]||^2 (squared Hilbert-Schmidt norm)
vanishes exactly when two density matrices commute. The package computes Q
three ways (direct norm, trace formula, simulated swap-cascade
interference), exposes the matching witness observables, and detects
quantum correlations of bipartite states by maximizing Q over conditional
states steered by local measurements.
"""

from .correlations import (
    BipartiteState,
    ConditionalState,
    CqSpec,
    DiscordReport,
    MeasurementAngles,
    OptimizerConfig,
    PovmElement,
    ZeroProbabilityError,
    build_cq_state,
    conditional_state,
    correlation_witness,
    epr_state,
    maximize_witness,
    projector_pair,
    separable_example_state,
)
from .interferometer import (
    FringeData,
    InterferometerSpec,
    PermutationUnitary,
    VisibilityEstimate,
    build_u1,
    build_u2,
    compose_permutations,
    default_phase_grid,
    extract_visibility,
    generalized_swap,
    interferometric_quantumness,
    permutation_expectation,
    run_interferometer,
)
from .qcore import (
    DensityMatrix,
    LayoutError,
    RandomSpec,
    RegisterLayout,
    StateValidationError,
    commutator_hs,
    conjugate_by_unitary,
    partial_trace,
    pure_state,
    random_density,
    tensor_product,
)
from .witness import WitnessResult, quantumness, witness_observables

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "ConditionalState",
    "CqSpec",
    "DensityMatrix",
    "DiscordReport",
    "FringeData",
    "InterferometerSpec",
    "LayoutError",
    "MeasurementAngles",
    "OptimizerConfig",
    "PermutationUnitary",
    "PovmElement",
    "RandomSpec",
    "RegisterLayout",
    "StateValidationError",
    "VisibilityEstimate",
    "WitnessResult",
    "ZeroProbabilityError",
    "build_cq_state",
    "build_u1",
    "build_u2",
    "commutator_hs",
    "compose_permutations",
    "conditional_state",
    "conjugate_by_unitary",
    "correlation_witness",
    "default_phase_grid",
    "epr_state",
    "extract_visibility",
    "generalized_swap",
    "interferometric_quantumness",
    "maximize_witness",
    "partial_trace",
    "permutation_expectation",
    "projector_pair",
    "pure_state",
    "quantumness",
    "random_density",
    "run_interferometer",
    "separable_example_state",
    "tensor_product",
    "witness_observables",
]
