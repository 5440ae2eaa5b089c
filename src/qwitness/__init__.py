"""Commutator-based quantumness of state pairs and quantum-correlation detection.

Q(rho_a, rho_b) = 2 ||[rho_a, rho_b]||^2 (squared Hilbert-Schmidt norm)
vanishes exactly when two density matrices commute. The package computes Q
three ways (direct norm, trace formula, simulated swap-cascade
interference), exposes the matching witness observables, and detects
quantum correlations of bipartite states by maximizing Q over conditional
states steered by local measurements.
"""

from . import correlations, interferometer, qcore, witness
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

# Every name imported above that its module exports, and nothing else:
# a module-only name (a tolerance, a constant, a helper) is never imported.
__all__ = sorted(
    name
    for module in (correlations, interferometer, qcore, witness)
    for name in module.__all__
    if name in globals()
)
