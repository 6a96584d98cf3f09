"""Minimum-error quantum state discrimination.

Solvers for two states in any dimension and for arbitrary qubit
ensembles, KKT certificates for candidate solutions in any dimension,
equivalence classes of ensembles through symmetry-operator spectra, and
generators that construct ensembles from a prescribed symmetry operator.
"""

from .bloch import (
    ShiftedBallResult,
    from_bloch,
    shifted_ball_dual,
    to_bloch,
)
from .certify import (
    KktCertificate,
    ProbabilityForms,
    equivalence_check,
    probability_forms,
    verify_kkt,
    verify_legacy_conditions,
)
from .errors import (
    ConvergenceError,
    DiscriminationError,
    InfeasibleDualError,
    UnsupportedInstanceError,
)
from .factory import (
    FactoryOutput,
    SteeringMeasurement,
    generate_from_symmetry_operator,
    generate_qubit_class_element,
    identity_class_example,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    PureBipartiteState,
    SpectralDecomposition,
    hermitian_eigen,
    is_psd,
    partial_trace,
    purify,
    trace_norm,
)
from .oracle import (
    ConditionalTable,
    conditional_table_from_povm,
    distance_from_uniform,
    dual_grid_oracle,
    guessing_from_table,
    random_ensemble,
)
from .solve import (
    ComplementarySet,
    DiscriminationSolution,
    WeightedEnsemble,
    complementary_states,
    helstrom_two_state,
    reconstruct_povm,
    solve,
    solve_qubit,
)

__all__ = [
    "ComplementarySet",
    "ConditionalTable",
    "ConvergenceError",
    "DensityOperator",
    "DiscriminationError",
    "DiscriminationSolution",
    "FactoryOutput",
    "HermitianOperator",
    "InfeasibleDualError",
    "KktCertificate",
    "ProbabilityForms",
    "PureBipartiteState",
    "ShiftedBallResult",
    "SpectralDecomposition",
    "SteeringMeasurement",
    "UnsupportedInstanceError",
    "WeightedEnsemble",
    "complementary_states",
    "conditional_table_from_povm",
    "distance_from_uniform",
    "dual_grid_oracle",
    "equivalence_check",
    "from_bloch",
    "generate_from_symmetry_operator",
    "generate_qubit_class_element",
    "guessing_from_table",
    "helstrom_two_state",
    "hermitian_eigen",
    "identity_class_example",
    "is_psd",
    "partial_trace",
    "probability_forms",
    "purify",
    "random_ensemble",
    "reconstruct_povm",
    "shifted_ball_dual",
    "solve",
    "solve_qubit",
    "to_bloch",
    "trace_norm",
    "verify_kkt",
    "verify_legacy_conditions",
]

__version__ = "0.1.0"
