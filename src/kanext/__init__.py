"""Optimal extensions of resource monotones along maps between theories."""

from .prob import (
    INF,
    Dist,
    DimensionMismatch,
    ExtValue,
    InvariantViolation,
    StochMatrix,
    kl_divergence,
    lorenz_curve,
    lorenz_csv,
    shannon_entropy,
    simplex_grid,
)
from .lp import (
    exists_deterministic_map,
    exists_joint_stochastic_map,
    exists_uniform_map,
)
from .quantum import (
    BipartitePure,
    DensityMatrix,
    Spectrum,
    eig_hermitian,
    embed_classical,
    locc_convertible_pure,
    measurement_entropy_search,
    schmidt_coefficients,
    schmidt_rank,
    spectral_entropy,
)
from .pcat import (
    CONTRAVARIANT,
    COVARIANT,
    Decision,
    MonotoneSpec,
    ReachabilityOracle,
    ResourceRef,
    preorder_collapse,
)
from .kan import (
    ExtensionProblem,
    ExtensionResult,
    FunctorMap,
    extension,
    verify_monotonicity,
    verify_optimality,
    verify_reduction,
)
from .theories import default_registry, make_functor, make_monotone

__version__ = "0.1.0"
