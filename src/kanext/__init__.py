"""Optimal extensions of resource monotones along maps between theories."""

from .prob import (
    INF,
    Dist,
    DimensionMismatch,
    ExtValue,
    InvariantViolation,
    LorenzCurve,
    StochMatrix,
    apply,
    is_deterministic,
    is_uniform_matrix,
    kl_divergence,
    lorenz_curve,
    majorizes,
    shannon_entropy,
    simplex_grid,
)
from .lp import (
    FeasResult,
    LpFeasibility,
    exists_deterministic_map,
    exists_joint_stochastic_map,
    exists_uniform_map,
    solve_feasibility,
)
from .quantum import (
    BipartitePure,
    DensityMatrix,
    KrausChannel,
    Spectrum,
    apply_channel,
    eig_hermitian,
    embed_classical,
    embed_stochastic,
    is_unital,
    locc_convertible_pure,
    measurement_entropy_search,
    partial_trace,
    preparation_entropy,
    schmidt_coefficients,
    schmidt_rank,
    spectral_entropy,
)
from .pcat import (
    CONTRAVARIANT,
    COVARIANT,
    Decision,
    MonotoneSpec,
    PreorderRelation,
    ReachabilityOracle,
    ResourceRef,
    check_monotone,
    preorder_collapse,
)
from .kan import (
    ExtensionProblem,
    ExtensionResult,
    FunctorMap,
    extension,
    verify_monotonicity,
    verify_optimality_bruteforce,
    verify_reduction,
)
from .theories import default_registry, make_functor, make_monotone

__version__ = "0.1.0"
