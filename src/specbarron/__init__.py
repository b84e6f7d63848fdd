"""Spectral Barron spaces of operators on finite phase spaces.

Builds finite abelian phase spaces and their clock-and-shift Weyl
unitaries, transforms operators to functions on phase space and back,
evaluates Barron / Sobolev / Schatten norms, applies diagonal
transformers (powers, Laplacian, resolvents), and solves the
Schrodinger-type operator equation (I - Laplacian + V) S = T by certified
Anderson-accelerated fixed-point iteration with a dense direct solve as
cross-check.
"""

from .errors import (
    DimensionMismatchError,
    GroupMismatchError,
    NonFiniteInputError,
    NotAContractionError,
    SingularSystemError,
)
from .oracles import (
    PROPERTY_NAMES,
    RandomSpec,
    SplitMix64,
    SuiteReport,
    b0_norm,
    random_operator,
    run_property_suite,
)
from .phase_space import Group, PhasePoint, make_group, symmetric_residue
from .qft import PhaseFunction, iqft, qft, qft_fast, qft_naive, twisted_convolution
from .solver import (
    SolveConfig,
    SolveResult,
    contraction_factor,
    equation_matrix,
    solve_direct,
    solve_fixed_point,
)
from .spaces import (
    NormReport,
    PeetreCheck,
    WeightFunction,
    barron_norm,
    gamma_euclid,
    operator_norm,
    peetre_check,
    schatten_norm,
    sobolev_norm,
)
from .transformers import (
    DiagonalTransformer,
    IsometryPair,
    apply,
    custom,
    inverse,
    laplacian,
    q_isometry_pair,
    q_power,
    resolvent,
    resolvent_apply,
)
from .weyl import WeylSystem, weyl_stack

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "GroupMismatchError",
    "NonFiniteInputError",
    "NotAContractionError",
    "SingularSystemError",
    "PROPERTY_NAMES",
    "RandomSpec",
    "SplitMix64",
    "SuiteReport",
    "b0_norm",
    "random_operator",
    "run_property_suite",
    "Group",
    "PhasePoint",
    "make_group",
    "symmetric_residue",
    "PhaseFunction",
    "iqft",
    "qft",
    "qft_fast",
    "qft_naive",
    "twisted_convolution",
    "SolveConfig",
    "SolveResult",
    "contraction_factor",
    "equation_matrix",
    "solve_direct",
    "solve_fixed_point",
    "NormReport",
    "PeetreCheck",
    "WeightFunction",
    "barron_norm",
    "gamma_euclid",
    "operator_norm",
    "peetre_check",
    "schatten_norm",
    "sobolev_norm",
    "DiagonalTransformer",
    "IsometryPair",
    "apply",
    "custom",
    "inverse",
    "laplacian",
    "q_isometry_pair",
    "q_power",
    "resolvent",
    "resolvent_apply",
    "WeylSystem",
    "weyl_stack",
    "__version__",
]
