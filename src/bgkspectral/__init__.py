"""Spectral analysis of a one-dimensional BGK-type kinetic equation whose
collision frequency depends affinely on molecular speed.

The package builds the model from its conservation laws, evaluates the
Cauchy-type moment integrals and the 3x3 dispersion matrix/function,
verifies the spectral picture (continuous spectrum on (-alpha, alpha),
a fourth-order discrete point at infinity), assembles the general
solution from discrete and continuum eigenfunctions, and provides both
closed-form limits (constant frequency; frequency proportional to speed)
as user-facing features and internal oracles.
"""

from .errors import (
    DomainError,
    EvaluationError,
    IllConditionedContourError,
    WrongRegionError,
)
from .params import (
    GasParams,
    kernel_q_c,
    make_params,
    mu_of,
    velocity_map,
)
from .quadrature import (
    QuadratureScheme,
    integrate_pv,
    integrate_weighted,
    make_scheme,
    pv_interval,
)
from .moments import tn_boundary_array, tn_offcut_array, tn_pv_array
from .dispersion import (
    SokhotskyJump,
    count_zeros,
    keyhole_contour,
    lambda_boundary,
    lambda_fn,
    lambda_matrix,
    lambda_pv,
    laurent_order_at_infinity,
    semicircle_contour,
    sokhotsky_jump,
)
from .spectrum import (
    EigenData,
    SpectralExpansion,
    apply_expansion,
    discrete_solution,
    discrete_solution_dx,
    eigen_data,
    eigenfunction_regular,
    normalization_check,
    residual_2_4,
)
from .limits import (
    FM_DECAY_RATE,
    FM_DECAY_RATE_QUOTED,
    FreeMolecularSolution,
    fm_general_solution,
    fm_kernel,
    fm_project_system,
    fm_residual,
    lambda_a0,
    lambda_a0_boundary,
    lambda_a0_pv,
    lambda_c,
    lambda_c_boundary,
    lambda_c_pv,
)

__all__ = [
    "DomainError", "EvaluationError", "IllConditionedContourError",
    "WrongRegionError",
    "GasParams", "make_params", "velocity_map", "mu_of",
    "kernel_q_c",
    "QuadratureScheme", "make_scheme", "integrate_weighted", "integrate_pv",
    "pv_interval",
    "tn_offcut_array", "tn_pv_array", "tn_boundary_array",
    "SokhotskyJump", "lambda_matrix", "lambda_fn", "lambda_pv", "lambda_boundary",
    "sokhotsky_jump", "count_zeros", "laurent_order_at_infinity",
    "keyhole_contour", "semicircle_contour",
    "EigenData", "SpectralExpansion", "eigen_data", "discrete_solution",
    "discrete_solution_dx", "eigenfunction_regular", "apply_expansion",
    "residual_2_4", "normalization_check",
    "FM_DECAY_RATE", "FM_DECAY_RATE_QUOTED", "FreeMolecularSolution",
    "fm_kernel", "fm_project_system", "fm_general_solution",
    "fm_residual", "lambda_c", "lambda_c_pv", "lambda_c_boundary",
    "lambda_a0", "lambda_a0_pv", "lambda_a0_boundary",
]

__version__ = "0.1.0"
