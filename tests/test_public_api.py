"""The package's public surface: the names the CLI and the paper need."""

import os
import subprocess
import sys

import bgkspectral

PUBLIC = [
    "DomainError", "EigenData", "EvaluationError", "FM_DECAY_RATE",
    "FM_DECAY_RATE_QUOTED", "FreeMolecularSolution", "GasParams",
    "IllConditionedContourError", "MomentSet", "QuadratureScheme", "Region",
    "SokhotskyJump", "SpectralExpansion", "WrongRegionError", "apply_expansion",
    "count_zeros", "discrete_solution", "discrete_solution_dx", "eigen_data",
    "eigenfunction_regular", "fm_general_solution", "fm_kernel",
    "fm_project_system", "fm_residual", "integrate_pv", "integrate_weighted",
    "kernel_q_c", "keyhole_contour", "lambda_a0", "lambda_a0_boundary",
    "lambda_a0_pv", "lambda_boundary", "lambda_c", "lambda_c_boundary",
    "lambda_c_pv", "lambda_fn", "lambda_matrix", "lambda_pv",
    "laurent_order_at_infinity", "make_params", "make_scheme", "moments_at",
    "moments_boundary", "moments_pv", "mu_of", "normalization_check",
    "pv_interval", "residual_2_4", "semicircle_contour", "sokhotsky_jump",
    "velocity_map", "weight",
]


def test_public_names_pinned():
    assert len(PUBLIC) == 52
    assert sorted(bgkspectral.__all__) == PUBLIC


def test_public_names_unique_and_resolve():
    assert len(set(bgkspectral.__all__)) == len(bgkspectral.__all__)
    for name in bgkspectral.__all__:
        assert getattr(bgkspectral, name) is not None


def test_import_leaves_interpolation_out():
    # scipy.interpolate is imported only when a SpectralExpansion is built
    code = ("import sys, bgkspectral; "
            "sys.exit('scipy.interpolate' in sys.modules)")
    src = os.path.dirname(bgkspectral.__path__[0])
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
