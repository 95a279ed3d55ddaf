"""Bayesian uncertainty quantification for image structures.

Tests whether a structure seen in a MAP reconstruction is supported by
the data: a conservative credible region is confronted with the convex
set of structure-free images, and the (normalized) distance between the
two decides the hypothesis.
"""

from .credible_region import (
    CredibleRegion,
    build_region,
    compute_epsilon_bound,
    compute_tau_alpha,
)
from .engine import (
    BuqoError,
    RunSettings,
    TestOutcome,
    compute_rho,
    decide,
    run_buqo,
    run_fb_distance,
    run_pocs,
)
from .map_solver import MapProblem, SolverDiagnostics, compute_lambda, solve_map
from .operators import (
    LinearMap,
    PixelMask,
    SamplingPattern,
    build_inpainting,
    db8_analysis,
    dot_test,
    mask_select,
    masked_dft,
    multicoil_map,
    op_norm,
    residual_map,
)
from .prox import (
    IntervalBox,
    L1Levelset,
    L2Ball,
    project_box,
    project_l1_levelset,
    project_l2_ball,
)
from .sim import (
    ExperimentSpec,
    GridReport,
    add_noise,
    cartesian_pattern,
    coil_sensitivities,
    gaussian_random_pattern,
    make_phantom,
    run_grid,
)
from .structure_sets import (
    BackgroundSet,
    LocalizedSet,
    StructureSet,
    background_mask,
    build_background_set,
    build_localized_set,
    project_background,
)

__version__ = "0.1.0"
