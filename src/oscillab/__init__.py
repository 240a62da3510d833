"""Desk-scale numerics for oscillation, weights, and rough-kernel operators.

Everything lives on small uniform grids in one or two dimensions: function
space norms with their associates, Muckenhoupt-type constants over cube
families, maximal / fractional / singular operators with commutators, mean
oscillation seminorms, and a step-by-step verifier for the lower bound chain
that squeezes a symbol's oscillation between commutator norms.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:  # a report's bytes depend on the BLAS thread count; a caller's count wins
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .errors import (
    AlphaOutOfRange,
    BadDelta,
    ConfigError,
    ConjugateUndefined,
    ConvergenceFailure,
    DivisionByZeroNorm,
    EmptyCube,
    GridMismatch,
    KernelVanishes,
    MeanZeroViolation,
    NonFiniteValues,
    NonPositiveWeight,
    OscillabError,
    OutOfDomain,
    ResolutionTooCoarse,
    TailTooLarge,
    UncoveredPoint,
)
from .grid import (
    Cube,
    CubeFamily,
    FamilySup,
    Grid,
    GridFunction,
    centered_family,
    cube_slices,
    enumerate_dyadic,
    indicator,
    on_block,
    trend_verdict,
)
from .spaces import (
    Lebesgue,
    SpaceSpec,
    Variable,
    Weighted,
    associate,
    chiQ_norm_ratio,
    chi_norm,
    chi_norms,
    condition_bilinear,
    condition_linear,
    conjugate_exponent,
    duality_gap,
    holder_defect,
    luxemburg_norm,
    norm,
)
from .weights import ap_constant, ap_duality_gap, apq_constant
from .operators import (
    KernelSpec,
    OperatorHandle,
    averaging,
    bilinear_averaging,
    bilinear_fractional_integral,
    bilinear_maximal,
    bilinear_singular_integral,
    commutator,
    distance_kernel,
    fractional_integral,
    maximal,
    singular_integral,
)
from .bmo import bmo_seminorm
from .extraction import (
    ChainCube,
    ExtractionGeometry,
    FourierExpansion,
    build_test_functions,
    fourier_reciprocal,
    necessity_experiment,
    select_geometry,
    verify_master_chain,
)

__all__ = [name for name in dir() if not name.startswith("_")]
